"""Exact reference formulas that the tests compare the package against, and inputs it must reject."""

import numpy as np

from telelocal import qcore


def fidelity(chi, m) -> float:
    """<chi|M|chi> for a ket chi and an operator M."""
    chi = np.asarray(chi, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if m.shape != (chi.shape[0], chi.shape[0]):
        raise ValueError(f"operator shape {m.shape} does not match ket dimension {chi.shape[0]}")
    return float(np.vdot(chi, m @ chi).real)


def singlet_fraction_fidelity(rho) -> float:
    """Average teleportation fidelity (2F + 1)/3 of a pair whose singlet fraction is F = <psi-|rho|psi->.

    Horodecki, Horodecki & Horodecki 1999.
    """
    return (2 * fidelity(qcore.bell_basis()[0], rho) + 1) / 3


def bloch_rows(kets) -> np.ndarray:
    """Rows (1, x, y, z) of qubit kets by the formula qcore.bloch_rows must match bit for bit.

    x = 2 (ar br + ai bi), y = 2 (ar bi - ai br), z = (ar^2 + ai^2) - (br^2 + bi^2),
    each product formed as a temporary, returned as the (n, 4) transpose of (4, n) rows.
    """
    ar, ai, br, bi = np.ascontiguousarray(kets, dtype=complex).view(float).T
    x = (ar * br + ai * bi) * 2
    y = (ar * bi - ai * br) * 2
    z = (ar * ar + ai * ai) - (br * br + bi * bi)
    return np.stack([np.ones_like(x), x, y, z]).T


def non_states() -> tuple[np.ndarray, ...]:
    """Trace-one 4x4 matrices that are not density matrices.

    (1 - w)/4 I + w P_singlet at w = 1.3 is hermitian with eigenvalue
    -0.075; the second is I/4 with one off-diagonal entry, not hermitian.
    """
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    skew = np.eye(4, dtype=complex) / 4
    skew[0, 3] = 0.2
    return (1 - 1.3) / 4 * np.eye(4) + 1.3 * np.outer(singlet, singlet), skew
