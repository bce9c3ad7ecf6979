"""Exact reference formulas that the tests compare the package against, and inputs it must reject."""

import numpy as np


def fidelity(chi, m) -> float:
    """<chi|M|chi> for a ket chi and an operator M."""
    chi = np.asarray(chi, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if m.shape != (chi.shape[0], chi.shape[0]):
        raise ValueError(f"operator shape {m.shape} does not match ket dimension {chi.shape[0]}")
    return float(np.vdot(chi, m @ chi).real)


def non_states() -> tuple[np.ndarray, ...]:
    """Trace-one 4x4 matrices that are not density matrices.

    (1 - w)/4 I + w P_singlet at w = 1.3 is hermitian with eigenvalue
    -0.075; the second is I/4 with one off-diagonal entry, not hermitian.
    """
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    skew = np.eye(4, dtype=complex) / 4
    skew[0, 3] = 0.2
    return (1 - 1.3) / 4 * np.eye(4) + 1.3 * np.outer(singlet, singlet), skew
