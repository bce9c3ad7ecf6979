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
    """Rows (1, x, y, z) of qubit kets by the formula qcore.bloch_rows must match, value for value.

    x = 2 (ar br + ai bi), y = 2 (ar bi - ai br), z = (ar^2 + ai^2) - (br^2 + bi^2),
    each product formed as a temporary, returned as the (n, 4) transpose of (4, n) rows.
    """
    ar, ai, br, bi = np.ascontiguousarray(kets, dtype=complex).view(float).T
    x = (ar * br + ai * bi) * 2
    y = (ar * bi - ai * br) * 2
    z = (ar * ar + ai * ai) - (br * br + bi * bi)
    return np.stack([np.ones_like(x), x, y, z]).T


# s_k[a]: the sign of sigma_a x sigma_a in Bell state k, in the order (psi-, psi+, phi-, phi+)
BELL_SIGNS = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float)


def teleport_scores(rho, kets, draws) -> np.ndarray:
    """Per-sample scores of teleport.average_fidelity for given kets and coin draws, by the gather kernel.

    The float operations of the kernel before the affine sign map: with m~
    each ket's Bloch row (1, m) and C = R/8 the pair's Pauli correlations
    over 8, the outcome k counts the running sums of p_j = (s_j * m~) . 2 C[:, 0],
    j < 3, that lie below the draw; s_k is gathered by k, and the score is
    (s_k * m~)^T C diag(1, -1, -1, -1) (s_k * m~) over p_k.
    """
    correlations = qcore.pauli_correlations(rho) / 8
    cols = bloch_rows(kets).T
    totals = np.cumsum((2 * BELL_SIGNS[:3] * correlations[:, 0]) @ cols, axis=0)
    sent = np.take(BELL_SIGNS.T, (draws > totals).sum(axis=0), axis=1) * cols
    corrected = np.vstack([correlations * [1, -1, -1, -1], 2 * correlations[:, 0]]) @ sent
    return np.einsum("as,as->s", sent, corrected[:4]) / corrected[4]


def is_density(m) -> bool:
    """qcore.is_density's verdict by its definition, with positivity from the eigenvalues of eigvalsh.

    Hermitian within ATOL_PSD entry by entry, trace 1 within ATOL_PSD in its
    real and imaginary parts, and the smallest eigenvalue of the hermitian
    part at least -ATOL_PSD; a NaN or an infinite entry fails.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0 or not np.isfinite(m).all():
        return False
    adjoint = m.conj().T
    # a deviation or a trace of finite entries that overflows, to inf or to inf - inf = NaN, fails its test
    with np.errstate(over="ignore", invalid="ignore"):
        deviation, trace = np.abs(m - adjoint).max(), np.trace(m)
    return bool(
        deviation <= qcore.ATOL_PSD
        and abs(trace.real - 1.0) <= qcore.ATOL_PSD
        and abs(trace.imag) <= qcore.ATOL_PSD
        and np.linalg.eigvalsh(m / 2 + adjoint / 2).min() >= -qcore.ATOL_PSD
    )


def check_effects(ops, projective: bool = False) -> str | None:
    """The ValueError message qcore.check_effects must raise for ops, or None where it must accept them.

    The tests in order: the shape, the sum within ATOL_STRUCTURAL of the
    identity (a NaN or an infinite entry fails it), each effect hermitian
    within ATOL_STRUCTURAL entry by entry, positive semidefinite by the
    smallest eigenvalue eigvalsh gives within ATOL_PSD, and with
    ``projective`` idempotent within ATOL_PSD; a failed per-effect test
    names the first effect that fails it.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 3 or ops.shape[1:] != (2, 2):
        return "effects must have shape (outcomes, 2, 2)"
    tests = [
        ("hermitian", lambda e: np.abs(e - e.conj().T).max() <= qcore.ATOL_STRUCTURAL),
        ("positive semidefinite", lambda e: np.linalg.eigvalsh(e)[0] >= -qcore.ATOL_PSD),
    ]
    if projective:
        tests.append(("a projector", lambda e: np.abs(e @ e - e).max() <= qcore.ATOL_PSD))
    # a sum or a deviation of finite entries that overflows to inf is beyond any tolerance, the right verdict
    with np.errstate(over="ignore"):
        if not np.isfinite(ops).all() or not np.abs(ops.sum(axis=0) - np.eye(2)).max() <= qcore.ATOL_STRUCTURAL:
            return "effects must sum to the identity"
        for what, ok in tests:
            for k, effect in enumerate(ops):
                if not ok(effect):
                    return f"effect {k} is not {what}"
    return None


def non_states() -> tuple[np.ndarray, ...]:
    """Trace-one 4x4 matrices that are not density matrices.

    (1 - w)/4 I + w P_singlet at w = 1.3 is hermitian with eigenvalue
    -0.075; the second is I/4 with one off-diagonal entry, not hermitian.
    """
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    skew = np.eye(4, dtype=complex) / 4
    skew[0, 3] = 0.2
    return (1 - 1.3) / 4 * np.eye(4) + 1.3 * np.outer(singlet, singlet), skew
