"""Dense linear algebra and two-qubit state primitives.

Conventions used throughout the package:

* kets are 1-D complex arrays, operators are 2-D complex arrays
* the singlet is (|01> - |10>)/sqrt(2)
* the Bell basis is ordered (psi-, psi+, phi-, phi+), where
  psi-+ = (|01> -+ |10>)/sqrt(2) and phi-+ = (|00> -+ |11>)/sqrt(2)
* tensor products follow numpy's kron index convention
* in the Pauli layer an effect (t I + r . sigma)/2 is the real row (t, r)
"""

from __future__ import annotations

import numpy as np

# structural identities (hermiticity, completeness, traces)
ATOL_STRUCTURAL = 1e-12
# eigenvalue positivity, slightly looser to absorb eigensolver noise
ATOL_PSD = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# sigma_0 = I, sigma_x, sigma_y, sigma_z
PAULI_BASIS = np.stack([IDENTITY_2, *PAULIS])
# row 4a + b: sigma_a x sigma_b (hermitian) conjugated, so row . vec(rho) = Tr[rho sigma_a x sigma_b]
_PAULI_PAIRS = np.stack([np.kron(a, b) for a in PAULI_BASIS for b in PAULI_BASIS]).reshape(16, 16).conj()


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def _require_unit_vector(v: np.ndarray, shape: tuple[int], name: str) -> np.ndarray:
    if v.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    # written so that a NaN norm fails the check too
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
        raise ValueError(f"{name} must be a unit vector, got norm {np.linalg.norm(v)!r}")
    return v


def qubit_ket(chi, name: str) -> np.ndarray:
    """chi as a complex array; ValueError unless it is a unit ket of shape (2,)."""
    return _require_unit_vector(_as_complex(chi), (2,), name)


def unit_direction(n, name: str) -> np.ndarray:
    """n as a float array; ValueError unless it is a unit vector of shape (3,)."""
    return _require_unit_vector(np.asarray(n, dtype=float), (3,), name)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two kets or operators."""
    return np.kron(_as_complex(a), _as_complex(b))


def partial_trace(rho, dims: tuple[int, int], trace_out: str = "A") -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims = (d_A, d_B)`` names the factor dimensions, ``trace_out`` the
    factor to remove ("A" or "B").
    """
    rho = _as_complex(rho)
    d_a, d_b = dims
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"operator of shape {rho.shape} does not factor as {dims}")
    r4 = rho.reshape(d_a, d_b, d_a, d_b)
    if trace_out == "A":
        return np.einsum("abad->bd", r4)
    if trace_out == "B":
        return np.einsum("abcb->ac", r4)
    raise ValueError("trace_out must be 'A' or 'B'")


def projector(ket) -> np.ndarray:
    """Rank-one projector |ket><ket|."""
    ket = _as_complex(ket)
    return np.outer(ket, ket.conj())


def ket_to_bloch(chi) -> np.ndarray:
    """Expectation values of the three Pauli operators in a qubit ket."""
    chi = qubit_ket(chi, "ket")
    return np.array([np.vdot(chi, p @ chi).real for p in PAULIS])


def spin_projector(n, sign: int = +1) -> np.ndarray:
    """Projector onto the +/- eigenstate of the spin operator along unit n."""
    n = unit_direction(n, "direction")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return (IDENTITY_2 + sign * sum(c * p for c, p in zip(n, PAULIS))) / 2


def bloch_rows(kets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows (1, x, y, z) holding the Bloch vector of each qubit ket (one ket per row).

    With a = ar + i ai and b = br + i bi, x + i y = 2 a* b and z = |a|^2 - |b|^2,
    written out in real arithmetic on the real and imaginary parts, so no
    complex temporaries are built. The four components are filled as
    contiguous rows of a (4, n) buffer, ``out`` when given, and returned as
    its (n, 4) transpose view, so ``bloch_rows(kets).T`` is component-major
    at no cost. Each row is accumulated in place, with at most two
    temporary rows alive.
    """
    parts = np.ascontiguousarray(kets, dtype=complex).view(float)
    ar, ai, br, bi = parts.T
    cols = np.empty((4, parts.shape[0])) if out is None else out
    if cols.shape != (4, parts.shape[0]):
        raise ValueError(f"out has shape {cols.shape}, expected {(4, parts.shape[0])}")
    one, x, y, z = cols
    one[...] = 1.0
    np.multiply(ar, br, out=x)
    x += ai * bi
    x *= 2
    np.multiply(ar, bi, out=y)
    y -= ai * br
    y *= 2
    np.multiply(ar, ar, out=z)
    z += ai * ai
    b_squared = br * br
    b_squared += bi * bi
    z -= b_squared
    return cols.T


def pauli_rows(ops) -> np.ndarray:
    """Rows (t, r) = Tr[sigma_a E] with E = (t I + r . sigma)/2, for a stack of effects (..., 2, 2)."""
    return np.einsum("aji,...ij->...a", PAULI_BASIS, _as_complex(ops)).real


def pauli_correlations(rho) -> np.ndarray:
    """Real R_ab = Tr[rho sigma_a x sigma_b] of a two-qubit density matrix (else ValueError).

    For effects with Pauli rows e and f, Tr[rho (E x F)] = e R f / 4.
    """
    return (_PAULI_PAIRS @ two_qubit_density(rho).ravel()).real.reshape(4, 4)


def two_qubit_density(rho) -> np.ndarray:
    """rho as a complex array; ValueError unless it is a two-qubit density matrix."""
    rho = _as_complex(rho)
    if rho.shape != (4, 4) or not is_density(rho):
        raise ValueError("state must be a two-qubit density matrix")
    return rho


def check_effects(ops, projective: bool = False) -> np.ndarray:
    """Validate a stack of qubit effects of shape (outcomes, 2, 2); returns it as complex.

    The effects must sum to the identity and each must be hermitian and
    positive semidefinite, and a projector when ``projective`` is set.
    """
    ops = _as_complex(ops)
    if ops.ndim != 3 or ops.shape[1:] != (2, 2):
        raise ValueError("effects must have shape (outcomes, 2, 2)")
    # every test is written as "not within tolerance", so NaN entries fail it
    if not np.abs(ops.sum(axis=0) - IDENTITY_2).max() <= ATOL_STRUCTURAL:
        raise ValueError("effects must sum to the identity")

    def reject(flags: np.ndarray, what: str) -> None:
        if flags.any():
            raise ValueError(f"effect {int(np.argmax(flags))} is not {what}")

    reject(~(np.abs(ops - ops.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= ATOL_STRUCTURAL), "hermitian")
    reject(~(np.linalg.eigvalsh(ops)[:, 0] >= -ATOL_PSD), "positive semidefinite")
    if projective:
        reject(~(np.abs(ops @ ops - ops).max(axis=(1, 2)) <= ATOL_PSD), "a projector")
    return ops


def bell_basis() -> np.ndarray:
    """The four Bell kets as rows, ordered (psi-, psi+, phi-, phi+)."""
    s = np.sqrt(0.5)
    return np.array(
        [
            [0, s, -s, 0],
            [0, s, s, 0],
            [s, 0, 0, -s],
            [s, 0, 0, s],
        ],
        dtype=complex,
    )


def singlet_projector() -> np.ndarray:
    return projector(bell_basis()[0])


def werner_alpha(alpha: float) -> np.ndarray:
    """Singlet fraction family (1-alpha)/4 I + alpha P_singlet, alpha in [0,1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return (1 - alpha) / 4 * np.eye(4, dtype=complex) + alpha * singlet_projector()


def is_density(m) -> bool:
    """True when M is hermitian, unit trace, and PSD within ATOL_PSD."""
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not np.all(np.isfinite(m)):
        return False
    if np.abs(m - m.conj().T).max() > ATOL_PSD:
        return False
    if abs(np.trace(m).real - 1.0) > ATOL_PSD or abs(np.trace(m).imag) > ATOL_PSD:
        return False
    return bool(np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -ATOL_PSD)


def _state_draws(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the state stream: row i of random((n, 2)) is the i-th pair (u, v), and
    # phi = 2 pi v - pi. NumPy's float64 cos and sin can be scalar libm calls
    # where its tan has a SIMD loop, so one contiguous row takes
    # t = tan(phi / 2) = tan(pi v - pi / 2) (the same float as half of
    # 2 pi v - pi) and then sin phi = 2t/(1 + t^2); the v column becomes
    # cos phi = (1 - t^2)/(1 + t^2), formed as 2/(1 + t^2) - 1. t^2 stays
    # finite: at v = 0, t is about -1.6e16. Returns u and cos phi, column
    # views of the draws, and the sin phi row.
    u, cos_phi = rng.random((n, 2)).T
    sin_phi = np.multiply(cos_phi, np.pi)
    sin_phi -= np.pi / 2
    np.tan(sin_phi, out=sin_phi)
    np.multiply(sin_phi, sin_phi, out=cos_phi)
    cos_phi += 1.0
    sin_phi /= cos_phi
    sin_phi *= 2.0
    np.divide(2.0, cos_phi, out=cos_phi)
    cos_phi -= 1.0
    return u, cos_phi, sin_phi


def haar_kets(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-uniform qubit kets (sqrt u, sqrt(1 - u) e^{i phi}), one per row.

    Row i reads the i-th pair (u, v) of ``rng.random((n, 2))``, so it takes
    the same two uniforms of the stream however n is split across calls,
    and phi = 2 pi v - pi. The Bloch vector of such a ket has z = 2u - 1
    and azimuth phi, independent and uniform, so it is uniform on the
    sphere (Archimedes) and the projector is Haar-distributed. The global
    phase is fixed: <0|psi> = sqrt u is real and nonnegative. e^{i phi} is
    ((1 - t^2) + 2it)/(1 + t^2) with t = tan(phi / 2), no cos or sin call.
    The kets are written in real arithmetic into the (n, 4) float view of
    the returned (n, 2) complex array; besides the draws and the kets, the
    only array is one row of n floats holding t.
    """
    u, cos_phi, sin_phi = _state_draws(rng, n)
    kets = np.empty((n, 2), dtype=complex)
    ar, ai, br, bi = kets.view(float).T
    np.sqrt(u, out=ar)
    ai[...] = 0.0
    np.subtract(1.0, u, out=u)
    np.sqrt(u, out=u)
    np.multiply(cos_phi, u, out=br)
    np.multiply(sin_phi, u, out=bi)
    return kets


def random_bloch_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on the unit sphere, one per row: the Bloch vectors of ``haar_kets(rng, n)``.

    From the same pair (u, v) per row, (r cos phi, r sin phi, 2u - 1) with
    r = 2 sqrt(u (1 - u)) and phi = 2 pi v - pi, where cos phi and sin phi
    are (1 - t^2)/(1 + t^2) and 2t/(1 + t^2) with t = tan(phi / 2). They are
    written into the (n, 3) result; besides the draws and the result, the
    only array is one row of n floats holding t.
    """
    u, cos_phi, sin_phi = _state_draws(rng, n)
    vectors = np.empty((n, 3))
    x, y, z = vectors.T
    # z holds r until x and y are scaled
    np.subtract(1.0, u, out=z)
    z *= u
    np.sqrt(z, out=z)
    z *= 2.0
    np.multiply(cos_phi, z, out=x)
    np.multiply(sin_phi, z, out=y)
    np.multiply(u, 2.0, out=z)
    z -= 1.0
    return vectors


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random density matrix (normalized G G* with Gaussian G)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
