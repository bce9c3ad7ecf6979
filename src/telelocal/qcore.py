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
    # a norm whose squares overflow is inf, quietly, and fails the check as a NaN norm does
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"{name} must be a unit vector, got norm {norm!r}")
    return v


def qubit_ket(chi, name: str) -> np.ndarray:
    """chi as a complex array; ValueError unless it is a unit ket of shape (2,)."""
    return _require_unit_vector(_as_complex(chi), (2,), name)


def unit_direction(n, name: str) -> np.ndarray:
    """n as a float array; ValueError unless it is a unit vector of shape (3,)."""
    return _require_unit_vector(np.asarray(n, dtype=float), (3,), name)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two kets or operators, or axis by axis of two stacks of them.

    np.kron's values and index order, built as one broadcast outer product:
    the shorter shape gets leading size-1 axes, each axis of ``a`` of size n
    is read as (n, 1) and each of ``b`` as (1, n), and the product is
    reshaped so that axis i has size a_i * b_i, index i_a * b_i + i_b.
    """
    a, b = _as_complex(a), _as_complex(b)
    pad = a.ndim - b.ndim
    shape_a, shape_b = (1,) * -pad + a.shape, (1,) * pad + b.shape
    outer = a.reshape([d for n in shape_a for d in (n, 1)]) * b.reshape([d for n in shape_b for d in (1, n)])
    return outer.reshape([m * n for m, n in zip(shape_a, shape_b)])


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


def ket_to_bloch(chi, name: str = "ket") -> np.ndarray:
    """Expectation values (x, y, z) of the three Pauli operators in a qubit ket.

    The package's one formula for a general ket: with a = ar + i ai and
    b = br + i bi, x + i y = 2 a* b and z = |a|^2 - |b|^2, in real
    arithmetic on Python floats. ValueError, naming the ket ``name``,
    unless chi is a unit ket of shape (2,).
    """
    (ar, ai), (br, bi) = ((c.real, c.imag) for c in qubit_ket(chi, name).tolist())
    return np.array([(ar * br + ai * bi) * 2, (ar * bi - ai * br) * 2, (ar * ar + ai * ai) - (br * br + bi * bi)])


def spin_projector(n, sign: int = +1) -> np.ndarray:
    """Projector onto the +/- eigenstate of the spin operator along unit n."""
    n = unit_direction(n, "direction")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return (IDENTITY_2 + sign * sum(c * p for c, p in zip(n, PAULIS))) / 2


def _bloch_rows(kets: np.ndarray, out: np.ndarray) -> np.ndarray:
    # the rows (1, x, y, z) of kets in haar_kets' phase, <0|psi> = ar real and nonnegative with a
    # +0.0 imaginary part, written into the contiguous (4, n) rows ``out`` and returned as their
    # (n, 4) transpose view: with b = br + i bi, x = 2 ar br, y = 2 ar bi and z = ar^2 - |b|^2,
    # the general formula of ket_to_bloch less its terms in Im<0|psi>, each product written into
    # a row of out not yet written, so no temporary row is built
    ar, _, br, bi = kets.view(float).T
    one, x, y, z = out
    np.multiply(ar, ar, out=z)
    # x holds |b|^2 until z is done
    np.multiply(br, br, out=x)
    x += np.multiply(bi, bi, out=y)
    z -= x
    np.multiply(ar, br, out=x)
    x *= 2
    np.multiply(ar, bi, out=y)
    y *= 2
    one[...] = 1.0
    return out.T


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
    Positivity is read from the smaller eigenvalue (t - |r|)/2 of each
    effect, with t = p + s and |r| = hypot(p - s, 2|q|) from the entries an
    eigensolver reads: the real diagonal (p, s) and q = E_10.
    """
    ops = _as_complex(ops)
    if ops.ndim != 3 or ops.shape[1:] != (2, 2):
        raise ValueError("effects must have shape (outcomes, 2, 2)")
    # every test is written as "not within tolerance", so NaN entries fail it; an entry that is not
    # finite fails first, since scaling a complex inf, or summing an inf and a -inf, warns
    if not np.isfinite(ops).all():
        raise ValueError("effects must sum to the identity")
    # the sum, hermitian and positivity tests run on the effects times a power of two, an eighth for
    # up to four outcomes and at most 1/(2 outcomes), so no sum, difference or modulus below
    # overflows for finite entries; a power of two scales each rounding exactly, so each test is
    # its unscaled form at the scaled tolerance
    scale = 0.5 ** max(3, (len(ops) - 1).bit_length() + 1)
    scaled, structural = ops * scale, scale * ATOL_STRUCTURAL
    if not np.abs(scaled.sum(axis=0) - scale * IDENTITY_2).max() <= structural:
        raise ValueError("effects must sum to the identity")

    def require(ok: np.ndarray, what: str) -> None:
        if not ok.all():
            raise ValueError(f"effect {int(np.argmin(ok))} is not {what}")

    require(np.abs(scaled - scaled.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= structural, "hermitian")
    # with the diagonal (p, s) and q = E_10 scaled, this is t - |r| scaled, twice the smaller eigenvalue
    p, s = scaled[:, 0, 0].real, scaled[:, 1, 1].real
    require(p + s - np.hypot(p - s, 2 * np.abs(scaled[:, 1, 0])) >= -2 * scale * ATOL_PSD, "positive semidefinite")
    if projective:
        require(np.abs(ops @ ops - ops).max(axis=(1, 2)) <= ATOL_PSD, "a projector")
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
    # every test is written as "not within tolerance", so NaN entries fail it; an infinite entry
    # would make its deviation from the adjoint inf - inf, a NaN with a warning, so it fails first
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0 or not np.isfinite(m).all():
        return False
    # an eighth of each entry keeps every difference and modulus below finite for any finite entry,
    # and a power of two scales each rounding exactly, so each test is its unscaled form over 8
    eighths = m / 8
    adjoint = eighths.conj().T
    if not np.abs(eighths - adjoint).max() <= ATOL_PSD / 8:
        return False
    trace = sum(eighths.diagonal().tolist())
    if not (abs(trace.real - 0.125) <= ATOL_PSD / 8 and abs(trace.imag) <= ATOL_PSD / 8):
        return False
    # E + E* is a quarter of the hermitian part (M + M*)/2; eigvalsh returns the eigenvalues in ascending order
    return bool(np.linalg.eigvalsh(eighths + adjoint)[0] >= -ATOL_PSD / 4)


def _split_scratch(
    scratch: np.ndarray | None, rows: int, draw_rows: int, n: int
) -> tuple[np.ndarray | None, np.ndarray]:
    # a sampler's (rows, n) scratch, checked, as its result rows and its last draw_rows rows; without
    # it, None and fresh draw rows, so that the sampler's result gets an array that keeps no draw alive
    if scratch is None:
        return None, np.empty((draw_rows, n))
    if scratch.shape != (rows, n) or scratch.dtype != float or not scratch.flags.c_contiguous:
        raise ValueError(f"scratch must be a C-contiguous float array of shape {(rows, n)}")
    return scratch[:-draw_rows], scratch[-draw_rows:]


def _state_draws(rng: np.random.Generator, pairs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    # the state stream: row i of random((n, 2)) is the i-th pair (u, v), and
    # phi = 2 pi v - pi. The pairs are drawn into ``pairs``, an (n, 2) view of
    # the sampler's result rows, which are written only later, and copied once
    # into the first two of the three contiguous ``rows``, so that no pass
    # here or in the sampler reads a strided column. NumPy's float64 cos and
    # sin can be scalar libm calls where its tan has a SIMD loop, so the last
    # row takes t = tan(phi / 2) = tan(pi v - pi / 2) (the same float as half
    # of 2 pi v - pi) and then sin phi = 2t/(1 + t^2); the v row becomes
    # cos phi = (1 - t^2)/(1 + t^2), formed as 2/(1 + t^2) - 1. t^2 stays
    # finite: at v = 0, t is about -1.6e16. Returns the rows u, cos phi and sin phi
    np.copyto(rows[:2], rng.random(out=pairs).T)
    u, cos_phi, sin_phi = rows
    np.multiply(cos_phi, np.pi, out=sin_phi)
    sin_phi -= np.pi / 2
    np.tan(sin_phi, out=sin_phi)
    np.multiply(sin_phi, sin_phi, out=cos_phi)
    cos_phi += 1.0
    sin_phi /= cos_phi
    sin_phi *= 2.0
    np.divide(2.0, cos_phi, out=cos_phi)
    cos_phi -= 1.0
    return u, cos_phi, sin_phi


def _spare_pairs(result: np.ndarray, n: int) -> np.ndarray:
    # the first 2n floats of a sampler's C-contiguous float result, read as (n, 2)
    return result.reshape(-1)[: 2 * n].reshape(n, 2)


def haar_kets(rng: np.random.Generator, n: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """n Haar-uniform qubit kets (sqrt u, sqrt(1 - u) e^{i phi}), one per row.

    Row i reads the i-th pair (u, v) of ``rng.random((n, 2))``, so it takes
    the same two uniforms of the stream however n is split across calls,
    and phi = 2 pi v - pi. The Bloch vector of such a ket has z = 2u - 1
    and azimuth phi, independent and uniform, so it is uniform on the
    sphere (Archimedes) and the projector is Haar-distributed. The global
    phase is fixed: <0|psi> = sqrt u is real and nonnegative, its imaginary
    part +0.0, the phase the kernels' Bloch rows assume. e^{i phi} is
    ((1 - t^2) + 2it)/(1 + t^2) with t = tan(phi / 2), no cos or sin call.
    With ``scratch``, a C-contiguous float (7, n) array such as rows
    run_chunks hands a chunk, nothing is allocated: the kets, written in
    real arithmetic, are the complex view of its first four rows, read as
    (n, 4), and u, v and t fill the other three. Without it the kets own a
    fresh (n, 2) array, u, v and t fill three rows freed on return, and the
    kets are the same bit for bit. Either way the draws land first in the
    kets' memory, which the kets then overwrite.
    """
    head, draws = _split_scratch(scratch, 7, 3, n)
    kets = np.empty((n, 2), dtype=complex) if head is None else head.reshape(n, 4).view(complex)
    parts = kets.view(float)
    u, cos_phi, sin_phi = _state_draws(rng, _spare_pairs(parts, n), draws)
    ar, ai, br, bi = parts.T
    np.sqrt(u, out=ar)
    ai[...] = 0.0
    np.subtract(1.0, u, out=u)
    np.sqrt(u, out=u)
    np.multiply(cos_phi, u, out=br)
    np.multiply(sin_phi, u, out=bi)
    return kets


def random_bloch_vectors(rng: np.random.Generator, n: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """n uniform points on the unit sphere, one per row: the Bloch vectors of ``haar_kets(rng, n)``.

    From the same pair (u, v) per row, (r cos phi, r sin phi, 2u - 1) with
    r = 2 sqrt(u (1 - u)) and phi = 2 pi v - pi, where cos phi and sin phi
    are (1 - t^2)/(1 + t^2) and 2t/(1 + t^2) with t = tan(phi / 2). With
    ``scratch``, a C-contiguous float (6, n) array, nothing is allocated:
    the result is its first three rows, read as (n, 3), and u, v and t
    fill the other three. Without it the result owns a fresh (n, 3) array,
    and the vectors are the same bit for bit. Either way the draws land
    first in the result's memory, which the vectors then overwrite.
    """
    head, draws = _split_scratch(scratch, 6, 3, n)
    vectors = np.empty((n, 3)) if head is None else head.reshape(n, 3)
    u, cos_phi, sin_phi = _state_draws(rng, _spare_pairs(vectors, n), draws)
    x, y, z = vectors.T
    np.multiply(u, 2.0, out=z)
    z -= 1.0
    # the u row becomes r, x holding 1 - u until then
    u *= np.subtract(1.0, u, out=x)
    np.sqrt(u, out=u)
    u *= 2.0
    np.multiply(cos_phi, u, out=x)
    np.multiply(sin_phi, u, out=y)
    return vectors


def random_bloch_z(rng: np.random.Generator, n: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """The z components 2u - 1 of ``random_bloch_vectors(rng, n)``, bit for bit.

    Row i reads the i-th pair (u, v) of ``rng.random((n, 2))`` like the
    other samplers, so the stream is the same, and v goes unused. With
    ``scratch``, a C-contiguous float (3, n) array, nothing is allocated:
    the result is its first row and the draws fill the other two. Without
    it the result owns a fresh array of n floats.
    """
    head, draws = _split_scratch(scratch, 3, 2, n)
    z = np.empty(n) if head is None else head[0]
    np.multiply(rng.random(out=draws.reshape(n, 2))[:, 0], 2.0, out=z)
    z -= 1.0
    return z


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random density matrix (normalized G G* with Gaussian G)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
