"""Unit tests for states, operators, and linear algebra helpers."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from oracles import fidelity
from telelocal import bellcheck, estimates, lhv, qcore, teleport

RNG_SEED = 20240811


def test_tensor_matches_kron_chain():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    npt.assert_allclose(qcore.tensor(a, b), np.kron(a, b))
    # bit for bit on kets, operators, stacks axis by axis, mixed ndim (the
    # shorter shape padded with leading size-1 axes) and joint_probability's
    # padded sender stack against a receiver stack, real operands too
    rng = np.random.default_rng(RNG_SEED + 20)
    shapes = [
        ((2,), (2,)),
        ((2, 2), (4, 4)),
        ((4, 4), (2, 2)),
        ((3, 2, 2), (3, 2, 2)),
        ((2, 2), (5, 2, 2)),
        ((5, 2, 2), (2,)),
        ((2, 2, 1, 1, 2, 2), (2, 2, 2, 2)),
    ]
    for shape_a, shape_b in shapes:
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        for x, y in ((a, b), (a.real, b), (a, b.real)):
            got, expected = qcore.tensor(x, y), np.kron(x, y)
            assert got.shape == expected.shape and got.dtype == complex
            assert np.array_equal(got, expected)


def test_partial_trace_of_product_state_recovers_factors():
    rng = np.random.default_rng(RNG_SEED)
    rho = qcore.random_density(rng, 2)
    sig = qcore.random_density(rng, 3)
    big = qcore.tensor(rho, sig)
    npt.assert_allclose(qcore.partial_trace(big, (2, 3), trace_out="B"), rho, atol=1e-14)
    npt.assert_allclose(qcore.partial_trace(big, (2, 3), trace_out="A"), sig, atol=1e-14)


def test_partial_trace_is_trace_preserving_and_validates():
    rng = np.random.default_rng(RNG_SEED + 1)
    rho = qcore.random_density(rng, 4)
    for side in ("A", "B"):
        reduced = qcore.partial_trace(rho, (2, 2), trace_out=side)
        assert abs(np.trace(reduced) - 1.0) < 1e-13
    with pytest.raises(ValueError):
        qcore.partial_trace(rho, (3, 2))
    with pytest.raises(ValueError):
        qcore.partial_trace(rho, (2, 2), trace_out="C")


def test_bloch_round_trip():
    # the ket spanning the + projector along m has Bloch vector m
    rng = np.random.default_rng(RNG_SEED + 2)
    for m in qcore.random_bloch_vectors(rng, 25):
        ket = np.linalg.eigh(qcore.spin_projector(m, +1))[1][:, 1]
        assert abs(np.linalg.norm(ket) - 1.0) < 1e-12
        npt.assert_allclose(qcore.ket_to_bloch(ket), m, atol=1e-12)


def test_bloch_poles():
    s = np.sqrt(0.5)
    npt.assert_allclose(qcore.ket_to_bloch([1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)
    npt.assert_allclose(qcore.ket_to_bloch([0.0, 1j]), [0.0, 0.0, -1.0], atol=1e-15)
    npt.assert_allclose(qcore.ket_to_bloch([s, s]), [1.0, 0.0, 0.0], atol=1e-15)
    npt.assert_allclose(qcore.ket_to_bloch([s, 1j * s]), [0.0, 1.0, 0.0], atol=1e-15)


def test_spin_projector_properties():
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in qcore.random_bloch_vectors(rng, 10):
        plus = qcore.spin_projector(n, +1)
        minus = qcore.spin_projector(n, -1)
        npt.assert_allclose(plus + minus, np.eye(2), atol=1e-14)
        npt.assert_allclose(plus @ plus, plus, atol=1e-14)
        assert abs(np.trace(plus) - 1.0) < 1e-13
        # +n eigenvector of n.sigma with eigenvalue +1 spans the + projector
        nsigma = n[0] * qcore.PAULI_X + n[1] * qcore.PAULI_Y + n[2] * qcore.PAULI_Z
        npt.assert_allclose(nsigma @ plus, plus, atol=1e-13)
    with pytest.raises(ValueError):
        qcore.spin_projector([0.0, 0.0, 1.0], sign=2)


def test_bell_basis_is_orthonormal_with_pinned_singlet_sign():
    basis = qcore.bell_basis()
    npt.assert_allclose(basis @ basis.conj().T, np.eye(4), atol=1e-15)
    s = np.sqrt(0.5)
    npt.assert_allclose(basis[0], [0.0, s, -s, 0.0], atol=1e-15)
    npt.assert_allclose(basis[1], [0.0, s, s, 0.0], atol=1e-15)
    npt.assert_allclose(basis[2], [s, 0.0, 0.0, -s], atol=1e-15)
    npt.assert_allclose(basis[3], [s, 0.0, 0.0, s], atol=1e-15)


def test_singlet_projector_entries():
    p = qcore.singlet_projector()
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    npt.assert_allclose(p, expected, atol=1e-15)


def test_werner_alpha_entries_and_limits():
    w = qcore.werner_alpha(0.6)
    # (1 - a)/4 on the diagonal plus the singlet block at weight a
    npt.assert_allclose(np.diag(w), [0.1, 0.4, 0.4, 0.1], atol=1e-15)
    assert abs(w[1, 2] + 0.3) < 1e-15
    npt.assert_allclose(qcore.werner_alpha(0.0), np.eye(4) / 4, atol=1e-15)
    npt.assert_allclose(qcore.werner_alpha(1.0), qcore.singlet_projector(), atol=1e-15)
    for alpha in (0.0, 0.3, 1.0):
        assert qcore.is_density(qcore.werner_alpha(alpha))
    with pytest.raises(ValueError):
        qcore.werner_alpha(1.5)
    with pytest.raises(ValueError):
        qcore.werner_alpha(-0.1)


def test_werner_alpha_half_is_werners_swap_state_and_unitarily_invariant():
    # Werner's d x d state I/d^3 + (2/d^2) (I - V)/2, with V the swap, at d = 2
    swap = np.eye(4)[[0, 2, 1, 3]]
    npt.assert_allclose(np.eye(4) / 8 + (np.eye(4) - swap) / 4, qcore.werner_alpha(0.5), atol=1e-15)
    rng = np.random.default_rng(RNG_SEED + 10)
    for alpha in (0.0, 0.5, 0.9):
        w = qcore.werner_alpha(alpha)
        # invariant under U x U conjugation
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        uu = qcore.tensor(u, u)
        npt.assert_allclose(uu @ w @ uu.conj().T, w, atol=1e-12)


def test_fidelity_definition_and_validation():
    chi = np.array([1.0, 0.0], dtype=complex)
    m = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    assert abs(fidelity(chi, m) - 0.7) < 1e-15
    with pytest.raises(ValueError):
        fidelity(chi, np.eye(3))


def test_is_density_rejects_bad_matrices():
    assert qcore.is_density(np.eye(2) / 2)
    assert not qcore.is_density(np.eye(2))  # trace 2
    assert not qcore.is_density(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not hermitian
    assert not qcore.is_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    assert not qcore.is_density(np.zeros((2, 3)))
    assert not qcore.is_density(np.zeros((0, 0)))  # empty, not a reduction error
    # each test reads "not within tolerance", so NaN and infinite entries fail one
    nan = np.eye(2) / 2
    nan[0, 1] = nan[1, 0] = np.nan
    assert not qcore.is_density(nan)
    assert not qcore.is_density(np.diag([np.inf, 0.5]))
    skew_inf = np.eye(2) / 2
    skew_inf[0, 1] = -np.inf
    assert not qcore.is_density(skew_inf)
    assert not qcore.is_density(np.full((4, 4), np.nan))


def _unitary(rng, dim=2):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _near_the_tolerances(rng, margin):
    # one tolerance, ATOL_PSD for states, crossed by (1 + margin) times it: a
    # negative eigenvalue, a trace off 1 (real or imaginary), an off-diagonal
    # pair or a diagonal entry's imaginary part off hermitian (|m - m*| reads
    # 2 |Im m_00| there); a margin below 0 stays inside
    tol = qcore.ATOL_PSD * (1 + margin)
    u = _unitary(rng, 4)
    base = qcore.random_density(rng, 4)
    shifted = base.copy()
    shifted[0, 1] += tol
    tilted = base.copy()
    tilted[0, 0] += 1j * tol / 2
    return [
        u @ np.diag([-tol, 0.25, 0.35, 0.4 + tol]) @ u.conj().T,
        base * (1 + tol),
        base + 1j * tol * np.eye(4) / 4,
        shifted,
        tilted,
    ]


def _non_finite(rng, m):
    # m with a NaN, an inf or a -inf at a random place, and with a pair of them that
    # meet: in a matrix across the diagonal, where m - m* reads inf - inf for two
    # infs, and in a stack of effects in one entry of the first and last effect,
    # where their sum reads inf - inf for an inf and a -inf
    out = []
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)):
        poisoned = m.copy()
        poisoned.flat[rng.integers(m.size)] = bad
        out.append(poisoned)
    if m.shape[-1] > 1:
        first, second = ((0, 1), (1, 0)) if m.ndim == 2 else ((0, 0, 1), (-1, 0, 1))
        for a, b in ((np.inf, np.inf), (np.inf, -np.inf), (-np.inf, np.nan)):
            poisoned = m.copy()
            poisoned[first], poisoned[second] = a, b
            out.append(poisoned)
    return out


def test_is_density_agrees_with_its_eigvalsh_reference():
    rng = np.random.default_rng(RNG_SEED + 30)
    cases = [np.eye(2) / 2, np.zeros((2, 3)), np.zeros((0, 0)), np.ones(4) / 4, np.eye(8).reshape(2, 4, 8), 1.0]
    for dim in (1, 2, 3, 4):
        for _ in range(20):
            rho = qcore.random_density(rng, dim)
            h = _hermitian(rng, dim)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            cases += [rho, h / np.trace(h).real, g / np.trace(g), rho + 1e-3 * g, *_non_finite(rng, rho)]
    for margin in (-0.01, 0.01):
        for _ in range(20):
            cases += _near_the_tolerances(rng, margin)
    # entries near the largest float, hermitian and not, where m - m*, m + m* or the trace overflow
    big = 1e308
    cases += [np.array([[0.5, big], [big, 0.5]]), np.array([[0.5, big], [-big, 0.5]])]
    cases += [np.array([[0.5, 1j * big], [-1j * big, 0.5]]), np.array([[0.5, 1j * big], [1j * big, 0.5]])]
    cases += [np.diag([big, -big, 0.5, 0.5]), np.diag([big, big, -big, -big]) + np.eye(4) / 4]
    verdicts = [qcore.is_density(m) for m in cases]
    assert verdicts == [oracles.is_density(m) for m in cases]
    # each kind of input gets both verdicts, and every case near a tolerance follows its margin
    assert 0 < sum(verdicts) < len(verdicts)
    near = [(margin, m) for margin in (-0.01, 0.01) for m in _near_the_tolerances(rng, margin)]
    assert [qcore.is_density(m) for _, m in near] == [margin < 0 for margin, _ in near]


def _povm(rng, outcomes):
    # S^(-1/2) G_k S^(-1/2) of random positive G_k, S their sum: sums to the identity to rounding
    g = rng.standard_normal((outcomes, 2, 2)) + 1j * rng.standard_normal((outcomes, 2, 2))
    g = g @ g.conj().swapaxes(1, 2)
    w, v = np.linalg.eigh(g.sum(axis=0))
    root = (v / np.sqrt(w)) @ v.conj().T
    effects = root @ g @ root
    effects[-1] = np.eye(2) - effects[:-1].sum(axis=0)
    return effects


def _effects_near_the_tolerances(rng, margin):
    # two-effect stacks, each crossing one test by (1 + margin) times its
    # tolerance, with whether to check it as projective: effect 1 with a
    # negative eigenvalue, or off hermitian in an off-diagonal pair or in a
    # diagonal entry's imaginary part (2 |Im E_00|), the sum off the identity,
    # the pair off idempotent, and a negative eigenvalue read from E_10
    u = _unitary(rng)
    psd, structural = qcore.ATOL_PSD * (1 + margin), qcore.ATOL_STRUCTURAL * (1 + margin)

    def pair(eigs):
        e = u @ np.diag(eigs) @ u.conj().T
        return np.stack([np.eye(2) - e, e])

    negative = pair([-psd, 0.6])
    skew, tilted, off = pair([0.3, 0.6]), pair([0.3, 0.6]), pair([0.3, 0.6])
    skew[1, 0, 1] += structural
    skew[0, 0, 1] -= structural
    tilted[1, 0, 0] += 1j * structural / 2
    tilted[0, 0, 0] -= 1j * structural / 2
    off[1] += structural * np.eye(2)
    # E^2 - E is diagonal, (psd^2 - psd, 0), only without the rotation
    idle = np.stack([np.diag([1.0 - psd, 0.0]), np.diag([psd, 1.0])]).astype(complex)
    # the smaller eigenvalue of each is 0.5 - c, half the margin past -ATOL_PSD, read from E_10 as
    # an eigensolver reads it; E_01 leans 0.9 ATOL_STRUCTURAL the other way, which read instead
    # would carry it across
    c = 0.5 + qcore.ATOL_PSD * (1 + margin / 2)
    lean = -np.sign(margin) * 0.9 * qcore.ATOL_STRUCTURAL
    leaning = np.array([[[0.5, -c - lean], [-c, 0.5]], [[0.5, c + lean], [c, 0.5]]])
    return [(negative, False), (skew, False), (tilted, False), (off, False), (idle, True), (leaning, False)]


def test_check_effects_agrees_with_its_eigvalsh_reference():
    rng = np.random.default_rng(RNG_SEED + 31)
    z = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    cases = [(bad, False) for bad in (np.eye(2), np.zeros((3, 3, 3)), np.zeros((2, 2, 3)), np.eye(4)[None], z[0])]
    for outcomes in (1, 2, 3, 4, 6):
        for _ in range(20):
            povm = _povm(rng, outcomes)
            h = _hermitian(rng, 2) / 4
            g = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 4
            tipped = povm.copy()
            tipped[0] += h
            tipped[-1] -= h
            skewed = povm.copy()
            skewed[0] += g
            skewed[-1] -= g
            u = _unitary(rng)
            projectors = u @ z @ u.conj().T
            cases += [(povm, False), (tipped, False), (skewed, False), (projectors, True), (povm, True)]
            cases += [(poisoned, False) for poisoned in _non_finite(rng, povm)]
    for margin in (-0.01, 0.01):
        for _ in range(20):
            cases += _effects_near_the_tolerances(rng, margin)
    # entries near the largest float, hermitian and not, where the sum, E - E* or 2|E_10| overflow
    big, one = 1e308, np.eye(2)
    huge = [np.stack([np.diag([big, 0.0]), np.diag([big, 0.0]), one])]
    huge += [np.stack([np.diag([big, 0.0]), -np.diag([big, 0.0]), one])]
    huge += [np.array([[[0.5, big], [big, 0.5]], [[0.5, -big], [-big, 0.5]]])]
    huge += [np.array([[[0.5, big], [-big, 0.5]], [[0.5, -big], [big, 0.5]]])]
    huge += [np.array([[[0.5, 1j * big], [1j * big, 0.5]], [[0.5, -1j * big], [-1j * big, 0.5]]])]
    cases += [(ops, projective) for ops in huge for projective in (False, True)]

    def message(ops, projective):
        try:
            qcore.check_effects(ops, projective=projective)
        except ValueError as error:
            return str(error)
        return None

    messages = [message(ops, projective) for ops, projective in cases]
    assert messages == [oracles.check_effects(ops, projective) for ops, projective in cases]
    # every message is reached, and every case near a tolerance follows its margin
    kinds = {m.split(" is not ")[1] if m and m.startswith("effect ") else m for m in messages}
    assert kinds == {
        None,
        "effects must have shape (outcomes, 2, 2)",
        "effects must sum to the identity",
        "hermitian",
        "positive semidefinite",
        "a projector",
    }
    near = [(margin, *case) for margin in (-0.01, 0.01) for case in _effects_near_the_tolerances(rng, margin)]
    assert [message(ops, projective) is None for _, ops, projective in near] == [m < 0 for m, _, _ in near]
    # 17 effects that sum to the identity exactly, though a running sum of their entries overflows
    # (the reference's does): the tests run at 1/32, 1/(2 outcomes) or less, and find effect 8
    stack = np.stack([np.diag([big, 0.0])] * 8 + [-np.diag([big, 0.0])] * 8 + [one])
    assert message(stack, False) == "effect 8 is not positive semidefinite"


def test_haar_kets_are_normalized_and_unbiased():
    rng = np.random.default_rng(RNG_SEED + 4)
    kets = qcore.haar_kets(rng, 4000)
    npt.assert_allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-12)
    # E|<0|psi>|^2 = 1/2 for Haar qubit kets
    overlap = np.mean(np.abs(kets[:, 0]) ** 2)
    assert abs(overlap - 0.5) < 0.02
    # the global phase is fixed: <0|psi> is real and nonnegative
    assert np.all(kets[:, 0].imag == 0) and np.all(kets[:, 0].real >= 0)


def test_haar_kets_keep_the_uniform_stream():
    rng, hand = np.random.default_rng(RNG_SEED + 7), np.random.default_rng(RNG_SEED + 7)
    kets = qcore.haar_kets(rng, 500)
    u, v = hand.random((500, 2)).T
    phi = 2 * np.pi * v - np.pi
    assert kets.shape == (500, 2) and kets.dtype == complex
    npt.assert_allclose(kets[:, 0], np.sqrt(u), rtol=0, atol=1e-15)
    npt.assert_allclose(kets[:, 1], np.sqrt(1 - u) * np.exp(1j * phi), rtol=0, atol=1e-15)
    # no uniform skipped or added
    assert rng.random() == hand.random()
    # row i reads the same uniforms however the rows are split across calls
    split, whole = np.random.default_rng(RNG_SEED + 8), np.random.default_rng(RNG_SEED + 8)
    parts = [qcore.haar_kets(split, n) for n in (173, 1, 326)]
    npt.assert_array_equal(np.concatenate(parts), qcore.haar_kets(whole, 500))


def _haar_kets_and_poles(rng, n):
    # n Haar kets, then (1, 0), (0, 1), (0, -1) and (sqrt 1/2, -sqrt 1/2), all in haar_kets' phase
    s = np.sqrt(0.5)
    return np.vstack([qcore.haar_kets(rng, n), [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [s, -s]]])


def test_bloch_rows_match_ket_to_bloch():
    rng = np.random.default_rng(RNG_SEED + 8)
    for kets in (_haar_kets_and_poles(rng, 60), qcore.haar_kets(rng, estimates.CHUNK)):
        rows = qcore._bloch_rows(kets, np.empty((4, len(kets))))
        npt.assert_array_equal(rows[:, 0], 1.0)
        # the terms in Im<0|psi> that the kernels' formula leaves out are zeros, which change no value
        assert np.array_equal(rows, oracles.bloch_rows(kets))
    assert np.array_equal(rows[:60, 1:], [qcore.ket_to_bloch(k) for k in kets[:60]])


def test_bloch_rows_are_a_view_of_component_major_rows():
    kets = _haar_kets_and_poles(np.random.default_rng(RNG_SEED + 10), 1000)
    out = np.empty((4, len(kets)))
    rows = qcore._bloch_rows(kets, out)
    assert rows.base is out and rows.T.flags.c_contiguous and rows.strides == out.T.strides
    npt.assert_array_equal(out[0], 1.0)
    assert np.array_equal(out, oracles.bloch_rows(kets).T)


def test_bloch_rows_fill_a_given_buffer():
    kets = qcore.haar_kets(np.random.default_rng(RNG_SEED + 11), 1000)
    buf = np.empty((4, 1000))
    rows = qcore._bloch_rows(kets, buf)
    assert rows.base is buf and np.shares_memory(rows, buf) and rows.strides == buf.T.strides
    assert np.array_equal(rows, qcore._bloch_rows(kets, np.empty((4, 1000))))
    # no shape check of its own: numpy refuses to write n products into rows of another length
    with pytest.raises(ValueError):
        qcore._bloch_rows(kets, np.empty((4, 999)))


def test_bloch_rows_into_a_given_buffer_allocate_no_row():
    n = estimates.CHUNK
    kets = qcore.haar_kets(np.random.default_rng(RNG_SEED + 17), n)
    out = np.empty((4, n))
    qcore._bloch_rows(kets, out)
    tracemalloc.start()
    try:
        rows = qcore._bloch_rows(kets, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each product is written into a row of out, so not even one temporary row
    assert peak < 8 * n
    assert np.array_equal(rows, oracles.bloch_rows(kets))


def test_kernels_hand_bloch_rows_only_kets_in_haar_phase(monkeypatch):
    # every batch of kets the two Monte Carlo kernels turn into Bloch rows has <0|psi> real
    # and nonnegative, its imaginary part +0.0 by its bits, the phase _bloch_rows assumes
    batches = []
    bloch_rows = qcore._bloch_rows

    def recorded(kets, out):
        batches.append(kets.copy())
        return bloch_rows(kets, out)

    monkeypatch.setattr(qcore, "_bloch_rows", recorded)
    # two stream blocks, the second on a pool worker when there is one
    teleport.average_fidelity(qcore.werner_alpha(0.7), samples=70_000, seed=3)
    fidelity_batches = len(batches)
    grouping, cfg = bellcheck.OutcomeGrouping(), lhv.LhvConfig(samples=20_000, seed=4)
    lhv.lhv_teleport_experiment(bellcheck.violation_setting(), grouping, cfg)
    assert 0 < fidelity_batches < len(batches)
    for kets in batches:
        first = kets[:, 0]
        assert np.all(first.real >= 0) and not np.count_nonzero(first.imag.view(np.int64))


def test_random_bloch_vectors_unit_norm():
    rng = np.random.default_rng(RNG_SEED + 5)
    v = qcore.random_bloch_vectors(rng, 1000)
    npt.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    assert np.abs(v.mean(axis=0)).max() < 0.05


def test_random_bloch_vectors_are_the_bloch_vectors_of_haar_kets():
    rng, twin = np.random.default_rng(RNG_SEED + 12), np.random.default_rng(RNG_SEED + 12)
    vectors = qcore.random_bloch_vectors(rng, 500)
    assert vectors.shape == (500, 3)
    npt.assert_allclose(vectors, oracles.bloch_rows(qcore.haar_kets(twin, 500))[:, 1:], rtol=0, atol=1e-15)
    assert rng.random() == twin.random()


def test_random_bloch_z_is_the_z_column_of_random_bloch_vectors():
    rng, twin = np.random.default_rng(RNG_SEED + 15), np.random.default_rng(RNG_SEED + 15)
    z = qcore.random_bloch_z(rng, 500)
    assert np.array_equal(z, qcore.random_bloch_vectors(twin, 500)[:, 2])
    # both read one pair (u, v) per row
    assert rng.random() == twin.random()


@pytest.mark.parametrize(
    "sample, rows", [(qcore.random_bloch_vectors, 6), (qcore.random_bloch_z, 3)], ids=["vectors", "z"]
)
def test_bloch_samplers_in_scratch_rows_give_the_same_values(sample, rows):
    n = estimates.CHUNK
    rng, twin = np.random.default_rng(RNG_SEED + 18), np.random.default_rng(RNG_SEED + 18)
    scratch = np.empty((rows, n))
    sample(np.random.default_rng(RNG_SEED + 18), n, scratch)
    tracemalloc.start()
    try:
        values = sample(rng, n, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the draws, any tangent row and the result all live in the scratch rows
    assert peak < 8 * n
    assert np.shares_memory(values, scratch)
    assert np.array_equal(values, sample(twin, n))
    assert rng.random() == twin.random()
    for bad in (np.empty((rows, n - 1)), np.empty((rows - 1, n)), np.empty((n, rows)).T):
        with pytest.raises(ValueError):
            sample(rng, n, bad)


@pytest.mark.parametrize(
    "sample, nbytes",
    [(qcore.haar_kets, 32_000), (qcore.random_bloch_vectors, 24_000), (qcore.random_bloch_z, 8_000)],
    ids=["haar_kets", "random_bloch_vectors", "random_bloch_z"],
)
def test_samplers_without_scratch_own_only_their_result(sample, nbytes):
    # no view of a larger block, so the draw rows are freed when the sampler returns
    values = sample(np.random.default_rng(RNG_SEED + 18), 1000)
    assert values.base is None and values.flags.owndata and values.nbytes == nbytes


def test_haar_kets_in_scratch_rows_are_the_same_kets():
    n = estimates.CHUNK
    rng, twin = np.random.default_rng(RNG_SEED + 16), np.random.default_rng(RNG_SEED + 16)
    scratch = np.empty((7, n))
    qcore.haar_kets(np.random.default_rng(RNG_SEED + 16), n, scratch)
    tracemalloc.start()
    try:
        kets = qcore.haar_kets(rng, n, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the draws, the tangent row and the kets all live in the scratch rows
    assert peak < 8 * n
    assert kets.shape == (n, 2) and np.shares_memory(kets, scratch)
    assert np.array_equal(kets, qcore.haar_kets(twin, n))
    assert rng.random() == twin.random()
    for bad in (np.empty((7, n - 1)), np.empty((6, n)), np.empty((n, 7)).T, np.empty((7, n), dtype=np.float32)):
        with pytest.raises(ValueError):
            qcore.haar_kets(rng, n, bad)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "sample, rows, of_u, by_u",
    [
        (qcore.haar_kets, 7, lambda kets: kets[:, 0].real, np.sqrt),
        (qcore.random_bloch_vectors, 6, lambda vectors: vectors[:, 2], lambda u: u * 2.0 - 1.0),
    ],
    ids=["haar_kets", "random_bloch_vectors"],
)
def test_samplers_at_tiny_n_keep_the_stream(sample, rows, of_u, by_u, n):
    # the pairs are drawn into the first 2n floats of the result, read as (n, 2), with or without scratch
    seed = RNG_SEED + 40 + n
    rng, twin, hand = (np.random.default_rng(seed) for _ in range(3))
    values = sample(rng, n, np.full((rows, n), np.nan))
    assert np.array_equal(values.view(float), sample(twin, n).view(float))
    assert np.array_equal(of_u(values), by_u(hand.random((n, 2))[:, 0]))
    assert rng.random() == twin.random() == hand.random()


def test_samplers_at_the_edge_draws():
    # v = 0 is phi = -pi, where tan(phi / 2) is about -1.6e16; any overflow
    # there is a RuntimeWarning, which fails the test
    top = 1.0 - 2.0**-53
    u, v = np.array([(u, v) for u in (0.0, top) for v in (0.0, 0.25, 0.5, 0.75, top)]).T
    phi = 2 * np.pi * v - np.pi
    # a stand-in generator: random(out=...) writes the pairs into the sampler's rows
    pairs = SimpleNamespace(random=lambda out: np.copyto(out, np.stack([u, v], axis=1)) or out)
    kets = qcore.haar_kets(pairs, len(u))
    vectors = qcore.random_bloch_vectors(pairs, len(u))
    assert np.isfinite(kets).all() and np.isfinite(vectors).all()
    npt.assert_allclose(np.linalg.norm(kets, axis=1), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(kets[:, 0], np.sqrt(u), rtol=0, atol=1e-15)
    npt.assert_allclose(kets[:, 1], np.sqrt(1 - u) * np.exp(1j * phi), rtol=0, atol=1e-15)
    r = 2 * np.sqrt(u * (1 - u))
    expected = np.stack([r * np.cos(phi), r * np.sin(phi), 2 * u - 1], axis=1)
    npt.assert_allclose(vectors, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "sample, result_rows",
    [(qcore.haar_kets, 4), (qcore.random_bloch_vectors, 3)],
    ids=["haar_kets", "random_bloch_vectors"],
)
def test_samplers_allocate_the_draws_the_result_and_one_row(sample, result_rows):
    # the (n, 2) draws, the result and the one row of half-angle tangents, in
    # rows of n float64; the allowance covers the array objects, not data
    n = estimates.CHUNK
    sample(np.random.default_rng(RNG_SEED + 14), n)
    tracemalloc.start()
    try:
        sample(np.random.default_rng(RNG_SEED + 14), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (2 + result_rows + 1) * 8 * n + 4096


@pytest.mark.parametrize(
    "sample",
    [qcore.random_bloch_vectors, lambda rng, n: oracles.bloch_rows(qcore.haar_kets(rng, n))[:, 1:]],
    ids=["random_bloch_vectors", "bloch_rows(haar_kets)"],
)
def test_sampled_directions_are_uniform_on_the_sphere(sample):
    # within 4 standard errors: E[m] = 0, E[m m^T] = I/3, and z = cos(theta)
    # and the azimuth uniform over ten equal bins each
    n = 100_000
    m = sample(np.random.default_rng(RNG_SEED + 13), n)
    npt.assert_array_less(np.abs(m.mean(axis=0)), 4 * m.std(axis=0) / np.sqrt(n))
    second = m[:, :, None] * m[:, None, :]
    npt.assert_array_less(np.abs(second.mean(axis=0) - np.eye(3) / 3), 4 * second.std(axis=0) / np.sqrt(n))
    bins = 10
    band = 4 * np.sqrt(n * (1 / bins) * (1 - 1 / bins))
    for values, lo, hi in ((m[:, 2], -1.0, 1.0), (np.arctan2(m[:, 1], m[:, 0]), -np.pi, np.pi)):
        counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
        npt.assert_array_less(np.abs(counts - n / bins), band)


def test_random_density_is_density():
    rng = np.random.default_rng(RNG_SEED + 6)
    for dim in (2, 4):
        assert qcore.is_density(qcore.random_density(rng, dim))


def test_unit_vector_guard():
    qcore.spin_projector([0.0, 0.6, 0.8])
    for bad in ([0.0, 0.0, 2.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.nan] * 3):
        with pytest.raises(ValueError, match="unit vector"):
            qcore.spin_projector(bad)


def _near_and_huge(units):
    # each unit vector scaled to just inside and just outside the 1e-9 tolerance, then
    # vectors of entries +-1e308, whose squares overflow, and one of NaN and one of inf
    scales = 1 + np.array([-1.001, -0.999, 0.999, 1.001]) * 1e-9
    huge = [[1e308, 1e308, 0.0], [-1e308, 0.0, 0.0], [1e308, -1e308, 1e308], [1e200, 0.0, 0.0]]
    edge = [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]]
    return [*units, *(u * c for u in units for c in scales), *(np.array(v)[: len(units[0])] for v in huge + edge)]


def test_unit_vector_checks_match_the_norm_without_a_warning():
    rng = np.random.default_rng(RNG_SEED + 20)
    directions = _near_and_huge([*qcore.random_bloch_vectors(rng, 10), *rng.standard_normal((4, 3))])
    kets = _near_and_huge([*qcore.haar_kets(rng, 10) * np.exp(1j * rng.random((10, 1))), *rng.standard_normal((4, 2))])
    kets += [np.array([1e308j, 1e308]), np.array([-1e308, 1e308j])]
    good = bellcheck.violation_setting()

    def setting(r):
        return bellcheck.TeleportBellSetting(good.chi, good.chi_prime, r, good.s)

    checks = {
        "unit_direction": (directions, lambda n: qcore.unit_direction(n, "n")),
        "spin_projector": (directions, qcore.spin_projector),
        "TeleportBellSetting": (directions, setting),
        "qubit_ket": (kets, lambda k: qcore.qubit_ket(k, "k")),
        "ket_to_bloch": (kets, qcore.ket_to_bloch),
    }
    for name, (vectors, check) in checks.items():
        verdicts = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in vectors:
                try:
                    check(v)
                    verdicts.append(True)
                except ValueError as error:
                    assert "unit vector" in str(error), name
                    verdicts.append(False)
        assert verdicts == [oracles.is_unit_vector(v) for v in vectors], name
        # the unit vectors pass, scaled just inside the tolerance too, and the huge ones fail
        assert verdicts[:10] == [True] * 10 and verdicts[14:54] == [False, True, True, False] * 10, name
        assert not any(verdicts[70:]), name


def test_check_effects_names_the_first_bad_effect():
    z = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    npt.assert_array_equal(qcore.check_effects(z, projective=True), z)
    with pytest.raises(ValueError, match="shape"):
        qcore.check_effects(np.eye(4)[None])
    negative = np.stack([np.eye(2) / 2, np.diag([0.7, 0.2]), np.diag([-0.2, 0.3])]).astype(complex)
    with pytest.raises(ValueError, match="effect 2 is not positive semidefinite"):
        qcore.check_effects(negative)
    tilted = np.stack([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]).astype(complex)
    qcore.check_effects(tilted)
    with pytest.raises(ValueError, match="effect 0 is not a projector"):
        qcore.check_effects(tilted, projective=True)
    for bad in (np.nan, np.inf):
        poisoned = z.copy()
        poisoned[1, 0, 1] = bad
        with pytest.raises(ValueError, match="sum to the identity"):
            qcore.check_effects(poisoned)


def test_pauli_layer_matches_the_trace_oracles():
    rng = np.random.default_rng(RNG_SEED + 11)
    for _ in range(30):
        rho = qcore.random_density(rng, 4)
        corr = qcore.pauli_correlations(rho)
        for a, sa in enumerate(qcore.PAULI_BASIS):
            for b, sb in enumerate(qcore.PAULI_BASIS):
                assert abs(corr[a, b] - np.trace(rho @ qcore.tensor(sa, sb)).real) <= 1e-14
        kets = qcore.haar_kets(rng, 2)
        axes = qcore.random_bloch_vectors(rng, 2)
        setting = bellcheck.TeleportBellSetting(chi=kets[0], chi_prime=kets[1], r=axes[0], s=axes[1])
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        weights = rng.dirichlet(np.ones(3), size=2).T
        families = (
            bellcheck.grouped_alice_effects(setting, bellcheck.OutcomeGrouping()).reshape(4, 2, 2),
            bellcheck.bob_projectors(setting).reshape(4, 2, 2),
            np.stack([u @ np.diag(w) @ u.conj().T for w in weights]),  # commuting three-outcome POVM
        )
        effects = np.concatenate(families)
        rows = qcore.pauli_rows(effects)
        for e, row_e in zip(effects, rows):
            for f, row_f in zip(effects, rows):
                assert abs(row_e @ corr @ row_f / 4 - teleport.joint_probability(rho, e, f)) <= 1e-14


def test_pauli_correlations_refuse_what_is_not_a_two_qubit_state():
    skew = qcore.werner_alpha(0.5)
    skew[0, 3] = 0.1
    for bad in (np.eye(4), 3 * np.eye(4), np.full((4, 4), np.nan), skew, np.eye(2) / 2):
        with pytest.raises(ValueError, match="two-qubit density matrix"):
            qcore.pauli_correlations(bad)
