"""Unit tests for states, operators, and linear algebra helpers."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from oracles import fidelity
from telelocal import bellcheck, estimates, qcore, teleport

RNG_SEED = 20240811


def test_tensor_matches_kron_chain():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    npt.assert_allclose(qcore.tensor(a, b), np.kron(a, b))


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


def _global_phases(rng, kets):
    # haar_kets fixes Im<0|psi> = 0; a random global phase brings back the terms in Im<0|psi>
    return kets * np.exp(2j * np.pi * rng.random((len(kets), 1)))


def test_bloch_rows_match_ket_to_bloch():
    rng = np.random.default_rng(RNG_SEED + 8)
    kets = _global_phases(rng, qcore.haar_kets(rng, 60))
    s = np.sqrt(0.5)
    real = np.array([[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s], [0.6, -0.8]])
    for batch in (kets, kets[::3], real):
        rows = qcore.bloch_rows(batch)
        assert rows.shape == (len(batch), 4)
        npt.assert_array_equal(rows[:, 0], 1.0)
        npt.assert_allclose(rows[:, 1:], [qcore.ket_to_bloch(k) for k in batch], rtol=0, atol=1e-15)


def test_bloch_rows_are_a_view_of_component_major_rows():
    rng = np.random.default_rng(RNG_SEED + 10)
    kets = _global_phases(rng, qcore.haar_kets(rng, 1000))
    cols = qcore.bloch_rows(kets).T
    assert cols.shape == (4, 1000) and cols.flags.c_contiguous
    a, b = kets[:, 0], kets[:, 1]
    by_hand = np.stack(
        [
            np.ones(1000),
            2 * (a.real * b.real + a.imag * b.imag),
            2 * (a.real * b.imag - a.imag * b.real),
            (a.real**2 + a.imag**2) - (b.real**2 + b.imag**2),
        ]
    )
    assert np.array_equal(cols, by_hand)


def test_bloch_rows_fill_a_given_buffer():
    kets = qcore.haar_kets(np.random.default_rng(RNG_SEED + 11), 1000)
    buf = np.empty((4, 1000))
    rows = qcore.bloch_rows(kets, out=buf)
    assert rows.base is buf and np.shares_memory(rows, buf) and rows.strides == buf.T.strides
    assert np.array_equal(rows, qcore.bloch_rows(kets))
    with pytest.raises(ValueError):
        qcore.bloch_rows(kets, out=np.empty((4, 999)))


def test_bloch_rows_of_a_chunk_stay_within_24_mb():
    tracemalloc.start()
    try:
        qcore.bloch_rows(qcore.haar_kets(np.random.default_rng(RNG_SEED + 9), 250_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24_000_000


def test_random_bloch_vectors_unit_norm():
    rng = np.random.default_rng(RNG_SEED + 5)
    v = qcore.random_bloch_vectors(rng, 1000)
    npt.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    assert np.abs(v.mean(axis=0)).max() < 0.05


def test_random_bloch_vectors_are_the_bloch_vectors_of_haar_kets():
    rng, twin = np.random.default_rng(RNG_SEED + 12), np.random.default_rng(RNG_SEED + 12)
    vectors = qcore.random_bloch_vectors(rng, 500)
    assert vectors.shape == (500, 3)
    npt.assert_allclose(vectors, qcore.bloch_rows(qcore.haar_kets(twin, 500))[:, 1:], rtol=0, atol=1e-15)
    assert rng.random() == twin.random()


def test_samplers_at_the_edge_draws():
    # v = 0 is phi = -pi, where tan(phi / 2) is about -1.6e16; any overflow
    # there is a RuntimeWarning, which fails the test
    top = 1.0 - 2.0**-53
    u, v = np.array([(u, v) for u in (0.0, top) for v in (0.0, 0.25, 0.5, 0.75, top)]).T
    phi = 2 * np.pi * v - np.pi
    # a stand-in generator: random((n, 2)) returns a fresh copy of the pairs,
    # which the samplers overwrite
    pairs = SimpleNamespace(random=lambda shape: np.stack([u, v], axis=1))
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
    [qcore.random_bloch_vectors, lambda rng, n: qcore.bloch_rows(qcore.haar_kets(rng, n))[:, 1:]],
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
