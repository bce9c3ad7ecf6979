"""Unit tests for the local hidden variable model.

Expected joint probabilities are frozen from an independent reference
computation of Tr[W (A x B)] on the singlet-fraction state at alpha 1/2.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from oracles import bloch_rows
from telelocal import bellcheck, estimates, lhv, qcore, teleport
from telelocal.estimates import StreamingMoments

E0 = np.array([1.0, 0.0], dtype=complex)
Z_PROJS = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
X_PROJS = np.stack(
    [qcore.spin_projector([1.0, 0.0, 0.0], +1), qcore.spin_projector([1.0, 0.0, 0.0], -1)]
)
# three effects whose Bloch vectors point 120 degrees apart in the x-z plane: they do not commute
TRINE = np.stack(
    [(np.eye(2) + np.cos(2 * np.pi * k / 3) * qcore.PAULI_X + np.sin(2 * np.pi * k / 3) * qcore.PAULI_Z) / 3 for k in range(3)]
)
R_AXIS = np.array([np.sin(0.5) * np.cos(0.9), np.sin(0.5) * np.sin(0.9), np.cos(0.5)])


def _spec(kind, ops) -> lhv.MeasurementSpec:
    return lhv.MeasurementSpec(kind=kind, operators=np.asarray(ops, dtype=complex))


def _grouped_effect_povm() -> lhv.MeasurementSpec:
    setting = bellcheck.TeleportBellSetting(
        chi=np.array([np.cos(0.2), np.sin(0.2)], dtype=complex),
        chi_prime=np.array([np.cos(1.1), 1j * np.sin(1.1)], dtype=complex),
        r=R_AXIS,
        s=np.array([0.0, 0.0, 1.0]),
    )
    effects = bellcheck.grouped_alice_effects(setting, bellcheck.OutcomeGrouping())
    return _spec("povm", effects[bellcheck.SETTING_T])


def test_measurement_spec_validation():
    _spec("projective", Z_PROJS)
    with pytest.raises(ValueError):
        _spec("weak", Z_PROJS)
    with pytest.raises(ValueError):
        _spec("projective", np.stack([np.eye(2, dtype=complex)] * 2))  # sums to 2I
    tilted = np.stack([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]).astype(complex)
    with pytest.raises(ValueError):
        _spec("projective", tilted)  # not idempotent
    _spec("povm", tilted)
    skew = tilted.copy()
    skew[0, 0, 1] = 0.5
    skew[1, 0, 1] = -0.5
    with pytest.raises(ValueError):
        _spec("povm", skew)  # not hermitian
    for bad in (np.nan, np.inf):
        poisoned = tilted.copy()
        poisoned[1, 1, 1] = bad
        with pytest.raises(ValueError):
            _spec("povm", poisoned)


def _overlap(kets, ops) -> np.ndarray:
    rows = bloch_rows(np.atleast_2d(kets))
    return rows @ qcore.pauli_rows(ops).T / 2


def _minimum(kets, ops) -> np.ndarray:
    # row 0 of the responses answers where n . m > 0, row 1 elsewhere
    rows = bloch_rows(np.atleast_2d(kets))
    axis, responses = lhv.minimum_rule(qcore.pauli_rows(ops))
    return responses[(rows[:, 1:] @ axis <= 0).astype(int)]


def _ket_overlap(kets, ops) -> np.ndarray:
    return np.einsum("si,kij,sj->sk", kets.conj(), ops, kets).real


def _ket_minimum(kets, ops) -> np.ndarray:
    # common eigenbasis of a commuting family from one generic combination;
    # the eigenvector with the least overlap wins and answers with its weights
    _, basis = np.linalg.eigh(np.tensordot(np.arange(1, len(ops) + 1), ops, axes=1))
    weights = np.einsum("ij,kil,lj->jk", basis.conj(), ops, basis).real
    winners = np.argmin(np.abs(kets @ basis.conj()) ** 2, axis=1)
    return weights[winners]


def _random_unitary(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


def test_bloch_rules_match_the_ket_rules():
    rng = np.random.default_rng(31)
    families = []
    for _ in range(5):
        axis = qcore.random_bloch_vectors(rng, 1)[0]
        families.append(np.stack([qcore.spin_projector(axis, +1), qcore.spin_projector(axis, -1)]))
        elements = teleport.povm_from_input(qcore.haar_kets(rng, 1)[0]).elements
        group = list(rng.choice(4, size=2, replace=False))
        rest = sorted(set(range(4)) - set(group))
        families.append(np.stack([elements[group].sum(axis=0), elements[rest].sum(axis=0)]))
        u = _random_unitary(rng)
        for diagonals in (([0.7, 0.2], [0.3, 0.8]), ([0.5, 0.1], [0.3, 0.3], [0.2, 0.6])):
            families.append(np.stack([u @ np.diag(d) @ u.conj().T for d in diagonals]))
    for ops in families:
        lhv.MeasurementSpec(kind="povm", operators=ops)
        kets = qcore.haar_kets(rng, 500)
        npt.assert_allclose(_overlap(kets, ops), _ket_overlap(kets, ops), rtol=0, atol=1e-12)
        npt.assert_allclose(_minimum(kets, ops), _ket_minimum(kets, ops), rtol=0, atol=1e-12)


def test_receiver_minimum_rule_is_anticorrelated():
    # hidden ket along |0>: the least-overlap projector is |1><1|, outcome 1
    npt.assert_allclose(_minimum(E0, Z_PROJS), [[0.0, 1.0]], atol=1e-15)
    npt.assert_allclose(_minimum(np.array([0.0, 1.0]), Z_PROJS), [[1.0, 0.0]], atol=1e-15)


def test_sender_overlap_rule_values():
    assert abs(_overlap(E0, Z_PROJS)[0, 0] - 1.0) < 1e-15
    assert abs(_overlap(E0, Z_PROJS)[0, 1]) < 1e-15
    assert abs(_overlap(E0, X_PROJS)[0, 0] - 0.5) < 1e-15


def test_sender_overlap_rule_is_additive():
    rng = np.random.default_rng(11)
    lam = qcore.haar_kets(rng, 1)[0]
    povm = _grouped_effect_povm().operators
    assert abs(_overlap(lam, povm).sum() - 1.0) < 1e-12
    combined = _overlap(lam, (povm[0] + povm[1])[None])
    assert abs(combined[0, 0] - 1.0) < 1e-12


def test_receiver_commuting_povm_rule():
    tilted = np.stack([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]).astype(complex)
    # hidden ket |0>: winning eigenvector is |1>, response is its weights
    npt.assert_allclose(_minimum(E0, tilted), [[0.2, 0.8]], atol=1e-12)
    # projective elements reduce to the one-hot minimum rule
    npt.assert_allclose(_minimum(E0, Z_PROJS), [[0.0, 1.0]], atol=1e-12)


def test_noncommuting_receiver_povm_rejected():
    with pytest.raises(ValueError):
        _minimum(E0, TRINE)
    cfg = lhv.LhvConfig(samples=10, seed=0)
    with pytest.raises(ValueError):
        lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("povm", TRINE), cfg)


def test_minimum_rule_refuses_rows_that_overflow_without_a_warning():
    # lengths whose squares overflow, and NaN or inf entries
    along_z = [[1.0, 0.0, 0.0, 0.6], [1.0, 0.0, 0.0, -0.6]]
    huge = [
        [[1.0, 1e308, 1e308, 0.0]],
        [[1.0, 0.0, 0.0, 1.0], [1.0, -1e308, 0.0, 0.0]],
        [[1.0, 0.0, 2e154, 0.0]],
        [[1.0, np.nan, 0.0, 0.0]],
        [[np.inf, 0.0, 0.0, 1.0]],
        [[1.0, 0.0, -np.inf, 0.0]],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        axis, responses = lhv.minimum_rule(np.array(along_z))
        for rows in huge:
            with pytest.raises(ValueError, match="finite Pauli rows"):
                lhv.minimum_rule(np.array(rows))
    npt.assert_array_equal(axis, [0.0, 0.0, 1.0])
    npt.assert_allclose(responses, [[0.2, 0.8], [0.8, 0.2]], rtol=0, atol=1e-15)


def test_estimate_joint_validation(monkeypatch):
    cfg = lhv.LhvConfig(samples=10, seed=0)
    alice = _spec("projective", Z_PROJS)
    with pytest.raises(ValueError):
        lhv.estimate_joint(alice, alice, cfg, alpha=0.7)
    # run_chunks rejects a zero sample count before any hidden ket is drawn
    monkeypatch.setattr(qcore, "haar_kets", None)
    empty = lhv.LhvConfig(samples=0, seed=0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        lhv.estimate_joint(alice, alice, empty)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        lhv.lhv_teleport_experiment(bellcheck.violation_setting(), bellcheck.OutcomeGrouping(), empty)
    # so are an empty list of settings and settings of two outcome counts on one side
    three = _spec("povm", [np.diag([1.0, 0.0]), *[np.diag([0.0, 0.5])] * 2])
    for sender, receiver in (([], alice), (alice, []), ([alice, three], alice), (alice, [alice, three])):
        with pytest.raises(ValueError, match="non-empty, of one outcome count"):
            lhv.estimate_joint(sender, receiver, cfg)
    big = np.zeros((2, 4, 4), dtype=complex)
    big[0] = np.eye(4) * 0.5
    big[1] = np.eye(4) * 0.5
    with pytest.raises(ValueError):
        lhv.estimate_joint(alice, _spec("povm", big), cfg)


def test_receiver_holds_the_minimum_rule_for_a_projective_pair(monkeypatch):
    # every hidden ket is one fixed ket: the sender answers with its overlaps,
    # the receiver with the one-hot least-overlap outcome
    ket = np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.3j)])
    monkeypatch.setattr(qcore, "haar_kets", lambda rng, n, *scratch: np.repeat(ket[None], n, axis=0))
    est = lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("projective", X_PROJS), lhv.LhvConfig(50, 3))
    receiver = np.eye(2)[np.argmin(_ket_overlap(ket[None], X_PROJS)[0])]
    npt.assert_allclose(est.probs, np.outer(_ket_overlap(ket[None], Z_PROJS)[0], receiver), rtol=0, atol=1e-15)


def test_projective_pair_matches_quantum_statistics():
    cfg = lhv.LhvConfig(samples=200_000, seed=21)
    est = lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("projective", Z_PROJS), cfg)
    expected = np.array([[0.125, 0.375], [0.375, 0.125]])
    assert np.all(np.abs(est.probs - expected) <= 4 * est.stderr + 1e-12)
    assert abs(est.probs.sum() - 1.0) < 1e-10

    est_zx = lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("projective", X_PROJS), cfg)
    assert abs(est_zx.probs[0, 0] - 0.25) <= 4 * est_zx.stderr[0, 0] + 1e-12


def test_povm_sender_matches_quantum_statistics():
    cfg = lhv.LhvConfig(samples=200_000, seed=22)
    bob = _spec("projective", np.stack([
        qcore.spin_projector(R_AXIS, +1), qcore.spin_projector(R_AXIS, -1)
    ]))
    est = lhv.estimate_joint(_grouped_effect_povm(), bob, cfg)
    expected_plus = np.array([0.2645065971846372, 0.23549340281536268])
    assert np.all(np.abs(est.probs[0] - expected_plus) <= 4 * est.stderr[0] + 1e-12)


def test_povm_receiver_matches_quantum_statistics():
    # both sides POVM: receiver elements must commute; use a diagonal pair,
    # quantum value Tr[W (E_j x F_k)] for W at alpha 1/2
    cfg = lhv.LhvConfig(samples=200_000, seed=23)
    tilted = np.stack([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]).astype(complex)
    est = lhv.estimate_joint(_grouped_effect_povm(), _spec("povm", tilted), cfg)
    w = qcore.werner_alpha(0.5)
    alice_ops = _grouped_effect_povm().operators
    expected = np.array(
        [
            [np.trace(qcore.tensor(a, b) @ w).real for b in tilted]
            for a in alice_ops
        ]
    )
    assert np.all(np.abs(est.probs - expected) <= 4 * est.stderr + 1e-12)


@pytest.mark.parametrize("samples", [2, 7, 1500])
def test_constant_cells_have_a_finite_rounding_stderr(samples):
    # a chunk reduces each cell from its sums and sums of squares, where the
    # CH table cannot see a bug. Every cell here is one constant answer times
    # one constant overlap, so its M2, squares - sums * mean, is rounding only
    half = _spec("povm", np.stack([np.eye(2) / 2] * 2))
    est = lhv.estimate_joint(half, half, lhv.LhvConfig(samples, 5))
    assert np.array_equal(est.probs, np.full((2, 2), 0.25))
    assert np.all(np.isfinite(est.stderr)) and np.all(est.stderr <= 1e-12)
    # 1/4 and its sums are exact in binary; these cells round, and at 7 and
    # 1500 samples some M2 rounds below 0, which the clamp at 0 keeps from
    # reaching the square root as NaN. The rest read about c sqrt(eps / n)
    sender = _spec("povm", np.stack([0.3 * np.eye(2), 0.7 * np.eye(2)]))
    receiver = _spec("povm", np.stack([0.4 * np.eye(2), 0.6 * np.eye(2)]))
    est = lhv.estimate_joint(sender, receiver, lhv.LhvConfig(samples, 5))
    npt.assert_allclose(est.probs, np.outer([0.3, 0.7], [0.4, 0.6]), rtol=1e-14)
    assert np.all(np.isfinite(est.stderr)) and np.all(est.stderr <= 1e-8)


def test_povm_receiver_stderr_matches_per_sample_products():
    # the tilted receiver answers (0.7, 0.3) or (0.2, 0.8), so its squared
    # answers are not its answers, as a projective receiver's are. Each cell's
    # stderr from sums and sums of squares must match the per-sample oracle:
    # explicit product rows from the same hidden kets, through StreamingMoments.add
    tilted = _spec("povm", np.stack([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]))
    sender = _grouped_effect_povm()
    samples = 20_000
    est = lhv.estimate_joint(sender, tilted, lhv.LhvConfig(samples, 33))
    kets = qcore.haar_kets(np.random.default_rng(np.random.SeedSequence(33).spawn(2)[0]), samples)
    products = _overlap(kets, sender.operators)[:, :, None] * _minimum(kets, tilted.operators)[:, None, :]
    oracle = StreamingMoments((2, 2)).add(products)
    npt.assert_allclose(est.probs, oracle.mean(), rtol=1e-13)
    npt.assert_allclose(est.stderr, oracle.stderr(), rtol=1e-12)


def _ch_settings(variant):
    # the CH test's settings; "three" and "four" add receivers on random
    # projective axes, with one term each on a new cell of the signed sum
    setting, grouping = bellcheck.violation_setting(), bellcheck.OutcomeGrouping()
    senders = [_spec("povm", e) for e in bellcheck.grouped_alice_effects(setting, grouping)]
    receivers = [_spec("projective", p) for p in bellcheck.bob_projectors(setting)]
    if variant == "tilted":
        receivers[bellcheck.SETTING_R] = _spec("povm", np.stack([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]))
    extra = {"three": 1, "four": 2}.get(variant, 0)
    for axis in qcore.random_bloch_vectors(np.random.default_rng(35), extra):
        receivers.append(_spec("projective", [qcore.spin_projector(axis, +1), qcore.spin_projector(axis, -1)]))
    cells = [(bellcheck.SETTING_T, bellcheck.OUT_PLUS, 2, bellcheck.OUT_MINUS)]
    cells.append((bellcheck.SETTING_U, bellcheck.OUT_MINUS, 3, bellcheck.OUT_PLUS))
    terms = bellcheck.CH_TERMS + tuple(zip((-1, +1), cells[:extra]))
    return setting, grouping, senders, receivers, terms


@pytest.mark.parametrize("alpha", [0.5, 0.25])
@pytest.mark.parametrize("variant", ["projective", "tilted", "three", "four"])
def test_ch_table_matches_per_sample_products(alpha, variant):
    # a chunk reduces the table to Gram sums and never writes a cell; the oracle
    # writes every overlap x answer product row and the signed terms' row from
    # the same hidden kets and adds them per sample. The tilted receiver's squared
    # answers are not its answers, so its sums of squares test the i^2 = i step;
    # three and four receivers test the weights' pair products beyond one pair
    setting, grouping, senders, receivers, terms = _ch_settings(variant)
    samples = 20_000  # one stream block of two chunks
    cfg = lhv.LhvConfig(samples, 34)
    est = lhv.estimate_joint(senders, receivers, cfg, alpha=alpha, terms=iter(terms))
    kets = qcore.haar_kets(np.random.default_rng(np.random.SeedSequence(34).spawn(2)[0]), samples)
    overlaps = np.stack([_overlap(kets, spec.operators) for spec in senders], axis=1)
    answers = np.stack([_minimum(kets, spec.operators) for spec in receivers], axis=1)
    products = overlaps[:, :, :, None, None] * answers[:, None, None]
    cells = products[0].size
    signed = sum(sign * products[(slice(None), *cell)] for sign, cell in terms)
    oracle = StreamingMoments((cells + 1,)).add(np.column_stack([products.reshape(samples, cells), signed]))
    traces = [np.stack([np.trace(spec.operators, axis1=1, axis2=2).real for spec in specs]) for specs in (senders, receivers)]
    noise = np.multiply.outer(*traces) / 4
    noise_signed = np.append(noise.ravel(), sum(sign * noise[cell] for sign, cell in terms))
    mean, stderr = 2 * alpha * oracle.mean() + (1 - 2 * alpha) * noise_signed, 2 * alpha * oracle.stderr()
    assert est.probs.shape == (2, 2, len(receivers), 2)
    npt.assert_allclose(est.probs.ravel(), mean[:cells], rtol=0, atol=1e-13)
    npt.assert_allclose(est.stderr.ravel(), stderr[:cells], rtol=1e-12)
    npt.assert_allclose(est.terms_stderr, stderr[cells], rtol=1e-12)
    table = bellcheck.ProbabilityTable(joints=est.probs[:, :, :2], stderr=est.stderr[:, :, :2])
    extra = sum(sign * est.probs[cell] for sign, cell in terms[len(bellcheck.CH_TERMS) :])
    npt.assert_allclose(bellcheck.ch_value(table) + extra, mean[cells], rtol=0, atol=1e-13)
    if variant == "projective":
        result = lhv.lhv_teleport_experiment(setting, grouping, cfg, alpha=alpha)
        npt.assert_allclose(result.value, mean[cells], rtol=0, atol=1e-13)
        npt.assert_allclose(result.stderr, stderr[cells], rtol=1e-12)
        npt.assert_allclose(result.table.joints.ravel(), mean[:cells], rtol=0, atol=1e-13)
        npt.assert_allclose(result.table.stderr.ravel(), stderr[:cells], rtol=1e-12)


def test_four_receivers_grow_the_chunk_buffer_to_17_rows():
    # four receiver axes take 11 weight rows (4 indicators, 6 pair products and
    # the ones), so a chunk asks for bloch + 4 = 17 rows of CHUNK, 2.1 MiB, in
    # place of the 10 of one or two axes; a fresh thread starts with no buffer
    _, _, senders, receivers, terms = _ch_settings("four")

    def warmed_buffer_bytes():
        lhv.estimate_joint(senders, receivers, lhv.LhvConfig(estimates.CHUNK, 36), terms=terms)
        return estimates._buffers.floats.nbytes

    with ThreadPoolExecutor(1) as thread:
        assert thread.submit(warmed_buffer_bytes).result(timeout=120) == 17 * estimates.CHUNK * 8


def test_white_noise_limit_is_exact():
    # alpha 0 replaces every response by the trace table, variance collapses
    cfg = lhv.LhvConfig(samples=5_000, seed=24)
    est = lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("projective", X_PROJS), cfg, alpha=0.0)
    npt.assert_allclose(est.probs, np.full((2, 2), 0.25), atol=1e-14)
    npt.assert_allclose(est.stderr, 0.0, atol=1e-14)
    # exact even from one sample, whose own stderr is infinite
    one = lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("projective", X_PROJS), lhv.LhvConfig(1, 24), alpha=0.0)
    assert np.array_equal(one.stderr, np.zeros((2, 2)))


def test_alpha_mixes_white_noise_into_the_half_estimate_exactly():
    # W_alpha = 2 alpha W_1/2 + (1 - 2 alpha) I/4, and I/4 gives the joint Tr A Tr B / 4
    bob_r = _spec("projective", np.stack([qcore.spin_projector(R_AXIS, +1), qcore.spin_projector(R_AXIS, -1)]))
    tilted = _spec("povm", np.stack([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]))
    cfg = lhv.LhvConfig(samples=2000, seed=26)
    for alice, bob in ((_grouped_effect_povm(), bob_r), (_grouped_effect_povm(), tilted)):
        half = lhv.estimate_joint(alice, bob, cfg)
        noise = np.outer(*(np.trace(spec.operators, axis1=1, axis2=2).real for spec in (alice, bob))) / 4
        for alpha in (0.0, 0.25, 0.3):
            est = lhv.estimate_joint(alice, bob, cfg, alpha=alpha)
            npt.assert_allclose(est.probs, 2 * alpha * half.probs + (1 - 2 * alpha) * noise, rtol=0, atol=1e-15)
            npt.assert_allclose(est.stderr, 2 * alpha * half.stderr, rtol=0, atol=1e-15)


def test_alpha_mixing_matches_closed_form():
    cfg = lhv.LhvConfig(samples=200_000, seed=25)
    est = lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("projective", Z_PROJS), cfg, alpha=0.3)
    w = qcore.werner_alpha(0.3)
    expected = np.array(
        [[np.trace(qcore.tensor(a, b) @ w).real for b in Z_PROJS] for a in Z_PROJS]
    )
    assert np.all(np.abs(est.probs - expected) <= 4 * est.stderr + 1e-12)


def test_teleport_experiment_reproduces_the_ch_value():
    setting = bellcheck.violation_setting()
    grouping = bellcheck.OutcomeGrouping()
    cfg = lhv.LhvConfig(samples=150_000, seed=27)
    result = lhv.lhv_teleport_experiment(setting, grouping, cfg)
    target = (2 - math.sqrt(2)) / 4
    assert abs(result.value - target) <= 4 * result.stderr
    assert 0.0 < result.stderr < 0.01
    # every cell sits within noise of the quantum table
    oracle = bellcheck.probability_table(setting, grouping, qcore.werner_alpha(0.5)).joints
    assert np.all(np.abs(result.table.joints - oracle) <= 4 * result.table.stderr + 1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.25])
def test_teleport_experiment_table_pairs_equal_single_pair_estimates(alpha):
    # one hidden ket per sample answers all four settings pairs, so pair (ia, ib)
    # of the table is the single-pair estimate on the same seed. The two calls
    # contract different weight sets (4 against 2 Gram columns), so they agree to
    # rounding: 5.6e-17 in the probabilities and 1.8e-16 relative in the stderr here
    setting = bellcheck.violation_setting()
    grouping = bellcheck.OutcomeGrouping()
    cfg = lhv.LhvConfig(samples=2000, seed=31)
    result = lhv.lhv_teleport_experiment(setting, grouping, cfg, alpha=alpha)
    effects = bellcheck.grouped_alice_effects(setting, grouping)
    projs = bellcheck.bob_projectors(setting)
    for ia in range(2):
        for ib in range(2):
            est = lhv.estimate_joint(_spec("povm", effects[ia]), _spec("projective", projs[ib]), cfg, alpha=alpha)
            npt.assert_allclose(result.table.joints[ia, :, ib, :], est.probs, rtol=0, atol=1e-15)
            npt.assert_allclose(result.table.stderr[ia, :, ib, :], est.stderr, rtol=1e-12)


def test_teleport_experiment_stderr_is_calibrated():
    # z of the CH value over many seeds has mean 0 and standard deviation 1; adding
    # the four cell errors in quadrature, which ignores that the cells share the
    # hidden ket, overstates the stderr about fivefold and fails the spread
    setting = bellcheck.violation_setting()
    grouping = bellcheck.OutcomeGrouping()
    target = (2 - math.sqrt(2)) / 4
    z = np.array([
        (result.value - target) / result.stderr
        for result in (lhv.lhv_teleport_experiment(setting, grouping, lhv.LhvConfig(4000, seed)) for seed in range(300))
    ])
    assert abs(z.mean()) <= 0.2
    assert 0.85 <= z.std() <= 1.15


def test_teleport_experiment_tracks_alpha():
    setting = bellcheck.violation_setting()
    grouping = bellcheck.OutcomeGrouping()
    cfg = lhv.LhvConfig(samples=150_000, seed=28)
    result = lhv.lhv_teleport_experiment(setting, grouping, cfg, alpha=0.25)
    expected = bellcheck.closed_form_value(0.25, setting)
    assert abs(result.value - expected) <= 4 * result.stderr


def _random_povm(rng, outcomes) -> np.ndarray:
    # G_k = A_k A_k^dagger made to sum to I: S^-1/2 G_k S^-1/2 with S = sum G_k
    g = rng.standard_normal((outcomes, 2, 2)) + 1j * rng.standard_normal((outcomes, 2, 2))
    g = g @ g.conj().transpose(0, 2, 1)
    values, vectors = np.linalg.eigh(g.sum(axis=0))
    root = vectors @ np.diag(values**-0.5) @ vectors.conj().T
    return root @ g @ root


def _exact_settings(rng, senders, receivers):
    # two sender settings and three receiver settings of the named families
    if senders == "grouped":
        # the teleportation sender's binary POVMs: two of the four Bell-outcome elements against the rest
        alice = []
        for _ in range(2):
            elements = teleport.povm_from_input(qcore.haar_kets(rng, 1)[0]).elements
            group = list(rng.choice(4, size=2, replace=False))
            rest = sorted(set(range(4)) - set(group))
            alice.append(_spec("povm", np.stack([elements[group].sum(axis=0), elements[rest].sum(axis=0)])))
    else:
        alice = [_spec("povm", _random_povm(rng, 3)) for _ in range(2)]
    bob = []
    for axis in qcore.random_bloch_vectors(rng, 3):
        if receivers == "projective":
            bob.append(_spec("projective", [qcore.spin_projector(axis, +1), qcore.spin_projector(axis, -1)]))
        else:
            # effects diagonal in the basis of +axis and -axis commute, with weights unequal on the two states
            plus, minus = qcore.spin_projector(axis, +1), qcore.spin_projector(axis, -1)
            p, q = rng.uniform(size=2)
            bob.append(_spec("povm", [p * plus + q * minus, (1 - p) * plus + (1 - q) * minus]))
    return alice, bob


def _quantum_table(alice, bob, alpha) -> np.ndarray:
    w = qcore.werner_alpha(alpha)
    return np.array(
        [
            [[[np.trace(np.kron(a, b) @ w).real for b in receiver.operators] for receiver in bob] for a in sender.operators]
            for sender in alice
        ]
    )


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("senders", ["grouped", "three"])
@pytest.mark.parametrize("receivers", ["projective", "tilted"])
def test_exact_joint_is_the_quantum_table(alpha, senders, receivers):
    # the model's closed-form table, each cell row times E_alpha[phi], is Tr[W_alpha (A x B)]
    # for every alpha in [0, 1/2], with no sampling and so no band
    rng = np.random.default_rng(40)
    for _ in range(5):
        alice, bob = _exact_settings(rng, senders, receivers)
        npt.assert_allclose(lhv.exact_joint(alice, bob, alpha), _quantum_table(alice, bob, alpha), rtol=0, atol=1e-15)
    setting, grouping = bellcheck.violation_setting(), bellcheck.OutcomeGrouping()
    oracle = bellcheck.probability_table(setting, grouping, qcore.werner_alpha(alpha)).joints
    npt.assert_allclose(lhv.exact_joint(*lhv.teleport_specs(setting, grouping), alpha), oracle, rtol=0, atol=1e-15)


def test_exact_joint_takes_the_shapes_of_estimate_joint():
    # a single pair drops the setting axes, a list on either side keeps all four;
    # a pair of a list is the single-pair table
    cfg = lhv.LhvConfig(samples=10, seed=0)
    senders, receivers = _exact_settings(np.random.default_rng(41), "three", "tilted")
    table = lhv.exact_joint(senders, receivers, 0.3)
    assert table.shape == (2, 3, 3, 2)
    for alice, bob in ((senders[1], receivers[2]), (senders, receivers), (senders[1], receivers), (senders, receivers[2])):
        assert lhv.exact_joint(alice, bob).shape == lhv.estimate_joint(alice, bob, cfg).probs.shape
    npt.assert_allclose(lhv.exact_joint(senders[1], receivers[2], 0.3), table[1, :, 2, :], rtol=0, atol=1e-16)


def test_exact_joint_refuses_what_estimate_joint_refuses():
    cfg = lhv.LhvConfig(samples=10, seed=0)
    alice = _spec("projective", Z_PROJS)
    three = _spec("povm", [np.diag([1.0, 0.0]), *[np.diag([0.0, 0.5])] * 2])
    cases = [((alice, alice), alpha) for alpha in (-0.1, 0.7, math.nan)]
    cases += [((alice, _spec("povm", TRINE)), 0.5)]
    cases += [(pair, 0.5) for pair in (([], alice), (alice, []), ([alice, three], alice), (alice, [alice, three]))]
    for pair, alpha in cases:
        with pytest.raises(ValueError) as sampled:
            lhv.estimate_joint(*pair, cfg, alpha=alpha)
        with pytest.raises(ValueError) as exact:
            lhv.exact_joint(*pair, alpha=alpha)
        assert str(exact.value) == str(sampled.value)
