"""Unit tests for the local hidden variable model.

Expected joint probabilities are frozen from an independent reference
computation of Tr[W (A x B)] on the singlet-fraction state at alpha 1/2.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from telelocal import bellcheck, estimates, lhv, qcore, teleport

E0 = np.array([1.0, 0.0], dtype=complex)
Z_PROJS = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
X_PROJS = np.stack(
    [qcore.spin_projector([1.0, 0.0, 0.0], +1), qcore.spin_projector([1.0, 0.0, 0.0], -1)]
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
    assert _spec("povm", tilted).outcomes == 2
    for bad in (np.nan, np.inf):
        poisoned = tilted.copy()
        poisoned[1, 1, 1] = bad
        with pytest.raises(ValueError):
            _spec("povm", poisoned)


def _overlap(kets, ops) -> np.ndarray:
    rows = qcore.bloch_rows(np.atleast_2d(kets))
    return rows @ qcore.pauli_rows(ops).T / 2


def _minimum(kets, ops) -> np.ndarray:
    # row 0 of the responses answers where n . m > 0, row 1 elsewhere
    rows = qcore.bloch_rows(np.atleast_2d(kets))
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
    trine = np.stack(
        [
            (np.eye(2) + np.cos(2 * np.pi * k / 3) * qcore.PAULI_X
             + np.sin(2 * np.pi * k / 3) * qcore.PAULI_Z) / 3
            for k in range(3)
        ]
    )
    with pytest.raises(ValueError):
        _minimum(E0, trine)
    cfg = lhv.LhvConfig(samples=10, seed=0)
    with pytest.raises(ValueError):
        lhv.estimate_joint(_spec("projective", Z_PROJS), _spec("povm", trine), cfg)


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
    big = np.zeros((2, 4, 4), dtype=complex)
    big[0] = np.eye(4) * 0.5
    big[1] = np.eye(4) * 0.5
    with pytest.raises(ValueError):
        lhv.estimate_joint(alice, _spec("povm", big), cfg)


def test_receiver_holds_the_minimum_rule_for_a_projective_pair(monkeypatch):
    # every hidden ket is one fixed ket: the sender answers with its overlaps,
    # the receiver with the one-hot least-overlap outcome
    ket = np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.3j)])
    monkeypatch.setattr(qcore, "haar_kets", lambda rng, n: np.repeat(ket[None], n, axis=0))
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
def test_teleport_experiment_runs_each_settings_pair_on_its_child_seed(alpha):
    # pair (ia, ib) is one estimate_joint call on child seed 2 ia + ib
    setting = bellcheck.violation_setting()
    grouping = bellcheck.OutcomeGrouping()
    samples, seed = 2000, 31
    result = lhv.lhv_teleport_experiment(setting, grouping, lhv.LhvConfig(samples, seed), alpha=alpha)
    effects = bellcheck.grouped_alice_effects(setting, grouping)
    projs = bellcheck.bob_projectors(setting)
    seeds = estimates.child_seeds(seed, 4)
    for ia in range(2):
        for ib in range(2):
            est = lhv.estimate_joint(
                _spec("povm", effects[ia]),
                _spec("projective", projs[ib]),
                lhv.LhvConfig(samples, seeds[2 * ia + ib]),
                alpha=alpha,
            )
            assert np.array_equal(result.table.joints[ia, :, ib, :], est.probs)
            assert np.array_equal(result.table.stderr[ia, :, ib, :], est.stderr)


def test_teleport_experiment_tracks_alpha():
    setting = bellcheck.violation_setting()
    grouping = bellcheck.OutcomeGrouping()
    cfg = lhv.LhvConfig(samples=150_000, seed=28)
    result = lhv.lhv_teleport_experiment(setting, grouping, cfg, alpha=0.25)
    expected = bellcheck.closed_form_value(0.25, setting)
    assert abs(result.value - expected) <= 4 * result.stderr
