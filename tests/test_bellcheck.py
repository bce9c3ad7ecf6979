"""Unit tests for the CH-type test built from teleportation statistics.

Frozen values come from an independent reference computation (explicit
four-by-four traces, no shared code with the package).
"""

import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from oracles import non_states
from telelocal import bellcheck, lhv, qcore, teleport

RNG_SEED = 20240813

SINGLET_CH = (1 - math.sqrt(2)) / 2
THRESHOLD = 1 / math.sqrt(2)


def _frozen_setting() -> bellcheck.TeleportBellSetting:
    return bellcheck.TeleportBellSetting(
        chi=np.array([np.cos(0.2), np.sin(0.2)], dtype=complex),
        chi_prime=np.array([np.cos(1.1), 1j * np.sin(1.1)], dtype=complex),
        r=np.array([np.sin(0.5) * np.cos(0.9), np.sin(0.5) * np.sin(0.9), np.cos(0.5)]),
        s=np.array([np.sin(1.3) * np.cos(2.1), np.sin(1.3) * np.sin(2.1), np.cos(1.3)]),
    )


def _random_setting(rng: np.random.Generator) -> bellcheck.TeleportBellSetting:
    kets = qcore.haar_kets(rng, 2)
    axes = qcore.random_bloch_vectors(rng, 2)
    return bellcheck.TeleportBellSetting(chi=kets[0], chi_prime=kets[1], r=axes[0], s=axes[1])


def test_setting_validation():
    good = bellcheck.violation_setting()
    with pytest.raises(ValueError):
        bellcheck.TeleportBellSetting(chi=np.array([1.0, 1.0]), chi_prime=good.chi_prime, r=good.r, s=good.s)
    with pytest.raises(ValueError):
        bellcheck.TeleportBellSetting(chi=good.chi, chi_prime=good.chi_prime, r=np.array([0.0, 0.0, 2.0]), s=good.s)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            dataclasses.replace(good, r=np.array([bad, 0.0, 0.0]))
        with pytest.raises(ValueError):
            dataclasses.replace(good, chi=np.array([bad, 0.0]))


def test_grouping_validation():
    bellcheck.OutcomeGrouping(t_set=(1, 3), u_set=(0, 2))
    with pytest.raises(ValueError):
        bellcheck.OutcomeGrouping(t_set=(0, 0), u_set=(0, 3))
    with pytest.raises(ValueError):
        bellcheck.OutcomeGrouping(t_set=(0, 4), u_set=(0, 3))
    # each entry is an outcome index as teleport reads one: no bool, no float
    for bad in ((True, 2), (0, 2.0)):
        with pytest.raises(ValueError):
            bellcheck.OutcomeGrouping(t_set=bad)
    bellcheck.OutcomeGrouping(t_set=(0, np.int64(2)))


def test_probability_table_validation():
    joints = np.full((2, 2, 2, 2), 0.25)
    bellcheck.ProbabilityTable(joints=joints)
    with pytest.raises(ValueError):
        bellcheck.ProbabilityTable(joints=np.full((2, 2, 2), 0.25))
    bad = joints.copy()
    bad[0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        bellcheck.ProbabilityTable(joints=bad)
    with pytest.raises(ValueError):
        bellcheck.ProbabilityTable(joints=joints, stderr=np.zeros((2, 2)))
    # a streaming estimate of fewer than two samples reports an infinite stderr
    bellcheck.ProbabilityTable(joints=joints, stderr=np.full((2, 2, 2, 2), np.inf))
    for bad in (np.nan, -1.0):
        stderr = np.full((2, 2, 2, 2), 0.01)
        stderr[0, 1, 1, 0] = bad
        with pytest.raises(ValueError, match="standard errors"):
            bellcheck.ProbabilityTable(joints=joints, stderr=stderr)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            bellcheck.ProbabilityTable(joints=np.full((2, 2, 2, 2), bad))
        poisoned = joints.copy()
        poisoned[1, 0, 1, 1] = bad
        with pytest.raises(ValueError):
            bellcheck.ProbabilityTable(joints=poisoned)


def test_tables_reject_non_states():
    setting, grouping = bellcheck.violation_setting(), bellcheck.OutcomeGrouping()
    for rho in non_states():
        with pytest.raises(ValueError, match="two-qubit density matrix"):
            bellcheck.probability_table(setting, grouping, rho)
        with pytest.raises(ValueError, match="two-qubit density matrix"):
            bellcheck.teleport_ch_value(setting, grouping, rho)


def _per_cell_joints(setting, grouping, rho) -> np.ndarray:
    """The table one cell at a time, Tr[rho (E x P)] with a 4x4 Kronecker product per cell."""
    effects = bellcheck.grouped_alice_effects(setting, grouping)
    projs = bellcheck.bob_projectors(setting)
    joints = np.empty((2, 2, 2, 2))
    for ia, a, ib, b in np.ndindex(2, 2, 2, 2):
        joints[ia, a, ib, b] = np.trace(rho @ np.kron(effects[ia, a], projs[ib, b])).real
    return joints


def test_stacked_table_is_the_per_cell_loop_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED + 5)
    groups = list(itertools.combinations(range(4), 2))
    for _ in range(120):
        setting = _random_setting(rng)
        t_set, u_set = (groups[i] for i in rng.integers(len(groups), size=2))
        grouping = bellcheck.OutcomeGrouping(t_set=t_set, u_set=u_set)
        rho = qcore.random_density(rng, 4)
        table = bellcheck.probability_table(setting, grouping, rho)
        assert np.array_equal(table.joints, _per_cell_joints(setting, grouping, rho))


def test_a_table_is_one_joint_probability_call_and_one_state_check(monkeypatch):
    counts = {"joint_probability": 0, "two_qubit_density": 0, "tensor": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(bellcheck, "joint_probability")
    counting(qcore, "two_qubit_density")
    counting(qcore, "tensor")
    bellcheck.probability_table(bellcheck.violation_setting(), bellcheck.OutcomeGrouping(), qcore.werner_alpha(0.5))
    assert counts == {"joint_probability": 1, "two_qubit_density": 1, "tensor": 1}


def test_grouped_effects_are_binary_povms_with_pinned_coefficients():
    setting = _frozen_setting()
    effects = bellcheck.grouped_alice_effects(setting, bellcheck.OutcomeGrouping())
    for i in range(2):
        npt.assert_allclose(effects[i].sum(axis=0), np.eye(2), atol=1e-13)
        for el in effects[i]:
            assert np.linalg.eigvalsh(el).min() > -1e-13
    # group {0, 2} on chi gives (I - c sx)/2; group {0, 3} on chi' gives (I + d sy)/2
    c = 0.38941834230865047
    d = -0.8084964038195901
    npt.assert_allclose(
        effects[bellcheck.SETTING_T, bellcheck.OUT_PLUS],
        (np.eye(2) - c * qcore.PAULI_X) / 2,
        atol=1e-13,
    )
    npt.assert_allclose(
        effects[bellcheck.SETTING_U, bellcheck.OUT_PLUS],
        (np.eye(2) + d * qcore.PAULI_Y) / 2,
        atol=1e-13,
    )


def test_bob_projectors_shape_and_completeness():
    projs = bellcheck.bob_projectors(bellcheck.violation_setting())
    assert projs.shape == (2, 2, 2, 2)
    for i in range(2):
        npt.assert_allclose(projs[i].sum(axis=0), np.eye(2), atol=1e-14)


def test_singlet_ch_value():
    value = bellcheck.teleport_ch_value(
        bellcheck.violation_setting(), bellcheck.OutcomeGrouping(), qcore.singlet_projector()
    )
    assert abs(value - SINGLET_CH) < 1e-12


def test_frozen_ch_values():
    grouping = bellcheck.OutcomeGrouping()
    violation = bellcheck.violation_setting()
    cases = (
        (violation, 0.37, 0.23837049096097762),
        (violation, 0.5, (2 - math.sqrt(2)) / 4),
        (violation, 1.0, SINGLET_CH),
        (_frozen_setting(), 0.8, 0.5884439510548366),
    )
    for setting, alpha, expected in cases:
        value = bellcheck.teleport_ch_value(setting, grouping, qcore.werner_alpha(alpha))
        assert abs(value - expected) < 1e-12


def test_closed_form_matches_direct_table_on_random_settings():
    rng = np.random.default_rng(RNG_SEED)
    grouping = bellcheck.OutcomeGrouping()
    for _ in range(40):
        setting = _random_setting(rng)
        alpha = rng.random()
        direct = bellcheck.teleport_ch_value(setting, grouping, qcore.werner_alpha(alpha))
        assert abs(direct - bellcheck.closed_form_value(alpha, setting)) < 1e-12


def test_table_blocks_sum_to_one():
    table = bellcheck.probability_table(
        bellcheck.violation_setting(), bellcheck.OutcomeGrouping(), qcore.werner_alpha(0.4)
    )
    npt.assert_allclose(table.joints.sum(axis=(1, 3)), np.ones((2, 2)), atol=1e-12)


def test_ch_value_cell_wiring():
    t, u, r, s = bellcheck.SETTING_T, bellcheck.SETTING_U, bellcheck.SETTING_R, bellcheck.SETTING_S
    plus, minus = bellcheck.OUT_PLUS, bellcheck.OUT_MINUS
    # sixteen distinct cells, each settings block a distribution over (+, -) x (+, -)
    joints = np.empty((2, 2, 2, 2))
    joints[t, :, s, :] = [[0.10, 0.20], [0.30, 0.40]]
    joints[u, :, r, :] = [[0.05, 0.15], [0.35, 0.45]]
    joints[u, :, s, :] = [[0.07, 0.13], [0.31, 0.49]]
    joints[t, :, r, :] = [[0.11, 0.19], [0.33, 0.37]]
    table = bellcheck.ProbabilityTable(joints=joints)
    # value = j[T,+,S,-] + j[U,-,R,+] + j[U,+,S,+] - j[T,+,R,+]
    assert abs(bellcheck.ch_value(table) - (0.20 + 0.35 + 0.07 - 0.11)) < 1e-15
    assert bellcheck.CH_TERMS == (
        (+1, (t, plus, s, minus)),
        (+1, (u, minus, r, plus)),
        (+1, (u, plus, s, plus)),
        (-1, (t, plus, r, plus)),
    )

    # the hidden variable experiment's stderr is that of the per-sample CH sum,
    # checked against the same block-0 hidden kets run through the two rules here
    samples, seed = 2_000, 3
    setting, grouping = bellcheck.violation_setting(), bellcheck.OutcomeGrouping()
    result = lhv.lhv_teleport_experiment(setting, grouping, lhv.LhvConfig(samples=samples, seed=seed))
    kets = qcore.haar_kets(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))), samples)
    cross = kets[:, 0].conj() * kets[:, 1]
    m = np.stack([2 * cross.real, 2 * cross.imag, np.abs(kets[:, 0]) ** 2 - np.abs(kets[:, 1]) ** 2], axis=1)
    sender_rows = qcore.pauli_rows(bellcheck.grouped_alice_effects(setting, grouping))
    receiver_rows = qcore.pauli_rows(bellcheck.bob_projectors(setting))
    # overlap rule: (t + r . m)/2; minimum rule: the projector of least overlap answers
    sender = (sender_rows[..., 0] + np.einsum("iak,sk->sia", sender_rows[..., 1:], m)) / 2
    receiver_overlaps = (receiver_rows[..., 0] + np.einsum("jbk,sk->sjb", receiver_rows[..., 1:], m)) / 2
    receiver = receiver_overlaps == receiver_overlaps.min(axis=2, keepdims=True)
    ch = sum(sign * sender[:, ia, a] * receiver[:, ib, b] for sign, (ia, a, ib, b) in bellcheck.CH_TERMS)
    assert np.all((ch >= -1e-12) & (ch <= 1 + 1e-12))
    assert abs(result.value - ch.mean()) <= 1e-12
    assert abs(result.stderr - ch.std(ddof=1) / math.sqrt(samples)) <= 1e-12
    assert result.value == bellcheck.ch_value(result.table)


def test_closed_form_root():
    assert abs(bellcheck.closed_form_root(bellcheck.violation_setting()) - THRESHOLD) < 1e-12
    # frozen setting has slope below 2: no root inside [0, 1]
    assert bellcheck.closed_form_root(_frozen_setting()) is None


def test_threshold_scan_brackets_the_root():
    setting = bellcheck.violation_setting()
    report = bellcheck.threshold_scan(setting, np.arange(0.0, 1.0001, 0.01))
    assert abs(report.first_violation - 0.71) < 1e-12
    # values decrease with alpha for the violating configuration
    assert np.all(np.diff(report.values) < 0)
    below = report.grid < bellcheck.closed_form_root(setting)
    assert np.all(report.values[below] > 0)


def test_threshold_scan_validates_grid():
    setting = bellcheck.violation_setting()
    with pytest.raises(ValueError):
        bellcheck.threshold_scan(setting, np.array([]))
    with pytest.raises(ValueError):
        bellcheck.threshold_scan(setting, np.array([0.5, 0.4]))
    # np.diff runs along the last axis only, so the ascending check alone lets the first two through
    for not_flat in ([[0.5, 0.8]], [[0.8], [0.5]], 0.5):
        with pytest.raises(ValueError, match="1-D"):
            bellcheck.threshold_scan(setting, np.array(not_flat))
    for outside in ([-0.1, 0.5], [0.5, 1.2], [0.2, np.nan, 0.6], [1.0 + 1e-12]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bellcheck.threshold_scan(setting, np.array(outside))


def test_threshold_scan_matches_the_per_point_tables():
    setting = bellcheck.violation_setting()
    grouping = bellcheck.OutcomeGrouping()
    rng = np.random.default_rng(RNG_SEED + 3)
    for grid in (np.linspace(0.0, 1.0, 2001), np.unique(rng.uniform(0.0, 1.0, 300))):
        report = bellcheck.threshold_scan(setting, grid)
        per_point = np.array([bellcheck.teleport_ch_value(setting, grouping, qcore.werner_alpha(a)) for a in grid])
        npt.assert_allclose(report.values, per_point, rtol=0, atol=1e-12)
        first = grid[np.nonzero(per_point < 0)[0][0]]
        assert report.first_violation == first
        # the two tables the scan builds, at alpha = 0 and at the singlet, alpha = 1
        ends = (bellcheck.teleport_ch_value(setting, grouping, qcore.werner_alpha(a)) for a in (0.0, 1.0))
        assert report.ends == tuple(ends)
        assert report.ends[1] == bellcheck.teleport_ch_value(setting, grouping, qcore.singlet_projector())


def test_threshold_scan_builds_two_tables_whatever_the_grid(monkeypatch):
    calls = []
    real = bellcheck.probability_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bellcheck, "probability_table", counting)
    for points in (1, 11, 2001):
        calls.clear()
        bellcheck.threshold_scan(bellcheck.violation_setting(), np.linspace(0.0, 1.0, points))
        assert len(calls) == 2


def test_horodecki_t_of_the_singlet_fraction_family():
    # chsh_criterion reads T_ij = Tr[rho sigma_i x sigma_j] as the Pauli block of pauli_correlations
    for alpha in (0.0, 0.45, 1.0):
        t = qcore.pauli_correlations(qcore.werner_alpha(alpha))[1:, 1:]
        npt.assert_allclose(t, -alpha * np.eye(3), atol=1e-13)
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(10):
        rho = qcore.random_density(rng, 4)
        by_trace = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in qcore.PAULIS] for si in qcore.PAULIS])
        eigs = np.linalg.eigvalsh(by_trace.T @ by_trace)
        assert abs(bellcheck.chsh_criterion(rho).value - (eigs[-1] + eigs[-2])) < 1e-12
    with pytest.raises(ValueError):
        bellcheck.chsh_criterion(np.eye(2) / 2)
    with pytest.raises(ValueError, match="density matrix"):
        bellcheck.chsh_criterion(3 * np.eye(4))


def test_chsh_criterion_frozen_values():
    cases = ((0.3, 0.18, False), (0.9, 1.62, True))
    for alpha, expected, violates in cases:
        res = bellcheck.chsh_criterion(qcore.werner_alpha(alpha))
        assert abs(res.value - expected) < 1e-12
        assert res.violates is violates
    # equal mixture 0.55 phi+ + 0.45 phi- violates marginally
    basis = qcore.bell_basis()
    rho = 0.55 * qcore.projector(basis[3]) + 0.45 * qcore.projector(basis[2])
    res = bellcheck.chsh_criterion(rho)
    assert abs(res.value - 1.01) < 1e-12
    assert res.violates


def test_chsh_criterion_flips_at_the_threshold():
    eps = 1e-9
    assert not bellcheck.chsh_criterion(qcore.werner_alpha(THRESHOLD - eps)).violates
    assert bellcheck.chsh_criterion(qcore.werner_alpha(THRESHOLD + eps)).violates
