"""Unit tests for the teleportation protocol and its sender-side POVM.

Frozen matrices and probabilities below come from an independent
reference computation that builds the three-qubit state explicitly and
traces with plain loops.
"""

import numpy as np
import numpy.testing as npt
import pytest

from oracles import bloch_rows, fidelity, non_states, singlet_fraction_fidelity, teleport_scores
from telelocal import qcore, teleport
from telelocal.estimates import StreamingMoments

RNG_SEED = 20240812

# input ket (cos 0.3, sin 0.3 e^{0.7i}) and pair 0.7 phi+ + 0.3 |01><01|
CHI_A = np.array([np.cos(0.3), np.sin(0.3) * np.exp(0.7j)])


def _rho_a() -> np.ndarray:
    phi_plus = qcore.bell_basis()[3]
    e01 = np.zeros(4, dtype=complex)
    e01[1] = 1.0
    return 0.7 * qcore.projector(phi_plus) + 0.3 * qcore.projector(e01)


FROZEN_PROBS_A = np.array(
    [0.18809982888177398, 0.18809982888177398, 0.31190017111822566, 0.31190017111822566]
)
FROZEN_ELEMENT_A0 = np.array(
    [
        [0.04366609627258042, -0.1079655960962956 + 0.09093816708167977j],
        [-0.1079655960962956 - 0.09093816708167977j, 0.4563339037274195],
    ]
)
FROZEN_BOB_A0 = np.array(
    [
        [0.08125012014236874, -0.20089310478562017 - 0.16920992787607966j],
        [-0.20089310478562017 + 0.16920992787607966j, 0.9187498798576313],
    ]
)


def test_povm_elements_match_frozen_reference():
    povm = teleport.povm_from_input(CHI_A)
    npt.assert_allclose(povm.elements[0], FROZEN_ELEMENT_A0, atol=1e-13)


def test_povm_structure():
    rng = np.random.default_rng(RNG_SEED)
    for chi in qcore.haar_kets(rng, 20):
        povm = teleport.povm_from_input(chi)
        npt.assert_allclose(povm.elements.sum(axis=0), np.eye(2), atol=1e-13)
        for el in povm.elements:
            npt.assert_allclose(el, el.conj().T, atol=1e-14)
            vals = np.linalg.eigvalsh(el)
            assert vals.min() > -1e-13
            # rank one with trace 1/2
            assert abs(sum(vals) - 0.5) < 1e-13
            assert abs(np.prod(vals)) < 1e-13


def test_povm_rejects_non_unit_input():
    with pytest.raises(ValueError):
        teleport.povm_from_input(np.array([1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            teleport.povm_from_input(np.array([bad, 0.0]))


def test_povm_elements_are_the_pauli_tensordot_bit_for_bit():
    # one (4, 4) @ (4, 4) product gives the elements sum_a rows[k, a] sigma_a / 2 with the same bits
    rng = np.random.default_rng(RNG_SEED + 20)
    kets = qcore.haar_kets(rng, 200) * np.exp(2j * np.pi * rng.random((200, 1)))
    for chi in kets:
        expected = np.tensordot(teleport.sender_rows(chi), qcore.PAULI_BASIS, axes=1) / 2
        assert np.array_equal(teleport.povm_from_input(chi).elements, expected)


def test_probabilities_match_frozen_reference():
    probs = teleport.bell_measurement_probabilities(CHI_A, _rho_a())
    npt.assert_allclose(probs, FROZEN_PROBS_A, atol=1e-13)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_probabilities_uniform_for_bell_diagonal_pairs():
    # any pair with maximally mixed sender half gives four equal outcomes
    rng = np.random.default_rng(RNG_SEED + 1)
    weights = rng.dirichlet(np.ones(4))
    rho = sum(w * qcore.projector(b) for w, b in zip(weights, qcore.bell_basis()))
    for chi in qcore.haar_kets(rng, 5):
        npt.assert_allclose(
            teleport.bell_measurement_probabilities(chi, rho), np.full(4, 0.25), atol=1e-13
        )


def test_bob_conditional_state_matches_frozen_reference():
    bob = teleport.bob_conditional_state(CHI_A, _rho_a(), 0)
    npt.assert_allclose(bob, FROZEN_BOB_A0, atol=1e-13)


def test_bob_conditional_states_are_densities():
    rng = np.random.default_rng(RNG_SEED + 2)
    for chi in qcore.haar_kets(rng, 5):
        rho = qcore.random_density(rng, 4)
        probs = teleport.bell_measurement_probabilities(chi, rho)
        for k in np.nonzero(probs > 1e-12)[0]:
            assert qcore.is_density(teleport.bob_conditional_state(chi, rho, k))


def test_zero_probability_outcome_rejected():
    # product pair |00><00| with input |0>: the two psi outcomes never occur
    chi = np.array([1.0, 0.0])
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    probs = teleport.bell_measurement_probabilities(chi, rho)
    npt.assert_allclose(probs, [0.0, 0.0, 0.5, 0.5], atol=1e-14)
    assert [k for k in range(4) if probs[k] > 1e-12] == [2, 3]
    for k in (2, 3):
        assert qcore.is_density(teleport.bob_conditional_state(chi, rho, k))
    with pytest.raises(ValueError):
        teleport.bob_conditional_state(chi, rho, 0)


# -1 would silently read outcome 3, True index a (1, 4, 2, 2) stack, 1.0 fail inside NumPy
NOT_OUTCOMES = (1.0, 2.5, True, -1, 4)


def test_correction_unitaries_are_unitary_and_bounded():
    for k in range(4):
        u = teleport.correction_unitary(k)
        npt.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
    npt.assert_array_equal(teleport.correction_unitary(np.int64(2)), teleport.correction_unitary(2))
    for k in NOT_OUTCOMES:
        with pytest.raises(ValueError, match="outcome index must be 0..3"):
            teleport.correction_unitary(k)


def test_perfect_teleportation_on_the_singlet():
    # alpha = 1: every corrected conditional state is the input projector
    rng = np.random.default_rng(RNG_SEED + 3)
    rho = qcore.singlet_projector()
    for chi in qcore.haar_kets(rng, 10):
        target = qcore.projector(chi)
        for k in range(4):
            u = teleport.correction_unitary(k)
            bob = teleport.bob_conditional_state(chi, rho, k)
            npt.assert_allclose(u @ bob @ u.conj().T, target, atol=1e-12)


def test_corrected_state_law_on_the_singlet_fraction_family():
    # corrected state = alpha |chi><chi| + (1 - alpha) I/2, independent of k
    rng = np.random.default_rng(RNG_SEED + 4)
    for chi in qcore.haar_kets(rng, 5):
        alpha = rng.random()
        rho = qcore.werner_alpha(alpha)
        expected = alpha * qcore.projector(chi) + (1 - alpha) * np.eye(2) / 2
        for k in range(4):
            u = teleport.correction_unitary(k)
            bob = teleport.bob_conditional_state(chi, rho, k)
            npt.assert_allclose(u @ bob @ u.conj().T, expected, atol=1e-12)


def test_joint_probability_validates_dimensions():
    for alice, bob in ((np.eye(2), np.eye(3)), (np.eye(3), np.eye(2)), (np.stack([np.eye(2)] * 2), np.eye(3))):
        with pytest.raises(ValueError):
            teleport.joint_probability(np.eye(4) / 4, alice, bob)
    # a trace-one matrix that is not a state is rejected, not traced
    for rho in non_states():
        with pytest.raises(ValueError, match="two-qubit density matrix"):
            teleport.joint_probability(rho, np.eye(2) / 2, np.diag([1.0, 0.0]))


def test_joint_probability_pairs_two_stacks():
    rng = np.random.default_rng(31)
    rho = qcore.random_density(rng, 4)
    alice = np.stack([qcore.projector(ket) for ket in qcore.haar_kets(rng, 2)])
    bob = np.stack([qcore.spin_projector(axis) for axis in qcore.random_bloch_vectors(rng, 3)])
    joints = teleport.joint_probability(rho, alice, bob)
    assert joints.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert joints[i, j] == teleport.joint_probability(rho, alice[i], bob[j])
    # two single operators give a float
    assert isinstance(teleport.joint_probability(rho, alice[0], bob[0]), float)


def test_average_fidelity_on_the_singlet_fraction_family():
    # per-trial fidelity is constant (1 + alpha)/2, so the estimate is exact
    for alpha in (0.0, 0.5, 1.0):
        est = teleport.average_fidelity(qcore.werner_alpha(alpha), samples=2000, seed=11)
        assert est.samples == 2000
        assert abs(est.value - (1 + alpha) / 2) < 1e-12
        assert est.stderr < 1e-12


def test_average_fidelity_on_a_generic_pair_stays_in_range():
    rng = np.random.default_rng(RNG_SEED + 5)
    rho = qcore.random_density(rng, 4)
    est = teleport.average_fidelity(rho, samples=4000, seed=12)
    assert 0.0 <= est.value <= 1.0
    assert est.stderr > 0.0


def test_pauli_route_matches_the_three_qubit_route():
    # the probability and the corrected overlap average_fidelity scores, against the receiver's N_k
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(20):
        rho = qcore.random_density(rng, 4)
        r = qcore.pauli_correlations(rho)
        kets = qcore.haar_kets(rng, 20)
        rows = bloch_rows(kets)
        for chi, row in zip(kets, rows):
            npt.assert_allclose(row, [1.0, *qcore.ket_to_bloch(chi)], atol=1e-12)
            probs = teleport.bell_measurement_probabilities(chi, rho)
            for k in range(4):
                sent = teleport._SENDER_SIGNS[k] * row
                assert abs(sent @ r[:, 0] / 4 - probs[k]) <= 1e-12
                if probs[k] <= 1e-12:
                    continue
                u = teleport.correction_unitary(k)
                corrected = u @ teleport.bob_conditional_state(chi, rho, k) @ u.conj().T
                overlap = sent @ (r / 8) @ (teleport._CORRECTION_SIGNS[k] * row)
                assert abs(overlap - probs[k] * fidelity(chi, corrected)) <= 1e-12


def test_pauli_route_of_the_singlet_fraction_family_is_diagonal():
    # the structure behind the (1 + alpha)/2 rows: every outcome scores the same form
    for alpha in (0.0, 0.5, 2**-0.5, 1.0):
        r = qcore.pauli_correlations(qcore.werner_alpha(alpha))
        npt.assert_allclose(r, np.diag([1.0, -alpha, -alpha, -alpha]), rtol=0, atol=1e-15)
    signs = teleport._SENDER_SIGNS * teleport._CORRECTION_SIGNS
    assert np.array_equal(signs, np.tile([1.0, -1.0, -1.0, -1.0], (4, 1)))


def test_sign_tables_rest_on_two_exact_facts():
    # s_k is read off the diagonal of each Bell state's R, so R must be diagonal
    for b, signs in zip(qcore.bell_basis(), teleport._SENDER_SIGNS):
        npt.assert_allclose(qcore.pauli_correlations(qcore.projector(b)), np.diag(signs), rtol=0, atol=1e-15)
    # every correction keeps the identity, so the probability is column 0 of the overlap form
    assert np.array_equal(teleport._CORRECTION_SIGNS[:, 0], np.ones(4))


def test_average_fidelity_replays_the_three_qubit_protocol():
    # the estimator's two streams: Haar kets from the first, one uniform draw per sample from the second
    rho = qcore.random_density(np.random.default_rng(RNG_SEED + 9), 4)
    states, coins = (np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(2))
    kets = qcore.haar_kets(states, 300)
    draws = coins.random(300)
    fids = []
    for chi, draw in zip(kets, draws):
        probs = teleport.bell_measurement_probabilities(chi, rho)
        k = min(int((draw > np.cumsum(probs)).sum()), 3)
        u = teleport.correction_unitary(k)
        fids.append(fidelity(chi, u @ teleport.bob_conditional_state(chi, rho, k) @ u.conj().T))
    est = teleport.average_fidelity(rho, samples=300, seed=5)
    assert abs(est.value - np.mean(fids)) <= 1e-12
    assert abs(est.stderr - np.std(fids, ddof=1) / np.sqrt(300)) <= 1e-12


def test_average_fidelity_picks_outcomes_at_the_cumulative_boundaries(monkeypatch):
    # draws exactly on each running sum of the outcome probabilities, at 0 and above the total
    rho = qcore.random_density(np.random.default_rng(RNG_SEED + 10), 4)
    kets = np.repeat(qcore.haar_kets(np.random.default_rng(RNG_SEED + 11), 5), 6, axis=0)
    probs = 2 * teleport._SENDER_SIGNS * (qcore.pauli_correlations(rho) / 8)[:, 0] @ bloch_rows(kets).T
    totals = np.cumsum(probs, axis=0)
    draws = np.column_stack([np.zeros(5), *totals[:, ::6], np.nextafter(totals[3, ::6], 2.0)]).ravel()
    assert np.array_equal(draws.reshape(5, 6)[:, 1:5], totals[:, ::6].T)

    class Coins:
        def random(self, out):
            return draws[: len(out)]

    values = []
    add = StreamingMoments.add

    def recorded_add(self, scores):
        # the chunk hands over its scores; record them before add centres them
        values.extend(scores)
        return add(self, scores)

    def one_chunk(sample_chunk, samples, seed, chunk):
        return StreamingMoments().add(*sample_chunk(None, Coins(), np.empty((10, samples))))

    monkeypatch.setattr(StreamingMoments, "add", recorded_add)
    monkeypatch.setattr(qcore, "haar_kets", lambda rng, n, *scratch: kets[:n])
    monkeypatch.setattr(teleport, "run_chunks", one_chunk)
    teleport.average_fidelity(rho, samples=30, seed=0)
    for i, (chi, draw) in enumerate(zip(kets, draws)):
        k = min(int((draw > np.cumsum(probs[:, i])).sum()), 3)
        assert k == [0, 0, 1, 2, 3, 3][i % 6]
        u = teleport.correction_unitary(k)
        expected = fidelity(chi, u @ teleport.bob_conditional_state(chi, rho, k) @ u.conj().T)
        assert abs(values[i] - expected) <= 1e-12
    assert np.array_equal(values, teleport_scores(rho, kets, draws))


def _fidelity_kernel(monkeypatch, rho):
    # the chunk kernel average_fidelity hands run_chunks for rho
    kernels = []

    def capture(sample_chunk, samples, seed, chunk):
        kernels.append(sample_chunk)
        return StreamingMoments().add(np.zeros(2))

    with monkeypatch.context() as patch:
        patch.setattr(teleport, "run_chunks", capture)
        teleport.average_fidelity(rho, samples=1, seed=0)
    return kernels[0]


@pytest.mark.parametrize("n", [1, 2, 3, 3616, 16384])
def test_average_fidelity_scores_match_the_gather_kernel_bit_for_bit(monkeypatch, n):
    # the affine sign map against the gather it replaced, on random pairs, the theta = 0.3 pure
    # state and a Werner pair, in rows that hold NaN until the kernel writes them
    rng = np.random.default_rng(RNG_SEED + 13)
    theta = 0.3
    pairs = [qcore.random_density(rng, 4) for _ in range(3)]
    pairs += [qcore.projector([0, np.cos(theta), -np.sin(theta), 0]), qcore.werner_alpha(0.5)]
    for seed, rho in enumerate(pairs):
        kernel = _fidelity_kernel(monkeypatch, rho)
        states, coins = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        (scores,) = kernel(states, coins, np.full((10, n), np.nan))
        states, coins = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        assert np.array_equal(scores, teleport_scores(rho, qcore.haar_kets(states, n), coins.random(n)))


def test_sign_map_gives_each_outcomes_sender_signs():
    # outcome k has the indicators g_j = [k > j], j = 0, 1, 2
    for k, signs in enumerate(teleport._SENDER_SIGNS):
        assert np.array_equal(teleport._SIGN_MAP @ [*(float(k > j) for j in range(3)), 1.0], signs[1:])


def test_average_fidelity_signs_stay_exact_when_a_probability_rounds_below_0(monkeypatch):
    # on |0><0| x I/2 the ket (0, 1 + 2^-52), just off unit length, rounds p_2 = (1 + z)/4 below 0,
    # so without the clamp T_2 < T_1 and a draw of T_1 gives the indicators (1, 0, 1), which are
    # no outcome's: the map turns them into the sign row (3, -1, -1)
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    kets = np.array([[0.0, np.nextafter(1.0, 2.0)]], dtype=complex)
    probs = 2 * teleport._SENDER_SIGNS[:3] * (qcore.pauli_correlations(rho) / 8)[:, 0] @ bloch_rows(kets).T
    totals = np.cumsum(probs[:, 0])
    assert probs[2, 0] < 0 and totals[2] < totals[1]
    indicators = (totals[1] > totals).astype(float)
    assert np.array_equal(indicators, [1, 0, 1])
    assert np.array_equal(teleport._SIGN_MAP @ [*indicators, 1.0], [3, -1, -1])

    class Coins:
        def random(self, out):
            out[...] = totals[1]
            return out

    signs = []

    class RecordingNumpy:
        # numpy, but keeping what the sign map gives in teleport's chunk
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out=None):
            product = np.matmul(a, b, out=out)
            if a is teleport._SIGN_MAP:
                signs.append(product.copy())
            return product

    def one_chunk(sample_chunk, samples, seed, chunk):
        return StreamingMoments().add(*sample_chunk(None, Coins(), np.empty((10, samples))))

    monkeypatch.setattr(qcore, "haar_kets", lambda rng, n, *scratch: kets)
    monkeypatch.setattr(teleport, "run_chunks", one_chunk)
    monkeypatch.setattr(teleport, "np", RecordingNumpy())
    teleport.average_fidelity(rho, samples=1, seed=0)
    # the clamped p_2 makes T_2 = T_1, so the draw gets outcome 1 and its signs
    assert len(signs) == 1 and np.array_equal(signs[0][:, 0], teleport._SENDER_SIGNS[1, 1:])


def test_average_fidelity_on_generic_pairs_matches_the_closed_form():
    rng = np.random.default_rng(RNG_SEED + 7)
    for seed in range(4):
        rho = qcore.random_density(rng, 4)
        est = teleport.average_fidelity(rho, samples=200_000, seed=seed)
        assert est.stderr > 0.0
        assert abs(est.value - singlet_fraction_fidelity(rho)) <= 4 * est.stderr


def test_exact_average_fidelity_is_the_singlet_fraction_closed_form():
    rng = np.random.default_rng(RNG_SEED + 12)
    for _ in range(50):
        rho = qcore.random_density(rng, 4)
        assert abs(teleport.exact_average_fidelity(rho) - singlet_fraction_fidelity(rho)) <= 1e-14
    for alpha in (0.0, 0.5, 2**-0.5, 1.0):
        assert abs(teleport.exact_average_fidelity(qcore.werner_alpha(alpha)) - (1 + alpha) / 2) <= 1e-14
    theta = 0.3
    pure = qcore.projector([0, np.cos(theta), -np.sin(theta), 0])
    assert abs(teleport.exact_average_fidelity(pure) - (2 + np.sin(2 * theta)) / 3) <= 1e-14


def test_exact_average_fidelity_validates_the_state():
    for bad in non_states():
        with pytest.raises(ValueError, match="density matrix"):
            teleport.exact_average_fidelity(bad)


def test_average_fidelity_has_no_spurious_variance_on_the_threshold_pair():
    est = teleport.average_fidelity(qcore.werner_alpha(2**-0.5), samples=2000, seed=11)
    assert est.stderr < 1e-15


def test_average_fidelity_validates_inputs():
    with pytest.raises(ValueError):
        teleport.average_fidelity(np.eye(2) / 2, samples=10, seed=0)
    skew = qcore.werner_alpha(0.5)
    skew[0, 3] = 0.1
    # trace 4, NaN entries, not hermitian: none is a state
    for bad in (np.eye(4), np.full((4, 4), np.nan), skew):
        with pytest.raises(ValueError, match="density matrix"):
            teleport.average_fidelity(bad, samples=1000, seed=1)
    with pytest.raises(ValueError):
        teleport.average_fidelity(qcore.werner_alpha(0.5), samples=0, seed=0)


def test_povm_container_validation(monkeypatch):
    # povm_from_input checks the elements it builds: rows (2, 0, 0, 0) give four identities, then NaN
    for rows in (np.tile([2.0, 0.0, 0.0, 0.0], (4, 1)), np.full((4, 4), np.nan)):
        monkeypatch.setattr(teleport, "sender_rows", lambda chi, rows=rows: rows)
        with pytest.raises(ValueError, match="sum to the identity"):
            teleport.povm_from_input(CHI_A)


def test_bell_probabilities_raise_when_the_routes_disagree(monkeypatch):
    # the reduced route reads the POVM of |0> instead of CHI_A's
    povm_from_input = teleport.povm_from_input
    monkeypatch.setattr(teleport, "povm_from_input", lambda chi: povm_from_input(np.array([1.0, 0.0])))
    with pytest.raises(RuntimeError, match="disagree"):
        teleport.bell_measurement_probabilities(CHI_A, _rho_a())


def test_bell_probabilities_need_a_two_qubit_pair():
    with pytest.raises(ValueError, match="two-qubit density matrix"):
        teleport.bell_measurement_probabilities(CHI_A, np.eye(2) / 2)


@pytest.mark.parametrize(
    "chi",
    [np.array([2.0, 0.0]), np.array([[1.0, 0.0]]), np.array([np.nan, 0.0]), np.array([1.0, 0.0, 0.0])],
    ids=["norm 2", "(1, 2)", "NaN", "(3,)"],
)
def test_exact_route_validates_the_input_ket(chi):
    # each used to give a state or probabilities (the NaN ket all-NaN ones
    # with a RuntimeWarning), or to fail inside matmul
    with pytest.raises(ValueError, match="input ket"):
        teleport.bell_measurement_probabilities(chi, _rho_a())
    for k in range(4):
        with pytest.raises(ValueError, match="input ket"):
            teleport.bob_conditional_state(chi, _rho_a(), k)


def test_exact_route_is_one_state_check_one_effect_check_and_one_tensor(monkeypatch):
    counts = {"two_qubit_density": 0, "check_effects": 0, "tensor": 0}
    for name in counts:
        real = getattr(qcore, name)

        def wrapper(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(qcore, name, wrapper)
    teleport.bell_measurement_probabilities(CHI_A, _rho_a())
    assert counts == {"two_qubit_density": 1, "check_effects": 1, "tensor": 1}


def test_bob_conditional_state_rejects_outcomes_outside_0_to_3():
    npt.assert_array_equal(
        teleport.bob_conditional_state(CHI_A, _rho_a(), np.int64(2)), teleport.bob_conditional_state(CHI_A, _rho_a(), 2)
    )
    for k in NOT_OUTCOMES:
        with pytest.raises(ValueError, match="outcome index must be 0..3"):
            teleport.bob_conditional_state(CHI_A, _rho_a(), k)


@pytest.mark.parametrize("rho", [-np.eye(4) / 4, np.eye(4), np.eye(2) / 2], ids=["-I/4", "I", "2x2"])
def test_exact_route_needs_a_two_qubit_density_matrix(rho):
    # -I/4 used to give four probabilities of -0.25 and I four of 1.0
    chi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="two-qubit"):
        teleport.bell_measurement_probabilities(chi, rho)
    for k in range(4):
        with pytest.raises(ValueError, match="two-qubit density matrix"):
            teleport.bob_conditional_state(chi, rho, k)
    # the same error as the Monte Carlo route
    with pytest.raises(ValueError, match="two-qubit density matrix"):
        teleport.average_fidelity(rho, samples=10, seed=0)
