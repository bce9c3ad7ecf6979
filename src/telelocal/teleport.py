"""Single-qubit teleportation and its measurement-side reduction.

The sender's joint Bell measurement on (input, her half of the shared
pair), seen from her half alone, is a four-element POVM fixed by the
input ket (a, b):

    A_0 = [[|b|^2, -a b*], [-a* b, |a|^2]] / 2      (outcome psi-)
    A_1 = [[|b|^2,  a b*], [ a* b, |a|^2]] / 2      (outcome psi+)
    A_2 = [[|a|^2, -a* b], [-a b*, |b|^2]] / 2      (outcome phi-)
    A_3 = [[|a|^2,  a* b], [ a b*, |b|^2]] / 2      (outcome phi+)

Outcome probabilities are computed both through this reduction and
through the explicit three-qubit route, where the bra <B_k| x I of Bell
outcome k takes |chi><chi| x rho to the receiver's unnormalized state
N_k, whose trace is the probability; the two routes must agree to 1e-12
and the implementation checks that on every call.

With the singlet as the shared pair the receiver's conditional states
are (-a,-b), (-a,b), (b,a), (-b,a), which the correction unitaries
-I, -sigma_z, sigma_x, i sigma_y map back onto (a, b) exactly.

In qcore's Pauli layer A_k is the row s_k * (1, m)/2 (sender_rows), m the
input's Bloch vector and s_k[a] the sign of sigma_a x sigma_a in Bell state k.

The Monte Carlo average fidelity works on real Bloch vectors. The input
projector is (I + m . sigma)/2, so with m~ = (1, m), R the pair's
qcore.pauli_correlations and c_k[b] = Tr[U_k sigma_b U_k* sigma_b]/2 the
sign the correction puts on sigma_b, outcome k has probability
(s_k * m~) . R[:, 0] / 4 and corrected overlap
<chi| U_k N_k U_k* |chi> = (s_k * m~)^T (R/8) (c_k * m~). These are exact
identities, the same affine structure behind the generic-pair closed form
(2F + 1)/3 (Horodecki, Horodecki & Horodecki, PRA 60, 1888, 1999), which
exact_average_fidelity gives as (1 - tr T/3)/2. The complex three-qubit
route above stays as their oracle.

A sample's outcome is how many of the running sums T_j = p_0 + ... + p_j,
j < 3, lie below its uniform draw. With p_1 and p_2 clamped at 0 (a
density matrix makes them >= 0 up to rounding) the sums never fall, so
the indicators g_j = [draw > T_j] are ordered, g_0 >= g_1 >= g_2: k ones,
then zeros, that is g_j = [k > j]. The signs then telescope into an affine
map of the indicators, s_k = s_0 + sum_j (s_{j+1} - s_j) g_j, whose terms
are small integers, so it gives each s_k exactly and the Monte Carlo
kernel needs no per-sample gather. Indicators out of order, such as
(1, 0, 1) from a sum that falls, would give a row that is no outcome's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .estimates import CHUNK, MonteCarloEstimate, run_chunks

ROUTE_AGREEMENT_ATOL = 1e-12
_PROBABILITY_FLOOR = 1e-12
_CHUNK = CHUNK

# s_k[a]: the sign of sigma_a x sigma_a in Bell state k, sigma_0 = I (each Bell state's R is diagonal)
_SENDER_SIGNS = np.rint([np.diag(qcore.pauli_correlations(qcore.projector(b))) for b in qcore.bell_basis()])
# s_k[1:] = s_0[1:] + sum_j (s_{j+1}[1:] - s_j[1:]) g_j for the ordered indicators g_j = [k > j]:
# this map times (g_0, g_1, g_2, 1), shape (3, 4) (see the module docstring)
_SIGN_MAP = np.column_stack([np.diff(_SENDER_SIGNS[:, 1:], axis=0).T, _SENDER_SIGNS[0, 1:]])
# <B_k| x I: Bell outcome k's bra on (input, sender half), the identity on the receiver, shape (4, 2, 8)
_BELL_BRAS = np.stack([np.kron(b.conj()[None], qcore.IDENTITY_2) for b in qcore.bell_basis()])
# |B_k> x I, their adjoints, shape (4, 8, 2)
_BELL_KETS = _BELL_BRAS.conj().swapaxes(1, 2)
# sigma_a as row a, so that Pauli rows times it are the flattened effects
_PAULI_MATRIX = qcore.PAULI_BASIS.reshape(4, 4)

_CORRECTIONS = np.array(
    [
        [[-1, 0], [0, -1]],  # -I
        [[-1, 0], [0, 1]],  # -sigma_z
        [[0, 1], [1, 0]],  # sigma_x
        [[0, 1], [-1, 0]],  # i sigma_y
    ],
    dtype=complex,
)
# c_k[b] = Tr[U_k sigma_b U_k* sigma_b]/2: the sign correction k puts on sigma_b
_CORRECTION_SIGNS = (
    np.einsum("kij,bjl,kml,bmi->kb", _CORRECTIONS, qcore.PAULI_BASIS, _CORRECTIONS.conj(), qcore.PAULI_BASIS).real / 2
)
# s_k * c_k is one row f = (1, -1, -1, -1) for every k, and each s_k[a] is +/-1, so c_k * m~ = f * (s_k * m~):
# the correction folds into the correlation matrix, (R/8) (c_k * m~) = (R/8 diag f) (s_k * m~)
_FLIP = _SENDER_SIGNS[0] * _CORRECTION_SIGNS[0]
if not np.all(_SENDER_SIGNS * _CORRECTION_SIGNS == _FLIP):
    raise RuntimeError("s_k * c_k differs between Bell outcomes")


@dataclass(frozen=True)
class TeleportPovm:
    """The four POVM elements induced by an input ket, in Bell order."""

    elements: np.ndarray  # shape (4, 2, 2)


def sender_rows(chi) -> np.ndarray:
    """Pauli rows s_k * (1, m)/2 of the sender's four POVM elements for the input ket, shape (4, 4)."""
    return _SENDER_SIGNS * np.array([1.0, *qcore.ket_to_bloch(chi, "input ket")]) / 2


def povm_from_input(chi) -> TeleportPovm:
    """POVM on the sender's half of the pair induced by the input ket, from its Pauli rows."""
    elements = (sender_rows(chi) @ _PAULI_MATRIX).reshape(4, 2, 2) / 2
    return TeleportPovm(elements=qcore.check_effects(elements))


def _outcome_index(k) -> int:
    """k as an int; ValueError unless it is a Python or NumPy integer in 0..3 (a bool is not)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= 3:
        raise ValueError("outcome index must be 0..3")
    return int(k)


def correction_unitary(k: int) -> np.ndarray:
    """Receiver's correction for Bell outcome k, in the order (psi-, psi+, phi-, phi+)."""
    return _CORRECTIONS[_outcome_index(k)].copy()


def joint_probability(rho, alice_op, bob_proj) -> np.ndarray | float:
    """Tr[rho (A x P)] for each sender effect A of a stack (..., 2, 2) and receiver projector P of another, in shape
    A's stack + P's stack (two single operators give a float); ValueError unless rho is a two-qubit state."""
    a = np.asarray(alice_op)
    # np.kron multiplies axis by axis, so A's size-1 axes, one per axis of P's stack, pick up P's stack
    ops = qcore.tensor(a.reshape(a.shape[:-2] + (1,) * (np.ndim(bob_proj) - 2) + a.shape[-2:]), bob_proj)
    return np.trace(qcore.two_qubit_density(rho) @ ops, axis1=-2, axis2=-1).real


def _receiver_states(chi, rho) -> np.ndarray:
    """Receiver's unnormalized states N_k = (<B_k| x I)(|chi><chi| x rho)(|B_k> x I), shape (4, 2, 2).

    Raises ValueError unless chi is a unit ket of shape (2,) and rho a two-qubit density matrix.
    """
    chi = qcore.qubit_ket(chi, "input ket")
    big = qcore.tensor(qcore.projector(chi), qcore.two_qubit_density(rho))
    return _BELL_BRAS @ big @ _BELL_KETS


def bell_measurement_probabilities(chi, rho) -> np.ndarray:
    """Probabilities of the four Bell outcomes for input chi and shared pair rho.

    Computed as the traces of the receiver's states N_k and through the
    induced POVM acting on the sender's reduced state; raises
    RuntimeError if the routes disagree beyond 1e-12, and ValueError
    unless chi is a unit ket of shape (2,) and rho a two-qubit density matrix.
    """
    states = _receiver_states(chi, rho)
    probs = states[:, 0, 0].real + states[:, 1, 1].real
    rho_a = qcore.partial_trace(rho, (2, 2), trace_out="B")
    povm = povm_from_input(chi)
    reduced = np.einsum("kij,ji->k", povm.elements, rho_a).real
    # written so that NaN fails the check too
    if not np.abs(probs - reduced).max() <= ROUTE_AGREEMENT_ATOL:
        raise RuntimeError("three-qubit and reduced-POVM outcome probabilities disagree")
    return probs


def bob_conditional_state(chi, rho, k: int) -> np.ndarray:
    """Receiver's normalized state N_k / Tr N_k after Bell outcome k, before correction.

    Raises ValueError unless chi is a unit ket of shape (2,) and rho a two-qubit density matrix.
    """
    k = _outcome_index(k)
    state = _receiver_states(chi, rho)[k]
    prob = np.trace(state).real
    # written so that a NaN probability fails the check too
    if not prob > _PROBABILITY_FLOOR:
        raise ValueError(f"outcome {k} has probability {prob!r}, conditional state undefined")
    return state / prob


def exact_average_fidelity(rho) -> float:
    """Haar average of the fidelity, (1 - tr T/3)/2 with T = R[1:, 1:]; ValueError unless rho is a two-qubit state."""
    return float(1 - np.trace(qcore.pauli_correlations(rho)[1:, 1:]) / 3) / 2


def average_fidelity(rho, samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo average of <chi| final |chi> over Haar-uniform input kets.

    Each sample draws a Haar ket from the state stream and a Bell outcome,
    with the ket's outcome probabilities, from one uniform of the coin
    stream (see estimates.run_chunks), then scores the corrected overlap
    (s_k * m~)^T (R/8) (c_k * m~) divided by the outcome probability
    (s_k * m~) . R[:, 0] / 4, both read from one R = pauli_correlations(rho).
    A chunk turns its outcome indicators into sign rows with one matmul by
    _SIGN_MAP (see the module docstring), exact ones and minus ones. The
    result does not depend on the chunk size.
    Raises ValueError unless rho is a two-qubit density matrix.
    """
    correlations = qcore.pauli_correlations(rho) / 8
    prob_rows = 2 * _SENDER_SIGNS[:3] * correlations[:, 0]
    # the corrected overlaps, then p_k = (s_k * m~) . 2 R[:, 0] / 8 as a fifth row
    score_rows = np.vstack([correlations * _FLIP, 2 * correlations[:, 0]])

    def chunk(states, coins, rows):
        # component-major: one contiguous row of m samples per component in the 10 rows
        # run_chunks hands over: 0-6 the sampler's kets and draws, then 6-9 the Bloch rows m~,
        # whose row 6 of ones is the sign map's constant term; 3-5 the three outcome
        # probabilities, their running sums T_j, then the indicators g_j; 2 the coin draws;
        # 0-2 the sign rows, which turn 7-9 into s_k * m (every s_k[0] is 1); 1-5 the
        # corrected overlaps and p_k; 0 the scores
        m = rows.shape[1]
        cols = qcore.bloch_rows(qcore.haar_kets(states, m, rows[:7]), out=rows[6:10]).T
        totals = np.matmul(prob_rows, cols, out=rows[3:6])
        # p_1 and p_2 clamped at 0 keep the running sums, and so the indicators, in order
        np.maximum(totals[1:], 0.0, out=totals[1:])
        totals[1] += totals[0]
        totals[2] += totals[1]
        draws = coins.random(out=rows[2])
        # g_j = [draw > T_j] as 0.0 or 1.0: a draw above a total rounded below 1 still gets k = 3
        np.greater(draws, totals, out=totals)
        cols[1:] *= np.matmul(_SIGN_MAP, rows[3:7], out=rows[:3])
        corrected = np.matmul(score_rows, cols, out=rows[1:6])
        scores = np.einsum("as,as->s", cols, corrected[:4], out=rows[0])
        scores /= corrected[4]
        return (scores,)

    return run_chunks(chunk, samples, seed, _CHUNK).scalar_estimate()
