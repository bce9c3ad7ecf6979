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
(2F + 1)/3 (Horodecki, Horodecki & Horodecki, PRA 60, 1888, 1999). The
complex three-qubit route above stays as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .estimates import CHUNK, MonteCarloEstimate, arena, run_chunks

ROUTE_AGREEMENT_ATOL = 1e-12
_PROBABILITY_FLOOR = 1e-12
_CHUNK = CHUNK

# s_k[a]: the sign of sigma_a x sigma_a in Bell state k, sigma_0 = I (each Bell state's R is diagonal)
_SENDER_SIGNS = np.rint([np.diag(qcore.pauli_correlations(qcore.projector(b))) for b in qcore.bell_basis()])
# <B_k| x I: Bell outcome k's bra on (input, sender half), the identity on the receiver, shape (4, 2, 8)
_BELL_BRAS = np.stack([np.kron(b.conj()[None], qcore.IDENTITY_2) for b in qcore.bell_basis()])

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
    return _SENDER_SIGNS * qcore.bloch_rows(qcore.qubit_ket(chi, "input ket")[None]) / 2


def povm_from_input(chi) -> TeleportPovm:
    """POVM on the sender's half of the pair induced by the input ket, from its Pauli rows."""
    elements = np.tensordot(sender_rows(chi), qcore.PAULI_BASIS, axes=1) / 2
    return TeleportPovm(elements=qcore.check_effects(elements))


def _outcome_index(k) -> int:
    """k as an int; ValueError unless it is a Python or NumPy integer in 0..3 (a bool is not)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= 3:
        raise ValueError("outcome index must be 0..3")
    return int(k)


def correction_unitary(k: int) -> np.ndarray:
    """Receiver's correction for Bell outcome k, in the order (psi-, psi+, phi-, phi+)."""
    return _CORRECTIONS[_outcome_index(k)].copy()


def joint_probability(rho, alice_op, bob_proj) -> float:
    """Tr[rho (A x P)] for sender effect A, receiver projector P; ValueError unless rho is a two-qubit state."""
    return float(np.trace(qcore.two_qubit_density(rho) @ qcore.tensor(alice_op, bob_proj)).real)


def _receiver_states(chi, rho) -> np.ndarray:
    """Receiver's unnormalized states N_k = (<B_k| x I)(|chi><chi| x rho)(|B_k> x I), shape (4, 2, 2).

    Raises ValueError unless rho is a two-qubit density matrix.
    """
    big = qcore.tensor(qcore.projector(chi), qcore.two_qubit_density(rho))
    return _BELL_BRAS @ big @ _BELL_BRAS.conj().swapaxes(1, 2)


def bell_measurement_probabilities(chi, rho) -> np.ndarray:
    """Probabilities of the four Bell outcomes for input chi and shared pair rho.

    Computed as the traces of the receiver's states N_k and through the
    induced POVM acting on the sender's reduced state; raises
    RuntimeError if the routes disagree beyond 1e-12, and ValueError
    unless rho is a two-qubit density matrix.
    """
    probs = np.trace(_receiver_states(chi, rho), axis1=1, axis2=2).real
    rho_a = qcore.partial_trace(rho, (2, 2), trace_out="B")
    povm = povm_from_input(chi)
    reduced = np.einsum("kij,ji->k", povm.elements, rho_a).real
    if np.abs(probs - reduced).max() > ROUTE_AGREEMENT_ATOL:
        raise RuntimeError("three-qubit and reduced-POVM outcome probabilities disagree")
    return probs


def bob_conditional_state(chi, rho, k: int) -> np.ndarray:
    """Receiver's normalized state N_k / Tr N_k after Bell outcome k, before correction.

    Raises ValueError unless rho is a two-qubit density matrix.
    """
    k = _outcome_index(k)
    state = _receiver_states(chi, rho)[k]
    prob = np.trace(state).real
    if prob <= _PROBABILITY_FLOOR:
        raise ValueError(f"outcome {k} has probability {prob!r}, conditional state undefined")
    return state / prob


def average_fidelity(rho, samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo average of <chi| final |chi> over Haar-uniform input kets.

    Each sample draws a Haar ket from the state stream and a Bell outcome,
    with the ket's outcome probabilities, from one uniform of the coin
    stream (see estimates.run_chunks), then scores the corrected overlap
    (s_k * m~)^T (R/8) (c_k * m~) divided by the outcome probability
    (s_k * m~) . R[:, 0] / 4, both read from one R = pauli_correlations(rho),
    so a chunk gathers signs. The result does not depend on the chunk size.
    Raises ValueError unless rho is a two-qubit density matrix.
    """
    correlations = qcore.pauli_correlations(rho) / 8
    prob_rows = 2 * _SENDER_SIGNS * correlations[:, 0]
    sender_signs, flipped = _SENDER_SIGNS.T, correlations * _FLIP

    def chunk(states, coins, m):
        # component-major: one contiguous row of m samples per component,
        # every (4, m) array in the chunk arena; mode="clip" lets np.take
        # write into it unbuffered (each index is already 0..3)
        cols = qcore.bloch_rows(qcore.haar_kets(states, m), out=arena.take(4, m)).T
        probs = np.matmul(prob_rows, cols, out=arena.take(4, m))
        draws = coins.random(m)
        # the outcome is how many of the first three running sums lie below
        # the draw, so a draw above a total rounded below 1 still gets 3
        total = probs[0].copy()
        ks = (draws > total).astype(np.intp)
        for p in probs[1:3]:
            total += p
            ks += draws > total
        p_k = np.take(probs, ks * m + np.arange(m))
        # p_k is gathered, so sent reuses the rows of probs
        sent = np.take(sender_signs, ks, axis=1, out=probs, mode="clip")
        sent *= cols
        corrected = np.matmul(flipped, sent, out=arena.take(4, m))
        scores = np.einsum("as,as->s", sent, corrected)
        scores /= p_k
        return scores

    return run_chunks(chunk, samples, seed, _CHUNK).scalar_estimate()
