"""Local hidden variable model for two-qubit Werner-state statistics.

Measurements are on qubits. The hidden variable is a Haar-uniform ket
lambda with Bloch vector m; an effect E = (t I + r . sigma)/2 has
overlap <lambda|E|lambda> = (t + r . m)/2. Two response rules appear
(Werner, PRA 40, 4277, 1989):

* overlap rule: a party answers outcome E with probability (t + r . m)/2;
* minimum rule: a party's effects must commute, which for qubits means
  that their vectors r are parallel to one axis n. Of the common
  eigenvectors, the Bloch states +n and -n, the one with the smaller
  overlap wins: -n where n . m > 0, +n otherwise. The party answers
  with the winner's weight in each effect, (t -/+ r . n)/2, which for
  projectors is the deterministic least-overlap outcome.

The sender answers by the overlap rule and the receiver holds the
minimum rule, so a receiver POVM whose vectors r are not parallel is
rejected. Since E[m | n . m > 0] = n/2, the joint averaged over the
hidden ket is t_a t_b / 4 - (r_a . n)(r_b . n) / 8: symmetric in the two
roles, and with r_b parallel to n equal to Tr[W (A x B)] for the
singlet-fraction state at alpha = 1/2.

For alpha < 1/2 the state is 2 alpha W_1/2 + (1 - 2 alpha) I/4, and I/4
gives the joint t_a t_b / 4 exactly, so only alpha = 1/2 is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .bellcheck import (
    CH_TERMS,
    OutcomeGrouping,
    ProbabilityTable,
    TeleportBellSetting,
    bob_projectors,
    ch_value,
    grouped_alice_effects,
)
from .estimates import CHUNK, arena, child_seeds, run_chunks

_PARALLEL_ATOL = 1e-10
_CHUNK = CHUNK


@dataclass(frozen=True)
class LhvConfig:
    """Sample count and seed for one estimation run."""

    samples: int
    seed: int


@dataclass(frozen=True)
class MeasurementSpec:
    """A qubit measurement as a list of operators, either projective or a POVM."""

    kind: str  # "projective" or "povm"
    operators: np.ndarray  # shape (outcomes, 2, 2)

    def __post_init__(self):
        if self.kind not in ("projective", "povm"):
            raise ValueError("kind must be 'projective' or 'povm'")
        ops = qcore.check_effects(self.operators, projective=self.kind == "projective")
        object.__setattr__(self, "operators", ops)

    @property
    def outcomes(self) -> int:
        return self.operators.shape[0]


@dataclass(frozen=True)
class JointEstimate:
    """Monte Carlo joint outcome probabilities for one measurement pair."""

    probs: np.ndarray  # shape (sender outcomes, receiver outcomes)
    stderr: np.ndarray
    samples: int


@dataclass(frozen=True)
class LhvChResult:
    """CH combination of an estimated table, with propagated standard error."""

    value: float
    stderr: float
    table: ProbabilityTable


def minimum_rule(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis n of a commuting family and the two responses of the minimum rule.

    Row 0 of the responses, (t - r . n)/2, answers where n . m > 0 (the
    winner is -n); row 1, (t + r . n)/2, answers elsewhere (the winner
    is +n). Raises ValueError when the vectors r are not parallel.
    """
    t, r = coeffs[:, 0], coeffs[:, 1:]
    norms = np.linalg.norm(r, axis=1)
    # when every r is zero, each effect is a multiple of I and any axis works
    axis = r[np.argmax(norms)] / norms.max() if norms.max() > 0 else np.array([0.0, 0.0, 1.0])
    if np.abs(np.cross(r, axis)).max() > _PARALLEL_ATOL:
        raise ValueError("effects do not commute: their Bloch vectors are not parallel")
    along = r @ axis
    return axis, np.stack([t - along, t + along]) / 2


def estimate_joint(
    alice: MeasurementSpec,
    bob: MeasurementSpec,
    cfg: LhvConfig,
    alpha: float = 0.5,
) -> JointEstimate:
    """Monte Carlo joint outcome probabilities under the hidden variable model.

    Matches Tr[W (A x B)] on the singlet-fraction state at the given
    alpha, which must lie in [0, 1/2]. The sender answers by the overlap
    rule and the receiver by the minimum rule, which needs its effects to
    commute.

    Each sample takes its hidden ket from the state stream (see
    estimates.run_chunks), so the result does not depend on the chunk
    size. The samples estimate alpha = 1/2; the white noise is mixed in
    exactly with weight 1 - 2 alpha, and the stderr scales by 2 alpha.
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError("alpha must lie in [0, 1/2]")
    alice_coeffs, bob_coeffs = qcore.pauli_rows(alice.operators), qcore.pauli_rows(bob.operators)
    axis, responses = minimum_rule(bob_coeffs)
    overlap = alice_coeffs / 2
    # the receiver's answer per group: 0 where n . m > 0, 1 elsewhere
    by_group = responses.T

    def chunk(states, coins, m):
        # component-major: one contiguous row of m samples per component,
        # every float array in the chunk arena
        cols = qcore.bloch_rows(qcore.haar_kets(states, m), out=arena.take(4, m)).T
        group = (np.matmul(axis, cols[1:], out=arena.take(m)) <= 0).astype(np.intp)
        # np.take gathers whole columns far faster than fancy indexing does;
        # mode="clip" lets it write into the arena unbuffered (group is 0..1)
        by_minimum = np.take(by_group, group, axis=1, out=arena.take(len(by_group), m), mode="clip")
        by_overlap = np.matmul(overlap, cols, out=arena.take(len(overlap), m))
        joint = arena.take(len(overlap), len(by_group), m)
        np.multiply(by_overlap[:, None, :], by_minimum[None, :, :], out=joint)
        return joint.transpose(2, 0, 1)

    moments = run_chunks(chunk, cfg.samples, cfg.seed, _CHUNK, (alice.outcomes, bob.outcomes))
    mix = 2.0 * alpha
    probs = mix * moments.mean() + (1.0 - mix) * np.outer(alice_coeffs[:, 0], bob_coeffs[:, 0]) / 4
    # at alpha = 0 the result is exact, and 0 times one sample's infinite stderr would be NaN
    stderr = mix * moments.stderr() if mix else np.zeros_like(probs)
    return JointEstimate(probs=probs, stderr=stderr, samples=cfg.samples)


def lhv_teleport_experiment(
    setting: TeleportBellSetting,
    grouping: OutcomeGrouping,
    cfg: LhvConfig,
    alpha: float = 0.5,
) -> LhvChResult:
    """CH combination of the hidden variable model on the teleportation test.

    Settings pair (ia, ib) is an independent sub-experiment on seed
    ``child_seeds(cfg.seed, 4)[2 * ia + ib]``, so the four cell errors add
    in quadrature.
    """
    senders = [MeasurementSpec(kind="povm", operators=e) for e in grouped_alice_effects(setting, grouping)]
    receivers = [MeasurementSpec(kind="projective", operators=p) for p in bob_projectors(setting)]
    joints = np.empty((2, 2, 2, 2))
    errors = np.empty((2, 2, 2, 2))
    for (ia, ib), seed in zip(np.ndindex(2, 2), child_seeds(cfg.seed, 4)):
        est = estimate_joint(senders[ia], receivers[ib], LhvConfig(samples=cfg.samples, seed=seed), alpha=alpha)
        joints[ia, :, ib, :] = est.probs
        errors[ia, :, ib, :] = est.stderr
    table = ProbabilityTable(joints=joints, stderr=errors)
    stderr = float(np.sqrt(sum(errors[cell] ** 2 for _, cell in CH_TERMS)))
    return LhvChResult(value=ch_value(table), stderr=stderr, table=table)
