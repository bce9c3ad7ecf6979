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

As in a local model, one hidden ket per sample fixes each party's answer
to every setting: the CH test's four settings pairs share it, so the CH
combination of every single sample lies in [0, 1] (Clauser & Horne, PRD
10, 526, 1974).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bellcheck, qcore
from .estimates import CHUNK, CHUNK_ROWS, StreamingMoments, run_chunks

_PARALLEL_ATOL = 1e-10
# a CH table chunk keeps 10 rows of samples, CHUNK_ROWS: 4 overlap rows, which
# first hold the kets, 2 n . m rows, later the product and CH rows, and 4 Bloch
# rows, later the answers; at 16384 rows that is 1.25 MiB
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


@dataclass(frozen=True)
class JointEstimate:
    """Monte Carlo joint outcome probabilities for one measurement pair, or a table of pairs."""

    probs: np.ndarray  # shape (sender outcomes, receiver outcomes), or see estimate_joint
    stderr: np.ndarray
    samples: int
    terms_stderr: float | None = None  # stderr of the signed sum of estimate_joint's terms


@dataclass(frozen=True)
class LhvChResult:
    """CH combination of an estimated table, with propagated standard error."""

    value: float
    stderr: float
    table: bellcheck.ProbabilityTable


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
    alice: MeasurementSpec | list[MeasurementSpec],
    bob: MeasurementSpec | list[MeasurementSpec],
    cfg: LhvConfig,
    alpha: float = 0.5,
    terms: tuple = (),
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

    For lists of settings (with equal outcome counts), one hidden ket per
    sample answers every pair, bit for bit as a single-pair call on the
    same seed would, in a (setting, outcome, setting, outcome) table.
    ``terms_stderr`` is the stderr of each sample's sum of sign * cell
    over ``terms``, (+1 or -1, table index) pairs such as bellcheck.CH_TERMS.

    A cell is an overlap times an answer, so a chunk writes no cells: one
    matmul per settings pair gives its sums, overlaps @ answers.T, and one on
    the squared rows its sums of squares (see StreamingMoments for the numerics).
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError("alpha must lie in [0, 1/2]")
    senders, receivers = ([s] if isinstance(s, MeasurementSpec) else list(s) for s in (alice, bob))
    alice_coeffs = np.stack([qcore.pauli_rows(spec.operators) for spec in senders])
    bob_coeffs = np.stack([qcore.pauli_rows(spec.operators) for spec in receivers])
    axes, responses = zip(*map(minimum_rule, bob_coeffs))
    shape = (*alice_coeffs.shape[:2], *bob_coeffs.shape[:2])
    overlaps_count, answers_count = math.prod(shape[:2]), math.prod(shape[2:])
    cells = overlaps_count * answers_count
    width = cells + bool(terms)  # the cells, then the terms row if any
    lead, middle = max(4, overlaps_count), max(len(axes), 2 * bool(terms))
    bloch = lead + middle

    def chunk(states, coins, rows):
        # component-major: one contiguous row of m samples per component, all in
        # the rows run_chunks hands over. The overlap rows first hold the kets, the
        # n . m rows the draws and later the terms' product and CH rows, and the
        # Bloch rows later the answers: 10 rows for a CH table, as CHUNK_ROWS allows
        m = rows.shape[1]
        cols = qcore.bloch_rows(qcore.haar_kets(states, m, rows[:7]), out=rows[bloch : bloch + 4]).T
        # each receiver's group, 0 where n . m > 0 and 1 elsewhere, as intp over
        # its n . m row; one matmul per party keeps a single-pair call's arithmetic
        along = rows[lead : lead + len(axes)]
        for axis, out in zip(axes, along):
            np.matmul(axis, cols[1:], out=out)
        groups = np.less_equal(along, 0.0, out=along.view(np.intp))
        overlaps = rows[:overlaps_count].reshape(*shape[:2], m)
        for coeffs, out in zip(alice_coeffs / 2, overlaps):
            np.matmul(coeffs, cols, out=out)
        answers = rows[bloch : bloch + answers_count].reshape(*shape[2:], m)
        for by_group, group, out in zip(responses, groups, answers):
            # np.take gathers whole columns far faster than fancy indexing does;
            # mode="clip" lets it write into the rows unbuffered (group is 0..1)
            np.take(by_group.T, group, axis=1, out=out, mode="clip")
        # the terms row, each product formed in the first n . m row, read by now
        product, ch = rows[lead], rows[lead + 1 : lead + 1 + bool(terms)]
        ch[...] = 0.0
        for sign, cell in terms:
            np.multiply(overlaps[cell[:2]], answers[cell[2:]], out=product)
            (np.add if sign > 0 else np.subtract)(ch, product, out=ch)
        # a cell needs only its sums and sums of squares, one matmul per settings pair
        sums = np.matmul(overlaps[:, None], answers.transpose(0, 2, 1)).transpose(0, 2, 1, 3).ravel()
        for factor in (overlaps, answers):
            np.square(factor, out=factor)
        squares = np.matmul(overlaps[:, None], answers.transpose(0, 2, 1)).transpose(0, 2, 1, 3).ravel()
        return StreamingMoments((width,)).add(ch.T, sums, squares)

    joint = run_chunks(chunk, cfg.samples, cfg.seed, _CHUNK, (width,), k=max(CHUNK_ROWS, bloch + max(4, answers_count)))
    mix = 2.0 * alpha
    noise = np.multiply.outer(alice_coeffs[..., 0], bob_coeffs[..., 0]) / 4
    probs = mix * joint.mean()[:cells].reshape(shape) + (1.0 - mix) * noise
    # at alpha = 0 the result is exact, and 0 times one sample's infinite stderr would be NaN
    stderr = mix * joint.stderr() if mix else np.zeros(width)
    terms_stderr = float(stderr[cells]) if terms else None
    stderr = stderr[:cells].reshape(shape)
    if isinstance(alice, MeasurementSpec) and isinstance(bob, MeasurementSpec):
        shape = shape[1::2]
    return JointEstimate(probs.reshape(shape), stderr.reshape(shape), cfg.samples, terms_stderr)


def lhv_teleport_experiment(
    setting: bellcheck.TeleportBellSetting,
    grouping: bellcheck.OutcomeGrouping,
    cfg: LhvConfig,
    alpha: float = 0.5,
) -> LhvChResult:
    """CH combination of the hidden variable model on the teleportation test.

    One estimate_joint call on ``cfg.seed`` fills the whole table, with one
    hidden ket per sample for all four settings pairs, so each sample's CH
    sum lies in [0, 1] and the stderr is that of the sum.
    """
    senders = [MeasurementSpec("povm", e) for e in bellcheck.grouped_alice_effects(setting, grouping)]
    receivers = [MeasurementSpec("projective", p) for p in bellcheck.bob_projectors(setting)]
    est = estimate_joint(senders, receivers, cfg, alpha=alpha, terms=bellcheck.CH_TERMS)
    table = bellcheck.ProbabilityTable(joints=est.probs, stderr=est.stderr)
    return LhvChResult(value=bellcheck.ch_value(table), stderr=est.terms_stderr, table=table)
