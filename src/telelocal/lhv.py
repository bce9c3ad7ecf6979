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
rejected. Averaged over the hidden ket, the joints equal Tr[W (A x B)]
on the singlet-fraction state W at every alpha in [0, 1/2]: exact_joint
computes that average in closed form, and estimate_joint samples it at
alpha = 1/2 and mixes in the white noise I/4 exactly.

As in a local model, one hidden ket per sample fixes each party's answer
to every setting: the CH test's four settings pairs share it, so the CH
combination of every single sample lies in [0, 1] (Clauser & Horne, PRD
10, 526, 1974). A chunk never writes a cell (see estimate_joint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bellcheck, qcore
from .estimates import CHUNK, run_chunks

_PARALLEL_ATOL = 1e-10
# estimate_joint's rows per chunk; perfbench/machine.working_set and tests/test_blocks.py read and patch it
_CHUNK = CHUNK
# a chunk's Gram row of the monomial (1, m)_k (1, m)_l: 1, x, y, z, x (x, y, z), (yy, yz, zz)
_MONOMIAL = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])


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
    """CH combination of an estimated table, with propagated standard error, and the model's exact table."""

    value: float
    stderr: float
    table: bellcheck.ProbabilityTable
    exact: bellcheck.ProbabilityTable


def minimum_rule(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis n of a commuting family and the two responses of the minimum rule.

    Row 0 of the responses, (t - r . n)/2, answers where n . m > 0 (the
    winner is -n); row 1, (t + r . n)/2, answers elsewhere (the winner
    is +n). Raises ValueError when the vectors r are not parallel, or when
    a length or a response is not finite (a NaN, or a square that overflows).
    """
    t, r = coeffs[:, 0], coeffs[:, 1:]
    # a square that overflows gives an inf length, and inf / inf or 0 inf a NaN, quietly; both are refused
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(r, axis=1)
        # when every r is zero, each effect is a multiple of I and any axis works
        axis = r[np.argmax(norms)] / norms.max() if norms.max() > 0 else np.array([0.0, 0.0, 1.0])
        along = r @ axis
        responses = np.stack([t - along, t + along]) / 2
    if not (np.isfinite(norms).all() and np.isfinite(responses).all()):
        raise ValueError("effects must have finite Pauli rows whose lengths do not overflow")
    if np.abs(np.cross(r, axis)).max() > _PARALLEL_ATOL:
        raise ValueError("effects do not commute: their Bloch vectors are not parallel")
    return axis, responses


def _cell_rows(alice, bob, alpha: float) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Each cell's row over phi, the receivers' axes n_j and the white-noise table.

    A cell is (e . (1, m) / 2)(a_0 + (a_1 - a_0) i_j) with the sender's Pauli
    row e, receiver j's answers a_0, a_1 and its indicator i_j = [n_j . m <= 0],
    so it is c . phi, with phi = b x (1, m) over b = (1, i_1, ..., i_R) and the
    cell's fixed row c (one row per cell, in table order). The noise table,
    t_a t_b / 4, has the table's (setting, outcome, setting, outcome) shape.
    Takes one setting or a list per party, each list non-empty and of one
    outcome count, a receiver whose effects commute and alpha in [0, 1/2]
    (else ValueError, the alpha check first).
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError("alpha must lie in [0, 1/2]")
    senders, receivers = ([s] if isinstance(s, MeasurementSpec) else list(s) for s in (alice, bob))
    if any(len({len(spec.operators) for spec in specs}) != 1 for specs in (senders, receivers)):
        raise ValueError("the sender's and the receiver's settings must each be non-empty, of one outcome count")
    alice_coeffs = np.stack([qcore.pauli_rows(spec.operators) for spec in senders])
    bob_coeffs = np.stack([qcore.pauli_rows(spec.operators) for spec in receivers])
    axes, responses = zip(*map(minimum_rule, bob_coeffs))
    basis = np.concatenate([np.stack(responses)[:, :1], np.diff(responses, axis=1) * np.eye(len(axes))[..., None]], 1)
    coeffs = np.einsum("sak,jcb->sajbck", alice_coeffs / 2, basis).reshape(-1, 4 * len(axes) + 4)
    return coeffs, axes, np.multiply.outer(alice_coeffs[..., 0], bob_coeffs[..., 0]) / 4


def _shaped(alice, bob, table: np.ndarray) -> np.ndarray:
    # a single pair drops the two setting axes
    single = isinstance(alice, MeasurementSpec) and isinstance(bob, MeasurementSpec)
    return table.reshape(table.shape[1::2]) if single else table


def exact_joint(
    alice: MeasurementSpec | list[MeasurementSpec], bob: MeasurementSpec | list[MeasurementSpec], alpha: float = 0.5
) -> np.ndarray:
    """The model's joint outcome probabilities without sampling: each cell's row times E_alpha[phi].

    Takes the settings of estimate_joint, with its checks and shapes. At
    alpha = 1/2 the hidden ket is Haar: E[(1, m)] = (1, 0), E[i_j] = 1/2 and,
    since E[m | n_j . m <= 0] = -n_j/2, E[i_j m] = -n_j/4. The white noise of
    W_alpha = 2 alpha W_1/2 + (1 - 2 alpha) I/4 answers t_a t_b / 4, what the
    same rows give with m's terms dropped. So E_alpha[phi] is (1, 0, 0, 0) on
    the constant block and (1/2, -alpha n_j/2) on receiver j's, one formula
    for every alpha in [0, 1/2], and the table equals Tr[W_alpha (A x B)] to
    rounding: the model reproduces every such statistic.
    """
    coeffs, axes, noise = _cell_rows(alice, bob, alpha)
    moments = np.concatenate([[1.0, 0.0, 0.0, 0.0], *([0.5, *(-alpha / 2 * axis)] for axis in axes)])
    return _shaped(alice, bob, (coeffs @ moments).reshape(noise.shape))


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
    estimates.run_chunks), so no draw depends on the chunk size, and the
    result only to rounding. The samples estimate alpha = 1/2; the white
    noise is mixed in exactly with weight 1 - 2 alpha, and the stderr
    scales by 2 alpha.

    For lists of settings (each non-empty, its settings of one outcome
    count, else ValueError before any sampling), one hidden ket per
    sample answers every pair, in a (setting, outcome, setting, outcome)
    table; each pair agrees with a single-pair call on the same seed to
    rounding. ``terms_stderr`` is the stderr of each sample's sum of sign *
    cell over ``terms``, (+1 or -1, table index) pairs such as bellcheck.CH_TERMS.

    Each cell is its row c over phi = b x (1, m) (see _cell_rows), and the
    terms' sum is one more row. A chunk writes no cell: as i^2 = i,
    sum phi phi^T is a gather of the Gram sums sum w (1, m)(1, m)^T, w each
    i_j, each product of two and 1, and a row's sum is c . sum phi, its sum
    of squares c (sum phi phi^T) c^T (see StreamingMoments for the numerics).
    exact_joint takes E[phi] in closed form instead.
    """
    terms = tuple(terms)
    coeffs, axes, noise = _cell_rows(alice, bob, alpha)
    shape, cells = noise.shape, noise.size
    # the terms' signed sum, if any, is one more row
    if terms:
        coeffs = np.vstack([coeffs, sum(sign * coeffs[np.ravel_multi_index(cell, shape)] for sign, cell in terms)])
    width = len(coeffs)
    # the weights: each i_j, each product of two, then 1; weight[a, b] is b_a b_b
    pairs, weights = np.triu_indices(len(axes), 1), math.comb(len(axes) + 1, 2) + 1
    weight = np.pad(np.diag(np.arange(len(axes))), (1, 0))
    weight[0] = weight[:, 0] = np.arange(-1, len(axes)) % weights
    weight[1:, 1:][pairs] = weight[1:, 1:].T[pairs] = len(axes) + np.arange(len(pairs[0]))
    # Gram sum (q, w) is sum w (1, m)_k (1, m)_l, so sum phi phi^T is gram[lifted], its row 0 sum phi
    lifted = (_MONOMIAL[None, :, None] * weights + weight[:, None, :, None]).reshape(len(coeffs[0]), -1)
    # a chunk's rows: 3 monomial rows, the weight rows but the last (at least 3, so the kets' 7 rows fit)
    # and 4 Bloch rows, whose ones are the last weight; bloch + 4 = 10 (1.25 MiB) for one or two axes
    bloch = 3 + max(3, weights - 1)

    def chunk(states, coins, rows):
        # component-major rows of m samples, all in the rows run_chunks hands over;
        # the weight rows (indicators, their pair products, 1) end at the Bloch row of ones
        m = rows.shape[1]
        cols = qcore._bloch_rows(qcore.haar_kets(states, m, rows[:7]), rows[bloch : bloch + 4]).T
        weight_rows, monomials, gram = rows[bloch + 1 - weights : bloch + 1], rows[:3], np.empty((10, weights))
        # one matmul per receiver axis keeps a single-pair call's n . m, so its groups
        along = weight_rows[: len(axes)]
        for axis, out in zip(axes, along):
            np.matmul(axis, cols[1:], out=out)
        np.less_equal(along, 0.0, out=along)
        for a, b, out in zip(*pairs, weight_rows[len(axes) : -1]):
            np.multiply(along[a], along[b], out=out)
        # the Gram sums of the monomials (1, x, y, z), x (x, y, z) and (yy, yz, zz)
        np.matmul(cols, weight_rows.T, out=gram[:4])
        np.multiply(cols[1:], cols[1], out=monomials)
        np.matmul(monomials, weight_rows.T, out=gram[4:7])
        np.multiply(cols[2:], cols[2], out=monomials[:2])
        np.multiply(cols[3], cols[3], out=monomials[2])
        np.matmul(monomials, weight_rows.T, out=gram[7:])
        phi2 = gram.ravel()[lifted]
        return rows[:0].T, coeffs @ phi2[0], np.einsum("fi,ij,fj->f", coeffs, phi2, coeffs)

    joint = run_chunks(chunk, cfg.samples, cfg.seed, _CHUNK, (width,), k=bloch + 4)
    mix = 2.0 * alpha
    probs = mix * joint.mean()[:cells].reshape(shape) + (1.0 - mix) * noise
    # at alpha = 0 the result is exact, and 0 times one sample's infinite stderr would be NaN
    stderr = mix * joint.stderr() if mix else np.zeros(width)
    terms_stderr = float(stderr[cells]) if terms else None
    stderr = stderr[:cells].reshape(shape)
    return JointEstimate(_shaped(alice, bob, probs), _shaped(alice, bob, stderr), cfg.samples, terms_stderr)


def lhv_teleport_experiment(
    setting: bellcheck.TeleportBellSetting,
    grouping: bellcheck.OutcomeGrouping,
    cfg: LhvConfig,
    alpha: float = 0.5,
) -> LhvChResult:
    """CH combination of the hidden variable model on the teleportation test.

    The settings are the sender's two grouped POVMs and the receiver's two
    spin measurements. One estimate_joint call on ``cfg.seed`` fills the
    whole table, with one hidden ket per sample for all four settings
    pairs, so each sample's CH sum lies in [0, 1] and the stderr is that of
    the sum. ``exact`` is exact_joint on the same settings.
    """
    senders = [MeasurementSpec("povm", e) for e in bellcheck.grouped_alice_effects(setting, grouping)]
    receivers = [MeasurementSpec("projective", p) for p in bellcheck.bob_projectors(setting)]
    est = estimate_joint(senders, receivers, cfg, alpha=alpha, terms=bellcheck.CH_TERMS)
    table = bellcheck.ProbabilityTable(joints=est.probs, stderr=est.stderr)
    exact = bellcheck.ProbabilityTable(joints=exact_joint(senders, receivers, alpha))
    return LhvChResult(value=bellcheck.ch_value(table), stderr=est.terms_stderr, table=table, exact=exact)
