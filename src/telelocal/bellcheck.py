"""Clauser-Horne style test applied to the teleportation measurement.

The sender owns two measurement settings, each the four-outcome POVM
induced by one input ket, with the outcomes grouped into a binary +/-
split. The receiver owns two projective spin settings. For joint
probabilities Pr(.,.) on the grouped outcomes the combination

    Pr(t, s-) + Pr(u-, r) + Pr(u, s) - Pr(t, r)

lies in [0, 1] for every locally explainable state; a negative value
witnesses nonlocality of the teleportation statistics.

Index conventions for the probability table: axis order is
(sender setting, sender outcome, receiver setting, receiver outcome)
with settings ordered (T, U) and (R, S) and outcomes ordered (+, -).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qcore
from .teleport import _outcome_index, joint_probability, povm_from_input

SETTING_T, SETTING_U = 0, 1
SETTING_R, SETTING_S = 0, 1
OUT_PLUS, OUT_MINUS = 0, 1

_TABLE_ATOL = 1e-9

# the four cells of the CH combination, each (sign, table index)
CH_TERMS = (
    (+1, (SETTING_T, OUT_PLUS, SETTING_S, OUT_MINUS)),
    (+1, (SETTING_U, OUT_MINUS, SETTING_R, OUT_PLUS)),
    (+1, (SETTING_U, OUT_PLUS, SETTING_S, OUT_PLUS)),
    (-1, (SETTING_T, OUT_PLUS, SETTING_R, OUT_PLUS)),
)


@dataclass(frozen=True)
class TeleportBellSetting:
    """Input kets for the sender's two settings and spin axes for the receiver's."""

    chi: np.ndarray
    chi_prime: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        for name in ("chi", "chi_prime"):
            object.__setattr__(self, name, qcore.qubit_ket(getattr(self, name), name))
        for name in ("r", "s"):
            object.__setattr__(self, name, qcore.unit_direction(getattr(self, name), name))


@dataclass(frozen=True)
class OutcomeGrouping:
    """Binary split of the four Bell outcomes for each sender setting."""

    t_set: tuple[int, int] = (0, 2)
    u_set: tuple[int, int] = (0, 3)

    def __post_init__(self):
        for name, group in (("t_set", self.t_set), ("u_set", self.u_set)):
            if len(group) != 2 or len({_outcome_index(k) for k in group}) != 2:
                raise ValueError(f"{name} must be two distinct outcome indices in 0..3")


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint probabilities over (setting, outcome, setting, outcome), optionally with stderr."""

    joints: np.ndarray  # shape (2, 2, 2, 2)
    stderr: np.ndarray | None = field(default=None)

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=float)
        if joints.shape != (2, 2, 2, 2):
            raise ValueError("table must have shape (2, 2, 2, 2)")
        # both checks read "not within tolerance", so NaN joints fail them
        if not (joints.min() >= -_TABLE_ATOL and joints.max() <= 1 + _TABLE_ATOL):
            raise ValueError("joint probabilities out of range")
        block_sums = joints.sum(axis=(1, 3))
        if not np.abs(block_sums - 1.0).max() <= _TABLE_ATOL:
            raise ValueError("per settings pair, the four joints must sum to 1")
        object.__setattr__(self, "joints", joints)
        if self.stderr is not None:
            stderr = np.asarray(self.stderr, dtype=float)
            if stderr.shape != (2, 2, 2, 2):
                raise ValueError("stderr must match the table shape")
            # "not within range", so NaN fails too; inf stays (fewer than two samples)
            if not (stderr >= 0).all():
                raise ValueError("standard errors must be non-negative")
            object.__setattr__(self, "stderr", stderr)


def violation_setting() -> TeleportBellSetting:
    """The canonical violating configuration: +x and +y input kets, receiver
    axes at +/-45 degrees in the equatorial plane."""
    s = np.sqrt(0.5)
    return TeleportBellSetting(
        chi=np.array([s, s], dtype=complex),
        chi_prime=np.array([s, 1j * s]),
        r=np.array([s, s, 0.0]),
        s=np.array([s, -s, 0.0]),
    )


def grouped_alice_effects(setting: TeleportBellSetting, grouping: OutcomeGrouping) -> np.ndarray:
    """Binary effects for the sender, shape (setting, outcome, 2, 2).

    The + effect of each setting is the sum of the grouped POVM elements,
    the - effect the sum of the complementary pair.
    """
    out = np.empty((2, 2, 2, 2), dtype=complex)
    for i, (ket, group) in enumerate(((setting.chi, grouping.t_set), (setting.chi_prime, grouping.u_set))):
        elements = povm_from_input(ket).elements
        rest = tuple(sorted(set(range(4)) - set(group)))
        out[i, OUT_PLUS] = elements[list(group)].sum(axis=0)
        out[i, OUT_MINUS] = elements[list(rest)].sum(axis=0)
    return out


def bob_projectors(setting: TeleportBellSetting) -> np.ndarray:
    """Spin projectors for the receiver, shape (setting, outcome, 2, 2)."""
    out = np.empty((2, 2, 2, 2), dtype=complex)
    for i, axis in enumerate((setting.r, setting.s)):
        out[i, OUT_PLUS] = qcore.spin_projector(axis, +1)
        out[i, OUT_MINUS] = qcore.spin_projector(axis, -1)
    return out


def probability_table(setting: TeleportBellSetting, grouping: OutcomeGrouping, rho) -> ProbabilityTable:
    """Exact joint probability table Tr[rho (E x P)] for all setting/outcome pairs, in one contraction."""
    joints = joint_probability(rho, grouped_alice_effects(setting, grouping), bob_projectors(setting))
    return ProbabilityTable(joints=joints)


def ch_value(table: ProbabilityTable) -> float:
    """The combination Pr(t,s-) + Pr(u-,r) + Pr(u,s) - Pr(t,r), summed over CH_TERMS."""
    return float(sum(sign * table.joints[cell] for sign, cell in CH_TERMS))


def teleport_ch_value(setting: TeleportBellSetting, grouping: OutcomeGrouping, rho) -> float:
    """CH combination of the exact teleportation statistics on rho."""
    return ch_value(probability_table(setting, grouping, rho))


def _slope(setting: TeleportBellSetting) -> float:
    """Sum of sign r_e . r_f over CH_TERMS: four times the rate at which the CH value falls with alpha.

    The vectors r are read from the effects probability_table uses, for the default grouping.
    """
    sender = qcore.pauli_rows(grouped_alice_effects(setting, OutcomeGrouping()))[..., 1:]
    receiver = qcore.pauli_rows(bob_projectors(setting))[..., 1:]
    return float(sum(sign * sender[cell[:2]] @ receiver[cell[2:]] for sign, cell in CH_TERMS))


def closed_form_value(alpha: float, setting: TeleportBellSetting) -> float:
    """CH value on the singlet-fraction family, for the default grouping.

    The family has Pauli correlations R = diag(1, -alpha, -alpha, -alpha),
    so a cell is (t_e t_f - alpha r_e . r_f) / 4 for the sender's and the
    receiver's Pauli rows (t, r). Every t is 1 and the CH signs sum to 2,
    so the value is (2 - alpha * sum of sign r_e . r_f) / 4.
    """
    return (2 - alpha * _slope(setting)) / 4


def closed_form_root(setting: TeleportBellSetting) -> float | None:
    """Smallest alpha where the closed-form CH value crosses zero, if any in (0, 1]."""
    slope = _slope(setting)
    if slope <= 2.0:
        return None
    return 2.0 / slope


@dataclass(frozen=True)
class ThresholdReport:
    """Grid scan of the CH value over the singlet fraction alpha."""

    grid: np.ndarray
    values: np.ndarray
    first_violation: float | None
    ends: tuple[float, float]  # the exact CH values at alpha = 0 and at alpha = 1, the singlet


def threshold_scan(setting: TeleportBellSetting, alpha_grid) -> ThresholdReport:
    """Evaluate the exact CH value on an ascending alpha grid in [0, 1] and
    locate the first grid point with a negative value.

    The value is exact at the two end points alpha = 0 and 1 and affine in
    between: the singlet-fraction state is affine in alpha and the CH value
    is linear in the state, so two probability tables fix the whole grid.
    The report keeps their two values as ``ends``.
    """
    grid = np.asarray(alpha_grid, dtype=float)
    # np.diff runs along the last axis, so a 2-D grid would pass the ascending check below
    if grid.ndim != 1:
        raise ValueError("alpha grid must be 1-D")
    if grid.size == 0:
        raise ValueError("alpha grid is empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("alpha grid must be strictly ascending")
    # checked here because the affine formula would extrapolate without a word
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ValueError("alpha grid must lie in [0, 1]")
    grouping = OutcomeGrouping()
    lo, hi = (teleport_ch_value(setting, grouping, qcore.werner_alpha(a)) for a in (0.0, 1.0))
    values = lo + grid * (hi - lo)
    negatives = np.nonzero(values < 0)[0]
    first = float(grid[negatives[0]]) if negatives.size else None
    return ThresholdReport(grid=grid, values=values, first_violation=first, ends=(lo, hi))


class ChshResult(NamedTuple):
    value: float
    violates: bool


def chsh_criterion(rho) -> ChshResult:
    """Sum of the top two eigenvalues of T^T T, T_ij = Tr[rho sigma_i x sigma_j]; CHSH is violated iff it exceeds 1."""
    t = qcore.pauli_correlations(rho)[1:, 1:]
    eigs = np.linalg.eigvalsh(t.T @ t)
    value = float(eigs[-1] + eigs[-2])
    return ChshResult(value=value, violates=value > 1.0)
