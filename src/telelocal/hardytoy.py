"""Exact teleportation inside Hardy's four-state toy theory.

A system carries a hidden value in {0, 1, 2, 3}. The shared resource is
a correlated pair (x, x) with x uniform. The joint measurement on
(input, first half) has four outcomes, each compatible with exactly four
hidden pairs:

    B0: (0,0) (1,1) (2,2) (3,3)
    B1: (0,3) (1,0) (2,1) (3,2)
    B2: (0,2) (1,3) (2,0) (3,1)
    B3: (0,1) (1,2) (2,3) (3,0)

Every outcome pins down the difference i = (x2 - x1) mod 4, which is the
two-bit message; the receiver recovers the input as (x3 - i) mod 4.
"""

from __future__ import annotations

from dataclasses import dataclass

TOY_TABLES: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 0), (1, 1), (2, 2), (3, 3)),
    ((0, 3), (1, 0), (2, 1), (3, 2)),
    ((0, 2), (1, 3), (2, 0), (3, 1)),
    ((0, 1), (1, 2), (2, 3), (3, 0)),
)


@dataclass(frozen=True)
class ToyVerifyReport:
    """Structural and end-to-end checks of the toy protocol tables."""

    successes: int
    total: int
    partition_ok: bool
    message_map_ok: bool

    @property
    def passed(self) -> bool:
        return self.successes == self.total and self.partition_ok and self.message_map_ok


def _message_map(tables) -> tuple[tuple[int, ...], bool]:
    """Per-outcome message of the first row (-1 for an empty outcome), and whether every row agrees."""
    derived = []
    consistent = True
    for rows in tables:
        messages = [(x2 - x1) % 4 for x1, x2 in rows]
        derived.append(messages[0] if messages else -1)
        consistent = consistent and len(set(messages)) == 1
    return tuple(derived), consistent


_messages, _consistent = _message_map(TOY_TABLES)
if not _consistent:
    raise AssertionError("inconsistent canonical tables")
# outcome index -> transmitted message, derived and checked at import
MESSAGE_MAP: tuple[int, ...] = _messages


def bob_correction(x3: int, message: int) -> int:
    """Shift the receiver's hidden value by the message: (x3 - i) mod 4."""
    return (x3 - message) % 4


def exhaustive_verify(tables=None) -> ToyVerifyReport:
    """Check the tables structurally and replay all 16 (input, shared) cases.

    The partition check requires every hidden pair to appear in exactly
    one outcome; the message check requires each outcome's rows to agree
    on (x2 - x1) mod 4. The replay uses the first-row message.
    """
    tables = TOY_TABLES if tables is None else tuple(tuple(map(tuple, rows)) for rows in tables)
    seen = {pair: k for k, rows in enumerate(tables) for pair in rows}
    messages, message_map_ok = _message_map(tables)
    cases = [(x1, shared) for x1 in range(4) for shared in range(4)]
    successes = 0
    for x1, shared in cases:
        if (x1, shared) in seen and bob_correction(shared, messages[seen[x1, shared]]) == x1:
            successes += 1
    return ToyVerifyReport(
        successes=successes,
        total=16,
        partition_ok=all(case in seen for case in cases) and len(seen) == sum(map(len, tables)),
        message_map_ok=message_map_ok,
    )
