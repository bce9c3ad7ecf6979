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

    @property
    def passed(self) -> bool:
        return self.successes == self.total and self.partition_ok


# outcome index -> transmitted message, (x2 - x1) mod 4 of the outcome's first row
MESSAGE_MAP: tuple[int, ...] = tuple((x2 - x1) % 4 for (x1, x2), *_ in TOY_TABLES)


def bob_correction(x3: int, message: int) -> int:
    """Shift the receiver's hidden value by the message: (x3 - i) mod 4."""
    return (x3 - message) % 4


def exhaustive_verify(tables=None) -> ToyVerifyReport:
    """Check the tables structurally and replay all 16 (input, shared) cases.

    The partition check requires the pairs of all outcomes, sorted, to be
    the 16 hidden pairs. The replay uses each outcome's first-row message, so
    a row with another (x2 - x1) mod 4 fails its replay unless it breaks the partition.
    """
    tables = TOY_TABLES if tables is None else tuple(tuple(map(tuple, rows)) for rows in tables)
    # each pair -> the message of its outcome's first row
    messages = {pair: (rows[0][1] - rows[0][0]) % 4 for rows in tables for pair in rows}
    cases = [(x1, shared) for x1 in range(4) for shared in range(4)]
    successes = 0
    for x1, shared in cases:
        if (x1, shared) in messages and bob_correction(shared, messages[x1, shared]) == x1:
            successes += 1
    return ToyVerifyReport(
        successes=successes,
        total=16,
        partition_ok=sorted(pair for rows in tables for pair in rows) == cases,
    )
