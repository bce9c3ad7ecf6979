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
    teleport_failures: tuple[tuple[int, int, int], ...]  # (input, shared, final)
    partition_ok: bool
    partition_errors: tuple[str, ...]
    message_map_ok: bool
    message_errors: tuple[tuple[int, tuple[int, ...], int, int], ...]
    message_map: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.successes == self.total and self.partition_ok and self.message_map_ok


def _message_map(tables) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...], int, int], ...]]:
    """Per-outcome message derived from the first row, plus rows that disagree.

    An outcome with no rows carries no message: it gets -1 and is listed
    as the error (k, (), -1, -1).
    """
    derived = []
    errors = []
    for k, rows in enumerate(tables):
        if not rows:
            derived.append(-1)
            errors.append((k, (), -1, -1))
            continue
        messages = [(pair[1] - pair[0]) % 4 for pair in rows]
        derived.append(messages[0])
        errors.extend((k, pair, messages[0], i) for pair, i in zip(rows, messages) if i != messages[0])
    return tuple(derived), tuple(errors)


_messages, _errors = _message_map(TOY_TABLES)
if _errors:
    raise AssertionError(f"inconsistent canonical tables: {_errors!r}")
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
    seen: dict[tuple[int, int], int] = {}
    partition_errors = []
    for k, rows in enumerate(tables):
        for pair in rows:
            if pair in seen:
                partition_errors.append(f"pair {pair} in outcomes {seen[pair]} and {k}")
            seen[pair] = k
    messages, message_errors = _message_map(tables)

    successes = 0
    failures = []
    for x1 in range(4):
        for shared in range(4):
            pair = (x1, shared)
            if pair not in seen:
                partition_errors.append(f"pair {pair} in no outcome")
                failures.append((x1, shared, -1))
                continue
            final = bob_correction(shared, messages[seen[pair]])
            if final == x1:
                successes += 1
            else:
                failures.append((x1, shared, final))
    return ToyVerifyReport(
        successes=successes,
        total=16,
        teleport_failures=tuple(failures),
        partition_ok=not partition_errors,
        partition_errors=tuple(partition_errors),
        message_map_ok=not message_errors,
        message_errors=message_errors,
        message_map=messages,
    )
