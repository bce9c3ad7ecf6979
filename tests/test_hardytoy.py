"""Unit tests for the exact four-state toy teleportation protocol."""

from telelocal import hardytoy


def test_canonical_tables_partition_all_pairs():
    seen = set()
    for rows in hardytoy.TOY_TABLES:
        assert len(rows) == 4
        seen.update(rows)
    assert seen == {(a, b) for a in range(4) for b in range(4)}


def test_message_map_is_derived_at_import():
    assert hardytoy.MESSAGE_MAP == (0, 3, 2, 1)


def test_joint_measurement_finds_the_unique_outcome():
    # the measured pair (x1, x2) lies in exactly one outcome table
    for pair, expected in (((0, 0), 0), ((2, 1), 1), ((1, 3), 2), ((3, 0), 3)):
        assert [k for k, rows in enumerate(hardytoy.TOY_TABLES) if pair in rows] == [expected]


def test_joint_measurement_rejects_unmapped_pairs():
    # drop a pair: (3, 3) belongs to no outcome and its case cannot teleport
    missing = [list(rows) for rows in hardytoy.TOY_TABLES]
    missing[0] = [(0, 0), (1, 1), (2, 2)]
    report = hardytoy.exhaustive_verify(tables=missing)
    assert report.successes == 15 and report.message_map_ok
    assert not report.partition_ok and not report.passed


def test_classical_message_consistency():
    # every row of outcome k carries the message MESSAGE_MAP[k]
    for k, rows in enumerate(hardytoy.TOY_TABLES):
        assert {(x2 - x1) % 4 for x1, x2 in rows} == {hardytoy.MESSAGE_MAP[k]}


def test_bob_correction_inverts_the_shift():
    for x in range(4):
        for msg in range(4):
            assert hardytoy.bob_correction((x + msg) % 4, msg) == x


def test_protocol_always_teleports_exactly():
    # replay every (input, shared value) by hand: the resource pair is
    # (x, x), the measured pair (x1, x) picks its outcome's message
    for x1 in range(4):
        for x in range(4):
            (k,) = [k for k, rows in enumerate(hardytoy.TOY_TABLES) if (x1, x) in rows]
            assert hardytoy.bob_correction(x, hardytoy.MESSAGE_MAP[k]) == x1


def test_exhaustive_verify_passes_on_canonical_tables():
    report = hardytoy.exhaustive_verify()
    assert report.successes == report.total == 16
    assert report.partition_ok and report.message_map_ok and report.passed


def test_exhaustive_verify_flags_broken_tables():
    # duplicate a pair: partition fails
    dup = [list(rows) for rows in hardytoy.TOY_TABLES]
    dup[1][0] = (0, 0)
    report = hardytoy.exhaustive_verify(tables=dup)
    assert not report.partition_ok
    assert not report.passed

    # swap two entries inside one outcome: rows disagree on the message
    mixed = [list(rows) for rows in hardytoy.TOY_TABLES]
    mixed[0][1], mixed[1][1] = mixed[1][1], mixed[0][1]
    report = hardytoy.exhaustive_verify(tables=mixed)
    assert not report.message_map_ok
    assert report.successes < 16
    assert not report.passed

    # trade a row between outcomes 0 and 2: each holds one row of the other's message
    inconsistent = [list(rows) for rows in hardytoy.TOY_TABLES]
    inconsistent[0][1], inconsistent[2][3] = inconsistent[2][3], inconsistent[0][1]
    report = hardytoy.exhaustive_verify(tables=inconsistent)
    assert report.partition_ok and report.successes == 14
    assert not report.message_map_ok and not report.passed


def test_exhaustive_verify_reports_an_empty_outcome():
    # outcome 3 has no rows: its four pairs belong to no outcome and it carries no message
    empty = [list(rows) for rows in hardytoy.TOY_TABLES]
    empty[3] = []
    report = hardytoy.exhaustive_verify(tables=empty)
    assert report.successes == 12
    assert not report.message_map_ok and not report.partition_ok and not report.passed
