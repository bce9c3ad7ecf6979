"""Which program names the traced run wraps, and the per-layer metrics.

Each target is wrapped at the binding its callers look up: ``cli`` calls
commands through ``cli._COMMANDS``, ``bellcheck`` holds its own names
for ``joint_probability`` and ``povm_from_input``, and ``StreamingMoments``
is imported by name, so its ``add`` is wrapped on the class. A span is
named after that binding (``bellcheck.joint_probability`` is the
``teleport`` function as ``bellcheck`` calls it).

Metrics ending in ``_self_s`` are self time (span minus the spans it
contains); other ``_s`` metrics are inclusive span time; ``*_per_s``
divide the work counted by the inclusive time, and read 0 when the
layer never ran. Every value is per workload pass.
"""

from __future__ import annotations

from telelocal import bellcheck, classical, cli, lhv, qcore, teleport
from telelocal.estimates import StreamingMoments

from tracing import SpanTotals, Target

REPRODUCE, STATE_SWEEP, LOCALITY = "reproduce", "state-sweep", "locality"
ALL = frozenset({REPRODUCE, STATE_SWEEP, LOCALITY})
R, S, L = frozenset({REPRODUCE}), frozenset({STATE_SWEEP}), frozenset({LOCALITY})

_COMMAND_USERS = {"reproduce": R, "lhv": L, "scan": L}


def _arg(position: int, keyword: str):
    def count(args, kwargs, out):
        return int(args[position] if len(args) > position else kwargs[keyword])

    return count


def _lhv_samples(args, kwargs, out):
    return out.samples


def _text_bytes(args, kwargs, out):
    return len(out.encode("utf-8"))


def _rows(args, kwargs, out):
    values = args[1] if len(args) > 1 else kwargs["values"]
    return len(values)


def _grid_points(args, kwargs, out):
    return len(out.grid)


def targets() -> list[Target]:
    commands = [
        Target(f"cli.command.{name}", cli._COMMANDS, name, must_fire=_COMMAND_USERS.get(name, frozenset()))
        for name in cli._COMMANDS
    ]
    return commands + [
        Target("cli._emit_json", cli, "_emit_json", _text_bytes, R | L),
        Target("cli._emit_csv", cli, "_emit_csv", _text_bytes),
        Target("teleport.average_fidelity", teleport, "average_fidelity", _arg(1, "samples"), R | S),
        Target("teleport.bell_measurement_probabilities", teleport, "bell_measurement_probabilities", must_fire=S),
        Target("teleport.povm_from_input", teleport, "povm_from_input", must_fire=S),
        Target("bellcheck.joint_probability", bellcheck, "joint_probability", must_fire=R | L),
        Target("bellcheck.povm_from_input", bellcheck, "povm_from_input", must_fire=R | L),
        Target("bellcheck.probability_table", bellcheck, "probability_table", must_fire=R | L),
        Target("bellcheck.threshold_scan", bellcheck, "threshold_scan", _grid_points, R | L),
        Target("bellcheck.chsh_criterion", bellcheck, "chsh_criterion", must_fire=S),
        Target("qcore.haar_kets", qcore, "haar_kets", _arg(1, "n"), ALL),
        Target("qcore.random_bloch_vectors", qcore, "random_bloch_vectors", _arg(1, "n"), R),
        Target("qcore.tensor", qcore, "tensor", must_fire=ALL),
        Target("estimates.StreamingMoments.add", StreamingMoments, "add", _rows, ALL),
        Target("lhv.estimate_joint", lhv, "estimate_joint", _lhv_samples, R | L),
        Target("classical.gisin_scheme_fidelity", classical, "gisin_scheme_fidelity", _arg(0, "samples"), R),
        Target("classical.z_scheme_fidelity", classical, "z_scheme_fidelity", _arg(0, "samples"), R),
    ]


# name -> unit; the order is the order of the printed lines
LAYER_UNITS = {
    "teleport.fidelity_self_s": "s",
    "teleport.fidelity_samples_per_s": "1/s",
    "teleport.fidelity_calls": "count",
    "teleport.exact_route_s": "s",
    "teleport.joint_probability_calls": "count",
    "teleport.povm_calls": "count",
    "qcore.sample_s": "s",
    "qcore.sample_rows": "count",
    "qcore.tensor_calls": "count",
    "estimates.add_s": "s",
    "estimates.add_calls": "count",
    "lhv.joint_self_s": "s",
    "lhv.joint_samples_per_s": "1/s",
    "lhv.joint_calls": "count",
    "bellcheck.table_self_s": "s",
    "bellcheck.table_calls": "count",
    "bellcheck.scan_points_per_s": "1/s",
    "bellcheck.chsh_s": "s",
    "classical.scheme_self_s": "s",
    "classical.samples_per_s": "1/s",
    "cli.command_self_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "trace_overhead_s": "s",
}

COUNT_METRICS = frozenset(name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes"))


def layer_metrics(totals: dict[str, SpanTotals]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span totals.

    ``trace_overhead_s`` compares passes, so the caller adds it.
    """

    def pick(*spans: str) -> SpanTotals:
        out = SpanTotals()
        for name in spans:
            t = totals.get(name)
            if t is not None:
                out.calls += t.calls
                out.total_s += t.total_s
                out.self_s += t.self_s
                out.count += t.count
        return out

    def rate(t: SpanTotals) -> float:
        return t.count / t.total_s if t.total_s > 0 else 0.0

    fidelity = pick("teleport.average_fidelity")
    joint = pick("bellcheck.joint_probability")
    sample = pick("qcore.haar_kets", "qcore.random_bloch_vectors")
    add = pick("estimates.StreamingMoments.add")
    lhv_joint = pick("lhv.estimate_joint")
    table = pick("bellcheck.probability_table")
    schemes = pick("classical.gisin_scheme_fidelity", "classical.z_scheme_fidelity")
    commands = pick(*(name for name in totals if name.startswith("cli.command.")))
    emit = pick("cli._emit_json", "cli._emit_csv")
    return {
        "teleport.fidelity_self_s": fidelity.self_s,
        "teleport.fidelity_samples_per_s": rate(fidelity),
        "teleport.fidelity_calls": fidelity.calls,
        "teleport.exact_route_s": joint.total_s + pick("teleport.bell_measurement_probabilities").total_s,
        "teleport.joint_probability_calls": joint.calls,
        "teleport.povm_calls": pick("teleport.povm_from_input", "bellcheck.povm_from_input").calls,
        "qcore.sample_s": sample.total_s,
        "qcore.sample_rows": sample.count,
        "qcore.tensor_calls": pick("qcore.tensor").calls,
        "estimates.add_s": add.total_s,
        "estimates.add_calls": add.calls,
        "lhv.joint_self_s": lhv_joint.self_s,
        "lhv.joint_samples_per_s": rate(lhv_joint),
        "lhv.joint_calls": lhv_joint.calls,
        "bellcheck.table_self_s": table.self_s,
        "bellcheck.table_calls": table.calls,
        "bellcheck.scan_points_per_s": rate(pick("bellcheck.threshold_scan")),
        "bellcheck.chsh_s": pick("bellcheck.chsh_criterion").total_s,
        "classical.scheme_self_s": schemes.self_s,
        "classical.samples_per_s": rate(schemes),
        "cli.command_self_s": commands.self_s,
        "cli.emit_s": emit.total_s,
        "cli.report_bytes": emit.count,
    }
