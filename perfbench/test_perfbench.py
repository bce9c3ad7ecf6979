"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402
import machine  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = harness.Size(cli_samples=2000, states=3, state_samples=2000, kets=2, grid="0:1:0.05")


def bench(capsys, workload: str, trace: int, seconds: float = 0.0, seed: int = 1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    code = harness.main(argv, size=TINY)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines)


def test_declared_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.LAYER_UNITS


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    code, lines, result = bench(capsys, workload, trace=0, seconds=0.3)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == harness.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    info = [("probe_s", "s"), ("setup_wall_s", "s"), ("pass_wall_s", "s"), ("call_p50_wall_s", "s"), ("fail_ratio", "ratio")]
    for name, unit in [*harness.END_TO_END_UNITS.items(), *info]:
        assert printed(lines, name, unit), name
    assert any(line.startswith("call_tail_s ") for line in lines)
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("working_set ") for line in lines)


def test_call_tail_is_printed_with_its_unit_when_there_are_enough_calls(capsys):
    _, lines, _ = bench(capsys, "state-sweep", trace=0, seconds=0.5)
    assert printed(lines, "call_tail_s", "s")


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_prints_every_layer_metric(capsys, workload):
    code, lines, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == layers.LAYER_UNITS
    for name, unit in layers.LAYER_UNITS.items():
        assert printed(lines, name, unit), name
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "locality":
        assert values["teleport.fidelity_calls"] == 0
        assert values["teleport.fidelity_self_s"] == 0 and values["teleport.fidelity_samples_per_s"] == 0
    else:
        assert values["teleport.fidelity_calls"] > 0
    if workload == "state-sweep":
        assert values["lhv.joint_calls"] == 0
        assert values["lhv.joint_self_s"] == 0 and values["lhv.joint_samples_per_s"] == 0
    else:
        assert values["lhv.joint_calls"] > 0


def test_counts_repeat_for_a_seed(capsys):
    runs = [bench(capsys, "state-sweep", trace=1, seconds=0.2)[2]["metrics"] for _ in range(2)]
    for name in layers.COUNT_METRICS:
        assert runs[0][name] == runs[1][name], name


def test_wrapped_names_are_restored(capsys):
    before = {t.span: tracing._get(t.owner, t.attr) for t in layers.targets()}
    bench(capsys, "locality", trace=1)
    after = {t.span: tracing._get(t.owner, t.attr) for t in layers.targets()}
    assert all(after[name] is fn for name, fn in before.items())


def test_wrong_oracle_fails_the_gate(capsys, monkeypatch):
    right = harness.fidelity_oracle
    monkeypatch.setattr(harness, "fidelity_oracle", lambda rho: right(rho) + 0.05)
    code, lines, result = bench(capsys, "state-sweep", trace=0)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    fail_ratio = next(float(line.split()[1]) for line in lines if line.startswith("fail_ratio "))
    assert fail_ratio > 0


def test_route_disagreement_counts_as_a_failure(capsys, monkeypatch):
    def disagree(chi, rho):
        raise RuntimeError("three-qubit and reduced-POVM outcome probabilities disagree")

    monkeypatch.setattr(harness.teleport, "bell_measurement_probabilities", disagree)
    code, _, result = bench(capsys, "state-sweep", trace=0)
    assert code != 0 and result["failed"] > 0


def test_guard_fails_a_traced_run_when_a_span_never_fires(capsys, monkeypatch):
    real = layers.targets

    def chsh_required_on_locality():
        return [
            dataclasses.replace(t, must_fire=t.must_fire | {"locality"}) if t.span == "bellcheck.chsh_criterion" else t
            for t in real()
        ]

    monkeypatch.setattr(layers, "targets", chsh_required_on_locality)
    code, _, result = bench(capsys, "locality", trace=1)
    assert code != 0 and result["failed"] == 1


def test_probe_samples_around_and_during_a_block_and_leaves_out_its_own_time():
    before = signal.getsignal(signal.SIGALRM)
    clock = harness.time.perf_counter
    t0 = clock()
    with probe.HostProbe(interval=0.01, loops=1000) as p:
        end = clock() + 0.2
        while clock() < end:
            pass
    wall = clock() - t0
    assert len(p.samples) >= 3 and p.median() > 0
    assert p.spent > 0 and 0 < p.elapsed < wall - p.spent + 1e-9
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_nominal_scales_by_the_probe_time():
    assert probe.nominal(2.0, probe.NOMINAL_PROBE_S) == 2.0
    assert probe.nominal(3.0, 2 * probe.NOMINAL_PROBE_S) == pytest.approx(1.5)


def test_working_set_arrays_are_still_in_the_program():
    for key, array in machine.MAIN_ARRAYS.items():
        assert array.current(), f"{key}: {array.name} no longer in {array.module.__name__}.{array.function}"


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    totals = tracing.summarize(tracer.take())
    assert totals["outer"].total_s == 10.0 and totals["outer"].self_s == 6.0
    assert totals["inner"].calls == 2 and totals["inner"].total_s == 4.0


def test_call_tail_needs_ten_calls_beyond_it():
    assert harness.call_tail([1.0] * 10) is None
    percentile, seconds = harness.call_tail([float(i) for i in range(20)])
    assert percentile == 50.0 and seconds == 9.0


def test_without_a_source_tree_the_command_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", "reproduce", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv + ["--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
