"""Workloads, correctness checks and metrics of the telelocal benchmark.

One closed-loop caller in one thread runs a workload's calls in order,
pass after pass, until ``--seconds`` have elapsed; every pass repeats the
same inputs, which are made from ``--seed`` before timing starts.

Workloads (why each was chosen is in ``BENCHMARK.json``):

``reproduce``
    one call: ``telelocal reproduce --seed S`` at the default 1M samples
    per estimate.
``state-sweep``
    one call per random generic two-qubit state: ``average_fidelity`` at
    20k samples, the exact Bell probabilities of a few Haar kets and the
    CHSH criterion.
``locality``
    three calls: ``lhv --alpha 0.5``, ``lhv --alpha 0.25`` and
    ``scan --grid 0:1:0.0005``.

With ``--trace 0`` the end-to-end metrics are measured. Set-up, pass and
call times are timed alongside the probe loop of ``probe`` and scaled to
its nominal host, so that a slow phase of a shared host does not move
them; wall times are printed too. With ``--trace 1`` untraced and traced
passes alternate, without the probe, and the per-layer metrics come from
the traced ones, in wall seconds. The last line printed is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from telelocal import bellcheck, cli, qcore, teleport

import layers
import machine
from probe import NOMINAL_PROBE_S, HostProbe, nominal
from tracing import Tracer, installed, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = (layers.REPRODUCE, layers.STATE_SWEEP, layers.LOCALITY)

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "call_p50_s": "s", "peak_rss_mb": "MB"}

FIDELITY_NSIGMA = 4.0
ABS_FLOOR = 1e-12
PROBABILITY_ATOL = 1e-12
CHSH_ATOL = 1e-9
SETUP_STARTS = (6, 5)  # interpreter starts before and after the passes
TAIL_BEYOND = 10

_SETUP_CODE = (
    "import time, telelocal; done = time.monotonic(); "
    "from probe import probe_median; print(repr(done), repr(probe_median()))"
)

_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Size:
    """How much work one pass does."""

    cli_samples: int | None  # --samples given to the CLI; None keeps its default
    states: int  # state-sweep: states per pass
    state_samples: int  # state-sweep: samples per fidelity estimate
    kets: int  # state-sweep: Haar kets per state for the exact route
    grid: str  # locality: scan grid


FULL = Size(cli_samples=None, states=16, state_samples=20_000, kets=4, grid="0:1:0.0005")


@dataclass
class Call:
    """One top-level call: ``run`` is timed, ``check`` judges its output."""

    run: Callable[[], Any]
    check: Callable[[Any], list[tuple[str, bool]]]


def fidelity_oracle(rho: np.ndarray) -> float:
    """Average fidelity (2F + 1)/3 of the standard protocol, F = <psi-|rho|psi->.

    Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999).
    """
    return (2 * np.vdot(_PSI_MINUS, rho @ _PSI_MINUS).real + 1) / 3


def chsh_oracle(rho: np.ndarray) -> float:
    """Sum of the two largest eigenvalues of T^T T, T_ij = Tr[rho s_i x s_j]."""
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in _PAULIS] for a in _PAULIS])
    eigs = np.linalg.eigvalsh(t.T @ t)
    return float(eigs[-1] + eigs[-2])


def _cli_call(argv: list[str], out: Path) -> Call:
    label = " ".join(argv)

    def run():
        return cli.main([*argv, "--out", str(out)])

    def check(code) -> list[tuple[str, bool]]:
        results = [(f"{label}: exit code 0", code == 0)]
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
        except (OSError, ValueError):
            return results + [(f"{label}: report written", False)]
        rows = [row for row in report.get("results", []) if "pass" in row]
        results.append((f"{label}: report has checked rows", bool(rows)))
        results += [(f"{label}: {row['name']} pass", row["pass"] is True) for row in rows]
        return results

    return Call(run, check)


def _state_call(rho: np.ndarray, seed: int, kets: np.ndarray, samples: int) -> Call:
    expected_fidelity = fidelity_oracle(rho)
    expected_chsh = chsh_oracle(rho)

    def run():
        fidelity = teleport.average_fidelity(rho, samples, seed)
        probabilities = []
        for ket in kets:
            try:
                probabilities.append(teleport.bell_measurement_probabilities(ket, rho))
            except RuntimeError:  # the two outcome routes disagree
                probabilities.append(None)
        return fidelity, probabilities, bellcheck.chsh_criterion(rho)

    def check(out) -> list[tuple[str, bool]]:
        fidelity, probabilities, chsh = out
        tolerance = FIDELITY_NSIGMA * fidelity.stderr + ABS_FLOOR
        results = [
            ("fidelity stderr > 0", fidelity.stderr > 0),
            ("fidelity within 4 stderr of (2F+1)/3", abs(fidelity.value - expected_fidelity) <= tolerance),
        ]
        for p in probabilities:
            ok = p is not None and abs(p.sum() - 1.0) <= PROBABILITY_ATOL and p.min() >= -PROBABILITY_ATOL
            results.append(("Bell probabilities agree across routes and sum to 1", ok))
        chsh_ok = abs(chsh.value - expected_chsh) <= CHSH_ATOL and chsh.violates == (chsh.value > 1.0)
        results.append(("CHSH criterion matches T^T T", chsh_ok))
        return results

    return Call(run, check)


def prepare(workload: str, seed: int, size: Size, workdir: Path) -> list[Call]:
    """The calls of one pass; all inputs come from ``seed``."""
    rng = np.random.default_rng(seed)
    samples = [] if size.cli_samples is None else ["--samples", str(size.cli_samples)]
    if workload == layers.REPRODUCE:
        return [_cli_call(["reproduce", "--seed", str(seed), *samples], workdir / "reproduce.json")]
    if workload == layers.LOCALITY:
        seeds = [str(int(s)) for s in rng.integers(0, 2**31, size=2)]
        return [
            _cli_call(["lhv", "--alpha", "0.5", "--seed", seeds[0], *samples], workdir / "lhv-0.5.json"),
            _cli_call(["lhv", "--alpha", "0.25", "--seed", seeds[1], *samples], workdir / "lhv-0.25.json"),
            _cli_call(["scan", "--grid", size.grid], workdir / "scan.json"),
        ]
    calls = []
    for _ in range(size.states):
        rho = qcore.random_density(rng, 4)
        kets = qcore.haar_kets(rng, size.kets)
        calls.append(_state_call(rho, int(rng.integers(0, 2**31)), kets, size.state_samples))
    return calls


@dataclass
class Run:
    """What the passes of one run measured and which checks failed."""

    pass_wall_s: list[float] = field(default_factory=list)  # untraced passes
    call_wall_s: list[float] = field(default_factory=list)
    # with --trace 0: each pass's probe time, and times scaled to the nominal host
    probe_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    call_s: list[float] = field(default_factory=list)
    traced_pass_s: list[float] = field(default_factory=list)  # wall
    layer: list[dict[str, float]] = field(default_factory=list)
    checks: int = 0
    failed: list[str] = field(default_factory=list)

    def judge(self, results: list[tuple[str, bool]]) -> None:
        self.checks += len(results)
        self.failed += [label for label, ok in results if not ok]


def _one_pass(
    calls: list[Call], run: Run, tracer: Tracer | None, probe: HostProbe | None
) -> tuple[float, list[float]]:
    """Seconds of the pass and of each call, without the probe's own time."""
    outputs, call_s = [], []
    clock = time.perf_counter

    def spent() -> float:
        return probe.spent if probe is not None else 0.0

    start = clock()
    with probe if probe is not None else contextlib.nullcontext():
        for index, call in enumerate(calls):
            if tracer is not None:
                tracer.call = index
            t0, s0 = clock(), spent()
            outputs.append(call.run())
            call_s.append(clock() - t0 - (spent() - s0))
    pass_s = probe.elapsed if probe is not None else clock() - start
    for call, out in zip(calls, outputs):
        run.judge(call.check(out))
    return pass_s, call_s


def measure(workload: str, calls: list[Call], seconds: float, trace: bool) -> Run:
    """Run passes for ``seconds``; with ``trace``, alternate untraced and traced."""
    run = Run()
    tracer = Tracer() if trace else None
    targets = layers.targets() if trace else []
    fired: dict[str, int] = {t.span: 0 for t in targets}
    start = time.perf_counter()
    while True:
        traced = trace and len(run.traced_pass_s) < len(run.pass_wall_s)
        if traced:
            with installed(tracer, targets):
                pass_s, _ = _one_pass(calls, run, tracer, None)
            totals = summarize(tracer.take())
            for name, t in totals.items():
                fired[name] = fired.get(name, 0) + t.calls
            run.traced_pass_s.append(pass_s)
            run.layer.append(layers.layer_metrics(totals))
        else:
            probe = None if trace else HostProbe()
            pass_s, call_s = _one_pass(calls, run, None, probe)
            run.pass_wall_s.append(pass_s)
            run.call_wall_s += call_s
            if probe is not None:
                probe_s = probe.median()
                run.probe_s.append(probe_s)
                run.pass_s.append(nominal(pass_s, probe_s))
                run.call_s += [nominal(s, probe_s) for s in call_s]
        done = time.perf_counter() - start >= seconds
        if done and (not trace or run.traced_pass_s):
            break
    if trace:
        expected = [t.span for t in targets if workload in t.must_fire]
        run.judge([(f"trace guard: {span} fired on {workload}", fired[span] > 0) for span in expected])
        first = run.layer[0]
        repeat = all(m[name] == first[name] for m in run.layer for name in layers.COUNT_METRICS)
        run.judge([("per-pass counts repeat exactly", repeat)])
    return run


def setup_times(starts: int) -> list[tuple[float, float]]:
    """(seconds, probe_s) of fresh interpreters started to ``import telelocal``.

    ``time.monotonic`` is one system-wide clock, so the child's reading
    after the import minus the parent's reading before the start is the
    set-up time, without the child's exit. The child then times the probe
    loop, on the CPU that ran its import.
    """
    env = dict(os.environ)
    path = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    out = []
    for _ in range(starts):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        finished, probe_s = map(float, done.stdout.split())
        out.append((finished - t0, probe_s))
    return out


def call_tail(call_s: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of the slowest call with ten calls beyond it."""
    n = len(call_s)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(call_s)[n - TAIL_BEYOND - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict[str, dict]:
    values = {
        "setup_s": statistics.median(nominal(s, probe_s) for s, probe_s in setup),
        "pass_s": statistics.median(run.pass_s),
        "call_p50_s": statistics.median(run.call_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(run: Run) -> dict[str, dict]:
    out = {}
    for name, unit in layers.LAYER_UNITS.items():
        if name == "trace_overhead_s":
            # each traced pass against the untraced pass just before it, so slow host phases mostly cancel
            value = statistics.median(t - u for u, t in zip(run.pass_wall_s, run.traced_pass_s))
        elif name in layers.COUNT_METRICS:
            value = run.layer[0][name]
        else:
            value = statistics.median(m[name] for m in run.layer)
        out[name] = _metric(value, unit)
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="telelocal benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, size: Size = FULL) -> int:
    args = parse_args(argv)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    trace = bool(args.trace)
    setup = [] if trace else setup_times(SETUP_STARTS[0])
    with tempfile.TemporaryDirectory(dir=build) as workdir:
        calls = prepare(args.workload, args.seed, size, Path(workdir))
        run = measure(args.workload, calls, args.seconds, trace)
    setup += [] if trace else setup_times(SETUP_STARTS[1])
    cli_samples = size.cli_samples or cli.DEFAULT_SAMPLES
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(machine.environment(), sort_keys=True))
    working_set = machine.working_set(args.workload, cli_samples, size.state_samples)
    print("working_set " + json.dumps(working_set, sort_keys=True))
    if trace:
        metrics = per_layer(run)
        print(
            f"passes: untraced median {statistics.median(run.pass_wall_s):.6g} s over {len(run.pass_wall_s)}, "
            f"traced median {statistics.median(run.traced_pass_s):.6g} s over {len(run.traced_pass_s)}, "
            f"{len(calls)} calls per pass"
        )
    else:
        metrics = end_to_end(run, setup)
        notes = {
            "setup_s": f"nominal host; median of {len(setup)} interpreter starts, "
            f"{SETUP_STARTS[0]} before the passes and {SETUP_STARTS[1]} after",
            "pass_s": f"nominal host; median of {len(run.pass_s)} passes, {len(calls)} calls each, "
            f"range {min(run.pass_s):.4g} to {max(run.pass_s):.4g} s",
            "call_p50_s": f"nominal host; median of {len(run.call_s)} calls",
            "peak_rss_mb": "peak resident memory of this process, which ran only this workload",
        }
    for name, m in metrics.items():
        note = "" if trace else f"  ({notes[name]})"
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} {value} {m['unit']}{note}")
    if not trace:
        tail = call_tail(run.call_s)
        if tail is None:
            print(f"call_tail_s omitted: {len(run.call_s)} calls, a tail needs more than {TAIL_BEYOND}")
        else:
            print(
                f"call_tail_s {tail[1]:.6g} s  (nominal host; p{tail[0]:.1f} of {len(run.call_s)} calls, "
                f"{TAIL_BEYOND} beyond it)"
            )
        setup_wall, setup_probe = zip(*setup)
        print(
            f"probe_s {statistics.median(run.probe_s):.6g} s  (median probe loop of the passes, "
            f"range {min(run.probe_s):.4g} to {max(run.probe_s):.4g} s; after set-up "
            f"{statistics.median(setup_probe):.4g} s; nominal host {NOMINAL_PROBE_S:g} s)"
        )
        print(f"setup_wall_s {statistics.median(setup_wall):.6g} s  (wall time, moves with the host)")
        print(
            f"pass_wall_s {statistics.median(run.pass_wall_s):.6g} s  (wall time, moves with the host; "
            f"range {min(run.pass_wall_s):.4g} to {max(run.pass_wall_s):.4g} s)"
        )
        print(f"call_p50_wall_s {statistics.median(run.call_wall_s):.6g} s  (wall time, moves with the host)")
    failed = len(run.failed)
    print(f"fail_ratio {failed / run.checks:.6g} ratio  ({failed} of {run.checks} checks failed)")
    for label in sorted(set(run.failed)):
        print(f"FAILED: {label}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": run.checks, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
