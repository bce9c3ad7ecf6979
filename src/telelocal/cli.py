"""Command line entry point.

Every command produces a deterministic report (JSON by default, CSV on
request) made of named result rows. Rows that carry an expected value
and tolerance also carry a pass flag; the process exits 0 when all
flagged rows pass, 1 when any fails, 2 on usage errors and when the
report cannot be written to `--out`.

Stochastic rows use a tolerance of four standard errors plus a small
absolute floor that absorbs double precision rounding when an estimator
has vanishing variance. Analytic rows use 1e-9.

The command table `_TABLE` holds each command's row builder, flags,
`--help` text and `paper_reference`. `build_parser` reads it; `main` calls
the builder through `_COMMANDS` and wraps the rows in one report. Each
builder takes the parsed config and is the only source of its command's
rows. `reproduce` is their concatenation, on `child_seeds(seed, 4)`:
`scan`; `teleport` at 1/2 (seed 0), its exact Werner row renamed
`teleport_fidelity_alpha_half`; `gisin` (seed 2); `hardy`; `lhv` at 1/2
(seed 3). `teleport` is exact on the singlet-fraction family, where every
sample would score (1 + alpha)/2, and Monte Carlo on a pure state, where
the outcome draw and the division by its probability matter.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bellcheck, classical, hardytoy, lhv, qcore, teleport
from .estimates import MonteCarloEstimate, child_seeds

SCHEMA_VERSION = 1
ANALYTIC_TOL = 1e-9
STOCHASTIC_NSIGMA = 4.0
ABS_FLOOR = 1e-12
DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42
DEFAULT_ALPHA = 0.5
DEFAULT_GRID = "0:1:0.01"
MAX_GRID_POINTS = 100_001
MIN_SAMPLES = 2
# cos t|01> - sin t|10> at t = 0.3: the teleport sampler's state, whose per-sample fidelity varies
PURE_STATE_THETA = 0.3
PURE_STATE = qcore.projector([0, math.cos(PURE_STATE_THETA), -math.sin(PURE_STATE_THETA), 0])


class UsageError(Exception):
    pass


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid must contain numbers: {text!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise UsageError(f"grid must contain finite numbers: {text!r}")
    if step <= 0 or hi < lo:
        raise UsageError("grid needs step > 0 and HI >= LO")
    if lo < 0 or hi > 1:
        raise UsageError("grid must lie in [0, 1], the range of the singlet fraction")
    return lo, hi, step


def _grid_points(grid: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = grid
    # capped before flooring: a subnormal step makes the ratio infinite
    count = math.floor(min((hi - lo) / step, MAX_GRID_POINTS) + 1e-9) + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid has more than {MAX_GRID_POINTS} points, the most allowed")
    # rounding can put the last point a hair above HI, and so above 1
    points = np.minimum(lo + step * np.arange(count), hi)
    if np.any(np.diff(points) <= 0):
        raise UsageError(f"grid step {step!r} is below the float spacing of its points, which would repeat")
    return points


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


def _row(name: str, value, *, stderr=None, expected=None, tolerance=None, samples=None) -> dict:
    """One result row; it is checked when a tolerance is given.

    A checked row whose value or expected value is None (something that
    should have been found was not) carries null there and fails.
    """
    row: dict = {"name": name, "value": _optional_float(value)}
    if stderr is not None:
        row["stderr"] = float(stderr)
    if samples is not None:
        row["samples"] = int(samples)
    if tolerance is not None:
        row["expected"] = _optional_float(expected)
        row["tolerance"] = float(tolerance)
        value, expected = row["value"], row["expected"]
        row["pass"] = value is not None and expected is not None and abs(value - expected) <= row["tolerance"]
    return row


def _band(stderr):
    """Tolerance of a stochastic value (or array of values) with the given standard error."""
    return STOCHASTIC_NSIGMA * stderr + ABS_FLOOR


def _mc_row(name: str, est: MonteCarloEstimate, expected: float) -> dict:
    return _row(name, est.value, stderr=est.stderr, samples=est.samples, expected=expected, tolerance=_band(est.stderr))


def _report(command: str, cfg: argparse.Namespace, rows: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {
            "alpha": cfg.alpha,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "grid": list(cfg.grid) if cfg.grid else None,
        },
        "results": rows,
        "paper_reference": _TABLE[command].reference,
    }


def _alpha(cfg: argparse.Namespace, top: float, message: str) -> float:
    """The --alpha value; UsageError with the message unless it lies in [0, top]."""
    if not 0.0 <= cfg.alpha <= top:
        raise UsageError(message)
    return cfg.alpha


def _scan_rows(cfg: argparse.Namespace) -> list[dict]:
    setting = bellcheck.violation_setting()
    grid = _grid_points(cfg.grid)
    scan = bellcheck.threshold_scan(setting, grid)
    # the singlet is the alpha = 1 end of the scanned family
    singlet = scan.ends[1]
    root = bellcheck.closed_form_root(setting)
    above = grid[grid > root] if root is not None else grid[:0]
    fidelity = teleport.exact_average_fidelity(qcore.werner_alpha(root)) if root is not None else None
    # a scan that finds no violation, or a grid that stops below the root,
    # leaves a null in the row and fails it
    return [
        _row("singlet_ch_value", singlet, expected=(1 - math.sqrt(2)) / 2, tolerance=ANALYTIC_TOL),
        _row("threshold_closed_form_root", root, expected=2**-0.5, tolerance=ANALYTIC_TOL),
        _row(
            "threshold_first_grid_violation",
            scan.first_violation,
            expected=above[0] if above.size else None,
            tolerance=ANALYTIC_TOL,
        ),
        _row("teleport_fidelity_alpha_threshold", fidelity, expected=(1 + 2**-0.5) / 2, tolerance=ANALYTIC_TOL),
    ]


def _teleport_rows(cfg: argparse.Namespace) -> list[dict]:
    alpha = _alpha(cfg, 1.0, "alpha must lie in [0, 1]")
    exact = teleport.exact_average_fidelity(qcore.werner_alpha(alpha))
    est = teleport.average_fidelity(PURE_STATE, cfg.samples, cfg.seed)
    return [
        _row("teleport_fidelity", exact, expected=(1 + alpha) / 2, tolerance=ANALYTIC_TOL),
        _mc_row("teleport_fidelity_pure_state", est, (2 + math.sin(2 * PURE_STATE_THETA)) / 3),
    ]


def _gisin_rows(cfg: argparse.Namespace) -> list[dict]:
    seeds = child_seeds(cfg.seed, 2)
    analytic = classical.gisin_fidelity_analytic()
    return [
        _mc_row("gisin_fidelity_mc", classical.gisin_scheme_fidelity(cfg.samples, seeds[0]), analytic),
        _mc_row("z_scheme_fidelity", classical.z_scheme_fidelity(cfg.samples, seeds[1]), 2 / 3),
    ]


def _hardy_rows(cfg: argparse.Namespace) -> list[dict]:
    report = hardytoy.exhaustive_verify()
    return [
        _row("hardy_successes", report.successes, expected=report.total, tolerance=0.0),
        _row("hardy_partition_ok", float(report.partition_ok), expected=1.0, tolerance=0.0),
    ]


def _lhv_rows(cfg: argparse.Namespace) -> list[dict]:
    alpha = _alpha(cfg, 0.5, "the hidden variable model covers alpha in [0, 1/2]")
    setting, grouping = bellcheck.violation_setting(), bellcheck.OutcomeGrouping()
    config = lhv.LhvConfig(samples=cfg.samples, seed=cfg.seed)
    result = lhv.lhv_teleport_experiment(setting, grouping, config, alpha=alpha)
    est = MonteCarloEstimate(result.value, result.stderr, cfg.samples)
    # the cell furthest outside its own band, so the row fails when any cell does
    oracle = bellcheck.probability_table(setting, grouping, qcore.werner_alpha(alpha)).joints
    deviation = np.abs(result.table.joints - oracle)
    band = _band(result.table.stderr)
    worst = np.unravel_index(np.argmax(deviation / band), deviation.shape)
    exact = lhv.exact_joint(*lhv.teleport_specs(setting, grouping), alpha)
    return [
        _mc_row("lhv_ch_value", est, bellcheck.closed_form_value(alpha, setting)),
        _row(
            "lhv_max_cell_deviation",
            deviation[worst],
            stderr=result.table.stderr[worst],
            samples=cfg.samples,
            expected=0.0,
            tolerance=band[worst],
        ),
        # the model's own table without sampling, so a fault in the model and one in its sampler fail apart
        _row("lhv_model_exact_max_deviation", np.abs(exact - oracle).max(), expected=0.0, tolerance=ANALYTIC_TOL),
    ]


def _reproduce_rows(cfg: argparse.Namespace) -> list[dict]:
    # seeds[1] goes unused, so that gisin and lhv keep seeds[2] and seeds[3] and their rows stay as they were
    seeds = child_seeds(cfg.seed, 4)

    def at(seed: int, alpha: float | None = None) -> argparse.Namespace:
        return argparse.Namespace(**{**vars(cfg), "seed": seed, "alpha": alpha})

    half, pure = _teleport_rows(at(seeds[0], 0.5))
    return [
        *_scan_rows(cfg),
        {**half, "name": "teleport_fidelity_alpha_half"},
        pure,
        *_gisin_rows(at(seeds[2])),
        *_hardy_rows(cfg),
        *_lhv_rows(at(seeds[3], 0.5)),
    ]


class _Command(NamedTuple):
    rows: Callable[[argparse.Namespace], list[dict]]
    flags: tuple[str, ...]  # besides --format and --out
    help: str
    reference: str  # the report's paper_reference


_TABLE = {
    "reproduce": _Command(
        _reproduce_rows,
        ("samples", "seed", "grid"),
        "run every headline check",
        "headline checks: singlet CH value (1 - sqrt(2))/2, threshold 1/sqrt(2), "
        "fidelity (1 + alpha)/2, classical baselines 2/3 and 0.8724, exact toy protocol, "
        "hidden variable agreement at alpha = 1/2",
    ),
    "scan": _Command(
        _scan_rows,
        ("grid",),
        "scan the CH value over the singlet fraction",
        "nonlocality threshold of the singlet-fraction family: violation for alpha above 1/sqrt(2)",
    ),
    "lhv": _Command(
        _lhv_rows,
        ("alpha", "samples", "seed"),
        "hidden variable simulation of the teleportation test",
        "hidden variable simulation of the teleportation test at the simulable fraction",
    ),
    "hardy": _Command(
        _hardy_rows,
        (),
        "verify the exact four-state toy protocol",
        "exact teleportation of one of four hidden values using a two-bit message",
    ),
    "gisin": _Command(
        _gisin_rows,
        ("samples", "seed"),
        "classical baselines: the z and tetrahedron schemes",
        "classical two-bit baselines: 2/3 for the z scheme, which measures the unknown ket; about 0.8724 for the "
        "tetrahedron scheme, whose sender uses the known Bloch vector",
    ),
    "teleport": _Command(
        _teleport_rows,
        ("alpha", "samples", "seed"),
        "average teleportation fidelity: exact on the singlet fraction, Monte Carlo on a pure state",
        "average teleportation fidelity (1 + alpha)/2 on the singlet-fraction family, exact; "
        "(2 + sin 0.6)/3 on cos 0.3|01> - sin 0.3|10>, Monte Carlo",
    ),
}
# main calls each row builder through this dict, so wrapping an entry wraps that command
_COMMANDS = {name: command.rows for name, command in _TABLE.items()}


def _emit_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _emit_csv(report: dict) -> str:
    lines = ["name,value,stderr,expected,tolerance,pass"]

    def cell(row: dict, key: str) -> str:
        return "" if row.get(key) is None else repr(row[key])

    for row in report["results"]:
        cells = [row["name"], *(cell(row, key) for key in ("value", "stderr", "expected", "tolerance"))]
        cells.append("true" if row.get("pass") else ("false" if "pass" in row else ""))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _all_pass(report: dict) -> bool:
    return all(row["pass"] for row in report["results"] if "pass" in row)


_FLAGS = {
    "alpha": {"type": float, "default": DEFAULT_ALPHA, "help": "singlet fraction"},
    "samples": {"type": int, "help": "Monte Carlo samples"},
    "seed": {"type": int, "help": "random seed"},
    "grid": {"type": str, "default": DEFAULT_GRID, "help": "alpha grid LO:HI:STEP"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telelocal",
        description="Teleportation statistics, Bell-type tests, and local hidden variable baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _TABLE.items():
        p = sub.add_parser(name, help=command.help)
        # flags a command does not take echo these values in the config; one it takes has its _FLAGS default
        p.set_defaults(alpha=None, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED, grid=None)
        for flag in command.flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
        p.add_argument("--out", type=str, default=None, help="write the report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.samples < MIN_SAMPLES:
            raise UsageError(f"samples must be >= {MIN_SAMPLES}, a standard error needs two")
        if args.seed < 0:
            raise UsageError("seed must be >= 0")
        args.grid = None if args.grid is None else _parse_grid(args.grid)
        rows = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _report(args.command, args, rows)
    text = _emit_json(report) if args.output_format == "json" else _emit_csv(report)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if _all_pass(report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
