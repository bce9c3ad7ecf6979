"""Tests for the telelocal command line interface and report formats."""

import ast
import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import bloch_rows
from telelocal import bellcheck, classical, cli, estimates, lhv, qcore, teleport


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_hardy_json_report_schema(capsys):
    code, out = _run(["hardy"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["command"] == "hardy"
    assert set(report["config"]) == {"alpha", "samples", "seed", "grid"}
    assert isinstance(report["paper_reference"], str)
    names = [row["name"] for row in report["results"]]
    assert names == ["hardy_successes", "hardy_partition_ok"]
    for row in report["results"]:
        assert row["pass"] is True
        assert set(row) >= {"name", "value", "expected", "tolerance", "pass"}


def test_scan_finds_the_threshold(capsys):
    code, out = _run(["scan", "--grid", "0.0:1.0:0.01"], capsys)
    assert code == 0
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    assert abs(rows["threshold_closed_form_root"]["value"] - 2**-0.5) < 1e-9
    assert rows["threshold_first_grid_violation"]["value"] == pytest.approx(0.71)


def test_scan_reads_the_singlet_from_the_scans_own_end_point(monkeypatch, capsys):
    # the singlet is the alpha = 1 end of the scan, so the command builds only the scan's two tables
    calls = []
    real = bellcheck.probability_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bellcheck, "probability_table", counting)
    code, out = _run(["scan"], capsys)
    assert code == 0 and len(calls) == 2
    setting, grouping = bellcheck.violation_setting(), bellcheck.OutcomeGrouping()
    singlet = bellcheck.teleport_ch_value(setting, grouping, qcore.singlet_projector())
    assert json.loads(out)["results"][0] == {
        "name": "singlet_ch_value",
        "value": singlet,
        "expected": (1 - 2**0.5) / 2,
        "tolerance": cli.ANALYTIC_TOL,
        "pass": True,
    }


def test_teleport_row_carries_stochastic_fields(capsys):
    code, out = _run(["teleport", "--alpha", "0.25", "--samples", "500", "--seed", "3"], capsys)
    assert code == 0
    exact, pure = json.loads(out)["results"]
    # the singlet-fraction row is the closed form, so it carries no stochastic field
    assert exact["name"] == "teleport_fidelity"
    assert "stderr" not in exact and "samples" not in exact
    assert exact["pass"] is True and exact["tolerance"] == cli.ANALYTIC_TOL
    assert abs(exact["value"] - 0.625) <= exact["tolerance"]
    assert pure["name"] == "teleport_fidelity_pure_state"
    assert pure["samples"] == 500
    assert pure["stderr"] > 0 and pure["pass"] is True
    assert abs(pure["value"] - (2 + np.sin(0.6)) / 3) <= pure["tolerance"]


def _uniform_outcome_fidelity(rho, samples, seed):
    # a broken sampler: it draws the Bell outcome uniformly, not with its probability p_k, yet still divides
    # the corrected overlap by p_k. On the singlet-fraction family every overlap / p_k is (1 + alpha)/2, so
    # only a state whose per-sample fidelity varies can show the bias
    rng = np.random.default_rng(seed)
    rows = bloch_rows(qcore.haar_kets(rng, samples))
    sent = teleport._SENDER_SIGNS[rng.integers(4, size=samples)] * rows
    r = qcore.pauli_correlations(rho)
    scores = np.einsum("sa,ab,sb->s", sent, r / 8 * teleport._FLIP, sent) / (sent @ r[:, 0] / 4)
    return estimates.MonteCarloEstimate(scores.mean(), scores.std(ddof=1) / np.sqrt(samples), samples)


def test_only_the_pure_state_row_sees_a_uniform_outcome_draw(monkeypatch, capsys):
    for alpha in (0.0, 0.5, 1.0):
        est = _uniform_outcome_fidelity(qcore.werner_alpha(alpha), 4000, 1)
        assert abs(est.value - (1 + alpha) / 2) <= 1e-12 and est.stderr <= 1e-12
    monkeypatch.setattr(teleport, "average_fidelity", _uniform_outcome_fidelity)
    code, out = _run(["teleport", "--samples", "20000"], capsys)
    assert code == 1
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    assert rows["teleport_fidelity"]["pass"] is True
    pure = rows["teleport_fidelity_pure_state"]
    assert pure["pass"] is False
    assert abs(pure["value"] - 0.824) <= 0.005 and pure["expected"] == pytest.approx(0.8548808244650117)


def test_lhv_command_matches_closed_form(capsys):
    code, out = _run(["lhv", "--samples", "20000"], capsys)
    assert code == 0
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    assert rows["lhv_ch_value"]["pass"] is True
    assert abs(rows["lhv_ch_value"]["expected"] - (2 - 2**0.5) / 4) < 1e-12
    # the sampled rows carry the README's stochastic fields; the model's exact table is analytic
    exact = rows.pop("lhv_model_exact_max_deviation")
    assert all(row["stderr"] >= 0 and row["samples"] == 20000 for row in rows.values())
    assert "stderr" not in exact and "samples" not in exact
    assert exact["pass"] is True and exact["value"] <= 1e-15 and exact["tolerance"] == cli.ANALYTIC_TOL


def test_lhv_command_builds_the_ch_settings_once(monkeypatch, capsys):
    # the sender's two grouped POVMs and the receiver's two spin measurements serve
    # both the sampled table and the model's exact one
    built = []
    post_init = lhv.MeasurementSpec.__post_init__

    def counted(spec):
        built.append(spec.kind)
        post_init(spec)

    monkeypatch.setattr(lhv.MeasurementSpec, "__post_init__", counted)
    code, _ = _run(["lhv", "--samples", "2000"], capsys)
    assert code == 0
    assert sorted(built) == ["povm", "povm", "projective", "projective"]


def test_gisin_csv_format(capsys):
    code, out = _run(["gisin", "--samples", "30000", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,value,stderr,expected,tolerance,pass"
    assert [line.split(",")[0] for line in lines[1:]] == ["gisin_fidelity_mc", "z_scheme_fidelity"]
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) > 0 and cells[5] == "true"
    # an exact row has no standard error, so its stderr cell is empty
    code, out = _run(["teleport", "--samples", "30000", "--format", "csv"], capsys)
    assert code == 0
    exact = teleport.exact_average_fidelity(qcore.werner_alpha(0.5))
    assert out.split("\n")[1] == f"teleport_fidelity,{exact!r},,0.75,1e-09,true"


@pytest.mark.parametrize("offset", [-0.01, 0.01])
def test_gisin_mc_row_fails_when_the_closed_form_is_off(offset, monkeypatch, capsys):
    # the Monte Carlo row is checked against the closed form, so it carries the claim 0.8724 on its own
    real = classical.gisin_fidelity_analytic
    monkeypatch.setattr(classical, "gisin_fidelity_analytic", lambda: real() + offset)
    code, out = _run(["gisin", "--samples", "30000"], capsys)
    assert code == 1
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    assert rows["gisin_fidelity_mc"]["pass"] is False
    assert rows["gisin_fidelity_mc"]["expected"] == real() + offset
    assert rows["z_scheme_fidelity"]["pass"] is True


def test_lhv_ch_expected_value_lies_inside_the_unit_interval():
    # the canonical CH value falls from 1/2 at alpha = 0 to (2 - sqrt 2)/4 at alpha = 1/2
    setting = bellcheck.violation_setting()
    for alpha in (0.0, 0.25, 0.5):
        value = bellcheck.closed_form_value(alpha, setting)
        assert (2 - 2**0.5) / 4 - 1e-15 <= value <= 0.5 + 1e-15


@pytest.mark.parametrize("value", [-0.01, 1.01])
def test_lhv_ch_value_fails_on_an_estimate_outside_the_unit_interval(value, monkeypatch, capsys):
    # a CH estimate outside [0, 1] by more than its band lies outside the band around the expected value
    real = lhv.lhv_teleport_experiment

    def moved(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), value=value)

    monkeypatch.setattr(lhv, "lhv_teleport_experiment", moved)
    code, out = _run(["lhv", "--samples", "20000"], capsys)
    assert code == 1
    row = json.loads(out)["results"][0]
    assert row["name"] == "lhv_ch_value" and row["value"] == value and row["pass"] is False


def test_reports_are_byte_identical_per_config(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert cli.main(["reproduce", "--samples", "20000", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _rows(argv, capsys):
    code, out = _run(argv, capsys)
    assert code == 0
    return json.loads(out)["results"]


def test_reproduce_rows_come_from_the_other_commands(capsys):
    n, seed = ["--samples", "20000"], 7
    seeds = [str(s) for s in estimates.child_seeds(seed, 4)]
    half, pure = _rows(["teleport", "--alpha", "0.5", *n, "--seed", seeds[0]], capsys)
    assert _rows(["reproduce", *n, "--seed", str(seed)], capsys) == (
        _rows(["scan"], capsys)
        + [{**half, "name": "teleport_fidelity_alpha_half"}, pure]
        + _rows(["gisin", *n, "--seed", seeds[2]], capsys)
        + _rows(["hardy"], capsys)
        + _rows(["lhv", "--alpha", "0.5", *n, "--seed", seeds[3]], capsys)
    )


def test_no_monte_carlo_row_of_reproduce_has_zero_variance(capsys):
    # a zero-variance estimator scores every sample alike, so it cannot see a biased draw; such a row belongs
    # in closed form, and no reproduce row carrying a stderr may be one
    stochastic = [row for row in _rows(["reproduce", "--samples", "20000"], capsys) if "stderr" in row]
    assert stochastic
    for row in stochastic:
        assert row["stderr"] > 1e-9, row["name"]


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--samples", "20000"],
        ["scan"],
        ["lhv", "--samples", "20000"],
        ["lhv", "--alpha", "0.25", "--samples", "20000"],
        ["lhv", "--alpha", "0", "--samples", "20000"],
    ],
)
def test_every_checked_row_passes_by_its_own_tolerance(argv, capsys):
    checked = [row for row in _rows(argv, capsys) if "pass" in row]
    assert checked
    for row in checked:
        assert row["pass"] is True
        assert abs(row["value"] - row["expected"]) <= row["tolerance"], row["name"]


def test_out_file_and_stdout_match(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out = _run(["hardy", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""  # writing to a file suppresses stdout
    assert json.loads(path.read_text())["command"] == "hardy"


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    assert cli.main(["hardy", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not path.exists()


def test_seed_changes_stochastic_output(capsys):
    _, out1 = _run(["teleport", "--samples", "400", "--seed", "1", "--alpha", "0.3"], capsys)
    _, out2 = _run(["teleport", "--samples", "400", "--seed", "2", "--alpha", "0.3"], capsys)
    # same config shape, different draws; estimates stay near (1+alpha)/2 but
    # reports must reflect the seed that produced them
    assert json.loads(out1)["config"]["seed"] == 1
    assert json.loads(out2)["config"]["seed"] == 2


def test_usage_errors_exit_2(capsys):
    assert cli.main(["scan", "--grid", "nonsense"]) == 2
    assert cli.main(["scan", "--grid", "0.5:0.1:0.1"]) == 2
    assert cli.main(["lhv", "--alpha", "0.9"]) == 2
    assert cli.main(["teleport", "--alpha", "1.5"]) == 2
    assert cli.main(["teleport", "--samples", "0"]) == 2
    assert cli.main(["teleport", "--samples", "1"]) == 2
    assert cli.main(["scan", "--grid", "0:1:1e-12"]) == 2
    assert cli.main(["scan", "--grid", "0:2:0.5"]) == 2
    assert cli.main(["scan", "--grid=-0.5:1:0.5"]) == 2
    assert cli.main(["reproduce", "--grid", "0:2:0.5"]) == 2
    for grid in ("nan:1:0.1", "0:1:nan", "0:nan:0.1", "0:1:inf", "0:1:5e-324"):
        assert cli.main(["scan", "--grid", grid]) == 2
    assert cli.main(["teleport", "--seed", "-1"]) == 2
    assert cli.main(["reproduce", "--seed", "-1"]) == 2
    capsys.readouterr()
    # a step below the float spacing at LO would repeat grid points
    for command in ("scan", "reproduce"):
        assert cli.main([command, "--grid", "0.5:0.5000000000000001:1e-17"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_grid_points_stop_at_hi(capsys):
    # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, outside the family
    assert 0.09 + 13 * 0.07 > 1.0
    points = cli._grid_points((0.09, 1.0, 0.07))
    assert points.size == 14 and points[-1] == 1.0
    assert cli.main(["scan", "--grid", "0.09:1:0.07"]) == 0
    capsys.readouterr()


def test_oversized_grid_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(cli.UsageError):
            cli._grid_points((0.0, 1.0, 1e-12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert cli._grid_points((0.0, 1.0, 1e-5)).size == cli.MAX_GRID_POINTS


def _scan_with(monkeypatch, **changes):
    real = bellcheck.threshold_scan
    monkeypatch.setattr(
        bellcheck, "threshold_scan", lambda setting, grid: dataclasses.replace(real(setting, grid), **changes)
    )


def test_scan_without_a_violation_emits_a_failing_row(monkeypatch, capsys):
    _scan_with(monkeypatch, first_violation=None)
    code, out = _run(["scan"], capsys)
    assert code == 1
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    assert rows["threshold_closed_form_root"]["pass"] is True
    row = rows["threshold_first_grid_violation"]
    assert row["value"] is None and row["expected"] == pytest.approx(0.71) and row["pass"] is False


def test_scan_without_a_closed_form_root_fails_instead_of_raising(monkeypatch, capsys):
    monkeypatch.setattr(bellcheck, "closed_form_root", lambda setting: None)
    code, out = _run(["scan"], capsys)
    assert code == 1
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    assert rows["threshold_closed_form_root"]["value"] is None
    assert rows["threshold_first_grid_violation"]["expected"] is None
    assert rows["teleport_fidelity_alpha_threshold"]["value"] is None
    # the singlet row needs no root
    assert rows.pop("singlet_ch_value")["pass"] is True
    assert not any(row["pass"] for row in rows.values())
    code, out = _run(["scan", "--format", "csv"], capsys)
    assert code == 1
    assert out.splitlines()[2:] == [
        "threshold_closed_form_root,,,0.7071067811865476,1e-09,false",
        "threshold_first_grid_violation,0.71,,,1e-09,false",
        "teleport_fidelity_alpha_threshold,,,0.8535533905932737,1e-09,false",
    ]


def _lhv_with_table(monkeypatch, alpha, joints, stderr):
    setting = bellcheck.violation_setting()
    result = lhv.LhvChResult(
        value=bellcheck.closed_form_value(alpha, setting),
        stderr=0.01,
        table=bellcheck.ProbabilityTable(joints, stderr=stderr),
        exact=bellcheck.ProbabilityTable(_quantum_joints(alpha)),
    )
    monkeypatch.setattr(lhv, "lhv_teleport_experiment", lambda *args, **kwargs: result)


def _quantum_joints(alpha):
    return bellcheck.probability_table(
        bellcheck.violation_setting(), bellcheck.OutcomeGrouping(), qcore.werner_alpha(alpha)
    ).joints


def test_lhv_cell_deviation_fails_on_any_cell_outside_its_band(monkeypatch, capsys):
    # the largest deviation lies inside its own 4-sigma band, a smaller one far outside its tiny band
    joints = _quantum_joints(0.5)
    stderr = np.full(joints.shape, 0.01)
    # each move keeps its settings block summing to 1
    joints[0, 0, 0, 0] += 0.01
    joints[0, 1, 0, 0] -= 0.01
    joints[1, 0, 1, 1] += 1e-6
    joints[1, 1, 1, 1] -= 1e-6
    stderr[1, :, 1, :] = 1e-9
    _lhv_with_table(monkeypatch, 0.5, joints, stderr)
    code, out = _run(["lhv", "--samples", "2000"], capsys)
    assert code == 1
    rows = {row["name"]: row for row in json.loads(out)["results"]}
    row = rows.pop("lhv_max_cell_deviation")
    # the reported cell is the out-of-band one, so the row's own tolerance fails it
    assert row["value"] == pytest.approx(1e-6) and row["stderr"] == 1e-9
    assert row["value"] > row["tolerance"] and row["pass"] is False
    assert all(other["pass"] for other in rows.values())


def test_lhv_cells_are_compared_with_the_quantum_table_at_the_commands_alpha(monkeypatch, capsys):
    # the alpha = 1/4 table lies far outside a 4e-3 band around the alpha = 1/2 one
    joints = _quantum_joints(0.25)
    assert np.abs(joints - _quantum_joints(0.5)).max() > 0.01
    _lhv_with_table(monkeypatch, 0.25, joints, np.full(joints.shape, 1e-3))
    code, out = _run(["lhv", "--alpha", "0.25", "--samples", "2000"], capsys)
    assert code == 0
    row = {row["name"]: row for row in json.loads(out)["results"]}["lhv_max_cell_deviation"]
    assert row["value"] <= 1e-15 and row["pass"] is True


def test_flags_a_command_ignores_exit_2(capsys):
    for argv in (
        ["hardy", "--alpha", "7"],
        ["hardy", "--grid", "0:1:0.5"],
        ["scan", "--samples", "100"],
        ["scan", "--alpha", "0.5"],
        ["gisin", "--alpha", "0.3"],
        ["gisin", "--grid", "0:1:0.5"],
        ["lhv", "--grid", "0:1:0.5"],
        ["teleport", "--grid", "0:1:0.5"],
        ["reproduce", "--alpha", "0.5"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "telelocal", "hardy"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "hardy"


def test_the_package_never_imports_the_benchmark():
    # perfbench modules import each other by bare name, so any of those names counts too
    root = Path(__file__).resolve().parents[1]
    bench = {"perfbench"} | {path.stem for path in (root / "perfbench").glob("*.py")}
    sources = sorted((root / "src" / "telelocal").rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & bench, f"{path.name} imports {names}"
