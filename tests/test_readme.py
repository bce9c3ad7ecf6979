"""The README's examples run and show what the package prints."""

import contextlib
import io
import json
import re
from pathlib import Path

from telelocal import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_block(language: str, after: str) -> str:
    """The first fenced block in the given language that follows the line ``after``."""
    text = README.read_text(encoding="utf-8")
    match = re.compile(rf"^```{language}\n(.*?)^```", re.M | re.S).search(text, text.index(after))
    return match.group(1)


def test_library_example_runs():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(_fenced_block("python", "## Library example"), {})
    lines = printed.getvalue().splitlines()
    assert len(lines) == 4
    # the lhv line: (2 - sqrt 2)/4 within four standard errors
    value, _, stderr = lines[-1].split()
    assert abs(float(value) - (2 - 2**0.5) / 4) <= 4 * float(stderr)


def test_teleport_report_example_is_the_default_teleport_report(capsys):
    example = json.loads(_fenced_block("json", "### Report format"))
    assert cli.main(["teleport"]) == 0
    assert json.loads(capsys.readouterr().out) == example


def test_reproduce_row_order_is_the_documented_one(capsys):
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| Part of `reproduce` |") :].split("\n\n")[0].splitlines()[2:]
    documented = [name for line in table for name in re.findall(r"`(\w+)`", line.split("|")[2])]
    assert cli.main(["reproduce", "--samples", "2000"]) == 0
    assert documented == [row["name"] for row in json.loads(capsys.readouterr().out)["results"]]
