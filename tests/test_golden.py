"""Stdout of the CLI against recorded output.

tests/data/golden_cli.json maps each command line of the exact `cpn` and
`sphere` commands, of three `schubert lr` tables, of two `schubert spans`
checks and of the `zonoid` commands to the stdout it printed when the file
was made, byte for byte.  The exact coefficient type may change how values
are held, but not what these commands print.  The span checks (the README
example, and (3,3,2) at seed 1) pin the ranks and `max_cross_inner`
however the ranks and inner products are computed.  The zonoid commands
read their bodies from tests/data, where they run: the README's square and
line, seeded rational bodies (`zonoid_*.json`, one per command) and a body
with float weights and coordinates, whose value is rounded once at the end.

tests/data/golden_estimators.json does the same for the Monte-Carlo
estimators (`edeg22`, `shape`, `tasaki --mc`, `ball-mc`) at small sample
counts and fixed seeds.  Their floats may differ in the last bits between
numpy builds and CPUs, so they are compared to 1e-12 relative, and ints,
strings and the shape of the JSON exactly; the file names the numpy
version it was recorded with.  A change that means to change a stream
re-records its entries with `python tests/test_golden.py`.
"""

import contextlib
import io
import json
import math
from pathlib import Path
import shlex
import sys

import pytest

from pirings.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_cli.json").read_text())
ESTIMATORS = json.loads((DATA / "golden_estimators.json").read_text())


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_unchanged(capsys, monkeypatch, command):
    monkeypatch.delenv("ZONOID_SEED", raising=False)
    monkeypatch.chdir(DATA)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == GOLDEN[command]


def _same(got, want):
    """got equals want, floats to 1e-12 relative and all else exactly."""
    if isinstance(want, float):
        return (isinstance(got, float)
                and math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0))
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("command", list(ESTIMATORS["commands"]))
def test_estimate_unchanged(capsys, monkeypatch, command):
    monkeypatch.delenv("ZONOID_SEED", raising=False)
    assert main(shlex.split(command)) == 0
    got = json.loads(capsys.readouterr().out)
    assert _same(got, json.loads(ESTIMATORS["commands"][command])), (
        f"recorded with numpy {ESTIMATORS['numpy']}")


@pytest.mark.parametrize("got, want, same", [
    (1.0, 1.0 + 2e-13, True), (1.0, 1.0 + 2e-12, False), (0.0, 0.0, True),
    (1, 1.0, False), ({"a": 1, "b": 2}, {"b": 2, "a": 1}, False),
    ([1.0], [1.0, 2.0], False), ("1", "1", True), (True, 1, False)])
def test_same_compares_floats_loosely_and_all_else_exactly(got, want, same):
    assert _same(got, want) is same


if __name__ == "__main__":
    import numpy
    commands = {}
    for command in ESTIMATORS["commands"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(shlex.split(command)) != 0:
                sys.exit(f"failed: {command}")
        commands[command] = out.getvalue()
    (DATA / "golden_estimators.json").write_text(json.dumps(
        {"numpy": numpy.__version__, "commands": commands}, indent=2) + "\n")
