"""Byte-for-byte stdout of the exact `cpn` and `sphere` commands, of three
`schubert lr` tables and of two `schubert spans` checks.

tests/data/golden_cli.json maps each command line to the stdout it
printed when the file was made.  The exact coefficient type may change
how values are held, but not what these commands print.  The span
checks (the README example, and (3,3,2) at seed 1) pin the ranks and
`max_cross_inner` however the ranks and inner products are computed.
"""

import json
from pathlib import Path
import shlex

import pytest

from pirings.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_unchanged(capsys, monkeypatch, command):
    monkeypatch.delenv("ZONOID_SEED", raising=False)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == GOLDEN[command]
