"""Every row of the CLI sweep table that ran in under a second when it was written still
gives its exit code, stdout digest and first stderr line; `python tests/sweep.py check`
runs the slow rows too."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location("sweep", Path(__file__).parent / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_every_fast_sweep_row_agrees():
    rows = [row for row in json.loads(sweep.TABLE.read_text()) if not row["slow"]]
    assert len(rows) > 90
    assert sweep.check(rows) == []
