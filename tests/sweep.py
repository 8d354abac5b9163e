"""The CLI's byte contract as one table: argv -> (exit code, stdout sha256, first stderr line).

    PYTHONPATH=src python tests/sweep.py check    # run every row of tests/golden/sweep.json, report each mismatch
    PYTHONPATH=src python tests/sweep.py write    # run ROWS and write the table afresh

Every row runs `rootinv.cli.main` in this process, with stdout and stderr captured.
A warning counts as one stderr line, `<Category>: <message>`, so that the table
holds no file path.  A row that took over SLOW_S seconds when it was last
timed is marked slow: the Tier-1 test (tests/test_sweep.py) skips it, and
`check` runs it.  Take the table at a commit whose bytes are the reference,
and check a change against it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TABLE = Path(__file__).parent / "golden" / "sweep.json"
SLOW_S = 1.0

_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(fam, n) for fam in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("A", 20), ("A", 40), ("A", 150), ("D", 20)]
)
_USAGE = [  # exit 2: a type that is not one, a root table past its limit, and argparse's own refusals
    ["Q", "3"], ["A", "0"], ["B", "1"], ["C", "1"], ["D", "2"], ["E", "5"], ["E", "9"], ["F", "3"], ["G", "3"],
    ["E"], ["A", "256"], ["A", "x"], [],
]
ROWS = (
    [[cmd, fam, str(n)] for cmd in ("info", "classgroup") for fam, n in _TYPES]
    + [[cmd, *args] for cmd in ("info", "classgroup") for args in _USAGE]
    + [["classgroup", "A", "3", "--group-cap", "-1"]]
)


def run(argv: list[str]) -> dict:
    """One row: cli.main(argv) in this process, with its exit code, stdout digest and first stderr line."""
    from rootinv import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    lines = [f"{w.category.__name__}: {w.message}" for w in caught] + err.getvalue().splitlines()
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": lines[0] if lines else "",
    }


def check(rows: list[dict]) -> list[str]:
    """The rows whose run differs from the table, one line each."""
    bad = []
    for row in rows:
        got = run(row["argv"])
        diff = [k for k in ("exit", "stdout_sha256", "stderr") if got[k] != row[k]]
        if diff:
            bad.append(f"{' '.join(row['argv'])}: " + ", ".join(f"{k} {row[k]!r} -> {got[k]!r}" for k in diff))
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("check", "write"))
    args = parser.parse_args(argv)
    if args.action == "write":
        rows = []
        for argv_row in ROWS:
            t0 = time.perf_counter()
            row = run(argv_row)
            row["slow"] = time.perf_counter() - t0 > SLOW_S
            rows.append(row)
        TABLE.write_text(json.dumps(rows, indent=1) + "\n")
        print(f"wrote {len(rows)} rows, {sum(r['slow'] for r in rows)} slow, to {TABLE.name}")
        return 0
    rows = json.loads(TABLE.read_text())
    bad = check(rows)
    for line in bad:
        print(line)
    print(f"{len(rows) - len(bad)} of {len(rows)} rows agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
