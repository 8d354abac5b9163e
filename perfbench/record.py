"""Record the benchmark's references at the current commit.

    python3 perfbench/record.py

Writes perfbench/answers.json (each job's exit code and answer fields) and
perfbench/span_counts.json (each workload's per-layer counts from one traced
pass).  Run it from the root of a checkout whose answers are known to be
right, and only when an answer or a count is meant to change; review the
diff.  run.py counts any answer difference as a failure, and selftest.py
fails when a traced run's counts differ from span_counts.json.
"""

from __future__ import annotations

import json
import os
import sys

import run

SPAN_COUNTS = os.path.join(run.HERE, "span_counts.json")


def write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    os.makedirs(os.path.join(run.WORK, "trace"), exist_ok=True)
    env = run.child_env(seed=0)
    answers = {}
    counts = {}
    for workload, jobs in run.WORKLOADS.items():
        for argv in jobs:
            res = run.run_job(argv, env)
            answers[run.job_key(argv)] = {"exit": res.exit_code, "fields": res.found["fields"]}
            print(f"{run.job_key(argv)}: exit {res.exit_code}, {len(res.found['fields'])} fields", file=sys.stderr)
        write_json(run.ANSWERS, answers)
        traced = [run.judge(run.run_job(argv, env, os.path.join(run.WORK, "trace", "record.json")), answers) for argv in jobs]
        failed = [run.job_key(r.argv) for r in traced if not r.ok]
        if failed:
            print(f"traced jobs failed: {failed}", file=sys.stderr)
            return 1
        counts[workload] = run.pass_layers(traced)[1]
    write_json(SPAN_COUNTS, counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
