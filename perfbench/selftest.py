"""Self-tests of the benchmark itself (not of rootinv).

    python3 perfbench/selftest.py            # all, about six minutes
    python3 perfbench/selftest.py rss spans  # those whose names contain a word

Run from the root of a checkout.  The functions are also plain pytest tests
(``python3 -m pytest perfbench/selftest.py``); the file name keeps them out
of the repository's default test collection, because they take minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import record  # noqa: E402
import run  # noqa: E402

# Spans that must fire on each workload (NOTES.md, layer map).  Spans not
# listed for a workload may fire there too; the prediction is no change.
EXPECTED_SPANS = {
    "closure": [
        "weyl.reflections",
        "weyl.group_order_bfs",
        "weyl.h1_cyclic2",
        "laurent.is_invariant",
        "monoids.verify_cell_partition",
        "monoids.toric_class_group",
        "intlinalg.cokernel_invariant_factors",
        "intlinalg.solve_exact",
        "classgroup.class_group_cross_check",
        "rootsystem.build",
        "cli.main",
    ],
    "expand": [
        "weyl.orbit_weight_coords",
        "laurent.mul",
        "laurent.orbit_sum_weight_coords",
        "laurent.render",
        "reports.omega_expand",
        "reports.report",
        "rootsystem.build",
        "cli.main",
    ],
    "presentation": [
        "monoids.box_elements",
        "monoids.hilbert_basis_box",
        "monoids.hironaka_cells",
        "monoids.hilbert_basis_kernel",
        "relations.relations_bounded",
        "relations.relations_equivalent",
        "reports.report",
        "rootsystem.build",
        "cli.main",
    ],
}


# The most of cli.main.s that cli.main's own time (payload building, JSON
# output, and any function no span wraps) may take on each workload: about
# three times the share measured at the recording commit (0.008, 0.010 and
# 0.005 of cli.main.s).
MAX_MAIN_SELF_SHARE = {"closure": 0.025, "expand": 0.03, "presentation": 0.015}


def bench(*args: str, cwd: str = ".", runner: str = "perfbench/run.py") -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, runner, *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def copy_benchmark(dest: str) -> str:
    """A fresh copy of this directory at ``dest``/perfbench; returns the copy's path."""
    shutil.rmtree(dest, ignore_errors=True)
    copy = os.path.join(dest, "perfbench")
    shutil.copytree(run.HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_every_metric():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.BOUNDED)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_corrupted_reference_fails():
    copy = copy_benchmark(os.path.join(run.WORK, "corrupt"))
    answers_path = os.path.join(copy, "answers.json")
    with open(answers_path) as fh:
        answers = json.load(fh)
    answers["invariants A 3 --relations --hironaka"]["fields"]["relations.count"] = "7"
    with open(answers_path, "w") as fh:
        json.dump(answers, fh)
    code, out = bench("--workload", "presentation", "--seed", "4", "--seconds", "0", runner=os.path.join(copy, "run.py"))
    result = last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // len(run.WORKLOADS["presentation"])


def test_rss_not_inherited_from_runner():
    os.makedirs(run.WORK, exist_ok=True)
    env = run.child_env(seed=0)
    before = run.run_job(["info", "A", "1"], env).rss_mb
    big = run.run_job(["invariants", "C", "7", "--expand"], env)  # the benchmark's largest output, 3.8 MB
    after = run.run_job(["info", "A", "1"], env).rss_mb
    assert big.exit_code == 0
    assert abs(after - before) < 1.0, (before, after)


def test_spans_fire_and_counts_repeat():
    with open(record.SPAN_COUNTS) as fh:
        recorded = json.load(fh)
    units = run.per_layer_units()
    for workload, spans in EXPECTED_SPANS.items():
        runs = []
        for seed in ("1", "2"):  # two seeds: answers and counts must not depend on it
            code, out = bench("--workload", workload, "--seed", seed, "--seconds", "0", "--trace", "1")
            result = last_json(out)
            assert code == 0 and result["correct"], (workload, seed)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        counts = [{k: v for k, v in r.items() if units[k] in ("count", "bytes")} for r in runs]
        assert counts[0] == counts[1], workload
        assert counts[0] == {k: recorded[workload].get(k, 0) for k in counts[0]}, workload
        missing = [s for s in spans if not runs[0][f"{s}.s"] > 0]
        assert not missing, (workload, missing)
        # The spans account for the traced wall time, up to interpreter start and exit,
        # and the wrapped layers account for the time inside cli.main.
        assert runs[0]["trace.unaccounted_s"] < 0.15 * runs[0]["cli.main.s"], workload
        share = runs[0]["cli.main.self_s"] / runs[0]["cli.main.s"]
        assert share < MAX_MAIN_SELF_SHARE[workload], (workload, share)


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.WORK, "bare")
    copy_benchmark(bare)
    shutil.copy("BENCHMARK.json", bare)
    code, out = bench("--workload", "closure", "--seconds", "1", cwd=bare)
    assert code != 0 and not out.strip()
    shutil.rmtree(bare)


def main(words: list[str]) -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        if words and not any(w in name for w in words):
            continue
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
