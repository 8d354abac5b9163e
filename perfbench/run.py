"""Benchmark runner for the rootinv CLI.

Run from the root of a rootinv checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Each job is one CLI invocation in a fresh child process, run one at a time
(a closed loop with a single client).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same jobs through ``perfbench/traced.py``,
which wraps the library's public functions in-process, and reports the
per-layer metrics.  Every job's answer is checked against
``perfbench/answers.json``.  The last line of stdout is one JSON object;
the lines before it are the same figures for a reader.  The exit code is 0
only when every answer was right.

This process imports nothing but the standard library and never holds a
job's output: Linux carries a parent's resident memory into a child's
``ru_maxrss``, so a large runner would inflate ``peak_rss_mb``.  See
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(HERE, "check.py")
TRACED = os.path.join(HERE, "traced.py")
ANSWERS = os.path.join(HERE, "answers.json")
WORK = ".perfbench"  # scratch files, relative to the checkout root

# Why each workload exists, and which layer it stresses: see NOTES.md.
WORKLOADS: dict[str, list[list[str]]] = {
    "closure": [
        ["selfcheck"],
        ["classgroup", "D", "7"],
        ["classgroup", "E", "6"],
        ["classgroup", "B", "6"],
        ["classgroup", "A", "7"],
    ],
    "expand": [
        ["invariants", "C", "7", "--expand"],
        ["invariants", "D", "6", "--expand"],
        ["invariants", "C", "6", "--expand"],
        ["invariants", "B", "7", "--expand"],
    ],
    "presentation": [
        ["invariants", "A", "7"],
        ["invariants", "A", "5", "--relations", "--degree-bound", "4"],
        ["invariants", "E", "6", "--relations"],
        ["invariants", "A", "3", "--relations", "--hironaka"],
        ["hilbert", "--ker", "1 2 3 4 5 6 7 8 9 10 -11"],
        ["hilbert", "--monoid", "perfbench/inputs/box10.monoid"],
    ],
}

# The end-to-end metrics listed in BENCHMARK.json; the others are printed
# for the reader only.
BOUNDED = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")

# Jobs whose whole stdout must equal a committed golden document.
GOLDEN = {
    "invariants A 3 --relations --hironaka": "tests/golden/invariants_a3_relations_hironaka.json",
}

SETUP_PER_PASS = 3
MIN_PASSES = 2
JOB_TIMEOUT_S = 60.0

# The speed probe: a fixed pure-Python loop timed in this process before
# every job, and the time it takes on the reference machine.
PROBE_LOOPS = 400_000
PROBE_REF_S = 0.05

# The runner pins itself, and so the probe, the set-up samples and every job,
# to one CPU: the probe then measures the core the jobs run on.  The answer
# checker runs on the other CPUs.
ALL_CPUS = os.sched_getaffinity(0)
JOB_CPU = max(ALL_CPUS)


def job_key(argv: list[str]) -> str:
    return shlex.join(argv)


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ROOTINV_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


@dataclass
class JobResult:
    argv: list[str]
    exit_code: int
    found: dict  # check.py's output for the job's stdout
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool
    spans_path: str | None
    reason: str = ""  # why the job failed; empty when it passed
    spans: dict | None = None  # traced.py's summary, for a traced job that passed

    @property
    def ok(self) -> bool:
        return not self.reason


def run_job(argv: list[str], env: dict[str, str], spans_path: str | None = None) -> JobResult:
    """Run one CLI job (traced when ``spans_path`` is given) with its stdout streamed into the checker."""
    if spans_path:
        cmd = [sys.executable, TRACED, spans_path, *argv]
    else:
        cmd = [sys.executable, "-m", "rootinv.cli", *argv]
    checker = subprocess.Popen(
        [sys.executable, CHECK], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
    )
    os.sched_setaffinity(checker.pid, ALL_CPUS - {JOB_CPU} or ALL_CPUS)
    timed_out = threading.Event()
    with checker, open(os.path.join(WORK, "stderr.log"), "wb") as err:
        t0 = time.perf_counter()
        job = subprocess.Popen(cmd, stdout=checker.stdin, stderr=err, env=env)
        checker.stdin.close()
        timer = threading.Timer(JOB_TIMEOUT_S, lambda: (timed_out.set(), job.kill()))
        timer.start()
        try:
            _, status, ru = os.wait4(job.pid, 0)
            wall = time.perf_counter() - t0
            job.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if job.returncode is None:  # interrupted: leave no job behind
                job.kill()
                job.wait()
        found = json.loads(checker.stdout.read() or b"{}")
    return JobResult(
        argv, job.returncode, found, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, timed_out.is_set(), spans_path
    )


def judge(res: JobResult, answers: dict) -> JobResult:
    """Set ``res.reason`` when the job's exit code or answer differs from the reference."""
    key = job_key(res.argv)
    want = answers.get(key)
    got = res.found.get("fields") or {}
    if want is None:
        res.reason = "no recorded answer"
    elif res.timed_out:
        res.reason = f"timeout after {JOB_TIMEOUT_S:.0f} s"
    elif res.exit_code != want["exit"]:
        res.reason = f"exit code {res.exit_code}, want {want['exit']}"
    elif got != want["fields"]:
        bad = sorted(k for k in set(got) | set(want["fields"]) if got.get(k) != want["fields"].get(k))
        res.reason = "answer differs in " + ", ".join(bad)
    elif key in GOLDEN and res.found["stdout_sha256"] != file_sha256(GOLDEN[key]):
        res.reason = f"stdout differs from {GOLDEN[key]}"
    if res.reason:
        with open(os.path.join(WORK, "stderr.log"), "rb") as err:
            tail = err.read()[-400:].decode(errors="replace").strip()
        print(f"FAIL {key}: {res.reason}" + (f"\n  stderr: {tail}" if tail else ""), file=sys.stderr)
    elif res.spans_path:
        with open(res.spans_path) as fh:
            res.spans = json.load(fh)
    return res


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def measure_setup(env: dict[str, str], samples: int) -> list[float]:
    """Wall seconds, per sample, for a fresh interpreter to import rootinv.cli."""
    cmd = [sys.executable, "-c", "import rootinv.cli"]
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        out.append(time.perf_counter() - t0)
    return out


def probe_speed() -> float:
    """Seconds for PROBE_LOOPS iterations of integer arithmetic in this process.

    On a shared machine the speed of a core can drift by up to a factor of
    two over minutes.  The probe runs on the jobs' core, between the jobs,
    so its median over a run measures how fast that core was during the run.
    It imports and allocates nothing, so the runner stays small (see
    ``ru_maxrss`` above).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_passes(jobs, seconds, rng, env, answers, modes, before_round=lambda: None, before_job=lambda: None):
    """Repeat passes over ``jobs`` (shuffled by ``rng``) until ``seconds`` are used.

    ``modes`` lists the pass kinds run back to back as one round, e.g.
    ``(False,)`` for untraced passes or ``(False, True)`` for an untraced and
    a traced pass over the same job order.  At least MIN_PASSES passes run
    (one round when a round holds two passes); a further round starts only if
    the previous one would still fit.  ``before_round`` runs before each round
    and ``before_job`` before each job.
    """
    rounds = []
    t_end = time.perf_counter() + seconds
    min_rounds = max(1, MIN_PASSES // len(modes))
    while True:
        before_round()
        order = list(jobs)
        rng.shuffle(order)
        t0 = time.perf_counter()
        passes = []
        for traced in modes:
            passes.append([])
            for argv in order:
                spans_path = os.path.join(WORK, "trace", f"{len(rounds)}-{len(passes[-1])}.json") if traced else None
                before_job()
                passes[-1].append(judge(run_job(argv, env, spans_path), answers))
        rounds.append(passes)
        took = time.perf_counter() - t0
        if len(rounds) >= min_rounds and time.perf_counter() + took > t_end:
            return rounds


# ---------------------------------------------------------------------------
# per-layer aggregation

# Count fields each span reports, as listed in BENCHMARK.json (``.s`` and
# ``.self_s`` are reported for every span).
SPAN_COUNTS = {
    "weyl.reflections": ["elements", "found"],
    "weyl.group_order_bfs": ["elements"],
    "weyl.h1_cyclic2": ["calls"],
    "weyl.orbit_weight_coords": ["points"],
    "laurent.mul": ["calls", "term_pairs", "terms_out"],
    "laurent.orbit_sum_weight_coords": ["terms"],
    "laurent.render": ["chars"],
    "laurent.is_invariant": ["calls"],
    "monoids.box_elements": ["calls", "points_scanned", "points_kept"],
    "monoids.hilbert_basis_box": [],
    "monoids.hironaka_cells": [],
    "monoids.hilbert_basis_kernel": ["basis"],
    "monoids.verify_cell_partition": ["points"],
    "monoids.toric_class_group": [],
    "relations.relations_bounded": ["binomials", "factorizations"],
    "relations.relations_equivalent": [],
    "intlinalg.cokernel_invariant_factors": ["calls"],
    "intlinalg.solve_exact": ["calls"],
    "classgroup.class_group_cross_check": [],
    "reports.omega_expand": [],
    "reports.report": [],
    "rootsystem.build": ["calls"],
    "cli.main": [],
}
RATIOS = {
    "laurent.mul.combine_ratio": ("laurent.mul.terms_out", "laurent.mul.term_pairs"),
    "monoids.box_elements.keep_ratio": ("monoids.box_elements.points_kept", "monoids.box_elements.points_scanned"),
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name, counts in SPAN_COUNTS.items():
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        for c in counts:
            units[f"{name}.{c}"] = "count"
    units.update({r: "ratio" for r in RATIOS})
    units["cli.stdout_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    units["trace.unaccounted_s"] = "s"
    return units


def pass_layers(traced_pass: list[JobResult]) -> tuple[dict[str, float], dict[str, int]]:
    """Sum each job's span summary over one traced pass: (times, counts)."""
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for job in traced_pass:
        if job.spans is None:  # a failed job; it is counted in ``failed``
            continue
        for name, agg in job.spans["layers"].items():
            times[f"{name}.s"] = times.get(f"{name}.s", 0.0) + agg["s"]
            times[f"{name}.self_s"] = times.get(f"{name}.self_s", 0.0) + agg["self_s"]
            for c, v in agg["counts"].items():
                counts[f"{name}.{c}"] = counts.get(f"{name}.{c}", 0) + v
        counts["cli.stdout_bytes"] = counts.get("cli.stdout_bytes", 0) + job.spans["stdout_bytes"]
    return times, counts


def layer_metrics(rounds) -> tuple[dict[str, float], bool]:
    """Per-layer metrics from (untraced, traced) rounds; False if counts drifted."""
    units = per_layer_units()
    untraced = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    summed = [pass_layers(p) for p in traced]
    counts = summed[0][1]
    steady = all(c == counts for _, c in summed[1:])
    if not steady:
        print("FAIL per-layer counts differ between traced passes", file=sys.stderr)
    out: dict[str, float] = {}
    for name, unit in units.items():
        if unit == "s":
            out[name] = statistics.median(t.get(name, 0.0) for t, _ in summed)
        elif unit != "ratio":
            out[name] = counts.get(name, 0)
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    traced_wall = [sum(j.wall for j in p) for p in traced]
    in_process = [sum(j.spans["import_s"] for j in p if j.spans) + t.get("cli.main.s", 0.0) for p, (t, _) in zip(traced, summed)]
    out["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(
        sum(j.wall for j in p) for p in untraced
    )
    out["trace.unaccounted_s"] = statistics.median(w - i for w, i in zip(traced_wall, in_process))
    return out, steady


# ---------------------------------------------------------------------------


def describe(samples: list[float]) -> str:
    """Sample count, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        return f"n={n}, p{pct}={statistics.quantiles(samples, n=100)[pct - 1]:.4f}"
    return f"n={n}, max={max(samples):.4f} (n<20: no tail percentile)"


def end_to_end(passes: list[list[JobResult]], setup: list[float], probe: list[float]) -> dict[str, tuple[float, str, str]]:
    """End-to-end metrics: name -> (value, unit, reader's note).

    A pass's cost is estimated job by job: the median over passes of each
    job's wall (or CPU) time, summed over the jobs.  A burst of machine load
    that slows one pass then moves the estimate less than a median of pass
    sums would.  The bounded times are rescaled to the reference machine
    speed, by PROBE_REF_S / median(probe), because the raw times drift with
    the machine; the raw ones are printed as ``*_raw_s``.
    """
    by_job: dict[str, list[JobResult]] = {}
    for p in passes:
        for j in p:
            by_job.setdefault(job_key(j.argv), []).append(j)

    def per_job(stat):
        return sum(statistics.median(stat(j) for j in runs) for runs in by_job.values())

    wall, cpu, setup_s = per_job(lambda j: j.wall), per_job(lambda j: j.cpu), statistics.median(setup)
    probe_s = statistics.median(probe)
    scale = PROBE_REF_S / probe_s
    at_ref = "rescaled to the reference speed"
    return {
        "setup_s": (setup_s * scale, "s", at_ref),
        "wall_s": (wall * scale, "s", at_ref),
        "cpu_s": (cpu * scale, "s", at_ref),
        "peak_rss_mb": (
            max(statistics.median(j.rss_mb for j in runs) for runs in by_job.values()),
            "MB",
            "largest per-job median of ru_maxrss",
        ),
        "probe_s": (probe_s, "s", f"median speed probe, {describe(probe)}; reference {PROBE_REF_S} s"),
        "setup_raw_s": (setup_s, "s", "median import time, " + describe(setup)),
        "wall_raw_s": (wall, "s", "sum of per-job medians; pass sums " + describe([sum(j.wall for j in p) for p in passes])),
        "cpu_raw_s": (cpu, "s", "sum of per-job medians of user + system CPU"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, answers: dict) -> dict:
    env = child_env(seed)
    rng = random.Random(seed)
    jobs = WORKLOADS[name]
    steady = True
    if trace:
        rounds = run_passes(jobs, seconds, rng, env, answers, (False, True))
        passes = [p for r in rounds for p in r]
        metrics, steady = layer_metrics(rounds)
        units = per_layer_units()
        for k, v in metrics.items():
            print(f"{name:13s} {k:44s} {v:>16.6g} {units[k]}")
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        # Set-up samples are spread over the run (before each pass and after
        # the last), so that they see the same machine load as the passes.
        # The first import writes the bytecode caches and is not counted.
        measure_setup(env, 1)
        setup: list[float] = []
        probe: list[float] = []
        rounds = run_passes(
            jobs, seconds, rng, env, answers, (False,),
            before_round=lambda: setup.extend(measure_setup(env, SETUP_PER_PASS)),
            before_job=lambda: probe.append(probe_speed()),
        )
        setup += measure_setup(env, SETUP_PER_PASS)
        passes = [r[0] for r in rounds]
        result_metrics = {}
        for k, (value, unit, note) in end_to_end(passes, setup, probe).items():
            print(f"{name:13s} {k:12s} {value:12.4f} {unit:3s} {note}")
            if k in BOUNDED:
                result_metrics[k] = {"value": value, "unit": unit}
    attempted = sum(len(p) for p in passes)
    failed = sum(not j.ok for p in passes for j in p)
    print(f"{name:13s} {'fail_frac':12s} {failed / attempted:12.4f}     {failed} of {attempted} jobs failed")
    return {
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_job stops the running job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.sched_setaffinity(0, {JOB_CPU})

    missing = [p for p in [os.path.join("src", "rootinv", "cli.py"), *GOLDEN.values()] if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from the root of a rootinv checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
    with open(ANSWERS) as fh:
        answers = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), answers) for n in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
