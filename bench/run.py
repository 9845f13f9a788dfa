"""fibsemi benchmark: fixed CLI calls, each in a fresh interpreter, checked for
correctness and timed from spawn to exit.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --oneshot        # needs about 1.1 GB for table 0 3000

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time of
one workload call from spawn to exit; ``peak_rss_mb``, the median of each
call's own peak RSS; and ``setup_s``, the median time of ``info 3 --format
csv`` (interpreter start, package import, the smallest answer).  Both times
are as measured.  ``--trace 1`` makes
one traced call in a fresh interpreter (``bench/tracer.py``) and reports
per-layer self times and counters, plus the tracing overhead against the
untraced calls made in the same run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give each metric with its
unit, the sample counts, the child CPU time, the fail ratio
(failed calls over attempted calls; a call fails on a nonzero exit, the time
limit, or output that fails its check), and the machine, Python, commit and
seed.  The fail ratio is not a gated metric because it is 0 when all is well;
``attempted`` and ``failed`` carry it.

Calls run one at a time from this single process, so nothing contends with
the call being timed.  The seed picks the rows that are spot-checked; the
workloads' CLI arguments are fixed.  ``--oneshot`` runs the reference cases
once, ungated, and prints wall time, peak RSS and exit code for each.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from spawner import Call, Spawner  # noqa: E402
from tracer import span_names  # noqa: E402

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
ONESHOT_TIMEOUT_S = 600
SETUP_ARGV = ("info", "3", "--format", "csv")
SETUP_CALLS = 15
SETUP_ROW = (3, 2, 2, 1, 1, 1, 0)  # a, m, e, F, g, n, slack of <2, 3>


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    check: Callable[[str, int], list[str]]  # (stdout, seed) -> problems


def _check_verify(stdout: str, seed: int) -> list[str]:
    return checks.check_verify_text(stdout, 24)


def _check_table(name: str, columns, spot) -> Callable[[str, int], list[str]]:
    def check(stdout: str, seed: int) -> list[str]:
        rows, problems = checks.named_columns(stdout, columns)
        if problems:
            return problems
        return checks.compare_reference(rows, checks.load_reference()[name]) + spot(rows, seed)
    return check


WORKLOADS = {
    "verify": Workload(("verify", "24"), _check_verify),
    "sweep": Workload(("table", "0", "1200", "--format", "csv"),
                      _check_table("sweep", checks.SWEEP_COLUMNS,
                                   lambda rows, seed: checks.spot_check_sweep(rows, 0, seed))),
    "apery": Workload(("apery", "28", "--format", "csv"),
                      _check_table("apery", checks.APERY_COLUMNS,
                                   lambda rows, seed: checks.spot_check_apery(rows, 28, seed))),
}

ONESHOT = (
    ("table", "0", "3000"),
    ("info", "20000"),
    ("apery", "30"),
    ("semigroup", "1000003", "1000033"),
    ("info", "21000", "--format", "json"),
)

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# -- measurement -----------------------------------------------------------

def problems_of(call: Call, check: Callable[[str], list[str]]) -> list[str]:
    if call.exit_code is None:
        return ["killed at the time limit"]
    if call.exit_code != 0:
        return [f"exit code {call.exit_code}: {call.stderr.strip()[-300:]}"]
    return check(call.stdout)


class Run:
    """Calls made in one benchmark run, with their failures."""

    def __init__(self, spawner: Spawner) -> None:
        self.spawner = spawner
        self.attempted = 0
        self.failures: list[str] = []

    def warm_up(self) -> None:
        """One uncounted call: writes bytecode caches and fills the page cache."""
        self.spawner.spawn(["-m", "fibsemi", *SETUP_ARGV])

    def call(self, argv, check: Callable[[str], list[str]], tracer: bool = False) -> Call:
        call = self.spawner.spawn([TRACER, *argv] if tracer else ["-m", "fibsemi", *argv])
        self.attempted += 1
        problems = problems_of(call, check)
        if problems:
            self.failures.append(f"{' '.join(argv)}: {problems[0]}")
        return call


def _check_setup(stdout: str) -> list[str]:
    rows, problems = checks.named_columns(stdout, checks.SWEEP_COLUMNS)
    if problems:
        return problems
    return [] if rows == [SETUP_ROW] else [f"info 3 gave {rows}, expected {[SETUP_ROW]}"]


def measure_setup(run: Run) -> list[Call]:
    run.warm_up()
    return [run.call(SETUP_ARGV, _check_setup) for _ in range(SETUP_CALLS)]


def measure_calls(run: Run, wl: Workload, seed: int, seconds: float, start: float) -> list[Call]:
    """Untraced calls until ``seconds`` have passed since ``start`` (at least one)."""
    calls = []
    while not calls or time.perf_counter() - start < seconds:
        calls.append(run.call(wl.argv, lambda out: wl.check(out, seed)))
    return calls


def percentile_with_ten_beyond(samples: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return round(100 * k / len(ordered)), ordered[k - 1]


def end_to_end(spawner: Spawner, wl: Workload, seed: int,
               seconds: float) -> tuple[Run, dict, list[str]]:
    run = Run(spawner)
    setup = measure_setup(run)
    calls = measure_calls(run, wl, seed, seconds, time.perf_counter())
    walls = [c.wall_s for c in calls]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
        "setup_s": statistics.median(c.wall_s for c in setup),
    }
    pct = percentile_with_ten_beyond(walls)
    notes = [
        f"wall_s samples {len(walls)}; " + (f"p{pct[0]} {pct[1]:.4f} s" if pct else
                                            "no percentile has ten samples beyond it"),
        f"setup_s samples {len(setup)}",
        f"cpu_s {statistics.median(c.cpu_s for c in calls):.4f} s (child user+sys, median, not gated)",
        f"fail_ratio {len(run.failures) / run.attempted:.4f} ({len(run.failures)}/{run.attempted})",
    ]
    return run, metrics, notes


def per_layer(spawner: Spawner, wl: Workload, seed: int,
              seconds: float) -> tuple[Run, dict, list[str]]:
    run = Run(spawner)
    check = lambda out: wl.check(out, seed)  # noqa: E731
    run.warm_up()
    start = time.perf_counter()
    traced = run.call(wl.argv, check, tracer=True)
    untraced = measure_calls(run, wl, seed, seconds, start)
    report = _trace_report(traced)
    spans, counters = report["spans"], report["counters"]
    metrics: dict[str, float] = {}
    for name in span_names():
        metrics[f"{name}.self_s"] = spans.get(name, {}).get("self_s", 0.0)
    for name in ("fibonacci.fib", "fibonacci.beta", "fibonacci.zeckendorf",
                 "fib_family.family_genus_sum", "semigroup_core.NumericalSemigroup.apery"):
        metrics[f"{name}.calls"] = spans.get(name, {}).get("calls", 0)
    for name in ("semigroup_core.NumericalSemigroup.apery.residues",
                 "fib_family.family_apery.entries"):
        metrics[name] = counters.get(name, 0)
    params = sum(1 for line in traced.stdout.splitlines() if line.startswith("a="))
    completed = (counters.get("semigroup_core.oracle_instances", 0)
                 - counters.get("semigroup_core.oracle_instances_failed", 0))
    metrics["semigroup_core.oracle_ratio"] = completed / params if params else 0.0
    metrics["cli.stdout_bytes"] = len(traced.stdout.encode())
    traced_self = sum(s["self_s"] for s in spans.values())
    metrics["other.self_s"] = traced.wall_s - traced_self
    metrics["traced_wall_s"] = traced.wall_s
    untraced_wall = statistics.median(c.wall_s for c in untraced)
    metrics["trace_overhead_s"] = traced.wall_s - untraced_wall
    notes = [
        f"untraced wall_s {untraced_wall:.4f} s (median of {len(untraced)})",
        f"self_s sum {traced_self:.4f} s + other.self_s {metrics['other.self_s']:.4f} s"
        f" = traced wall {traced.wall_s:.4f} s",
    ]
    return run, metrics, notes


def _trace_report(call: Call) -> dict:
    """The tracer's JSON line from the end of the child's stderr."""
    lines = call.stderr.splitlines()
    if call.exit_code == 0 and lines and lines[-1].startswith("{"):
        return json.loads(lines[-1])
    return {"spans": {}, "counters": {}}


# -- context ---------------------------------------------------------------

def context(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # a checkout without git history has none
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.samefile(top, "."):
            commit = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- entry points ----------------------------------------------------------

def oneshot(spawner: Spawner) -> int:
    results = []
    for argv in ONESHOT:
        call = spawner.spawn(["-m", "fibsemi", *argv], timeout=ONESHOT_TIMEOUT_S)
        tail = call.stderr.strip().splitlines()[-1:] or [""]
        results.append({
            "argv": list(argv),
            "wall_s": call.wall_s,
            "peak_rss_mb": call.peak_rss_mb,
            "exit_code": call.exit_code,
            "stdout_bytes": len(call.stdout.encode()),
            "stderr_tail": tail[0][:300],
        })
        print(f"{' '.join(argv):<32} exit {call.exit_code}  {call.wall_s:9.3f} s"
              f"  {call.peak_rss_mb:8.1f} MB", flush=True)
    print(json.dumps({"context": context(0), "oneshot": results}))
    return 0


def bench(spawner: Spawner, names: list[str], seed: int, seconds: float, trace: bool) -> int:
    print(json.dumps({"context": context(seed)}), flush=True)
    attempted, failures, metrics = 0, [], {}
    for name in names:
        measure = per_layer if trace else end_to_end
        run, values, notes = measure(spawner, WORKLOADS[name], seed, seconds)
        attempted += run.attempted
        failures += run.failures
        units = {} if trace else END_TO_END
        for metric, value in values.items():
            unit = units.get(metric) or _layer_unit(metric)
            print(f"{name:<7} {metric:<60} {value:>14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        for note in notes:
            print(f"{name:<7} {note}")
        for failure in run.failures:
            print(f"{name:<7} FAILED {failure}")
        sys.stdout.flush()
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oneshot", action="store_true",
                        help="run the reference cases once, ungated")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "fibsemi", "__main__.py")):
        print("bench: run from the repository root; src/fibsemi was not found",
              file=sys.stderr)
        return 2
    with Spawner() as spawner:
        if args.oneshot:
            return oneshot(spawner)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return bench(spawner, names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
