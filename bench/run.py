"""Benchmark phstab as a batch exact-computation tool.

    python3 bench/run.py --workload verify-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: phstab is imported from ``src/``.
One client, one thread, closed loop: each operation is one in-process
``cli.run_command`` call, as a user would run ``phstab verify FILE
--machine`` or ``phstab bottleneck A B``.  Set-up makes the workload's
instance files from ``--seed`` (see workloads.py); the timed loop then runs
whole passes over the workload's fixed operation list until ``--seconds``
have elapsed.  Every output goes through the gate in gate.py.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, and prints per-layer metrics from the traced
ones (see tracer.py); it also runs the workload's known-defect probe, if
it has one.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (per-operation
results, provenance and, when traced, every span) is written under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import gate
import workloads
from tracer import COUNTERS, MAX_COUNTERS, Tracer

SETUP_REPEATS = 3


@dataclass
class Result:
    name: str
    wall_s: float
    cpu_s: float
    problems: list
    failure: "str | None" = None  # exception type or "exit N"; else the output was gated


@dataclass
class Runner:
    """Runs operations through the CLI entry point and gates each output."""

    cli: object  # phstab.cli, looked up per call so a traced rebinding is seen
    results: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # argv -> first (status, text)
    distances: dict = field(default_factory=dict)

    def run(self, op) -> Result:
        # Each operation stands for one CLI process: start it without the
        # previous one's garbage, so peak memory is the operation's own.
        gc.collect()
        failure = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            status, text = self.cli.run_command(list(op.argv))
        except Exception as exc:  # the benchmark records it and goes on
            failure = type(exc).__name__
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if failure is None and status != 0:
            failure = f"exit {status}"
        if failure is not None:
            problems = [failure]
        else:
            problems = gate.check(op, status, text, self.distances)
            first = self.outputs.setdefault(op.argv, (status, text))
            if first != (status, text):
                problems.append("output differs from an earlier run of the same operation")
        result = Result(op.name, wall, cpu, problems, failure)
        self.results.append(result)
        return result

    def run_pass(self, ops) -> float:
        start = time.perf_counter()
        for op in ops:
            self.run(op)
        return time.perf_counter() - start


def repo_commit(root: str) -> str:
    """HEAD of the checkout's git metadata, or "unknown" without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results, setup_times, peak_rss_mb):
    ok = sum(1 for r in results if not r.problems)
    return {
        "ops_per_s": metric(ok / sum(r.wall_s for r in results), "1/s"),
        "op_p50_s": metric(statistics.median(r.wall_s for r in results), "s"),
        "cpu_per_op_s": metric(sum(r.cpu_s for r in results) / len(results), "s"),
        "ok_ratio": metric(ok / len(results), "ratio"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced_passes, untraced_wall, traced_wall, results, probe_results):
    out = {}
    for name, row in tracer.summary().items():
        out[f"{name}.calls"] = metric(row["calls"] / traced_passes, "count")
        out[f"{name}.total_s"] = metric(row["total_s"] / traced_passes, "s")
        out[f"{name}.self_s"] = metric(row["self_s"] / traced_passes, "s")
    for name in COUNTERS:
        per = 1 if name in MAX_COUNTERS else traced_passes
        out[name] = metric(tracer.counts.get(name, 0) / per, "count")
    out["trace.overhead_ratio"] = metric(traced_wall / untraced_wall, "ratio")
    everything = results + probe_results
    failed = sum(1 for r in everything if r.problems)
    out["fail_ratio"] = metric(failed / len(everything), "ratio")
    out["defect_probe.failed"] = metric(sum(1 for r in probe_results if r.problems), "count")
    out["defect_probe.wall_s"] = metric(sum(r.wall_s for r in probe_results), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "phstab", "cli.py")):
        print(f"bench: no phstab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from phstab import cli

    workdir = os.path.join(root, ".bench_work", args.workload)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = workloads.build(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
    except workloads.SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2

    runner = Runner(cli)
    tracer = Tracer()
    untraced_wall = traced_wall = 0.0
    passes = traced_passes = 0
    loop_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - loop_start < args.seconds:
        if args.trace:
            untraced_wall += runner.run_pass(wl.ops)
            tracer.install()
            try:
                traced_wall += runner.run_pass(wl.ops)
            finally:
                tracer.uninstall()
            traced_passes += 1
        else:
            runner.run_pass(wl.ops)
        passes += 1
    results = list(runner.results)

    probe_results = [runner.run(op) for op in wl.probe] if args.trace else []

    if args.trace:
        metrics = per_layer(
            tracer, traced_passes, untraced_wall, traced_wall, results, probe_results
        )
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(results, setup_times, peak)

    failures = {}
    for r in results + probe_results:
        if r.problems:
            failures.setdefault(r.name, r.problems)
    provenance = {
        "commit": repo_commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(wl.ops),
        "attempted": len(results),
        "probe_attempted": len(probe_results),
        "instances": wl.instances,
        "failures": failures,
        "absent": tracer.absent,
        "unreadable_counts": sorted(tracer.unreadable),
    }
    record = {
        "provenance": provenance,
        "results": [vars(r) for r in results + probe_results],
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = [vars(s) for s in tracer.spans]
    out_path = os.path.join(
        root, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)
    print(json.dumps({"provenance": provenance}, default=str))

    failed = sum(1 for r in results if r.problems)
    # a crash or non-zero exit is a failure; a gated output that is wrong is not correct
    wrong = any(r.problems and r.failure is None for r in results + probe_results)
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
