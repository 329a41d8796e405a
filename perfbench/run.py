#!/usr/bin/env python3
"""End-to-end benchmark of coldstart-lab on the paper month.

Run from the root of a source tree:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S   # every workload, both modes
    python3 perfbench/run.py --self-test                   # decorated == Experiment::Run

The first call configures and builds perfbench/ (the simulator library from
src/ plus perfbench_worker) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Every measured operation runs in its own worker
process, so peak RSS belongs to that operation. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. See
perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["paper_month_full", "paper_month_streaming", "forecast_month_ckpt"]

END_TO_END = [  # name, unit
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cold_starts", "count"),
    ("sim_p99_cold_start_s", "s"),
    ("sim_pod_hours", "h"),
]

# Per-layer metrics come from the worker's timed rebuild, in its order, plus
# trace.overhead computed here.
RATIO_METRICS = {"platform.pool_hit_ratio", "platform.useful_pod_ratio",
                 "shard.imbalance", "trace.overhead"}

MIN_REPS = 3          # Timed operations per --trace 0 run, however short --seconds is.
SETUP_REPS = 200      # Set-up repetitions per operation; setup_s is their median.
RUN_DEADLINE_S = 170  # After the build, a run's workers must end within this; later ones fail.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_unit(name):
    if name in RATIO_METRICS:
        return "ratio"
    if name.endswith(("_s", ".s")) or ".busy_s." in name:
        return "s"
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def nproc():
    return max(1, len(os.sched_getaffinity(0)))


def build():
    """Configures (once) and builds the worker; returns its path or exits."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.h")):
        log("perfbench: no simulator sources under %s/src; run from a full source tree" % ROOT)
        sys.exit(3)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: %s" % " ".join(cmd))
            sys.exit(4)
    return os.path.join(out, "perfbench_worker")


class Worker:
    """Runs worker processes one at a time inside the build directory."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.count = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def scratch_dir(self):
        self.count += 1
        path = os.path.join(build_dir(), "runs", "%d-%d" % (os.getpid(), self.count))
        shutil.rmtree(path, ignore_errors=True)
        return path

    def __call__(self, mode, *extra):
        """Returns (parsed JSON or None, host seconds)."""
        ckpt = self.scratch_dir()
        cmd = [self.binary, mode, "--workload", self.workload, "--seed", str(self.seed),
               "--threads", str(nproc()), "--checkpoint-dir", ckpt] + list(extra)
        start = time.monotonic()
        try:
            timeout = max(1.0, self.deadline - start)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
            ok = proc.returncode == 0
            stdout, stderr = proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as e:
            ok, stdout, stderr = False, "", "timed out: %s" % e
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        elapsed = time.monotonic() - start
        if not ok:
            log("perfbench: worker failed: %s\n%s" % (" ".join(cmd), stderr[-2000:]))
            return None, elapsed
        try:
            return json.loads(stdout.strip().splitlines()[-1]), elapsed
        except (ValueError, IndexError):
            log("perfbench: unreadable worker output: %r" % stdout[-500:])
            return None, elapsed


def judge(ops, reference):
    """Counts failed operations.

    An operation fails when its worker aborted, when one of its own output
    checks failed, or when its trace digest differs from `reference` (a
    rebuild of the same run) or its analysis digest from the run's first
    operation. An aborted or failing reference fails every operation.
    """
    good = [op for op in ops if op is not None]
    if not good:
        return len(ops)
    failed = 0
    for op in ops:
        bad = (op is None or op["failed_checks"] or reference is None
               or reference["failed_checks"] or op["digest"] != reference["digest"]
               or op["analysis_digest"] != good[0]["analysis_digest"])
        if bad:
            failed += 1
            log("perfbench: operation failed: %s" % (
                "aborted" if op is None else op["failed_checks"] or "digest mismatch"))
    if reference is not None and reference["failed_checks"]:
        log("perfbench: rebuild failed checks: %s" % reference["failed_checks"])
    return failed


def run_untraced(worker, seconds):
    """--trace 0: one rebuild to check against, then timed Experiment::Run operations."""
    # The serial==sharded check: the plain rebuild (shards run in parallel)
    # must reproduce the untraced runs' trace digest. Running it first also
    # warms the page cache and the CPU before anything is timed.
    check, _ = worker("rebuild", "--timed", "0", "--parallel", "1", "--analysis", "0")
    ops = []
    start = time.monotonic()
    last = 0.0
    # Start another operation only while it is expected to end within --seconds.
    while len(ops) < MIN_REPS or time.monotonic() - start + last <= seconds:
        op, last = worker("run", "--setup-reps", str(SETUP_REPS))
        ops.append(op)
    failed = judge(ops, check)
    good = [op for op in ops if op is not None]
    if not good:
        return None
    metrics = {
        "wall_s": statistics.median([op["wall_s"] for op in good]),
        "events_per_s": statistics.median([op["events"] / op["wall_s"] for op in good]),
        "setup_s": statistics.median([op["setup_s"] for op in good]),
        "peak_rss_mb": statistics.median([op["peak_rss_mb"] for op in good]),
        "sim_cold_starts": float(good[0]["cold_starts"]),
        "sim_p99_cold_start_s": good[0]["p99_cold_start_s"],
        "sim_pod_hours": good[0]["pod_hours"],
    }
    info = {"operations": len(ops), "compiler": good[0]["compiler"],
            "build_type": good[0]["build_type"], "digest": good[0]["digest"],
            "error_rate": failed / len(ops),
            "wall_s per operation": " ".join("%.3f" % op["wall_s"] for op in good)}
    return {"attempted": len(ops), "failed": failed,
            "metrics": {n: (metrics[n], u) for n, u in END_TO_END}, "info": info}


def run_traced(worker, seconds, spans_path):
    """--trace 1: one untraced run, then plain/traced rebuild pairs.

    Both rebuilds run the shards one after another; the plain one only counts,
    the traced one also reads the clock at every decorated call, so their wall
    time ratio is the tracing overhead.
    """
    start = time.monotonic()
    untraced, _ = worker("run", "--setup-reps", "1")
    plains, traced = [], []
    last = 0.0
    # Start another pair only while it is expected to end within --seconds.
    while not traced or time.monotonic() - start + last <= seconds:
        pair_start = time.monotonic()
        plain, _ = worker("rebuild", "--timed", "0", "--parallel", "0")
        plains.append(plain)
        op, _ = worker("rebuild", "--timed", "1", "--parallel", "0", "--spans", spans_path)
        traced.append(op)
        last = time.monotonic() - pair_start
    ops = [untraced] + plains + traced
    failed = judge(ops, untraced)
    good_traced = [op for op in traced if op is not None]
    good_plain = [op for op in plains if op is not None]
    if not good_traced or not good_plain:
        return None
    names = list(good_traced[0]["layers"].keys())
    metrics = {n: statistics.median([op["layers"][n] for op in good_traced]) for n in names}
    metrics["trace.overhead"] = (statistics.median([op["wall_s"] for op in good_traced])
                                 / statistics.median([op["wall_s"] for op in good_plain]))
    info = {"operations": len(ops), "compiler": good_traced[0]["compiler"],
            "build_type": good_traced[0]["build_type"], "digest": good_traced[0]["digest"],
            "error_rate": failed / len(ops), "spans": os.path.relpath(spans_path, ROOT),
            "traced_wall_s": statistics.median([op["wall_s"] for op in good_traced]),
            "plain_wall_s": statistics.median([op["wall_s"] for op in good_plain])}
    return {"attempted": len(ops), "failed": failed,
            "metrics": {n: (v, layer_unit(n)) for n, v in metrics.items()}, "info": info}


def run_workload(binary, workload, seed, seconds, trace):
    worker = Worker(binary, workload, seed)
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.json" % (workload, seed))
        result = run_traced(worker, seconds, spans)
    else:
        result = run_untraced(worker, seconds)
    shutil.rmtree(os.path.join(build_dir(), "runs"), ignore_errors=True)
    return result


def report(workload, seed, trace, result):
    """Human-readable lines: every metric with its unit, then the run facts."""
    print("# %s seed=%d trace=%d nproc=%d" % (workload, seed, trace, nproc()))
    for name, (value, unit) in result["metrics"].items():
        print("  %-34s %.6g %s" % (name, value, unit))
    for key, value in result["info"].items():
        print("  [%s] %s" % (key, value))


def result_json(result):
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, --trace 0 and 1")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (args.workload or args.all or args.self_test):
        ap.error("one of --workload, --all or --self-test is required")

    binary = build()
    if args.self_test:
        ckpt = os.path.join(build_dir(), "selftest")
        proc = subprocess.run([binary, "selftest", "--threads", str(nproc()),
                               "--checkpoint-dir", ckpt])
        shutil.rmtree(ckpt, ignore_errors=True)
        sys.exit(proc.returncode)

    if args.all:
        summary = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(binary, workload, args.seed, args.seconds, trace)
                if result is None:
                    log("perfbench: %s trace=%d produced no result" % (workload, trace))
                    sys.exit(1)
                report(workload, args.seed, trace, result)
                summary["%s/trace%d" % (workload, trace)] = result_json(result)
        print(json.dumps(summary))
        return

    result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log("perfbench: no operation of %s succeeded" % args.workload)
        sys.exit(1)
    report(args.workload, args.seed, args.trace, result)
    print(json.dumps(result_json(result)))


if __name__ == "__main__":
    main()
