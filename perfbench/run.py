#!/usr/bin/env python3
"""GRAPE benchmark: one run of one workload.

    python3 perfbench/run.py --workload serve_road --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --unit-tests

Builds perfbench/ (a CMake project over ../src) into $CARGO_TARGET_DIR
(default .bench_build), runs grape_perfbench, echoes its per-metric lines,
and prints as the last line one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json names for the mode -- its end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1. A traced run
also writes a Chrome trace-event file under <build dir>/traces/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, target):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", target, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def reap_group(pgid):
    """Kills whatever is left of a process group and waits until it is gone.
    A run that ends normally has already stopped its endpoint processes."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bounded(cmd):
    """Runs cmd in its own process group, which is emptied when it ends."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    reap_group(proc.pid)
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    out = build_dir()
    if args.unit_tests:
        build(out, "perfbench_test")
        sys.exit(subprocess.run([os.path.join(out, "perfbench_test")]).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build(out, "grape_perfbench")
    data_dir = os.path.join(out, "data")
    trace_dir = os.path.join(out, "traces")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(out, "grape_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    code, stdout = run_bounded(cmd)

    result = None
    for line in stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        fail("grape_perfbench exited %d without a result" % code)
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    print(json.dumps(result), flush=True)
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
