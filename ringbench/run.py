#!/usr/bin/env python3
"""Builds ringbench from the repository sources and runs one workload.

    python3 ringbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ringbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/ringbench
(default .bench_build/ringbench). The last line printed is the result JSON
{correct, attempted, failed, metrics}; it is printed only when its metric
names are exactly the ones BENCHMARK.json lists for the mode (end_to_end
with --trace 0, per_layer with --trace 1). Exit status is 0 only for a
correct run; a failed build, a crash or a timeout exits non-zero without a
result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ringbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(bdir, "ringbench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_binary(binary, args):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 124, []
    return done.returncode, done.stdout.splitlines()


def check_result(line, trace):
    """Parses the result line; returns (result, problem or None)."""
    try:
        res = json.loads(line)
    except (ValueError, TypeError):
        return None, "last line is not a JSON result"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None, "result keys are %s" % sorted(res)
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return None, "metrics differ from BENCHMARK.json: missing %s, " \
                     "extra %s, wrong unit %s" % (missing, extra, wrong)
    return res, None


def run_workload(binary, a):
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        tdir = os.path.join(build_dir(), "trace")
        os.makedirs(tdir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(tdir, "%s-seed%d.json" % (a.workload, a.seed))]
    code, lines = run_binary(binary, args)
    if code not in (0, 1) or not lines:
        log("benchmark exited with %d" % code)
        return code or 2
    for line in lines[:-1]:
        print(line)
    res, problem = check_result(lines[-1], a.trace)
    if problem:
        log(problem)
        return 3
    print(lines[-1], flush=True)
    return 0 if res["correct"] and code == 0 else 1


def self_test(binary):
    code, lines = run_binary(binary, ["--self-test"])
    for line in lines:
        print(line)
    failures = 0 if code == 0 else 1
    # Tiny runs of every workload print exactly the listed metrics.
    for name in ("sr_display_fp32", "camera_dn_int8", "photo_mixed_fp32"):
        for trace in (0, 1):
            code, lines = run_binary(binary, [
                "--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny"])
            res, problem = check_result(lines[-1] if lines else "", trace)
            ok = code == 0 and problem is None and res["correct"]
            print("%s %s trace=%d: metric names and units match "
                  "BENCHMARK.json%s" % ("pass" if ok else "FAIL", name, trace,
                                        "" if ok else " (%s)" % problem))
            failures += 0 if ok else 1
    print("run.py self-test: %s" % ("ok" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def stop_on_signal(signum, _frame):
    # Raised inside subprocess.run, which then kills and reaps the child.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGINT, stop_on_signal)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    return self_test(binary) if a.self_test else run_workload(binary, a)


if __name__ == "__main__":
    sys.exit(main())
