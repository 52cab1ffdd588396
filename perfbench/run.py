#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the repository's core library and the perfbench binary from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the harness self-tests after every rebuild, then runs one workload.
The binary's output is passed through; its last line is the JSON result.
A traced run (--trace 1) also writes its spans and the metrics registry
to <build>/traces/. Exits non-zero, without a result, when the build,
the self-tests or the run fail.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("capture", "lookup", "analysis", "out_of_core")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(bdir):
    binary = os.path.join(bdir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        code, _ = run_group(["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=Release"], 300,
                            stdout=sys.stderr)
        if code != 0:
            return None, False
    code, _ = run_group(["cmake", "--build", bdir, "--target", "perfbench",
                         "-j", "4"], 850, stdout=sys.stderr)
    if code != 0 or not os.path.exists(binary):
        return None, False
    return binary, os.path.getmtime(binary) != before


def selftest(binary, bdir):
    work = os.path.join(bdir, "selftest-%d" % os.getpid())
    try:
        code, out = run_group([binary, "selftest", "--workdir", work], 120,
                              stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(out.rstrip())
    return code == 0


def valid_result(line, trace):
    """The result line carries every metric BENCHMARK.json declares for
    this mode, each a finite number in its declared unit."""
    try:
        result = json.loads(line)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError):
        return False
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict)):
        return False
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if (not isinstance(got, dict) or got.get("unit") != m["unit"]
                or not isinstance(got.get("value"), (int, float))
                or got["value"] != got["value"]):
            log("perfbench: metric %s missing or malformed" % m["name"])
            return False
    return set(metrics) == {m["name"] for m in declared}


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    binary, rebuilt = build(bdir)
    if binary is None:
        log("perfbench: build failed")
        return 1
    stamp = os.path.join(bdir, "selftest.ok")
    if args.selftest or rebuilt or not os.path.exists(stamp):
        if os.path.exists(stamp):
            os.remove(stamp)
        if not selftest(binary, bdir):
            log("perfbench: self-tests failed")
            return 1
        with open(stamp, "w") as f:
            f.write("ok\n")
        if args.selftest:
            return 0

    work = os.path.join(bdir, "work-%d" % os.getpid())
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", work]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    start = time.monotonic()
    cpu0 = cpu_times()
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    print("host: %.1f s wall, %.1f %% of CPU time stolen by other guests" % (
        time.monotonic() - start, 100 * steal_share(cpu0, cpu_times())))
    if code != 0 or not lines or not valid_result(lines[-1], args.trace):
        log("perfbench: run failed (exit %d)" % code)
        if lines:
            log(lines[-1])
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
