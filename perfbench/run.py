#!/usr/bin/env python3
"""Build the library and the benchmark program, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads: figures_serial, figures_parallel, service_restart (see
perfbench/README.md). The library is built with the repository's own
CMake Release build and the program against it, both under
.bench_build/ in the repository root. Each run works in a fresh
temporary directory under .bench_build/ (the snapshot store lives
there) and removes it at exit. The last line of standard output is
the run's JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("figures_serial", "figures_parallel", "service_restart")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no CMakeLists.txt and src/ next to perfbench/; run from a "
            "checkout of the repository")
    lib_dir = os.path.join(BUILD, "lib")
    drv_dir = os.path.join(BUILD, "bench")
    lib = os.path.join(lib_dir, "libseqpoint_lib.a")
    steps = []
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", lib_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", lib_dir, "--target", "seqpoint_lib",
                  "-j", jobs()])
    if not os.path.isfile(os.path.join(drv_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", drv_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DSEQPOINT_ROOT=" + ROOT,
                      "-DSEQPOINT_LIB=" + lib])
    steps.append(["cmake", "--build", drv_dir, "-j", jobs()])
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                die("build step failed: %s (log: %s)"
                    % (" ".join(step), log_path))
    return os.path.join(drv_dir, "perfbench")


def on_term(signum, frame):
    raise SystemExit(128 + signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    program = build()
    signal.signal(signal.SIGTERM, on_term)
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    proc = None
    try:
        cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
        if args.trace:
            spans_dir = os.path.join(BUILD, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("run exceeded %d s" % RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(out)
            die("the benchmark exited with code %d" % proc.returncode)
        try:
            result = json.loads(out.rstrip("\n").split("\n")[-1])
        except ValueError:
            result = None
        if not isinstance(result, dict) or set(result) != {
                "correct", "attempted", "failed", "metrics"}:
            die("the benchmark printed no result line")
        sys.stdout.write(out)
        sys.stdout.flush()
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
