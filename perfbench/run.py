#!/usr/bin/env python3
"""Builds the lbc benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <oo7-fanout|hot-lock|commit-pressure|restart> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and the lbc libraries it
links) into .bench_build/perfbench; later runs only check that the build is
up to date. The build log goes to .bench_build/perfbench/build.log, spans of
a traced run to .bench_build/traces/. The last line of standard output is the
benchmark's JSON result; the exit code is the benchmark's (non-zero when an
output check failed).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "lbc_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    return code


def build():
    """Configures (once) and builds the driver; returns None or an error."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", "lbc_perfbench", "-j", jobs])
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return "build timed out; see " + log_path
            if done.returncode != 0:
                return "build failed; see " + log_path
    return None


def main(argv):
    sources = [os.path.join(ROOT, "src", "CMakeLists.txt"),
               os.path.join(ROOT, "src", "lbc", "client.h")]
    if not all(os.path.isfile(p) for p in sources):
        return fail("lbc sources not found (expected src/ beside perfbench/)", 2)
    error = build()
    if error:
        return fail(error, 1)
    cmd = [BINARY] + argv + ["--trace-out", TRACES]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
