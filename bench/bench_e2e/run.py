#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 bench/bench_e2e/run.py --workload ingest|query|ring --seed N \
        --seconds S --trace 0|1
    python3 bench/bench_e2e/run.py --self-test [--seconds S]

Run from the repository root. The benchmark is configured as a Release build
in $CARGO_TARGET_DIR (default .bench_build) and rebuilt incrementally on
every call; build output goes to stderr so the benchmark's last stdout line
stays the JSON result. Exits nonzero, without a result line, when the
sources are missing or the build fails. See bench/bench_e2e/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# A workload run must end within 180 s; the build's own time is excluded.
RUN_TIMEOUT_S = 170
SELF_TEST_TIMEOUT_S = 1200
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd with its stdout sent to stderr; kills it on timeout."""
    with subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"timed out: {' '.join(cmd)}")
            return 1


def git_rev():
    """The checkout's revision, or 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no sdsi sources under {ROOT}/src")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_checked(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG"],
                         BUILD_TIMEOUT_S)
        if rc != 0:
            log("configure failed")
            return None
    rc = run_checked(["cmake", "--build", build_dir, "-j", jobs],
                     BUILD_TIMEOUT_S)
    if rc != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.abspath(build_dir))
    if binary is None:
        return 1
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev())
    with subprocess.Popen([binary] + argv, env=env, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=SELF_TEST_TIMEOUT_S
                             if "--self-test" in argv else RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("run timed out")
            return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
