#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <ipl_author|widget_storm|append_stream> \
        --seed <n> --seconds <s> --trace <0|1> [--plant-wrong]

The first call configures and compiles the program's libraries and the
e2e_bench binary (Release) into .bench_build/e2ebench; later calls only
rebuild what changed. All build output goes to stderr, so the last line of
stdout is e2e_bench's JSON result. Exits non-zero when the build fails,
when any answer was wrong, or when the run exceeds its time limit.
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170


def log(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_bench; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        result = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs],
            stdout=sys.stderr)
        return result.returncode == 0 and os.path.exists(BINARY)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main(argv):
    if not build():
        log("build failed (the benchmark needs the program sources in ../src)")
        return 1
    work_dir = os.path.join(ROOT, ".bench_work", "run-%d" % os.getpid())
    command = [BINARY] + argv + ["--revision", revision(),
                                 "--work-dir", work_dir]
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
