#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload awfy-eval --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout: it builds perfbench/ (which compiles
the library from src/) into .bench_build/perfbench at the checkout root,
then runs the benchmark binary with the same arguments. The binary's last
line of standard output is the JSON result. Build logs go to standard
error. A traced run (--trace 1) also writes its spans to
.bench_build/trace-<workload>-seed<seed>.json.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"
WORKLOADS = ["awfy-eval", "scaled-build", "micro-fleet", "all"]
BUILD_TIMEOUT_S = 700


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group and waits
    for it when the timeout passes. Returns the exit code (None on timeout).
    Temporary files (the compiler's) stay inside the checkout."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the nimage sources (src/CMakeLists.txt) are missing from this checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(OUT_DIR / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            code = run_group(cmd, max(1.0, deadline - time.monotonic()),
                             sys.stderr)
            if code != 0:
                fail(f"build step failed ({'timeout' if code is None else code}): "
                     + " ".join(cmd))


def source_id():
    """The git commit when there is one, and always a digest of src/, so a
    result names the code it measured."""
    commit = "none"
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"git={commit},src-sha256={digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not 1 <= args.seconds <= 3600:
        fail("--seconds must be from 1 to 3600", 2)

    build()
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-id", source_id()]
    if args.trace:
        cmd += ["--trace-out",
                str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    runs = 3 if args.workload == "all" else 1
    code = run_group(cmd, runs * (2 * args.seconds + 120), None)
    if code != 0:
        fail(f"benchmark {'timed out' if code is None else f'exited with {code}'}")


if __name__ == "__main__":
    main()
