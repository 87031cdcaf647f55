#!/usr/bin/env python3
"""Repo benchmark entry point: builds kboostd and kboost_perfbench from the
checkout's sources (Release), runs one workload, and forwards the result.

    python3 perfbench/run.py --workload build|sandwich|wire-lb --seed N \
        --seconds S --trace 0|1 [--scale F] [--plant-divergence]

Run from the root of a checkout. The last line of standard output is the
result JSON (correct, attempted, failed, metrics). Build output goes to
standard error. The build tree lives in $CARGO_TARGET_DIR (default
.bench_build); traced runs write their spans to <build>/traces/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """The commit when the checkout is a git work tree, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the two binaries; returns their paths."""
    tree = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", tree,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", tree, "-j", jobs, "--target",
                    "kboost_perfbench", "kboostd"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(tree, "kboost_perfbench"),
            os.path.join(tree, "kboost", "kboostd"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["build", "sandwich", "wire-lb"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--plant-divergence", action="store_true")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"missing {needed} at {ROOT}: not a kboost checkout")
            return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        bench, kboostd = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    workdir = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--kboostd={kboostd}", f"--workdir={workdir}",
           f"--commit={source_id()}",
           f"--trace-out={os.path.join(traces, args.workload + '.json')}"]
    if args.scale is not None:
        cmd.append(f"--scale={args.scale}")
    if args.plant_divergence:
        cmd.append("--plant-divergence")

    # Its own session, so every process it starts can be stopped as a group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        out, code = "", 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # kboostd children die with the bench (PR_SET_PDEATHSIG); wait
        # until none is left before removing their files.
        deadline = time.time() + 10
        while time.time() < deadline and group_alive(proc.pid):
            time.sleep(0.05)
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


if __name__ == "__main__":
    sys.exit(main())
