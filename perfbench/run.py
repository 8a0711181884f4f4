#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/nsbench.cc).

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload point|batch|paged|stream \
        --seed N --seconds S --trace 0|1

Builds the library and nsbench from source into $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, runs one workload in one process,
and prints its report; the last line of standard output is the JSON result.
Build output goes to standard error. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "nsbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "nsbench")


def library_flags(build_dir):
    """The compile command of one library source, as the build ran it."""
    try:
        with open(os.path.join(build_dir, "compile_commands.json")) as f:
            commands = json.load(f)
    except (OSError, ValueError):
        return "unknown"
    for c in commands:
        if c["file"].endswith(os.path.join("src", "serve", "serve_engine.cc")):
            words = shlex.split(c["command"])[1:]
            flags = ("-O", "-f", "-m", "-D", "-std", "-W")
            return " ".join(w for w in words if w.startswith(flags))
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["point", "batch", "paged", "stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: nsbench exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no JSON result", file=sys.stderr)
        return 1
    print(f"env build_flags=\"{library_flags(build_dir)}\"")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
