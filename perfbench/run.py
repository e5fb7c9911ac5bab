#!/usr/bin/env python3
"""Builds and runs the iOLAP benchmark program for one workload.

    python3 perfbench/run.py --workload spja --seed 1 --seconds 35 --trace 0

Builds perfbench/ (the engine library from src/ plus iolap_perfbench) into
.bench_build/perfbench under the checkout root, runs one workload, and
passes its report through. The last line of standard output is
the result JSON. With --trace 1 the spans go to
.bench_build/spans/<workload>-seed<seed>.jsonl. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "iolap_perfbench")
BUILD_TYPE = "RelWithDebInfo"
# A hung iolap_perfbench is killed after this long, so every run ends.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step, echoing its output to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stdout)
        log("build step failed: " + " ".join(cmd))
    return proc.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], timeout=300):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "iolap_perfbench", "-j", jobs], timeout=850)


def source_id():
    """git sha when the checkout is a git work tree, plus a digest of the
    sources iolap_perfbench is built from (always available)."""
    sha = "none"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10)
            if head.returncode == 0:
                sha = head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top_dir in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top_dir)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git=%s tree=%s" % (sha, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["spja", "nested", "recovery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--instance", type=int, default=0,
                        help="first instance to run (reproduces a failure "
                             "reported for instance N)")
    args = parser.parse_args()

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id(), "--instance", str(args.instance)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("iolap_perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        pass
    expected_keys = {"correct", "attempted", "failed", "metrics"}
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != expected_keys:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("iolap_perfbench failed (exit code %d)" % proc.returncode)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
