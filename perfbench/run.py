#!/usr/bin/env python3
"""Repository benchmark: build the simulator in Release, run one workload,
check its outputs and print its metrics.

    python3 perfbench/run.py --workload <das_floor|rushare_2du|city16>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source tree. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. The workload runs in its own process, and a
second, short process runs the same seed with tracing flipped: the two must
agree on goodput and on the telemetry fingerprint, which shows the trace
probes do not perturb the simulation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only if every
correctness check passed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the perfbench binary. Build output goes
    to stderr so stdout carries only results."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_workload(args, trace, seconds, setups=None):
    """Run the binary; return (result dict, '#' table lines) or None."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        log(f"{args.workload} exited with {p.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("unparseable result line: " + lines[-1][:200])
        return None
    return result, [l for l in lines[:-1] if l.startswith("#")]


def source_digest():
    """Digest of the simulator sources: identifies the code under test
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["das_floor", "rushare_2du", "city16"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not build():
        return 1
    main_run = run_workload(args, args.trace, args.seconds)
    twin_run = run_workload(args, 1 - args.trace, 0, setups=1)
    if main_run is None or twin_run is None:
        return 1
    result, table = main_run
    twin, _ = twin_run

    problems = []
    if not result["correct"]:
        problems.append("the workload run failed its own checks")
    if not twin["correct"]:
        problems.append("the check run with tracing flipped failed its checks")
    for key in ("dl_bits", "ul_bits", "fingerprint"):
        if result[key] != twin[key]:
            problems.append(f"traced and untraced runs disagree on {key}: "
                            f"{result[key]} vs {twin[key]}")
    for p in problems:
        log(p)

    host = result["host"]
    print(f"# host: nproc={host['nproc']}"
          f" iq_kernel_tier={host['iq_kernel_tier']}"
          f" build={host['build_type']} compiler={host['compiler']}"
          f" git={git_sha()} src_digest={source_digest()}"
          f" seed={host['seed']} links={host['links']}")
    for line in table:
        print(line)
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
