#!/usr/bin/env python3
"""Build and run the DeLorean pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload record-durable --seed 1 \
        --seconds 30 --trace 0
    python3 pipebench/run.py --self-check

The first call configures and builds pipebench/ (the DeLorean library
from src/ plus the pipebench program) under $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Build output goes
to stderr. The program's stdout is passed through, and its last line is
the JSON result. Scratch files live in a per-process directory under
the build root, removed on exit.

--self-check runs every workload at tiny scale, untraced and traced,
and checks that each prints exactly the metrics BENCHMARK.json names,
with their units.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("record-durable", "time-travel", "race-hunt")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_root):
    """Configure (once) and build the program; return its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    build_dir = os.path.join(build_root, "pipebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            [cmake, "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        [cmake, "--build", build_dir, "-j", str(min(4, cpu_count()))],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pipebench")


def run_bench(binary, build_root, workload, seed, seconds, trace,
              tiny=False, capture=False, sizing=()):
    """Run one benchmark process in a fresh scratch directory."""
    work_dir = os.path.join(build_root, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if tiny:
        cmd.append("--tiny")
    cmd.extend(sizing)
    try:
        return subprocess.run(
            cmd, stdout=subprocess.PIPE if capture else None,
            text=True, check=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def self_check(binary, build_root):
    """Every metric BENCHMARK.json names is printed, with its unit."""
    spec_path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in [w["name"] for w in spec["workloads"]]:
            proc = run_bench(binary, build_root, workload, 1, 1, trace,
                             tiny=True, capture=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if proc.returncode != 0 or result is None:
                problems.append("exit %d, no result" % proc.returncode)
            else:
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                for name in sorted(set(want) - set(got)):
                    problems.append("missing " + name)
                for name in sorted(set(got) - set(want)):
                    problems.append("unexpected " + name)
                for name in sorted(set(want) & set(got)):
                    if want[name] != got[name]:
                        problems.append("%s unit %s, want %s"
                                        % (name, got[name], want[name]))
                if not result["correct"]:
                    problems.append("checks failed")
            print("self-check %-15s trace %d: %s"
                  % (workload, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (smoke test, not a measurement)")
    parser.add_argument("--scale", type=int,
                        help="override the primary input's scale (sizing "
                        "studies, not a measurement)")
    parser.add_argument("--period", type=int,
                        help="override the primary input's checkpoint "
                        "period (sizing studies)")
    parser.add_argument("--ring-budget", type=int,
                        help="override the primary input's ring budget in "
                        "bytes (sizing studies)")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print("pipebench: build failed (%s)" % e, file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(binary, build_root)
    sizing = []
    for flag, value in (("--scale", args.scale), ("--period", args.period),
                        ("--ring-budget", args.ring_budget)):
        if value is not None:
            sizing += [flag, str(value)]
    return run_bench(binary, build_root, args.workload, args.seed,
                     args.seconds, args.trace, tiny=args.tiny,
                     sizing=sizing).returncode


if __name__ == "__main__":
    sys.exit(main())
