#!/usr/bin/env python3
"""End-to-end benchmark of vadalogd: builds the daemon and the benchmark
load generator from this source tree, then runs workloads against a spawned
daemon (see vbench/README.md).

  python3 vbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 vbench/run.py                 # every workload, seed 1, 20 s
  python3 vbench/run.py --self-test     # determinism + seed sensitivity

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
source root. The last stdout line of a single-workload run is its JSON
result; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["chase_enum", "search_cold", "warm_stream"]
# Counters the single-threaded layer replay must reproduce exactly.
DETERMINISTIC = ["engine.states_expanded_per_query",
                 "engine.subsumption_checks",
                 "chase.steps_applied",
                 "chase.atoms"]


def fail(message):
    print(f"vbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds vadalogd + vbench_load; returns the
    build directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the vadalog source tree is not next to vbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "vbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "vadalogd",
                       "vbench_load", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def load_command(build_dir, workload, seed, seconds, trace):
    return [os.path.join(build_dir, "vbench_load"),
            "--daemon", os.path.join(build_dir, "vadalog", "tools", "vadalogd"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_captured(build_dir, workload, seed, seconds, trace):
    """Runs the load generator; returns (exit code, stdout lines, parsed result)."""
    done = subprocess.run(
        load_command(build_dir, workload, seed, seconds, trace),
        stdout=subprocess.PIPE, text=True, timeout=175)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, lines, result


def self_test(build_dir, seed, seconds):
    """Two traced runs per workload with one seed must agree exactly on
    the replay's deterministic counters, and another seed must change the
    generated inputs."""
    ok = True
    for workload in WORKLOADS:
        runs = []
        for run_seed in (seed, seed, seed + 1):
            code, lines, result = run_captured(build_dir, workload, run_seed,
                                               seconds, 1)
            if code != 0 or result is None or not result["correct"]:
                print(f"FAIL {workload} seed {run_seed}: exit {code}")
                ok = False
                break
            inputs = next(l.split()[-1] for l in lines
                          if l.startswith("workload "))
            runs.append((inputs, result["metrics"]))
        if len(runs) < 3:
            continue
        (inputs_a, a), (inputs_b, b), (inputs_c, _) = runs
        for name in DETERMINISTIC:
            same = a[name]["value"] == b[name]["value"]
            print(f"{'ok  ' if same else 'FAIL'} {workload} {name}: "
                  f"{a[name]['value']} / {b[name]['value']}")
            ok &= same
        same_inputs = inputs_a == inputs_b
        new_inputs = inputs_a != inputs_c
        print(f"{'ok  ' if same_inputs and new_inputs else 'FAIL'} {workload} "
              f"inputs: seed {seed} {inputs_a} / {inputs_b}, "
              f"seed {seed + 1} {inputs_c}")
        ok &= same_inputs and new_inputs
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build_dir = build()
    if args.self_test:
        return self_test(build_dir, args.seed, min(args.seconds, 2))
    if args.workload != "all":
        command = load_command(build_dir, args.workload, args.seed,
                                 args.seconds, args.trace)
        sys.stdout.flush()
        return subprocess.run(command, timeout=175).returncode
    status = 0
    for workload in WORKLOADS:
        code, lines, _ = run_captured(build_dir, workload, args.seed,
                                      args.seconds, args.trace)
        print("\n".join(lines[:-1]), flush=True)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
