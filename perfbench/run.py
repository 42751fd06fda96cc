#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lenet_eager --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the platform
libraries from src/) into .bench_build/perfbench, or into $CARGO_TARGET_DIR
when that is set; later runs only re-check the build.  The script then runs
one workload and relays its output.  The last line of standard output is the
JSON result; the script checks that its metric names and units are exactly
the ones BENCHMARK.json lists for the run's mode (end_to_end for --trace 0,
per_layer for --trace 1).

Exit codes: 0 success; 1 the benchmark reported a failure; 2 the build
failed or the platform sources are missing; 4 the result does not match
BENCHMARK.json; 5 a time limit was hit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("lenet_eager", "resnet_lazy", "serve_mlp", "dp_lenet_ring4")


def fail(message, code):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)), 5)
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("platform sources not found under %s/src" % ROOT, 2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = run_bounded(step, BUILD_TIMEOUT_S, stdout=log,
                                  stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(step), 2)
    return os.path.join(build_dir, "perfbench")


def check_against_spec(result, trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units), 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("S4TF_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            env=env, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("benchmark exited with code %d" % code, 1)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the last output line is not a JSON result", 4)
    check_against_spec(result, args.trace == 1)


if __name__ == "__main__":
    main()
