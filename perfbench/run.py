#!/usr/bin/env python3
"""Build the benchmark harness from this checkout and run one workload.

    python3 perfbench/run.py --workload sc4-stream --seed 1 --seconds 10 --trace 0

The harness and the scbnn library are built from source into .bench_build/
at the root of the checkout (the first run builds; later runs reuse it).
Build output goes to stderr. The harness prints a table of every metric it
measured and then one JSON line; this script passes the table through and
prints the JSON line with the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1), then exits with the
harness's code.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
RUN_TIMEOUT_S = 170


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_harness",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: check the output shape only")
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD, "runs")
    os.makedirs(workdir, exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    # The program's own knobs (tracing, pinning, stealing) stay at their
    # defaults, whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCBNN_")}
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: harness exited %d without a result" % proc.returncode)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing:
        sys.exit("perfbench: harness did not measure " + ", ".join(missing))
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in listed}
    print(json.dumps(result), flush=True)
    return proc.returncode

if __name__ == "__main__":
    sys.exit(main())
