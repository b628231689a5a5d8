#!/usr/bin/env python3
"""Build and run the layered benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload stream_packed --seed 1 --seconds 20 --trace 0

Builds `perfbench/bench.exe` and `bin/selfish_routing.exe` with dune
into `.bench_build/`, runs the harness with its inputs, outputs and
spans under `.bench_work/`, and checks that the result line carries
exactly the metrics BENCHMARK.json declares.  The last line of
standard output is the JSON result; on any failure the script exits
non-zero without printing one.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170
# Runnable by hand but not declared in BENCHMARK.json: its figures
# spread beyond the largest bound the benchmark may declare (README).
BY_HAND = ["stream_exact"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def build():
    for need in ("dune-project", os.path.join("bin", "selfish_routing.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a selfish_routing checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "--profile", "release",
           "./perfbench/bench.exe", "./bin/selfish_routing.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with code {r.returncode}")
    return (os.path.join(BUILD, "default", "perfbench", "bench.exe"),
            os.path.join(BUILD, "default", "bin", "selfish_routing.exe"))


def run_harness(cmd):
    """Runs the harness in its own process group, so that a timeout also
    stops the `serve` child it may be waiting on."""
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        sys.stdout.write(out)
        fail(f"harness exited with code {p.returncode}")
    return out


def validate(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last harness line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            fail(f"'{key}' is not an integer")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(got)}, "
             f"declared {sorted(expected)}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} is not a number")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        workloads, end_to_end, per_layer = declared()
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in workloads + BY_HAND:
        fail(f"unknown workload {args.workload!r}; declared: {workloads}, "
             f"by hand: {BY_HAND}")
    bench, serve = build()
    os.makedirs(WORK, exist_ok=True)
    out = run_harness([bench, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--work", WORK, "--serve", serve])
    lines = out.rstrip("\n").split("\n")
    validate(lines[-1], per_layer if args.trace else end_to_end)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
