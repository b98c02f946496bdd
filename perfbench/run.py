#!/usr/bin/env python3
"""End-to-end benchmark of the ART-9 framework: one workload per call.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds perfbench_loadgen (Release)
from ../src into .bench_build/perfbench, runs the workload in its own
process, checks every result against its golden reference and prints,
as the last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
ledger with --trace 1.  The lines before it record the host and the
human-readable figures.  See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("serve_paper", "service_long", "paper_eval")
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
LOADGEN_TIMEOUT_S = 170


def build():
    """Configures and builds the load generator; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ beside perfbench/ -- run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_loadgen", "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit("perfbench: build failed (" + " ".join(step) + ")")
    return BUILD_DIR / "perfbench_loadgen"


def run_loadgen(loadgen, args):
    out = BUILD_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    if out.exists():
        out.unlink()
    cmd = [str(loadgen), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: load generator exceeded {LOADGEN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: load generator exited with {proc.returncode}")
    return json.loads(out.read_text())


def print_end_to_end(data, values):
    lat = metrics.latencies(data["jobs"])
    for label, key in (("art9 job", "art9"), ("rv32 job", "rv32"), ("image upload", "upload")):
        s = metrics.summary(lat[key])
        print(f"  {label:13s} p50 {s['p50']:9.4f} ms  p90 {s['p90']:9.4f} ms  "
              f"p99 {s['p99']:9.4f} ms  (n={s['n']}, {s['beyond_p99']} beyond p99)")
    setups = ", ".join(f"{s:.4f}" for s in data["setup_s"])
    print(f"  set-ups (s): {setups}")
    for name, unit, _ in metrics.END_TO_END:
        print(f"  {name:22s} {values[name]:16.6g} {unit}")


def print_paper(data):
    if not data["paper"]:
        return
    print("  simulated vs paper (checks, not metrics):")
    for row in data["paper"]:
        error = (row["simulated"] - row["paper"]) / row["paper"] * 100.0
        print(f"    {row['what']:42s} paper {row['paper']:>12.6g}  "
              f"simulated {row['simulated']:>12.6g}  error {error:+6.1f}%")


def print_trace(data, values):
    layers = metrics.layer_self_times(data["spans"])
    total = sum(layers.values())
    print("  self time by layer (traced run):")
    for layer, us in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:6s} {us / 1e3:12.3f} ms  {us / total * 100.0:5.1f}%")
    print(f"  tracing overhead: traced loop {data['counters']['trace.traced_loop_s']:.4f} s vs "
          f"untraced {data['counters']['trace.untraced_loop_s']:.4f} s")
    print("  per-layer metric, value, and the end-to-end metric it should move"
          " (heavy / light workload):")
    for name, unit, _, moves, heavy, light in metrics.PER_LAYER:
        print(f"  {name:36s} {values[name]:16.6g} {unit:5s}  {moves} ({heavy} / {light})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    data = run_loadgen(build(), args)
    host = data["host"]
    print(f"host: nproc={host['nproc']} compiler={host['compiler']} "
          f"build_type={host['build_type']} seed={host['seed']} workload={data['workload']}")
    share = metrics.failure_share(data["attempted"], data["failed"])
    print(f"  jobs: attempted {data['attempted']}, completed {data['completed']}, "
          f"failed {data['failed']} (share {share:.4f})")
    for reason in data["failures"]:
        print(f"  failure: {reason}")

    correct = data["checks_ok"] and data["mismatched"] == 0 and data["completed"] > 0
    try:
        if args.trace:
            values = metrics.per_layer(data)
            table = [(name, unit) for name, unit, *_ in metrics.PER_LAYER]
            print_trace(data, values)
        else:
            values = metrics.end_to_end(data)
            table = [(name, unit) for name, unit, _ in metrics.END_TO_END]
            print_end_to_end(data, values)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        # Too few completed jobs to compute a metric: report the failure.
        print(f"  no metrics: {e!r}")
        print(json.dumps({"correct": False, "attempted": data["attempted"],
                          "failed": data["failed"], "metrics": {}}))
        sys.exit(1)
    print_paper(data)

    print(json.dumps({
        "correct": correct,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))


if __name__ == "__main__":
    main()
