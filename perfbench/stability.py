#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/stability.py --bin <path to blap-perfbench> \
        [--workloads campaign-fleet,offline-attack,trace-check] \
        [--seeds 1-10] [--seconds 20] [--trace 0]

Runs are made one after another, never in parallel. For every end-to-end
metric it prints the median over the runs and the spread: the distance
between the first and third quartile (Python's statistics.quantiles with
n=4) as a share of the median. Beside the calibrated spread it prints the
raw spread and the spread under each calibration kernel, taken from the
run's `perfbench-diag` line on standard error, so a kernel can be judged
on how well it tracks a workload, and the range of the calibration
self-check's ratios. Every run must print correct=true and
failed=0, and runs on the same seed must report the same work-count
fingerprint.
"""

import argparse
import json
import statistics
import subprocess
import sys

FAMILIES = [
    "trials_per_s",
    "pin_candidates_per_s",
    "decrypt_bytes_per_s",
    "dump_bytes_per_s",
    "trace_lines_per_s",
]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(binary, workload, seed, seconds, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    diag = None
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-diag "):
            diag = json.loads(line[len("perfbench-diag "):])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return result, diag


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bin", required=True)
    ap.add_argument("--workloads",
                    default="campaign-fleet,offline-attack,trace-check")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        runs = []
        fingerprints = {}
        for seed in seeds_of(args.seeds):
            result, diag = run_once(args.bin, workload, seed, args.seconds,
                                    args.trace)
            runs.append((result, diag))
            fp = diag.get("fingerprint")
            if fp is not None:
                if fingerprints.setdefault(seed, fp) != fp:
                    sys.exit(f"{workload} seed {seed}: fingerprint changed")
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        print(f"\n{workload}: {len(runs)} runs of {args.seconds} s "
              f"(--trace {args.trace})")
        names = list(runs[0][0]["metrics"])
        print(f"  {'metric':34} {'median':>14} {'spread':>8} {'raw':>8}"
              + "".join(f" {k:>8}" for k in ("alu", "mem")))
        for name in names:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            row = f"  {name:34} {statistics.median(values):14.6g} " \
                  f"{spread(values):8.4f}"
            if name in FAMILIES:
                for key in ("raw", "alu", "mem"):
                    alt = [d[f"{name}.{key}"] for _, d in runs]
                    row += f" {spread(alt):8.4f}"
            elif name == "setup_s":
                for key in ("raw", "alu", "mem"):
                    alt = [d[f"setup_s.{key}"] for _, d in runs]
                    row += f" {spread(alt):8.4f}"
            print(row)
        kernels = ["calib.alu_ops_per_s", "calib.mem_ops_per_s"]
        for k in kernels:
            values = [d[k] for _, d in runs]
            print(f"  {k:34} {statistics.median(values):14.6g} "
                  f"{spread(values):8.4f}")
        # The calibration self-check's ratios, as min / median / max over
        # the runs; "/host" divides out the other kernel's standalone ratio.
        for kernel, other in (("alu", "mem"), ("mem", "alu")):
            host = [d[f"calib.{other}_standalone_ratio"] for _, d in runs]
            for ratio in ("cache_ratio", "standalone_ratio",
                          "after_work_standalone_ratio"):
                values = [d[f"calib.{kernel}_{ratio}"] for _, d in runs]
                rows = [(f"calib.{kernel}_{ratio}", values)]
                if ratio != "cache_ratio":
                    rows.append((f"calib.{kernel}_{ratio}/host",
                                 [v / h for v, h in zip(values, host)]))
                for name, vs in rows:
                    print(f"  {name:44} {min(vs):.4f} "
                          f"{statistics.median(vs):.4f} {max(vs):.4f}")


if __name__ == "__main__":
    main()
