#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--trace 0] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed) over every workload of
BENCHMARK.json, one run at a time and for its run_seconds, and prints for
each metric its median and its spread: the distance between the first and
third quartile of the runs (statistics.quantiles, n=4) as a share of the
median.  Spreads above a third of a metric's bound in BENCHMARK.json
are flagged.  With --out, the summary, the interpreter, nproc and the range
of the runs' noise floors are stored in that JSON file under "trace0" or
"trace1", next to whatever the file already holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(results, bounds):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = " <-- above bound/3" if bound is not None and spread > bound / 3 else ""
        print(f"  {name:48s} {med:14.4f} {out[name]['unit']:14s} spread {spread:6.3f}{flag}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            context, result = run_once(workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
            runs.append({"context": context, "result": result})
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"noise floor {context['noise_floor_ns']} ns", flush=True)
        print(f"{workload}:")
        floors = [ns for r in runs for ns in r["context"]["noise_floor_ns"]]
        report["workloads"][workload] = {
            "metrics": summarise([r["result"] for r in runs], bounds),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "python": runs[0]["context"]["python"], "nproc": runs[0]["context"]["nproc"],
            "noise_floor_ns": [min(floors), max(floors)]}
    if args.out:
        out = Path(args.out)
        saved = json.loads(out.read_text()) if out.exists() else {}
        saved[f"trace{args.trace}"] = report
        out.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
