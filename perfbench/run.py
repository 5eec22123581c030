#!/usr/bin/env python3
"""Run one benchmark workload against the triekit sources of this checkout.

    python3 perfbench/run.py --workload dna-repeats --seed 1 --seconds 10 --trace 0

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, measured with
tracing off; with --trace 1 they are the per-layer ones from a traced run.
The line before it records the run's context: interpreter, nproc, seed, the
noise floor (fastest and slowest reference-loop time), sample counts and the
exact counter diffs.
Exit codes: 0 correct, 1 some answer was wrong, 2 the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def source_digest() -> str:
    """Hash of every file under src/, to prove the run left them unchanged."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "triekit" / "__init__.py").is_file():
        return fail(f"no triekit sources under {SRC}")
    if os.environ.get("TRIEKIT_AUDIT") == "1":
        return fail("TRIEKIT_AUDIT=1 would audit the structure inside every timed insert")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    digest = source_digest()
    sys.dont_write_bytecode = True   # leave src/ exactly as it was
    sys.path.insert(0, str(SRC))
    import triekit
    if Path(triekit.__file__).resolve().parent != SRC / "triekit":
        return fail(f"imported triekit from {triekit.__file__}, not from {SRC}")

    import measure
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}")
    run = measure.run_traced if args.trace else measure.run_plain
    runner, metrics, context = run(spec, args.seed, args.seconds)
    unchanged = source_digest() == digest
    if not unchanged:
        print("error: a file under src/ changed during the run", file=sys.stderr)
    correct = unchanged and runner.failed == 0
    context.update(workload=spec.name, seed=args.seed, trace=args.trace,
                   python=platform.python_version(), nproc=len(os.sched_getaffinity(0)))
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
