#!/usr/bin/env python3
"""Seeded engine-comparison sweep: static vs tray vs SA binary search vs
the dynamic trie, over a few (n, sigma) pairs.  Runs the CLI from this
checkout's `src`, so it works without installing triekit."""

import os
import subprocess
import sys
from pathlib import Path

CASES = [
    (20_000, 4),
    (20_000, 256),
    (100_000, 65_536),
]


def checkout_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH and
    any existing value kept after it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def main():
    env = checkout_env()
    for n, sigma in CASES:
        print(f"=== n={n} sigma={sigma} ===", flush=True)
        subprocess.run(
            [sys.executable, "-m", "triekit.cli", "bench",
             "--n", str(n), "--sigma", str(sigma),
             "--engines", "static,tray,sa,dynamic",
             "--queries", "2000", "--seed", "1"],
            check=True, env=env,
        )


if __name__ == "__main__":
    main()
