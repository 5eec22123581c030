#!/usr/bin/env python3
"""Stream a random text through the prepend verifier and print the oracle
work counters reported every checkpoint.  Runs the CLI from this checkout's
`src`, so it works without installing triekit."""

import random
import subprocess
import sys
import tempfile

from run_bench import checkout_env

N = 2000
SIGMA = 26
CHECK_EVERY = 100


def main():
    rng = random.Random(11)
    data = bytes(rng.randrange(SIGMA) for _ in range(N))
    with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
        fh.write(data)
        fh.flush()
        subprocess.run(
            [sys.executable, "-m", "triekit.cli", "prepend-stream",
             "--text", fh.name, "--sigma", str(SIGMA),
             "--check-every", str(CHECK_EVERY)],
            check=True, env=checkout_env(),
        )


if __name__ == "__main__":
    main()
