import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run_in_checkout():
    """Runs a command from the repo root with this checkout's `src` first on
    PYTHONPATH (any existing value kept after it), so a `python -m triekit...`
    child imports the code under test wherever pytest was started.  Keyword
    arguments set further environment variables for that one child."""
    src = str(REPO_ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def run(cmd, **extra_env):
        return subprocess.run(cmd, capture_output=True, cwd=REPO_ROOT, env=dict(env, **extra_env))

    return run
