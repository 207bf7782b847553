"""Environment for CLI subprocesses, with the package source first on PYTHONPATH.

The test process finds ``entkit`` through pytest's ``pythonpath`` setting,
which child interpreters do not inherit; this lets ``python -m entkit.cli``
run from a checkout where the package is not installed.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env():
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env
