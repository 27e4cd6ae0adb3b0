"""The suite's own set-up: which ``soft_irl`` a pytest run imports."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_package(env: dict) -> list[str]:
    """The ``soft_irl`` that a pytest run from this checkout, under ``env``,
    imports, as its header names it."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider",
         "tests/test_source.py::test_unused_imports_are_found"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return [line.split(": ", 1)[1] for line in run.stdout.splitlines() if line.startswith("soft_irl: ")]


def test_an_explicit_pythonpath_picks_the_tree_under_test(tmp_path):
    """With ``PYTHONPATH`` naming another tree's ``src``, a pytest run from
    this checkout tests that tree's package; without it, this checkout's."""
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "soft_irl", other / "soft_irl", ignore=shutil.ignore_patterns("__pycache__"))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    assert imported_package(env) == [str(ROOT / "src" / "soft_irl" / "__init__.py")]
    assert imported_package(dict(env, PYTHONPATH=str(other))) == [str(other / "soft_irl" / "__init__.py")]
