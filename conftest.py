"""Which ``soft_irl`` the suite tests.

``pyproject.toml``'s ``pythonpath = ["src"]`` puts this checkout's ``src``
first on ``sys.path``, ahead of an installed copy and of ``PYTHONPATH``.  An
explicit ``PYTHONPATH`` names the tree under test, so its entries go back in
front of ``src`` here, before any test module imports the package; a plain
``python -m pytest`` still tests this checkout.  The run's header names the
package it imports.
"""

import importlib.util
import os
import sys


for _entry in reversed(os.environ.get("PYTHONPATH", "").split(os.pathsep)):
    if _entry:
        sys.path.insert(0, os.path.abspath(_entry))


def pytest_report_header(config):
    return f"soft_irl: {importlib.util.find_spec('soft_irl').origin}"
