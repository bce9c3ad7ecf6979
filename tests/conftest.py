"""Make the package importable in the child processes some tests start.

The ``pythonpath`` setting in pyproject.toml puts ``src`` on the path of the
pytest process only; tests that run ``python -m telelocal`` in a child need
it in ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
