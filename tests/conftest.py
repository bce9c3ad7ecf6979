"""Make the package importable in the child processes some tests start.

The ``pythonpath`` setting in pyproject.toml puts ``src`` on the path of the
pytest process only; tests that run ``python -m telelocal`` in a child need
it in ``PYTHONPATH`` as well.

The ``worker_pool`` fixture runs multi-block Monte Carlo estimates on a
pool of a chosen size inside a ``with`` block.
"""

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))


@pytest.fixture
def worker_pool(monkeypatch):
    from telelocal import estimates

    @contextlib.contextmanager
    def use(workers):
        with ThreadPoolExecutor(max_workers=workers) as pool, monkeypatch.context() as patch:
            patch.setattr(estimates, "_pool", pool)
            patch.setattr(estimates, "_workers", workers)
            yield pool

    return use
