"""The environment a result was measured in, and computed working sets."""

from __future__ import annotations

import ctypes
import inspect
import os
import platform
import re
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

from telelocal import classical, lhv, teleport

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    """Data and unified caches of the first CPU, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            out[f"L{level}"] = (index / "size").read_text().strip()
            out[f"L{level}_shared_cpus"] = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
    return out


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, asked of the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {var: value for var, value in sorted(os.environ.items()) if var.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
    }


@dataclass(frozen=True)
class MainArray:
    """The largest array one Monte Carlo chunk of ``function`` allocates.

    ``name`` is the variable that holds it in the function's source; when
    the name is gone, ``shape`` may no longer describe the code, and the
    working set is reported without bytes.
    """

    module: ModuleType
    function: str
    name: str
    shape: str
    row_bytes: int

    def current(self) -> bool:
        source = inspect.getsource(getattr(self.module, self.function))
        return re.search(rf"\b{self.name}\b", source) is not None


MAIN_ARRAYS = {
    "teleport.average_fidelity": MainArray(teleport, "average_fidelity", "n_unnorm", "(m,4,2,2) complex128", 256),
    "lhv.estimate_joint": MainArray(lhv, "estimate_joint", "joint", "(m,2,2) float64", 32),
    "classical.gisin_scheme_fidelity": MainArray(classical, "gisin_scheme_fidelity", "dots", "(m,4) float64", 32),
}
_USES = {
    "reproduce": ("teleport.average_fidelity", "lhv.estimate_joint", "classical.gisin_scheme_fidelity"),
    "state-sweep": ("teleport.average_fidelity",),
    "locality": ("lhv.estimate_joint",),
}


def working_set(workload: str, cli_samples: int, state_samples: int) -> dict:
    """Bytes of the main array of one Monte Carlo chunk, per function.

    Computed, not measured: chunk rows are ``min(samples, module._CHUNK)``
    and bytes per row come from the array's shape.
    """
    samples = state_samples if workload == "state-sweep" else cli_samples
    out = {}
    for key in _USES[workload]:
        array = MAIN_ARRAYS[key]
        rows = min(samples, getattr(array.module, "_CHUNK", samples))
        if array.current():
            out[key] = {"array": f"{array.name} {array.shape}", "chunk_rows": rows, "bytes": rows * array.row_bytes}
        else:
            out[key] = {"array": f"{array.name} no longer in {array.module.__name__}.{array.function}", "chunk_rows": rows}
    return {"label": "computed from _CHUNK and array shapes, not measured", "per_call": out}
