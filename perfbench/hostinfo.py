"""Environment record, BLAS thread check and per-workload peak memory."""

from __future__ import annotations

import ctypes
import os
import platform
import resource

# Variables read by the BLAS and OpenMP runtimes numpy may be linked against;
# they only take effect when set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# OpenBLAS as bundled with numpy wheels (prefixed) and as a system library
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")
_CONFIG_QUERIES = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def pin_blas_threads() -> dict[str, str]:
    """Force one BLAS thread; returns the caller's values that were replaced."""
    replaced = {}
    for var in THREAD_VARS:
        if os.environ.get(var, "1") != "1":
            replaced[var] = os.environ[var]
        os.environ[var] = "1"
    return replaced


def _loaded_blas_libraries() -> list[str]:
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if (path.startswith("/") and "blas" in name
                        and path not in paths):
                    paths.append(path)
    except OSError:
        pass
    return paths


def blas_runtime() -> dict:
    """Thread count and build string reported by the loaded BLAS itself.

    ``threads`` is None when no known query symbol is found.
    """
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = None
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        config = None
        for symbol in _CONFIG_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                config = fn().decode("ascii", "replace").strip()
                break
        if threads is not None:
            return {"library": os.path.basename(path), "threads": threads,
                    "config": config}
    return {"library": None, "threads": None, "config": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, replaced: dict[str, str]) -> dict:
    import numpy as np

    blas_build = {}
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    runtime = blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas_build.get("name"),
        "blas_version": blas_build.get("version"),
        "blas_library": runtime["library"],
        "blas_config": runtime["config"],
        "blas_threads": runtime["threads"],
        "blas_pinned": runtime["threads"] == 1,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_replaced": replaced,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


class PeakMemory:
    """Peak resident memory since :meth:`reset`, in MiB.

    Linux lets a process reset its own high-water mark, so the peak does not
    depend on what ran earlier in the process.  Where that is unavailable the
    lifetime peak is reported and ``resettable`` is False.
    """

    def __init__(self):
        self.resettable = True

    def reset(self):
        try:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
                fh.write("5")
        except OSError:
            self.resettable = False

    def peak_mib(self) -> float:
        if self.resettable:
            with open("/proc/self/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
