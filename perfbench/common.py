"""Shared plumbing for the benchmark: checkout paths, stats, run metadata.

Every other benchmark module imports this first.  It locates the
checkout from this file's own position (``<root>/perfbench/common.py``)
and puts ``<root>/src`` at the front of the import path, so the
benchmark always measures the source tree it ships with, never an
installed copy.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, spill runs and outputs.  It lives
#: inside the checkout (the benchmark writes nowhere else) and is listed
#: in the root ``.gitignore``.
WORK_ROOT = ROOT / ".bench_work"


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, bad args)."""


def require_source_tree() -> None:
    """Fail unless ``<root>/src/repro`` exists; then prefer it on import.

    Also exports it through ``PYTHONPATH`` so the daemons and job
    processes the benchmark spawns import the same tree.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchSetupError(
            f"no source tree at {SRC / 'repro'}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    parts = [str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of raw samples."""
    import numpy as np

    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    """Machine and software facts recorded with every result."""
    import numpy as np

    from repro.linalg.backend import resolve_backend, resolve_score_dtype

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": resolve_backend("auto").name,
        "dtype": str(np.dtype(resolve_score_dtype(None))),
        "time_unix": round(time.time(), 3),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(
    meta: dict,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, dict],
) -> None:
    """Print the metadata line, then the result object as the last line."""
    print("meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )

