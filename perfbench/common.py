"""Shared pieces of the benchmark: paths, statistics, digests, memory.

Nothing here imports ``repro``; :func:`import_repro` does that, from the
checkout's own ``src/`` and nowhere else, so the benchmark never measures an
installed copy of the package by accident.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: Generated datasets and oracle answers; rebuilt when missing.
DATA_ROOT = ROOT / ".perfbench_data"

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_repro() -> float:
    """Import the package under test from ``<root>/src``; returns the CPU
    seconds the import took."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    start = time.process_time()
    import repro  # noqa: F401
    import repro.baselines  # noqa: F401
    import repro.datasets.tpch  # noqa: F401
    import repro.ml.models  # noqa: F401
    import repro.serve  # noqa: F401
    return time.process_time() - start


def cores() -> int:
    """CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    return float(statistics.geometric_mean(values))


def samples_beyond(count: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile."""
    return count - math.ceil(pct / 100.0 * count)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class Digest:
    """SHA-256 over the inputs of a run, fed piece by piece."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def text(self, value: str) -> None:
        self._hash.update(value.encode())
        self._hash.update(b"\x00")

    def file(self, path: Path) -> None:
        self.text(path.name)
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                self._hash.update(block)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def frame_digest(frame) -> str:
    """Digest of a result DataFrame: column names, dtypes and values.

    Equal digests mean bit-identical frames, so each distinct answer is
    checked against its reference once, however often it repeats.
    """
    digest = hashlib.sha256()
    for name in frame.columns:
        array = frame[name]
        digest.update(f"{name}:{array.dtype}:{len(array)}".encode())
        if array.dtype.kind == "O":
            digest.update("\x1f".join(map(str, array)).encode())
        else:
            digest.update(array.tobytes())
    return digest.hexdigest()


def log(message: str) -> None:
    """Progress and report lines go to stderr; stdout ends with the result."""
    print(message, file=sys.stderr, flush=True)
