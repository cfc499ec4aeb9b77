"""Host speed, measured between operations with a fixed calibration kernel.

On a shared host the same operation can run 1.5 times slower for minutes at
a time, and CPU time slows with it, so medians of raw operation times from
runs minutes apart disagree by more than any useful bound. The benchmark
therefore times a fixed kernel of its own (numpy on small batched matrices
plus interpreter work, the mix of the RK4 sweeps) right before and after
every operation, and reports operation times scaled to a reference speed:

    normalised = wall * REF_CHUNK_S / (mean chunk time around the operation)

The kernel is the benchmark's code, not isospec's, so a change to isospec
moves the normalised time in the same proportion as the raw time. Raw
medians are printed beside the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np

#: iterations of one calibration chunk
CHUNK_ITERS = 8000
#: time of one chunk on a quiet host (2-vCPU Skylake-X VM, Python 3.11,
#: numpy 2.4); normalised times read as seconds on such a host
REF_CHUNK_S = 0.04
#: calibration after an operation lasts about this share of the operation
SHARE = 0.1
#: fewest chunks measured at a time
MIN_CHUNKS = 2


def chunk() -> float:
    """Seconds taken by one fixed calibration chunk."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 2, 2))
    b = 0.1 * rng.standard_normal((16, 2, 2))
    t0 = time.perf_counter()
    s = 0.0
    for i in range(CHUNK_ITERS):
        a = a + 0.01 * (b @ a)
        a /= np.abs(a).max()
        s += float(a[0, 0, 0]) * 0.5 + i % 7
    return time.perf_counter() - t0


def calibrate(op_wall: float = 0.0) -> list[float]:
    """Chunk times over about SHARE of an operation of op_wall seconds."""
    n = max(MIN_CHUNKS, round(SHARE * op_wall / REF_CHUNK_S))
    return [chunk() for _ in range(n)]


def normalised(walls: list[float], chunk_means: list[float]) -> list[float]:
    """Each time scaled to the reference speed by the chunk time around it."""
    return [w * REF_CHUNK_S / c for w, c in zip(walls, chunk_means, strict=True)]
