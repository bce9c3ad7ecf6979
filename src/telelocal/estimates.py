"""Streaming mean / standard error accumulation for Monte Carlo estimators."""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# rows per Monte Carlo chunk: a chunk's arrays stay in a core's 2 MB L2
# cache, and the chunks in flight, one per worker, keep peak memory low;
# each thread keeps one chunk's arrays in its arena (at most 1 MiB) for the
# life of the process; results do not depend on it (see run_chunks)
CHUNK = 8_192
# rows per stream block: part of the definition of every estimate's random
# streams, not a setting (see run_chunks)
BLOCK = 65_536
# stream blocks per pool worker submitted and not yet merged (see run_chunks)
IN_FLIGHT_PER_WORKER = 2

# the worker pool of run_chunks and its number of threads, built by the first
# call with more than one block; it lives for the whole process because a pool
# per call measured about 10% slower on 2 CPUs (locality pass_s 0.603 -> 0.666 s)
_pool = None
_workers = 0
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child inherits the pool but not its threads, so it builds its own
    global _pool, _workers, _pool_lock
    _pool, _workers, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo mean with its standard error and sample count."""

    value: float
    stderr: float
    samples: int


class StreamingMoments:
    """Accumulates per-cell mean and sum of squared deviations over chunks.

    ``add`` takes arrays of shape (chunk, *cell_shape); the estimate is per
    cell. A chunk is reduced as one contiguous row of samples per cell: a
    component-major chunk, the (chunk, *cell_shape) transpose view of a
    C-ordered (*cell_shape, chunk) buffer, is read in place, any other
    layout is copied into that order first, so the result does not depend
    on the layout. Each cell's mean is a pairwise sum over its row, and the
    chunk's (count, mean, M2) is merged into the running totals with the
    pairwise update of Chan, Golub & LeVeque (1979), which avoids the
    cancellation of raw sums of squares; ``merge`` folds in another
    accumulator's totals with the same update. With fewer than two samples
    the standard error is reported as inf.
    """

    def __init__(self, cell_shape: tuple[int, ...] = ()):
        self.cell_shape = cell_shape
        self._mean = np.zeros(cell_shape)
        self._m2 = np.zeros(cell_shape)
        self._count = 0

    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape[1:] != self.cell_shape:
            raise ValueError(f"chunk cells of shape {values.shape[1:]}, expected {self.cell_shape}")
        n = values.shape[0]
        if n == 0:
            return
        # (cells, n); a free view for component-major chunks and scalar cells
        rows = np.ascontiguousarray(values.reshape(n, -1).T)
        mean = rows.sum(axis=1) / n
        deviations = rows - mean[:, None]
        m2 = np.einsum("ij,ij->i", deviations, deviations).reshape(self.cell_shape)
        # free the chunk-sized temporary before the small merge results are
        # allocated; held longer, it measurably raised peak memory
        del deviations
        self._update(n, mean.reshape(self.cell_shape), m2)

    def merge(self, other: StreamingMoments) -> None:
        """Fold in the samples another accumulator of the same cell shape has seen."""
        if other.cell_shape != self.cell_shape:
            raise ValueError(f"cells of shape {other.cell_shape}, expected {self.cell_shape}")
        if other._count:
            self._update(other._count, other._mean, other._m2)

    def _update(self, n: int, mean: np.ndarray, m2: np.ndarray) -> None:
        # into an empty accumulator (count 0) this copies mean and m2 exactly
        total = self._count + n
        delta = mean - self._mean
        self._mean = self._mean + delta * (n / total)
        self._m2 = self._m2 + m2 + np.square(delta) * (self._count * n / total)
        self._count = total

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> np.ndarray:
        if self._count == 0:
            raise ValueError("no samples accumulated")
        return self._mean.copy()

    def stderr(self) -> np.ndarray:
        if self._count < 2:
            return np.full(self.cell_shape, np.inf)
        return np.sqrt(self._m2 / (self._count - 1) / self._count)

    def scalar_estimate(self) -> MonteCarloEstimate:
        if self.cell_shape != ():
            raise ValueError("scalar_estimate requires scalar cells")
        return MonteCarloEstimate(float(self.mean()), float(self.stderr()), self._count)


class ChunkArena(threading.local):
    """A per-thread bump allocator for the float64 arrays of one Monte Carlo chunk.

    ``take(*shape)`` carves a C-contiguous view from one flat buffer;
    ``reset()``, called by run_chunks before each chunk, hands the whole
    buffer out again. A ``take`` that does not fit returns a fresh array,
    and the next ``reset`` grows the buffer to the largest amount a chunk
    has asked for, so after a thread's first chunk its chunks allocate
    nothing here. Each thread has its own buffer.
    """

    def __init__(self):
        self._buffer = np.empty(0)
        self._used = 0

    def reset(self) -> None:
        if self._used > self._buffer.size:
            self._buffer = np.empty(self._used)
        self._used = 0

    def take(self, *shape: int) -> np.ndarray:
        start = self._used
        self._used += math.prod(shape)
        if self._used > self._buffer.size:
            return np.empty(shape)
        return self._buffer[start : self._used].reshape(shape)


arena = ChunkArena()


def _executor():
    global _pool, _workers
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no sched_getaffinity on this platform
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="telelocal-block")
            _workers = workers
        return _pool, _workers


def child_seeds(seed: int, n: int) -> list[int]:
    """The first ``n`` seeds derived from ``seed``, one per sub-estimate of a run (see run_chunks)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _block_moments(sample_chunk, seed: int, block: int, rows: int, chunk: int, cell_shape) -> StreamingMoments:
    states, coins = (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2 * block + s,))) for s in (0, 1))
    moments = StreamingMoments(cell_shape)
    for start in range(0, rows, chunk):
        arena.reset()
        moments.add(sample_chunk(states, coins, min(chunk, rows - start)))
    return moments


def run_chunks(
    sample_chunk: Callable[[np.random.Generator, np.random.Generator, int], np.ndarray],
    samples: int,
    seed: int,
    chunk: int,
    cell_shape: tuple[int, ...] = (),
) -> StreamingMoments:
    """Moments of ``sample_chunk(states, coins, m)`` over ``samples`` rows in chunks of at most ``chunk``.

    This is the only place that builds generators, and ``child_seeds``,
    which gives each estimate of a run its own seed, the one seed
    derivation. The rows form stream blocks of ``BLOCK`` rows (the last may
    be shorter). Block b has its own ``states`` stream, for Haar kets and
    Bloch vectors, from ``SeedSequence(seed, spawn_key=(2b,))`` and
    ``coins`` stream, for Bell-outcome draws, from
    ``spawn_key=(2b + 1,)``; block 0 is ``SeedSequence(seed).spawn(2)``.
    ``samples`` < 1 raises ValueError before any generator is built. Each
    call returns an array of shape (m, *cell_shape), best the transpose view
    of a component-major (*cell_shape, m) buffer, which StreamingMoments.add
    reads without a copy, and takes its rows' values from each stream in row
    order, so the results do not depend on ``chunk``. Its arrays may be
    taken from ``arena``, which is reset before every chunk: a returned
    chunk may live in the thread's arena and is valid only until that
    thread's next chunk.

    A single block runs in the caller's thread. More blocks run on a pool
    of one worker thread per CPU, built on first use (NumPy's generators
    and array loops release the GIL), and are merged in block order, so
    the result does not depend on the number of workers. Hence
    ``sample_chunk`` must not mutate shared state, since several blocks
    call it at once, and must not call ``run_chunks`` itself: the pool is
    bounded, so a block waiting on blocks queued behind it can wait forever.
    At most ``IN_FLIGHT_PER_WORKER`` blocks per worker are submitted and
    not yet merged; each further block is submitted as the oldest one is
    merged, so memory stays bounded whatever ``samples`` is.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples <= BLOCK:
        return _block_moments(sample_chunk, seed, 0, samples, chunk, cell_shape)
    pool, workers = _executor()
    pending = []
    moments = StreamingMoments(cell_shape)
    try:
        for b, start in enumerate(range(0, samples, BLOCK)):
            if len(pending) == IN_FLIGHT_PER_WORKER * workers:
                # dropped once merged, so that an interrupt in result() still waits for it below
                moments.merge(pending[0].result())
                del pending[0]
            rows = min(BLOCK, samples - start)
            pending.append(pool.submit(_block_moments, sample_chunk, seed, b, rows, chunk, cell_shape))
        for future in pending:
            moments.merge(future.result())
    except BaseException:
        # drop the blocks that have not started and let the running ones end,
        # so that no block of this call still runs when the error surfaces
        from concurrent.futures import wait

        for future in pending:
            future.cancel()
        wait(pending)
        raise
    return moments
