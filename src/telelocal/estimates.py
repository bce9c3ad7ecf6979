"""Streaming mean / standard error accumulation for Monte Carlo estimators."""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# rows per Monte Carlo chunk of every kernel: a 1M estimate on two pool workers
# against one took 0.046-0.048 vs 0.048-0.050 s at 8192 rows and 0.035-0.047 vs
# 0.046-0.048 s at 16384 (average_fidelity, 2 shared CPUs, medians of two sets of
# 12 runs); the draws do not depend on it (see run_chunks), the moments' last bits
# do. It stays at 16384 for memory: at 32768, on the same CPUs, the locality
# benchmark's pass_s fell in 3 of 4 alternating pairs (medians 0.093 -> 0.087 s at
# --seconds 3), but its peak_rss_mb rose from 42.1-42.4 to 44.7-44.9 MB, past the
# benchmark's 5% bound, and the last bits of the lhv stderr and of reproduce's
# gisin and z rows moved
CHUNK = 16_384
# rows of CHUNK floats run_chunks hands each kernel's chunk by default, from its
# thread's buffer kept for the thread's life (1.25 MiB at the default CHUNK)
CHUNK_ROWS = 10
# rows per stream block: part of the definition of every estimate's random
# streams, not a setting (see run_chunks)
BLOCK = 65_536
# stream blocks per pool worker submitted and not yet merged (see run_chunks)
IN_FLIGHT_PER_WORKER = 2

# the worker pool of run_chunks and its number of threads, built by the first call with more
# than one block; it lives for the whole process, so no call starts and joins threads or
# warms their chunk buffers. On 2 shared CPUs a pool per call added 1-2 ms to an estimate:
# at two blocks (131072 samples) teleport, lhv and z ran 15-55% slower in 26-29 of 30
# alternating in-process pairs; at 1M samples the medians moved -3% to +8%, within noise
_pool = None
_workers = 0
_pool_lock = threading.Lock()
# each thread's chunk rows, grown to the most any of its chunks has needed
_buffers = threading.local()


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
    C-ordered (*cell_shape, chunk) buffer, is centred in place (see
    ``add``), any other layout is copied into that order first, so the
    result does not depend on the layout. Each cell's mean is a pairwise
    sum over its row, and the chunk's (count, mean, M2) is merged into the
    running totals with the pairwise update of Chan, Golub & LeVeque
    (1979), which avoids the cancellation of raw sums of squares; ``merge``
    folds in another accumulator's totals with the same update. With fewer
    than two samples the standard error is reported as inf.

    A cell never formed per sample may come to ``add`` as its chunk's sum and
    sum of squares. Its M2, squares - sums * mean clamped at 0, is then off by a
    few ulps of E[c^2] / Var c for c in [0, 1]: a constant c reads a few c sqrt(eps / n).
    """

    def __init__(self, cell_shape: tuple[int, ...] = ()):
        self.cell_shape = cell_shape
        self._mean = np.zeros(cell_shape)
        self._m2 = np.zeros(cell_shape)
        self._count = 0

    def add(self, values: np.ndarray, sums=None, squares=None) -> StreamingMoments:
        """Fold in a chunk of shape (n, *cell_shape), one sample per row, and return self.

        A writable chunk whose rows per cell are already contiguous (a
        component-major chunk, a 1-D chunk of scalar cells, any one-row
        chunk) is centred in place: afterwards it holds each sample's
        deviation from the chunk's mean, so a caller that still needs the
        values passes a copy. With a 1-D cell shape, ``sums`` and ``squares``
        may instead give every cell by its sums and sums of squares over the
        n samples, beside a zero-width (n, 0) ``values`` that only gives n.
        ValueError unless both are given, with one 1-D shape, beside such a
        ``values``.
        """
        given = sums is not None or squares is not None
        # np.shape(None) is (), so one of the two given alone fails the shape test
        if given and not (np.ndim(sums) == 1 and np.shape(squares) == np.shape(sums)):
            raise ValueError("sums and squares must be given together, as 1-D arrays of one shape")
        values = np.asarray(values, dtype=float)
        if given and values.shape[1:] != (0,):
            raise ValueError(f"values beside sums and squares must have shape (n, 0), got {values.shape}")
        shape = np.shape(sums) if given else values.shape[1:]
        if shape != self.cell_shape:
            raise ValueError(f"chunk cells of shape {shape}, expected {self.cell_shape}")
        n = values.shape[0]
        if n == 0:
            return self
        if given:
            mean = sums / n
            m2 = np.maximum(squares - sums * mean, 0.0)
        else:
            # (cells, n); a free view for component-major chunks and scalar cells,
            # centred in place, so a chunk needs no second chunk-sized array
            rows = values.reshape(n, -1).T
            if not (rows.flags.c_contiguous and rows.flags.writeable):
                rows = np.array(rows, order="C")
            mean = rows.sum(axis=1) / n
            rows -= mean[:, None]
            m2 = np.einsum("ij,ij->i", rows, rows)
        self._update(n, mean.reshape(self.cell_shape), m2.reshape(self.cell_shape))
        return self

    def merge(self, other: StreamingMoments) -> None:
        """Fold in the samples another accumulator of the same cell shape has seen."""
        if other.cell_shape != self.cell_shape:
            raise ValueError(f"cells of shape {other.cell_shape}, expected {self.cell_shape}")
        if other._count:
            self._update(other._count, other._mean, other._m2)

    def _update(self, n: int, mean: np.ndarray, m2: np.ndarray) -> None:
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


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def child_seeds(seed: int, n: int) -> list[int]:
    """The first ``n`` seeds derived from ``seed``, one per sub-estimate of a run (see run_chunks)."""
    _check_integer("seed", seed, 0)
    _check_integer("n", n, 0)
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _block_moments(sample_chunk, seed: int, block: int, rows: int, chunk: int, k: int, cell_shape) -> StreamingMoments:
    states, coins = (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2 * block + s,))) for s in (0, 1))
    buffer = getattr(_buffers, "floats", None)
    if buffer is None or buffer.size < k * min(chunk, rows):
        # dropped first, so the old and the grown buffer are never alive at once
        buffer = _buffers.floats = None
        buffer = _buffers.floats = np.empty(k * min(chunk, rows))
    moments = StreamingMoments(cell_shape)
    for start in range(0, rows, chunk):
        m = min(chunk, rows - start)
        moments.add(*sample_chunk(states, coins, buffer[: k * m].reshape(k, m)))
    return moments


def run_chunks(
    sample_chunk: Callable[[np.random.Generator, np.random.Generator, np.ndarray], tuple],
    samples: int,
    seed: int,
    chunk: int,
    cell_shape: tuple[int, ...] = (),
    k: int = CHUNK_ROWS,
) -> StreamingMoments:
    """The moments ``sample_chunk(states, coins, rows)`` adds over ``samples`` rows in chunks of at most ``chunk``.

    This is the only place that builds generators, and ``child_seeds`` the
    one seed derivation; both raise ValueError before they use a ``seed``
    that is not an integer >= 0, and this one for ``samples`` not one >= 1
    (a bool is neither). The rows form stream blocks of ``BLOCK`` rows (the
    last may be shorter). Block b has its own ``states`` stream, for Haar
    kets and Bloch vectors, from ``SeedSequence(seed, spawn_key=(2b,))``
    and ``coins`` stream, for Bell-outcome draws, from
    ``spawn_key=(2b + 1,)``; block 0 is ``SeedSequence(seed).spawn(2)``.

    A chunk of m rows gets ``rows``, a C-contiguous (k, m) float view of its
    thread's buffer, kept for the thread's life and grown, never shrunk, to
    the most a block asks for: the chunk may hold all its arrays there, none
    outliving the call. It reads its rows' values from each stream in row
    order, so no draw depends on ``chunk`` (the moments, summed chunk by
    chunk, do in their last bits), and returns a tuple of the arguments of
    ``StreamingMoments.add``, which the block adds in chunk order.

    A single block runs in the caller's thread; more run on a pool of one
    worker thread per CPU, built on first use (NumPy's generators and array
    loops release the GIL), and are merged in block order, so no result
    depends on the number of workers. Blocks call ``sample_chunk`` at once,
    so it must not mutate shared state, nor call ``run_chunks``, which could
    wait forever on its own bounded pool. At most ``IN_FLIGHT_PER_WORKER``
    blocks per worker are submitted and not yet merged, which bounds memory.
    """
    _check_integer("samples", samples, 1)
    _check_integer("seed", seed, 0)
    if samples <= BLOCK:
        return _block_moments(sample_chunk, seed, 0, samples, chunk, k, cell_shape)
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
            pending.append(pool.submit(_block_moments, sample_chunk, seed, b, rows, chunk, k, cell_shape))
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
