"""Streaming mean / standard error accumulation for Monte Carlo estimators."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# rows per Monte Carlo chunk, sized so that a chunk's arrays stay in a 2 MB
# L2 cache; results do not depend on it (see run_chunks)
CHUNK = 16_384


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
    cancellation of raw sums of squares. With fewer than two samples the
    standard error is reported as inf.
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
        mean = mean.reshape(self.cell_shape)
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


def run_chunks(
    sample_chunk: Callable[[np.random.Generator, np.random.Generator, int], np.ndarray],
    samples: int,
    seed: int,
    chunk: int,
    cell_shape: tuple[int, ...] = (),
) -> StreamingMoments:
    """Moments of ``sample_chunk(states, coins, m)`` over ``samples`` rows in chunks of at most ``chunk``.

    This is the only place that builds generators. ``SeedSequence(seed)``
    spawns two: ``states`` for Haar kets and Bloch vectors, ``coins`` for
    outcome draws and the white-noise mix. Each call returns an array of
    shape (m, *cell_shape), best the transpose view of a component-major
    (*cell_shape, m) buffer, which StreamingMoments.add reads without a
    copy. It takes its rows' values from each stream in row order, so row
    i reads the same numbers wherever the chunks split and the results do
    not depend on ``chunk``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    states, coins = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    moments = StreamingMoments(cell_shape)
    remaining = samples
    while remaining > 0:
        m = min(remaining, chunk)
        moments.add(sample_chunk(states, coins, m))
        remaining -= m
    return moments
