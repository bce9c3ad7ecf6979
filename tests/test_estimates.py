"""Unit tests for streaming Monte Carlo moment accumulation."""

import numpy as np
import numpy.testing as npt
import pytest

from telelocal.estimates import MonteCarloEstimate, StreamingMoments, run_chunks


def test_scalar_moments_match_numpy_across_chunks():
    rng = np.random.default_rng(7)
    data = rng.random(1001)
    acc = StreamingMoments()
    acc.add(data[:400])
    acc.add(data[400:900])
    acc.add(data[900:])
    assert acc.count == 1001
    npt.assert_allclose(acc.mean(), data.mean(), rtol=1e-12)
    npt.assert_allclose(acc.stderr(), data.std(ddof=1) / np.sqrt(data.size), rtol=1e-9)
    est = acc.scalar_estimate()
    assert isinstance(est, MonteCarloEstimate)
    assert est.samples == 1001
    npt.assert_allclose(est.value, data.mean(), rtol=1e-12)


def test_cell_shaped_moments():
    rng = np.random.default_rng(8)
    data = rng.random((500, 2, 2))
    acc = StreamingMoments((2, 2))
    acc.add(data[:123])
    acc.add(data[123:])
    npt.assert_allclose(acc.mean(), data.mean(axis=0), rtol=1e-12)
    npt.assert_allclose(acc.stderr(), data.std(axis=0, ddof=1) / np.sqrt(500), rtol=1e-9)
    with pytest.raises(ValueError):
        acc.scalar_estimate()


def test_shape_mismatch_rejected():
    acc = StreamingMoments((2,))
    with pytest.raises(ValueError):
        acc.add(np.zeros((10, 3)))


def test_degenerate_counts():
    acc = StreamingMoments()
    with pytest.raises(ValueError):
        acc.mean()
    acc.add(np.array([1.0]))
    assert np.isinf(acc.stderr())
    acc.add(np.array([1.0]))
    # constant data: every deviation is zero, so the variance is exactly zero
    assert acc.stderr() == 0.0
    assert acc.mean() == 1.0


def test_moments_survive_a_large_offset():
    # raw sums of squares cancel catastrophically here; merged deviations do not
    rng = np.random.default_rng(9)
    data = 1e8 + rng.standard_normal(3000) * 1e-3
    acc = StreamingMoments()
    for chunk in np.array_split(data, 7):
        acc.add(chunk)
    npt.assert_allclose(acc.mean(), data.mean(), rtol=1e-15)
    npt.assert_allclose(acc.stderr(), data.std(ddof=1) / np.sqrt(data.size), rtol=1e-6)


def test_empty_chunk_changes_nothing():
    acc = StreamingMoments((2,))
    acc.add(np.zeros((0, 2)))
    assert acc.count == 0
    acc.add(np.array([[1.0, 2.0], [3.0, 4.0]]))
    acc.add(np.zeros((0, 2)))
    npt.assert_allclose(acc.mean(), [2.0, 3.0])
    npt.assert_allclose(acc.stderr(), [1.0, 1.0])


def test_component_major_chunks_reduce_like_sample_major_ones():
    # the same numbers as C-ordered (n, 2, 2) chunks and as (2, 2, n) buffers seen through their transpose
    rng = np.random.default_rng(10)
    data = rng.random((1000, 2, 2))
    sample_major, component_major = StreamingMoments((2, 2)), StreamingMoments((2, 2))
    for chunk in np.array_split(data, [300, 301, 777]):
        sample_major.add(np.ascontiguousarray(chunk))
        buffer = np.ascontiguousarray(chunk.transpose(1, 2, 0))
        component_major.add(buffer.transpose(2, 0, 1))
    assert np.array_equal(sample_major.mean(), component_major.mean())
    assert np.array_equal(sample_major.stderr(), component_major.stderr())
    npt.assert_allclose(component_major.mean(), data.mean(axis=0), rtol=1e-14)
    npt.assert_allclose(component_major.stderr(), data.std(axis=0, ddof=1) / np.sqrt(1000), rtol=1e-12)


def test_constant_cell_shaped_chunks_have_zero_stderr():
    # dyadic cells, like the white-noise joints t_a t_b / 4 of projectors, so every sum is exact
    cells = np.array([[0.25, 0.125], [0.5, 0.375]])
    sample_major, component_major = StreamingMoments((2, 2)), StreamingMoments((2, 2))
    for n in (5, 1, 300):
        sample_major.add(np.broadcast_to(cells, (n, 2, 2)))
        component_major.add(np.broadcast_to(cells[..., None], (2, 2, n)).transpose(2, 0, 1))
    for acc in (sample_major, component_major):
        assert np.array_equal(acc.mean(), cells)
        assert np.array_equal(acc.stderr(), np.zeros((2, 2)))


def _draw(sizes):
    def sample_chunk(states, coins, m):
        sizes.append(m)
        return states.random((m, 2, 3)) + coins.random((m, 1, 1))

    return sample_chunk


def test_run_chunks_sizes_and_stream_match_a_hand_written_loop():
    sizes = []
    moments = run_chunks(_draw(sizes), samples=1000, seed=5, chunk=300, cell_shape=(2, 3))
    assert sizes == [300, 300, 300, 100]
    assert moments.cell_shape == (2, 3) and moments.count == 1000
    states, coins = (np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(2))
    by_hand = StreamingMoments((2, 3))
    for m in (300, 300, 300, 100):
        by_hand.add(states.random((m, 2, 3)) + coins.random((m, 1, 1)))
    assert np.array_equal(moments.mean(), by_hand.mean())
    assert np.array_equal(moments.stderr(), by_hand.stderr())
    sizes.clear()
    run_chunks(_draw(sizes), samples=250, seed=5, chunk=300, cell_shape=(2, 3))
    assert sizes == [250]


def test_run_chunks_needs_a_sample():
    for samples in (0, -3):
        with pytest.raises(ValueError):
            run_chunks(_draw([]), samples=samples, seed=0, chunk=10)
