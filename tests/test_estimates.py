"""Unit tests for streaming Monte Carlo moment accumulation."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from telelocal import bellcheck, classical, estimates, lhv, qcore, teleport
from telelocal.estimates import MonteCarloEstimate, StreamingMoments, run_chunks


def test_scalar_moments_match_numpy_across_chunks():
    rng = np.random.default_rng(7)
    data = rng.random(1001)
    acc = StreamingMoments()
    # add centres a 1-D chunk in place, and data is read again below
    acc.add(data[:400].copy())
    acc.add(data[400:900].copy())
    acc.add(data[900:].copy())
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


def test_sums_and_squares_come_together_in_one_1d_shape():
    values = np.ones((4, 1))
    # two sums with one square would broadcast into a third cell's stderr, and sums alone fail on None
    for sums, squares in (([1.0, 2.0], [1.0]), ([1.0, 2.0], None), (None, [1.0, 2.0]), ([[1.0, 2.0]], [[1.0, 2.0]])):
        with pytest.raises(ValueError, match="sums and squares"):
            StreamingMoments((3,)).add(values.copy(), sums, squares)
    # sums beside per-sample cells, or one cell per sample left implicit in a
    # 1-D values, is not a form add takes: every cell comes by its sums or none
    for values, shape in ((np.ones((4, 1)), r"\(4, 1\)"), (np.ones(4), r"\(4,\)")):
        with pytest.raises(ValueError, match=rf"shape \(n, 0\), got {shape}"):
            StreamingMoments((3,)).add(values.copy(), np.array([2.0, 4.0]), np.array([2.0, 4.0]))


def test_zero_width_values_give_every_cell_by_its_sums():
    # a chunk whose every cell comes by its sums passes a zero-width (n, 0) view,
    # which gives only the sample count; it matches adding the samples themselves
    rng = np.random.default_rng(15)
    chunks = [rng.random((n, 3)) for n in (1, 7, 500)]
    by_sums, by_values = StreamingMoments((3,)), StreamingMoments((3,))
    for chunk in chunks:
        rows = np.empty((2, len(chunk)))
        by_sums.merge(StreamingMoments((3,)).add(rows[:0].T, chunk.sum(axis=0), np.square(chunk).sum(axis=0)))
        by_values.add(chunk.copy())
    assert by_sums.count == by_values.count == 508
    npt.assert_allclose(by_sums.mean(), by_values.mean(), rtol=1e-14)
    npt.assert_allclose(by_sums.stderr(), by_values.stderr(), rtol=1e-12)


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
        acc.add(chunk.copy())
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
        # copies: a one-row chunk is component-major too, so add centres it
        # in place, and data is read again below
        sample_major.add(chunk.copy())
        buffer = chunk.transpose(1, 2, 0).copy()
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
    def sample_chunk(states, coins, rows):
        m = rows.shape[1]
        sizes.append(m)
        return (states.random((m, 2, 3)) + coins.random((m, 1, 1)),)

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


def test_run_chunks_needs_an_integral_sample_count():
    # True would run one sample, 1e6 would fail inside range with a TypeError
    for samples in (True, False, 1e6, 20.0, np.float64(5.0), "10"):
        with pytest.raises(ValueError, match="samples must be an integer"):
            run_chunks(_draw([]), samples=samples, seed=0, chunk=10)
    sizes = []
    assert run_chunks(_draw(sizes), samples=np.int64(25), seed=0, chunk=10, cell_shape=(2, 3)).count == 25
    assert sizes == [10, 10, 5]


def test_run_chunks_and_child_seeds_need_a_non_negative_integral_seed(monkeypatch):
    # True would run as seed 1, 1.5 would fail inside SeedSequence with a TypeError,
    # and -1 only where a block builds its generator, in a pool worker above BLOCK
    # samples; with every sampler patched to None, a check made after sampling fails
    for sampler in ("haar_kets", "random_bloch_vectors", "random_bloch_z"):
        monkeypatch.setattr(qcore, sampler, None)

    def never(states, coins, rows):
        raise AssertionError("sampled before the seed was checked")

    rho, (alice, bob) = qcore.werner_alpha(0.5), _lhv_spec()
    estimators = [
        lambda seed: run_chunks(never, 10, seed, 10),
        lambda seed: teleport.average_fidelity(rho, 10, seed),
        lambda seed: teleport.average_fidelity(rho, estimates.BLOCK + 1, seed),
        lambda seed: lhv.estimate_joint(alice, bob, lhv.LhvConfig(10, seed)),
        lambda seed: classical.gisin_scheme_fidelity(10, seed),
        lambda seed: classical.z_scheme_fidelity(10, seed),
        lambda seed: estimates.child_seeds(seed, 2),
    ]
    for estimate in estimators:
        for seed in (True, False, 1.5, 2.0, np.float64(3.0), "7", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                estimate(seed)
        for seed in (-1, np.int64(-5)):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                estimate(seed)
    assert estimates.child_seeds(np.int64(3), 2) == estimates.child_seeds(3, 2)
    # so is n, which numpy would refuse at -1 with its own message, and at 2.0 or True with a TypeError
    for n in (True, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            estimates.child_seeds(3, n)
    with pytest.raises(ValueError, match="n must be >= 0"):
        estimates.child_seeds(3, -1)
    assert estimates.child_seeds(3, np.int64(4)) == estimates.child_seeds(3, 4) and estimates.child_seeds(3, 0) == []
    assert run_chunks(_draw([]), samples=25, seed=np.uint32(0), chunk=10, cell_shape=(2, 3)).count == 25


def test_merge_matches_sequential_adds():
    rng = np.random.default_rng(11)
    data = rng.random((1000, 2, 3))
    sequential, merged = StreamingMoments((2, 3)), StreamingMoments((2, 3))
    for part in np.array_split(data, [1, 250, 600]):
        # the one-row part is centred in place, and part is read again below
        sequential.add(part.copy())
        block = StreamingMoments((2, 3))
        for chunk in np.array_split(part, 3):
            block.add(chunk)
        merged.merge(block)
    assert merged.count == sequential.count == 1000
    npt.assert_allclose(merged.mean(), sequential.mean(), rtol=1e-12)
    npt.assert_allclose(merged.stderr(), sequential.stderr(), rtol=1e-12)


def test_merge_with_an_empty_accumulator():
    full = StreamingMoments((2,))
    full.add(np.random.default_rng(12).random((50, 2)))
    mean, stderr = full.mean(), full.stderr()
    full.merge(StreamingMoments((2,)))
    assert full.count == 50
    assert np.array_equal(full.mean(), mean) and np.array_equal(full.stderr(), stderr)
    copy = StreamingMoments((2,))
    copy.merge(full)
    assert copy.count == 50
    assert np.array_equal(copy.mean(), mean) and np.array_equal(copy.stderr(), stderr)
    with pytest.raises(ValueError):
        copy.merge(StreamingMoments((3,)))


def test_run_chunks_blocks_match_a_hand_written_loop(monkeypatch, worker_pool):
    monkeypatch.setattr(estimates, "BLOCK", 500)
    sizes = []
    with worker_pool(1):
        moments = run_chunks(_draw(sizes), samples=800, seed=5, chunk=300, cell_shape=(2, 3))
    # block 0 holds rows 0-499, block 1 rows 500-799; no chunk spans a block boundary
    assert sizes == [300, 200, 300]
    by_hand = StreamingMoments((2, 3))
    for block, chunks in enumerate(((300, 200), (300,))):
        states, coins = (np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2 * block + s,))) for s in (0, 1))
        part = StreamingMoments((2, 3))
        for m in chunks:
            part.add(states.random((m, 2, 3)) + coins.random((m, 1, 1)))
        by_hand.merge(part)
    assert moments.count == 800
    assert np.array_equal(moments.mean(), by_hand.mean())
    assert np.array_equal(moments.stderr(), by_hand.stderr())
    # the default pool gives the same numbers
    default = run_chunks(_draw([]), samples=800, seed=5, chunk=300, cell_shape=(2, 3))
    assert np.array_equal(default.mean(), moments.mean())
    assert np.array_equal(default.stderr(), moments.stderr())


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_run_chunks_keeps_a_bounded_window_of_blocks_in_flight(monkeypatch, worker_pool, workers):
    # 40 blocks of 100 rows; while the kernels are held, only the window is queued
    monkeypatch.setattr(estimates, "BLOCK", 100)
    reference = run_chunks(_draw([]), 4000, 5, 30, (2, 3))
    release = threading.Event()
    counts = {"submitted": 0, "merged": 0, "most": 0}
    merge = StreamingMoments.merge

    def counted_merge(self, other):
        # run_chunks merges the blocks in the calling thread; each block adds its chunks in a worker
        if threading.current_thread() is caller:
            counts["merged"] += 1
        merge(self, other)

    def held_draw(states, coins, rows):
        assert release.wait(30)
        return _draw([])(states, coins, rows)

    monkeypatch.setattr(StreamingMoments, "merge", counted_merge)
    result = []
    with worker_pool(workers) as pool:
        submit = pool.submit

        def counted_submit(*args):
            counts["submitted"] += 1
            counts["most"] = max(counts["most"], counts["submitted"] - counts["merged"])
            return submit(*args)

        monkeypatch.setattr(pool, "submit", counted_submit)
        caller = threading.Thread(target=lambda: result.append(run_chunks(held_draw, 4000, 5, 30, (2, 3))))
        caller.start()
        time.sleep(0.2)
        queued = counts["submitted"]
        release.set()
        caller.join(30)
    assert not caller.is_alive()
    assert queued == counts["most"] == estimates.IN_FLIGHT_PER_WORKER * workers
    assert counts["submitted"] == counts["merged"] == 40
    # merged in block order: the numbers of the default pool
    assert np.array_equal(result[0].mean(), reference.mean())
    assert np.array_equal(result[0].stderr(), reference.stderr())


@pytest.mark.parametrize("failing", [0, 2])
@pytest.mark.parametrize("workers", [1, 3])
def test_run_chunks_raises_a_block_error_and_the_pool_survives(monkeypatch, worker_pool, failing, workers):
    monkeypatch.setattr(estimates, "BLOCK", 500)
    calls = []

    def fail_in_one_block(states, coins, rows):
        if states.bit_generator.seed_seq.spawn_key == (2 * failing,):
            raise ValueError(f"bad chunk in block {failing}")
        time.sleep(0.02)
        calls.append(rows.shape[1])
        return _draw([])(states, coins, rows)

    with worker_pool(workers) as pool:
        reference = run_chunks(_draw([]), samples=1500, seed=3, chunk=200, cell_shape=(2, 3))
        with pytest.raises(ValueError, match=f"block {failing}"):
            run_chunks(fail_in_one_block, samples=1500, seed=3, chunk=200, cell_shape=(2, 3))
        # no block of the failed call runs on; on one worker, block 2 is
        # cancelled when block 0 fails (block 1 may have started by then)
        settled = len(calls)
        time.sleep(0.1)
        assert len(calls) == settled
        if (failing, workers) == (0, 1):
            assert settled <= 3
        assert estimates._pool is pool
        again = run_chunks(_draw([]), samples=1500, seed=3, chunk=200, cell_shape=(2, 3))
    assert np.array_equal(again.mean(), reference.mean())
    assert np.array_equal(again.stderr(), reference.stderr())


def test_setup_and_single_block_estimates_start_no_thread():
    # a fresh interpreter: the pool belongs to multi-block estimates only
    script = """
import sys, threading
import telelocal
from telelocal import qcore, teleport
print("concurrent.futures" in sys.modules, threading.active_count())
teleport.average_fidelity(qcore.werner_alpha(0.5), 20_000, 1)
print("concurrent.futures" in sys.modules, threading.active_count())
teleport.average_fidelity(qcore.werner_alpha(0.5), 70_000, 1)
print("concurrent.futures" in sys.modules, threading.active_count() > 1)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:3] == ["False 1", "False 1", "True True"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_own_pool():
    # the child inherits the parent's pool without its threads; reusing it would hang
    script = """
import os, signal
from telelocal import qcore, teleport
parent = teleport.average_fidelity(qcore.werner_alpha(0.5), 70_000, 1)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if teleport.average_fidelity(qcore.werner_alpha(0.5), 70_000, 1) == parent else 1)
print(os.waitpid(pid, 0)[1])
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"


def _in_a_fresh_thread(run):
    # a new thread starts with no chunk buffer; a one-row run in the calling
    # thread first loads what the generators import, which tracemalloc would count
    _kept_rows([], 1, 1, 1)
    with ThreadPoolExecutor(1) as thread:
        return thread.submit(run).result(timeout=60)


def _kept_rows(kept, samples, chunk, k):
    def keep(states, coins, rows):
        kept.append(rows)
        return (rows[0, :0],)  # no samples

    return run_chunks(keep, samples, 0, chunk, k=k)


def test_a_regrown_chunk_buffer_drops_its_old_buffer_first():
    # a warm 100k-float buffer, then a kernel asking for 15 rows of 10k: the
    # buffer grows to 150k. Both buffers alive at once would peak at 250k floats
    def regrow():
        kept = []
        tracemalloc.start()
        try:
            _kept_rows(kept, 10_000, 10_000, 10)
            kept.clear()
            _kept_rows(kept, 10_000, 10_000, 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept[0], estimates._buffers.floats, peak

    rows, buffer, peak = _in_a_fresh_thread(regrow)
    assert rows.shape == (15, 10_000) and rows.flags.c_contiguous
    assert buffer.size == 150_000 and np.shares_memory(rows, buffer)
    assert peak <= 150_000 * 8 + 16_384


def test_arena_hands_out_the_same_memory_after_a_reset():
    # the thread's chunk buffer is the arena; each chunk and each later call
    # starts again at its first float
    def two_calls():
        kept = []
        # three chunks of 4 rows: 100, 100 and 50 samples
        _kept_rows(kept, 250, 100, 4)
        _kept_rows(kept, 100, 100, 4)
        return kept, estimates._buffers.floats

    kept, buffer = _in_a_fresh_thread(two_calls)
    assert [rows.shape for rows in kept] == [(4, 100), (4, 100), (4, 50), (4, 100)]
    assert all(rows.flags.c_contiguous and rows.base is buffer for rows in kept)
    assert all(rows.__array_interface__["data"] == kept[0].__array_interface__["data"] for rows in kept)


def test_arena_grows_to_its_high_water_mark_at_the_next_reset():
    # a kernel's block grows the buffer to what it needs; a later, smaller one
    # neither shrinks nor reallocates it
    def smaller_after_larger():
        kept = []
        _kept_rows(kept, 10_000, 10_000, 10)
        tracemalloc.start()
        try:
            # two chunks of 3 rows of 5000, the last one shorter
            _kept_rows(kept, 9_000, 5_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept, estimates._buffers.floats, peak

    (larger, *smaller), buffer, peak = _in_a_fresh_thread(smaller_after_larger)
    assert buffer.size == 100_000
    assert [rows.shape for rows in smaller] == [(3, 5_000), (3, 4_000)]
    assert all(rows.flags.c_contiguous and np.shares_memory(rows, larger) for rows in smaller)
    # less than one row of the smaller chunk: the generators and moments only
    assert peak < 4_000 * 8


def test_threads_never_share_a_chunk_buffer():
    both_hold_rows, kept = threading.Barrier(2), []

    def hold(states, coins, rows):
        both_hold_rows.wait(timeout=60)
        kept.append(rows)
        return (rows[0, :0],)  # no samples

    with ThreadPoolExecutor(2) as threads:
        for future in [threads.submit(run_chunks, hold, 100, 0, 100, k=4) for _ in range(2)]:
            future.result(timeout=60)
    first, second = kept
    assert not np.shares_memory(first, second)


def _lhv_spec():
    setting = bellcheck.violation_setting()
    alice = lhv.MeasurementSpec("povm", bellcheck.grouped_alice_effects(setting, bellcheck.OutcomeGrouping())[0])
    bob = lhv.MeasurementSpec("projective", bellcheck.bob_projectors(setting)[1])
    return alice, bob


def _traced_peak(estimate):
    estimate()  # warm the calling thread's chunk buffer
    tracemalloc.start()
    try:
        estimate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _estimate(name):
    # one block of each kernel, run in the calling thread
    alice, bob = _lhv_spec()
    rho = qcore.random_density(np.random.default_rng(41), 4)
    setting, grouping = bellcheck.violation_setting(), bellcheck.OutcomeGrouping()
    return {
        "teleport": lambda: teleport.average_fidelity(rho, estimates.BLOCK, 9),
        "lhv": lambda: lhv.estimate_joint(alice, bob, lhv.LhvConfig(estimates.BLOCK, 29), alpha=0.25),
        "lhv-ch": lambda: lhv.lhv_teleport_experiment(setting, grouping, lhv.LhvConfig(estimates.BLOCK, 29)),
        "gisin": lambda: classical.gisin_scheme_fidelity(estimates.BLOCK, 13),
        "z": lambda: classical.z_scheme_fidelity(estimates.BLOCK, 13),
    }[name]


KERNELS = ["teleport", "lhv", "lhv-ch", "gisin", "z"]


@pytest.mark.parametrize("name", KERNELS)
def test_warmed_chunks_allocate_no_chunk_arrays(name):
    # after the first chunk every chunk-sized array, the kets or Bloch vectors
    # and their draws too, lives in the chunk buffer. What a chunk still allocates
    # peaks at about 0.11 row of CHUNK float64 in a teleport chunk (the
    # comparisons' cast buffers) and 0.33 in a CH table chunk; one row of
    # samples allocated afresh, a draw row or a ket row, exceeds half a row
    assert _traced_peak(_estimate(name)) <= 0.5 * estimates.CHUNK * 8


# CHUNK_ROWS rows of CHUNK float64, 1.25 MiB. The rows per chunk doubled with
# CHUNK (8192 -> 16384 rows) so that the two pool workers overlap; a chunk's
# memory is bounded by this, by the allocation test above and end to end by
# the benchmark's peak_rss_mb
ARENA_BUDGET = 10 * estimates.CHUNK * 8


@pytest.mark.parametrize("name", KERNELS)
def test_no_chunk_outgrows_the_arena_budget(name):
    # a fresh thread has no chunk buffer, which run_chunks grows to the most any
    # of its chunks needs; every kernel needs the same rows
    estimate = _estimate(name)

    def warmed_buffer_bytes():
        estimate()
        return estimates._buffers.floats.nbytes

    with ThreadPoolExecutor(1) as thread:
        assert thread.submit(warmed_buffer_bytes).result(timeout=120) == ARENA_BUDGET


def test_add_centres_a_component_major_chunk_without_a_copy():
    m = estimates.CHUNK
    buffer = np.random.default_rng(14).random((17, m))
    # the route that centres a copy of the chunk
    mean = buffer.sum(axis=1) / m
    deviations = buffer - mean[:, None]
    m2 = np.einsum("ij,ij->i", deviations, deviations)
    moments = StreamingMoments((17,))
    tracemalloc.start()
    try:
        moments.add(buffer.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no temporary of even one row of samples
    assert peak < 8 * m
    assert np.array_equal(buffer, deviations)
    assert np.array_equal(moments.mean(), mean)
    assert np.array_equal(moments.stderr(), np.sqrt(m2 / (m - 1) / m))


def test_estimates_in_two_threads_at_once_match_serial_ones():
    alice, bob = _lhv_spec()
    rho = qcore.random_density(np.random.default_rng(41), 4)

    def fidelity():
        return teleport.average_fidelity(rho, 1_000_000, 9)

    def joint():
        est = lhv.estimate_joint(alice, bob, lhv.LhvConfig(20_000, 29), alpha=0.25)
        return np.stack([est.probs, est.stderr])

    serial_fidelity, serial_joint = fidelity(), joint()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as users:
            running = users.submit(fidelity)

            def joints_while_the_fidelity_runs():
                done = [joint()]
                while not running.done():
                    done.append(joint())
                return done

            joints = users.submit(joints_while_the_fidelity_runs)
            assert running.result(timeout=120) == serial_fidelity
            assert all(np.array_equal(j, serial_joint) for j in joints.result(timeout=120))
    finally:
        sys.setswitchinterval(interval)
