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

from telelocal import bellcheck, estimates, lhv, qcore, teleport
from telelocal.estimates import ChunkArena, MonteCarloEstimate, StreamingMoments, run_chunks


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


def test_run_chunks_needs_an_integral_sample_count():
    # True would run one sample, 1e6 would fail inside range with a TypeError
    for samples in (True, False, 1e6, 20.0, np.float64(5.0), "10"):
        with pytest.raises(ValueError, match="samples must be an integer"):
            run_chunks(_draw([]), samples=samples, seed=0, chunk=10)
    sizes = []
    assert run_chunks(_draw(sizes), samples=np.int64(25), seed=0, chunk=10, cell_shape=(2, 3)).count == 25
    assert sizes == [10, 10, 5]


def test_merge_matches_sequential_adds():
    rng = np.random.default_rng(11)
    data = rng.random((1000, 2, 3))
    sequential, merged = StreamingMoments((2, 3)), StreamingMoments((2, 3))
    for part in np.array_split(data, [1, 250, 600]):
        sequential.add(part)
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
        counts["merged"] += 1
        merge(self, other)

    def held_draw(states, coins, m):
        assert release.wait(30)
        return _draw([])(states, coins, m)

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

    def fail_in_one_block(states, coins, m):
        if states.bit_generator.seed_seq.spawn_key == (2 * failing,):
            raise ValueError(f"bad chunk in block {failing}")
        time.sleep(0.02)
        calls.append(m)
        return _draw([])(states, coins, m)

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


def test_arena_hands_out_the_same_memory_after_a_reset():
    arena = ChunkArena()
    arena.take(4, 100), arena.take(100)
    arena.reset()
    first, second = arena.take(4, 100), arena.take(100)
    assert first.shape == (4, 100) and second.shape == (100,)
    assert first.flags.c_contiguous and second.flags.c_contiguous
    assert not np.shares_memory(first, second)
    arena.reset()
    again, after = arena.take(4, 100), arena.take(100)
    assert np.shares_memory(first, again) and np.shares_memory(second, after)


def test_arena_grows_to_its_high_water_mark_at_the_next_reset():
    arena = ChunkArena()
    arena.take(50)
    arena.reset()
    inside = arena.take(50)
    # past capacity: a fresh array, not a view of the buffer
    outside = arena.take(3, 20)
    assert outside.shape == (3, 20) and not np.shares_memory(inside, outside)
    arena.reset()
    grown = [arena.take(50), arena.take(3, 20)]
    assert all(np.shares_memory(grown[0].base, a) for a in grown)
    assert grown[0].base.size == 110 and not np.shares_memory(grown[0], inside)
    # a smaller chunk does not shrink the buffer
    arena.reset()
    arena.take(10)
    arena.reset()
    assert np.shares_memory(arena.take(110), grown[0])


def test_threads_never_share_an_arena_buffer():
    arena = ChunkArena()
    both_warm = threading.Barrier(2)

    def warm_and_take():
        arena.take(64)
        arena.reset()
        both_warm.wait(timeout=60)
        return arena.take(64)

    with ThreadPoolExecutor(2) as threads:
        first, second = (f.result(timeout=60) for f in [threads.submit(warm_and_take) for _ in range(2)])
    arena.reset()
    # each thread's take is carved from a warm buffer of its own
    assert first.base is not None and second.base is not None
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(arena.take(64), first) and not np.shares_memory(arena.take(64), second)


def _lhv_spec():
    setting = bellcheck.violation_setting()
    alice = lhv.MeasurementSpec("povm", bellcheck.grouped_alice_effects(setting, bellcheck.OutcomeGrouping())[0])
    bob = lhv.MeasurementSpec("projective", bellcheck.bob_projectors(setting)[1])
    return alice, bob


def _traced_peak(estimate):
    estimate()  # warm the calling thread's arena
    tracemalloc.start()
    try:
        estimate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["teleport", "lhv"])
def test_warmed_chunks_allocate_no_chunk_arrays(name):
    # one block, run in this thread; after the first chunk the chunk's float
    # arrays live in the arena, and what a chunk still allocates peaks with
    # the (m, 4) Haar kets, their (m, 2) draws and one row of half-angle
    # tangents, about 7 rows of CHUNK float64; a chunk that allocates its
    # arrays afresh peaks above 8 rows
    alice, bob = _lhv_spec()
    rho = qcore.random_density(np.random.default_rng(41), 4)
    estimate = {
        "teleport": lambda: teleport.average_fidelity(rho, estimates.BLOCK, 9),
        "lhv": lambda: lhv.estimate_joint(alice, bob, lhv.LhvConfig(estimates.BLOCK, 29), alpha=0.25),
    }[name]
    assert _traced_peak(estimate) < 8 * estimates.CHUNK * 8


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
