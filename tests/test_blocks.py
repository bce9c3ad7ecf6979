"""Every Monte Carlo estimator split into several stream blocks.

With ``estimates.BLOCK`` at 500, an estimate of 1500 samples runs as three
blocks on the worker pool. Its numbers must not depend on the number of
workers or on the chunk size, and no chunk may span a block boundary.
"""

import json
import sys

import numpy as np
import pytest

from telelocal import bellcheck, classical, cli, estimates, lhv, qcore, teleport

SAMPLES = 1500
BLOCK = 500


def _teleport():
    rho = qcore.random_density(np.random.default_rng(41), 4)
    est = teleport.average_fidelity(rho, samples=SAMPLES, seed=9)
    return np.array([est.value, est.stderr])


def _lhv(alpha):
    def estimate():
        setting = bellcheck.violation_setting()
        alice = lhv.MeasurementSpec("povm", bellcheck.grouped_alice_effects(setting, bellcheck.OutcomeGrouping())[0])
        bob = lhv.MeasurementSpec("projective", bellcheck.bob_projectors(setting)[1])
        est = lhv.estimate_joint(alice, bob, lhv.LhvConfig(samples=SAMPLES, seed=29), alpha=alpha)
        return np.stack([est.probs, est.stderr])

    return estimate


def _gisin():
    est = classical.gisin_scheme_fidelity(SAMPLES, seed=13)
    return np.array([est.value, est.stderr])


# name -> (module holding _CHUNK, qcore sampler each chunk calls once, estimate)
ESTIMATORS = {
    "teleport": (teleport, "haar_kets", _teleport),
    "lhv-0.5": (lhv, "haar_kets", _lhv(0.5)),
    "lhv-0.25": (lhv, "haar_kets", _lhv(0.25)),
    "gisin": (classical, "random_bloch_vectors", _gisin),
}


@pytest.mark.parametrize("name", ESTIMATORS)
def test_blocks_give_the_same_numbers_on_any_pool(monkeypatch, worker_pool, name):
    _, _, estimate = ESTIMATORS[name]
    single_block = estimate()
    monkeypatch.setattr(estimates, "BLOCK", BLOCK)
    default = estimate()
    # blocks 1 and 2 read streams of their own
    assert not np.array_equal(default, single_block)
    # more workers than blocks and CPUs, switching threads often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 8):
            with worker_pool(workers):
                assert np.array_equal(estimate(), default)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_blocks_are_chunk_invariant(monkeypatch, worker_pool, name):
    module, sampler, estimate = ESTIMATORS[name]
    monkeypatch.setattr(estimates, "BLOCK", BLOCK)
    draw = getattr(qcore, sampler)
    chunk_rows = []
    monkeypatch.setattr(qcore, sampler, lambda rng, n: chunk_rows.append(n) or draw(rng, n))
    reference = estimate()
    assert sorted(chunk_rows) == [BLOCK] * 3
    chunkings = ((1, [1] * 1500), (7, ([7] * 71 + [3]) * 3), (400, [400, 100] * 3))
    with worker_pool(1):
        for chunk, rows in chunkings:
            monkeypatch.setattr(module, "_CHUNK", chunk)
            chunk_rows.clear()
            values = estimate()
            assert chunk_rows == rows
            np.testing.assert_allclose(values, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [["reproduce", "--grid", "0:1:0.01"], ["lhv"], ["lhv", "--alpha", "0.25"], ["teleport"], ["gisin"]],
    ids=" ".join,
)
def test_reports_are_byte_identical_on_any_pool(monkeypatch, worker_pool, capsys, argv):
    monkeypatch.setattr(estimates, "BLOCK", BLOCK)
    argv = [*argv, "--samples", str(SAMPLES)]

    def report():
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    default = report()
    assert all(row["pass"] for row in json.loads(default)["results"] if "pass" in row)
    with worker_pool(1):
        assert report() == default
