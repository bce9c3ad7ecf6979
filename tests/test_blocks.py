"""The stream contract of every Monte Carlo estimator, checked from one table.

Each row of ``ESTIMATORS`` is one estimator call of 1500 samples with its
exact expected value. At the default ``estimates.BLOCK`` the call is one
stream block; with ``BLOCK`` at 500 it runs as three blocks on the worker
pool. Each block must draw from its own state stream, no chunk may span a
block boundary, the numbers must not depend on the number of workers or
on the chunk size, a repeated call must give the same bits, and the value
must lie within four standard errors of the expected one. A new
estimator is covered by adding a row.
"""

import json
import sys

import numpy as np
import pytest

from oracles import singlet_fraction_fidelity
from telelocal import bellcheck, classical, cli, estimates, lhv, qcore, teleport

SAMPLES = 1500
BLOCK = 500


def _scalar(scheme, *args, seed):
    def estimate():
        est = scheme(*args, samples=SAMPLES, seed=seed)
        return np.array(est.value), np.array(est.stderr), est.samples

    return estimate


def _lhv(alice: lhv.MeasurementSpec, bob: lhv.MeasurementSpec, alpha: float):
    def estimate():
        est = lhv.estimate_joint(alice, bob, lhv.LhvConfig(samples=SAMPLES, seed=29), alpha=alpha)
        return est.probs, est.stderr, est.samples

    # Tr[W (A x B)] on the singlet-fraction state
    w = qcore.werner_alpha(alpha)
    expected = np.array([[np.trace(w @ qcore.tensor(a, b)).real for b in bob.operators] for a in alice.operators])
    return lhv, "haar_kets", estimate, expected


def _lhv_ch():
    # the 16 cells of the CH table from one hidden ket per sample, then the CH value
    def estimate():
        result = lhv.lhv_teleport_experiment(SETTING, bellcheck.OutcomeGrouping(), lhv.LhvConfig(samples=SAMPLES, seed=29))
        values = np.append(result.table.joints.ravel(), result.value)
        return values, np.append(result.table.stderr.ravel(), result.stderr), SAMPLES

    table = bellcheck.probability_table(SETTING, bellcheck.OutcomeGrouping(), qcore.werner_alpha(0.5)).joints
    return lhv, "haar_kets", estimate, np.append(table.ravel(), (2 - np.sqrt(2)) / 4)


RHO = qcore.random_density(np.random.default_rng(41), 4)
SETTING = bellcheck.violation_setting()
GROUPED_T = lhv.MeasurementSpec("povm", bellcheck.grouped_alice_effects(SETTING, bellcheck.OutcomeGrouping())[0])
ALONG_S = lhv.MeasurementSpec("projective", bellcheck.bob_projectors(SETTING)[1])
ALONG_Z = lhv.MeasurementSpec("projective", [qcore.spin_projector([0.0, 0.0, 1.0], sign) for sign in (+1, -1)])
TELEPORT_FIDELITY = singlet_fraction_fidelity(RHO)
GISIN_ANALYTIC = classical.gisin_fidelity_analytic()

# name -> (module holding _CHUNK, qcore sampler each chunk calls once, estimate giving
# (values, stderr, samples), exact expected values)
ESTIMATORS = {
    "teleport": (teleport, "haar_kets", _scalar(teleport.average_fidelity, RHO, seed=9), TELEPORT_FIDELITY),
    # a POVM sender and a projective receiver; at alpha 0.25 the exact white-noise mix scales the stderr by 1/2
    "lhv-0.5": _lhv(GROUPED_T, ALONG_S, 0.5),
    "lhv-0.25": _lhv(GROUPED_T, ALONG_S, 0.25),
    # an all-projective pair
    "lhv-zz-0.5": _lhv(ALONG_Z, ALONG_Z, 0.5),
    "lhv-zz-0.25": _lhv(ALONG_Z, ALONG_Z, 0.25),
    "lhv-ch": _lhv_ch(),
    "gisin": (classical, "random_bloch_vectors", _scalar(classical.gisin_scheme_fidelity, seed=13), GISIN_ANALYTIC),
    "z": (classical, "random_bloch_z", _scalar(classical.z_scheme_fidelity, seed=13), 2 / 3),
}

# (BLOCK, each block's chunk rows at the module's _CHUNK, {chunk: each block's chunk rows})
CHUNKINGS = (
    (estimates.BLOCK, [[1500]], {1: [[1] * 1500], 7: [[7] * 214 + [2]], 400: [[400, 400, 400, 300]]}),
    (BLOCK, [[500]] * 3, {1: [[1] * 500] * 3, 7: [[7] * 71 + [3]] * 3, 400: [[400, 100]] * 3}),
)


def _sampler_calls(blocks) -> list:
    # block b draws its chunks, in order, from the state stream SeedSequence(seed, spawn_key=(2b,))
    return [(n, (2 * b,)) for b, rows in enumerate(blocks) for n in rows]


def _identical(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", ESTIMATORS)
def test_blocks_give_the_same_numbers_on_any_pool(monkeypatch, worker_pool, name):
    _, _, estimate, _ = ESTIMATORS[name]
    single_block = estimate()
    monkeypatch.setattr(estimates, "BLOCK", BLOCK)
    default = estimate()
    # blocks 1 and 2 read streams of their own
    assert not np.array_equal(default[0], single_block[0])
    # more workers than blocks and CPUs, switching threads often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 8):
            with worker_pool(workers):
                assert _identical(estimate(), default)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_blocks_are_chunk_invariant(monkeypatch, worker_pool, name):
    module, sampler, estimate, expected = ESTIMATORS[name]
    draw = getattr(qcore, sampler)
    calls = []

    def recorded(rng, n, *scratch):
        calls.append((n, rng.bit_generator.seed_seq.spawn_key))
        return draw(rng, n, *scratch)

    monkeypatch.setattr(qcore, sampler, recorded)
    default_chunk = module._CHUNK
    for block, default_blocks, chunkings in CHUNKINGS:
        monkeypatch.setattr(estimates, "BLOCK", block)
        monkeypatch.setattr(module, "_CHUNK", default_chunk)
        calls.clear()
        reference = estimate()
        assert sorted(calls) == sorted(_sampler_calls(default_blocks))
        with worker_pool(1):
            for chunk, blocks in chunkings.items():
                monkeypatch.setattr(module, "_CHUNK", chunk)
                calls.clear()
                values, stderr, samples = result = estimate()
                assert calls == _sampler_calls(blocks)
                assert _identical(estimate(), result)
                assert samples == SAMPLES and np.all(stderr > 0)
                assert np.all(np.abs(values - expected) <= 4 * stderr)
                # every sample reads the same values from its block's streams however the chunks split
                for got, want in zip(result[:2], reference[:2]):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
