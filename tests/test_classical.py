"""Unit tests for the classical two-bit baselines."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from telelocal import classical, qcore

GISIN_ANALYTIC = 0.8724286556585266


def _score(monkeypatch, scheme, m) -> float:
    """A scheme's Monte Carlo score for the one Bloch vector m, drawn in place of uniform ones."""
    rows = np.asarray(m, dtype=float)[None]
    monkeypatch.setattr(qcore, "random_bloch_vectors", lambda rng, n, scratch=None: np.repeat(rows, n, axis=0))
    monkeypatch.setattr(qcore, "random_bloch_z", lambda rng, n, scratch=None: np.repeat(rows[:, 2], n))
    return scheme(1, seed=0).value


def test_canonical_tetrahedron_geometry():
    v = classical.tetrahedron_vertices()
    assert v.shape == (4, 3)
    npt.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-14)
    dots = v @ v.T
    npt.assert_allclose(dots[~np.eye(4, dtype=bool)], -1 / 3, atol=1e-14)
    npt.assert_allclose(v[0], [0.0, 0.0, 1.0], atol=1e-15)


def test_gisin_scheme_prepares_the_nearest_vertex(monkeypatch):
    # the scheme prepares the vertex nearest to m: vertex 1 here
    m = np.array([np.sin(2.0) * np.cos(0.4), np.sin(2.0) * np.sin(0.4), np.cos(2.0)])
    vertex = classical.tetrahedron_vertices()[1]
    assert abs(_score(monkeypatch, classical.gisin_scheme_fidelity, m) - 0.964167762229614) < 1e-12
    assert abs(0.964167762229614 - (1 + vertex @ m) / 2) < 1e-12
    # north pole is vertex 0; the antipode sits at -1/3 from vertices 1..3
    assert _score(monkeypatch, classical.gisin_scheme_fidelity, [0.0, 0.0, 1.0]) == 1.0
    assert abs(_score(monkeypatch, classical.gisin_scheme_fidelity, [0.0, 0.0, -1.0]) - 2 / 3) < 1e-15


def test_trial_fidelity_peaks_on_vertices(monkeypatch):
    for vertex in classical.tetrahedron_vertices():
        score = _score(monkeypatch, classical.gisin_scheme_fidelity, vertex)
        assert abs(score - 1.0) < 1e-12


def test_gisin_analytic_value():
    assert abs(classical.gisin_fidelity_analytic() - GISIN_ANALYTIC) < 1e-15
    assert round(classical.gisin_fidelity_analytic(), 2) == 0.87


def test_gisin_monte_carlo_converges_to_the_analytic_value():
    est = classical.gisin_scheme_fidelity(150_000, seed=31)
    assert abs(est.value - GISIN_ANALYTIC) <= 4 * est.stderr
    assert est.stderr < 1e-3
    again = classical.gisin_scheme_fidelity(150_000, seed=31)
    assert est == again


def test_z_scheme_expected_fidelity(monkeypatch):
    # per input the score is (1 + m_z^2)/2, averaged over the spin-z outcome
    assert abs(_score(monkeypatch, classical.z_scheme_fidelity, [0.75**0.5, 0.0, 0.5]) - 0.625) < 1e-15
    assert abs(_score(monkeypatch, classical.z_scheme_fidelity, [0.0, 0.0, -1.0]) - 1.0) < 1e-15
    assert abs(_score(monkeypatch, classical.z_scheme_fidelity, [0.0, 1.0, 0.0]) - 0.5) < 1e-15


def test_z_scheme_monte_carlo_converges_to_two_thirds():
    est = classical.z_scheme_fidelity(150_000, seed=33)
    assert abs(est.value - 2 / 3) <= 4 * est.stderr
    # z is uniform on [-1, 1], so the score (1 + z^2)/2 has variance (1/5 - 1/9)/4 = 1/45 and
    # kurtosis 15/7: at 200000 samples a sample standard deviation spreads about 0.12%
    for seed in range(5):
        est = classical.z_scheme_fidelity(200_000, seed)
        assert abs(est.stderr / math.sqrt(1 / (45 * 200_000)) - 1) <= 6e-3


def test_sample_count_validation():
    with pytest.raises(ValueError):
        classical.gisin_scheme_fidelity(0, seed=0)
    with pytest.raises(ValueError):
        classical.z_scheme_fidelity(0, seed=0)
