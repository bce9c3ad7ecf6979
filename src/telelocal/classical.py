"""Classical measure-and-prepare baselines for teleporting an unknown qubit.

Both schemes let the sender measure the unknown ket directly and send a
classical message. The z scheme measures spin-z and prepares the
corresponding pole, averaging to fidelity 2/3. The tetrahedron scheme
measures the four-outcome POVM built from a regular tetrahedron of Bloch
vectors and prepares the region's vertex, averaging to

    1/2 + sqrt(3/2) arctan(sqrt(2)) / pi  ~  0.8724

which is the best known classical strategy of this type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .estimates import MonteCarloEstimate, run_chunks

_CHUNK = 250_000


@dataclass(frozen=True)
class Tetrahedron:
    """Four unit Bloch vectors with pairwise dot product -1/3."""

    vertices: np.ndarray  # shape (4, 3)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (4, 3):
            raise ValueError("expected four three-component vertices")
        norms = np.linalg.norm(v, axis=1)
        if np.abs(norms - 1.0).max() > qcore.ATOL_STRUCTURAL:
            raise ValueError("vertices must be unit vectors")
        gram = v @ v.T
        off = gram[~np.eye(4, dtype=bool)]
        if np.abs(off + 1 / 3).max() > qcore.ATOL_STRUCTURAL:
            raise ValueError("pairwise vertex dot products must equal -1/3")
        object.__setattr__(self, "vertices", v)


def tetrahedron_vertices() -> Tetrahedron:
    """Canonical orientation with one vertex at the north pole."""
    r = 2 * math.sqrt(2) / 3
    return Tetrahedron(
        vertices=np.array(
            [
                [0.0, 0.0, 1.0],
                [r, 0.0, -1 / 3],
                [-r / 2, math.sqrt(2 / 3), -1 / 3],
                [-r / 2, -math.sqrt(2 / 3), -1 / 3],
            ]
        )
    )


def region_index(m, tetrahedron: Tetrahedron | None = None) -> int:
    """Index of the vertex nearest to the unit Bloch vector m, lowest index on ties."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    qcore._require_unit_vector(m, "Bloch vector")
    tet = tetrahedron_vertices() if tetrahedron is None else tetrahedron
    return int(np.argmax(tet.vertices @ m))


def gisin_trial_fidelity(m, tetrahedron: Tetrahedron | None = None) -> float:
    """Fidelity (1 + m . v)/2 of the vertex v prepared for the region of m."""
    tet = tetrahedron_vertices() if tetrahedron is None else tetrahedron
    idx = region_index(m, tet)
    return float((1.0 + tet.vertices[idx] @ np.asarray(m, dtype=float)) / 2)


def gisin_scheme_fidelity(
    samples: int, seed: int, tetrahedron: Tetrahedron | None = None
) -> MonteCarloEstimate:
    """Monte Carlo average fidelity of the tetrahedron scheme over uniform m."""
    tet = tetrahedron_vertices() if tetrahedron is None else tetrahedron

    def chunk(rng, n):
        dots = qcore.random_bloch_vectors(rng, n) @ tet.vertices.T
        return (1.0 + dots[np.arange(n), np.argmax(dots, axis=1)]) / 2

    return run_chunks(chunk, samples, seed, _CHUNK).scalar_estimate()


def gisin_fidelity_analytic() -> float:
    """Closed form 1/2 + sqrt(3/2) arctan(sqrt(2)) / pi."""
    return 0.5 + math.sqrt(1.5) * math.atan(math.sqrt(2)) / math.pi


def z_scheme_expected_fidelity(m_z: float) -> float:
    """Expected fidelity (1 + m_z^2)/2 of the z scheme for a fixed input."""
    if not -1.0 <= m_z <= 1.0:
        raise ValueError("m_z must lie in [-1, 1]")
    return (1.0 + m_z * m_z) / 2


def z_scheme_fidelity(samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo average of the z scheme over uniform m; converges to 2/3."""

    def chunk(rng, n):
        return (1.0 + np.square(qcore.random_bloch_vectors(rng, n)[:, 2])) / 2

    return run_chunks(chunk, samples, seed, _CHUNK).scalar_estimate()
