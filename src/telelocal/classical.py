"""Classical baselines for sending a qubit with a two-bit message.

The z scheme is measure-and-prepare on the unknown ket: the sender
measures spin-z and the receiver prepares the pole found. Each sample
scores the fidelity (1 + m_z^2)/2 expected over that outcome, which
averages to 2/3 over uniform Bloch vectors m. The tetrahedron scheme
takes the argmax of v . m over the vertices v of a regular tetrahedron,
using the input's known Bloch vector m rather than a measurement of the
ket, and the receiver prepares that vertex. It averages to

    1/2 + sqrt(3/2) arctan(sqrt(2)) / pi  ~  0.8724

the value of a sender who knows the state (Gisin, PLA 210, 157, 1996).
"""

from __future__ import annotations

import math

import numpy as np

from . import qcore
from .estimates import CHUNK, MonteCarloEstimate, run_chunks

# each scheme's rows per chunk; perfbench/machine.working_set and tests/test_blocks.py read and patch it
_CHUNK = CHUNK


def tetrahedron_vertices() -> np.ndarray:
    """The four unit vertices, shape (4, 3), one at the north pole; pairwise dot products are -1/3."""
    r = 2 * math.sqrt(2) / 3
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [r, 0.0, -1 / 3],
            [-r / 2, math.sqrt(2 / 3), -1 / 3],
            [-r / 2, -math.sqrt(2 / 3), -1 / 3],
        ]
    )


def gisin_scheme_fidelity(samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo average fidelity of the tetrahedron scheme over uniform m."""
    vertices = tetrahedron_vertices()

    def chunk(states, coins, rows):
        # component-major: one row of samples per vertex after the sampler's six rows
        dots = np.matmul(vertices, qcore.random_bloch_vectors(states, rows.shape[1], rows[:6]).T, out=rows[6:10])
        scores = np.max(dots, axis=0, out=rows[0])
        scores += 1.0
        scores /= 2
        return (scores,)

    return run_chunks(chunk, samples, seed, _CHUNK).scalar_estimate()


def gisin_fidelity_analytic() -> float:
    """Closed form 1/2 + sqrt(3/2) arctan(sqrt(2)) / pi."""
    return 0.5 + math.sqrt(1.5) * math.atan(math.sqrt(2)) / math.pi


def z_scheme_fidelity(samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo average of the z scheme over uniform m; converges to 2/3."""

    def chunk(states, coins, rows):
        # only m_z is scored, so each pair (u, v) gives only z = 2u - 1
        scores = qcore.random_bloch_z(states, rows.shape[1], rows[:3])
        np.square(scores, out=scores)
        scores += 1.0
        scores /= 2
        return (scores,)

    return run_chunks(chunk, samples, seed, _CHUNK).scalar_estimate()
