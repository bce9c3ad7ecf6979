"""Teleportation statistics, Bell-type tests, and local hidden variable baselines.

The package splits into small focused modules:

``qcore``
    States, operators, and linear algebra helpers shared by everything else.
``teleport``
    The teleportation protocol, its reduction to a four-element POVM on the
    sender's qubit, and Monte Carlo fidelity estimates.
``bellcheck``
    CH-type correlation tests built from the teleportation statistics,
    closed forms on the singlet-fraction family, and the CHSH criterion.
``lhv``
    A local hidden variable model that reproduces the teleportation
    statistics up to singlet fraction one half.
``hardytoy``
    An exact discrete analogue of teleportation with four hidden states.
``classical``
    Classical baselines: measuring the unknown ket along z, and a sender who
    knows the state's Bloch vector and sends the nearest tetrahedron vertex.
``cli``
    The ``telelocal`` command line front end.
"""

from . import bellcheck, classical, estimates, hardytoy, lhv, qcore, teleport

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "bellcheck",
    "classical",
    "estimates",
    "hardytoy",
    "lhv",
    "qcore",
    "teleport",
]
