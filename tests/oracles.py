"""Exact reference formulas that the tests compare the package against."""

import numpy as np


def fidelity(chi, m) -> float:
    """<chi|M|chi> for a ket chi and an operator M."""
    chi = np.asarray(chi, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if m.shape != (chi.shape[0], chi.shape[0]):
        raise ValueError(f"operator shape {m.shape} does not match ket dimension {chi.shape[0]}")
    return float(np.vdot(chi, m @ chi).real)
