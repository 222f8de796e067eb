"""Textbook formulas the package is checked against."""

import numpy as np


def transfer_matrix(es, t):
    """U(t) = V exp(-i lambda t) V^dagger; u[r-1, j-1] is the amplitude from guide j to r."""
    v = es.eigenvectors
    return (v * np.exp(-1j * es.eigenvalues * float(t))[None, :]) @ v.conj().T
