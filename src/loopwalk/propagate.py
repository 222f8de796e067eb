"""Single-photon transfer matrices and mode relabelling utilities.

Free evolution between coupler passes is diagonal in the normal-mode
basis, so the amplitude transfer matrix is assembled spectrally:
U(t) = V exp(-i lambda t) V^dagger.  Because the coupling matrix is real
symmetric, U(t) is symmetric as well as unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EigenSystem, Permutation, _readonly


@dataclass(frozen=True)
class TransferMatrix:
    """Unitary amplitude map over one or more transits; u[r-1, j-1] is the
    amplitude to reach guide r from guide j."""

    t: float
    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"transfer matrix must be square, got {u.shape}")
        object.__setattr__(self, "u", _readonly(u))

    @property
    def n(self) -> int:
        return self.u.shape[0]


def transfer_matrix(es: EigenSystem, t: float) -> TransferMatrix:
    """U(t) = V exp(-i lambda t) V^dagger from a precomputed eigensystem."""
    v = es.eigenvectors
    phases = np.exp(-1j * es.eigenvalues * float(t))
    u = (v * phases[None, :]) @ v.conj().T
    return TransferMatrix(float(t), u)


def cycle_lengths(p: Permutation) -> list[int]:
    """Entry j - 1 is the length of the cycle of p through guide j."""
    lengths = [0] * p.n
    for start in range(p.n):
        if not lengths[start]:
            cycle = [start]
            while p.mapping[cycle[-1]] - 1 != start:
                cycle.append(p.mapping[cycle[-1]] - 1)
            for idx in cycle:
                lengths[idx] = len(cycle)
    return lengths


def order(p: Permutation) -> int:
    """Smallest m >= 1 with p^m the identity: the lcm of the cycle lengths."""
    return math.lcm(*cycle_lengths(p))


def permute_modes(m: np.ndarray, p: Permutation, side: str = "both") -> np.ndarray:
    """Relabel matrix indices by a permutation.

    With ``side="both"`` the result satisfies out[r-1, s-1] =
    m[pinv(r)-1, pinv(s)-1]: entry values travel from old labels to their
    images under p.  ``"rows"`` and ``"cols"`` relabel one axis only.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != p.n:
        raise ValueError(
            f"matrix shape {m.shape} does not match permutation on {p.n} modes"
        )
    inv = p.inverse().zero_based()
    if side == "both":
        return m[np.ix_(inv, inv)]
    if side == "rows":
        return m[inv, :]
    if side == "cols":
        return m[:, inv]
    raise ValueError(f"side must be 'both', 'rows' or 'cols', got {side!r}")
