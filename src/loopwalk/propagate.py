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


def _cycles(p: Permutation) -> list[list[int]]:
    """The cycles of p as lists of 0-based indices, each in the order p
    visits them."""
    mapping = p.mapping
    seen = [False] * p.n
    cycles = []
    for start in range(p.n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = mapping[start] - 1
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = mapping[nxt] - 1
        cycles.append(cycle)
    return cycles


def order(p: Permutation) -> int:
    """Smallest m >= 1 with p^m the identity: the lcm of the cycle lengths.

    compose(p, n) depends only on n mod order(p).
    """
    return math.lcm(*(len(cycle) for cycle in _cycles(p)))


def compose(p: Permutation, n: int) -> Permutation:
    """p applied n times; negative n composes the inverse, n = 0 is identity.

    Walks each cycle of p once: on a cycle of length L, p^n moves every
    element n mod L places along it, so the cost is O(N) for any n.
    """
    n = int(n)
    out = [0] * p.n
    for cycle in _cycles(p):
        length = len(cycle)
        shift = n % length  # Python's modulo is non-negative, so n < 0 runs backwards
        for pos, idx in enumerate(cycle):
            out[idx] = cycle[(pos + shift) % length] + 1
    return Permutation(tuple(out))


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
