"""Coupling matrices for each loop topology and their eigensystems.

Two closed-form families cover the devices of interest: open chains with
uniform nearest-neighbour coupling (tridiagonal Toeplitz, used by the
cylinder and Moebius topologies) and translation-invariant rings
(symmetric circulants, used by the twisted circle).  Both have textbook
spectra which are emitted directly.  Any other real symmetric coupling
(a ``custom`` device) is diagonalised numerically by LAPACK, which is
also the reference the closed forms are checked against in the tests.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ConfigError,
    CouplingMatrix,
    DeviceConfig,
    EigenSystem,
    NumericError,
    _circulant_symmetry_violations,
)

# ---- builders ----------------------------------------------------------


def build_tridiagonal(n_modes: int, omega: float = 0.0, g: float = 1.0) -> CouplingMatrix:
    """Open chain: omega on the diagonal, g on the two off-diagonals."""
    if n_modes < 1:
        raise ConfigError(f"n_modes must be >= 1, got {n_modes}")
    m = np.zeros((n_modes, n_modes))
    np.fill_diagonal(m, float(omega))
    idx = np.arange(n_modes - 1)
    m[idx, idx + 1] = float(g)
    m[idx + 1, idx] = float(g)
    return CouplingMatrix(n_modes, m)


def build_circulant(n_modes: int, g_vector) -> CouplingMatrix:
    """Ring coupling: row r is g_vector cyclically right-shifted by r - 1.

    Symmetry of the resulting matrix requires g_j == g_{N-j+2} for
    j > N/2 + 1 (1-based); the test is exact equality, not a tolerance.
    """
    g = np.asarray(g_vector, dtype=float)
    if n_modes < 1 or g.shape != (n_modes,):
        raise ConfigError(
            f"g_vector must have exactly n_modes={n_modes} entries, got shape {g.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise ConfigError("g_vector entries must be finite")
    bad = _circulant_symmetry_violations(g)
    if bad:
        pairs = ", ".join(f"g_{j} != g_{n_modes - j + 2}" for j in bad)
        raise ConfigError(f"circulant symmetry violated: {pairs}")
    # m[i, j] = g[(j - i) mod N], 0-based form of the row-shift rule
    i, j = np.indices((n_modes, n_modes))
    m = g[(j - i) % n_modes]
    return CouplingMatrix(n_modes, m)


# ---- closed-form eigensystems -------------------------------------------


def eigen_tridiagonal(n_modes: int, omega: float = 0.0, g: float = 1.0) -> EigenSystem:
    """Analytic spectrum of the uniform open chain.

    lambda_j = omega + 2 g cos(j pi / (N+1)), with sine-profile modes
    v_{k,j} = sqrt(2/(N+1)) sin(j k pi / (N+1)).  Modes are returned in
    this natural order j = 1..N, not sorted.
    """
    if n_modes < 1:
        raise ConfigError(f"n_modes must be >= 1, got {n_modes}")
    n = n_modes
    j = np.arange(1, n + 1, dtype=float)
    lam = omega + 2.0 * g * np.cos(j * np.pi / (n + 1))
    k = np.arange(1, n + 1, dtype=float)
    v = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, j) * np.pi / (n + 1))
    return EigenSystem(lam, v.astype(complex))


def eigen_circulant(n_modes: int, g_vector) -> EigenSystem:
    """Analytic spectrum of a symmetric circulant: a discrete Fourier basis.

    lambda_j = sum_k g_k exp(+2 pi i (j-1)(k-1) / N); the symmetry
    constraint makes these sums real.  Mode j has entries
    v_{k,j} = exp(-2 pi i (j-1)(k-1) / N) / sqrt(N).
    """
    build_circulant(n_modes, g_vector)  # reuse the symmetry validation
    n = n_modes
    g = np.asarray(g_vector, dtype=float)
    grid = np.outer(np.arange(n), np.arange(n))
    phase = np.exp(2j * np.pi * grid / n)
    lam_c = phase @ g
    imag = float(np.max(np.abs(lam_c.imag)))
    scale = max(1.0, float(np.max(np.abs(lam_c))))
    if imag > 1e-12 * scale:
        raise NumericError(
            f"circulant eigenvalues came out complex (residual {imag:.3e}); "
            "the coupling vector is not symmetric",
            residual=imag,
        )
    v = phase.conj() / np.sqrt(n)
    return EigenSystem(lam_c.real, v)


# ---- numeric eigensolver -------------------------------------------------


def eigen_numeric(coupling) -> EigenSystem:
    """Diagonalise a real symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues are returned in ascending order with matching (real,
    orthonormal) columns.  Raises ConfigError for a matrix that is not
    square or not exactly symmetric, and NumericError if LAPACK fails to
    converge.
    """
    g = coupling.g if isinstance(coupling, CouplingMatrix) else np.asarray(coupling, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {g.shape}")
    if not np.array_equal(g, g.T):
        raise ConfigError("numeric eigensolver requires an exactly symmetric matrix")
    try:
        lam, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver did not converge: {exc}") from None
    return EigenSystem(lam, v.astype(complex))


# ---- device dispatch -----------------------------------------------------


def coupling_for(cfg: DeviceConfig) -> CouplingMatrix:
    """The coupling matrix a device's topology implies.

    cylinder and moebius use the uniform open chain with unit
    nearest-neighbour rate (times are measured in that rate), the twist
    only changes the transit permutation, never the local couplings.
    """
    if cfg.topology in ("cylinder", "moebius"):
        return build_tridiagonal(cfg.n_modes, omega=cfg.omega, g=1.0)
    if cfg.topology == "twisted_circle":
        g = list(cfg.g_vector)
        if cfg.omega:
            g[0] = g[0] + cfg.omega
        return build_circulant(cfg.n_modes, g)
    return CouplingMatrix(cfg.n_modes, cfg.custom_g)


def eigensystem_for(cfg: DeviceConfig) -> EigenSystem:
    """Closed-form eigensystem where one exists, numeric (LAPACK) otherwise."""
    if cfg.topology in ("cylinder", "moebius"):
        return eigen_tridiagonal(cfg.n_modes, omega=cfg.omega, g=1.0)
    if cfg.topology == "twisted_circle":
        return eigen_circulant(cfg.n_modes, coupling_for(cfg).g[0, :])
    return eigen_numeric(coupling_for(cfg))
