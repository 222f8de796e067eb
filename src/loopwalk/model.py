"""Core domain types for looped waveguide-array quantum walk devices.

Conventions shared by every module in the package:

* Waveguide (mode) indices are 1-based in public interfaces, matching the
  labelling used on device schematics.  Implementations convert to 0-based
  array offsets internally.
* Coupler angles are per guide, in radians, restricted to [0, pi/2].
* Times are dimensionless, in units of the inverse nearest-neighbour
  coupling rate.  Physical time bases live in :mod:`loopwalk.feasibility`.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TOPOLOGIES = ("cylinder", "moebius", "twisted_circle", "custom")


class ConfigError(ValueError):
    """A device or run configuration violates the contract."""


class UnsupportedConfigError(ConfigError):
    """A valid device that the requested code path does not support."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge.

    The final residual, when known, is carried in ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---- coupling matrices -------------------------------------------------


@dataclass(frozen=True)
class CouplingMatrix:
    """Real symmetric matrix of inter-guide coupling rates.

    ``g[n, m]`` is the rate at which light hops between guides ``n+1`` and
    ``m+1``; the diagonal holds common mode-frequency offsets.  Symmetry is
    required exactly (bitwise), not to a tolerance: builders construct the
    matrix symmetrically and anything else indicates a bug upstream.
    """

    n_modes: int
    g: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n_modes, int) or self.n_modes < 1:
            raise ConfigError(f"n_modes must be a positive integer, got {self.n_modes!r}")
        g = np.array(self.g, dtype=float)
        if g.shape != (self.n_modes, self.n_modes):
            raise ConfigError(
                f"coupling matrix shape {g.shape} does not match n_modes={self.n_modes}"
            )
        if not np.all(np.isfinite(g)):
            raise ConfigError("coupling matrix entries must be finite")
        if not np.array_equal(g, g.T):
            raise ConfigError("coupling matrix must be exactly symmetric")
        object.__setattr__(self, "g", _readonly(g))


# ---- permutations ------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """Bijection on 1-based mode indices; ``mapping[j-1]`` is p(j)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(v) for v in self.mapping)
        if sorted(m) != list(range(1, len(m) + 1)):
            raise ConfigError(f"not a permutation of 1..{len(m)}: {m}")
        object.__setattr__(self, "mapping", m)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def mirror(cls, n: int) -> "Permutation":
        """Reversal p(j) = n + 1 - j (a half-twist of the loop)."""
        return cls(tuple(n + 1 - j for j in range(1, n + 1)))

    @classmethod
    def cyclic(cls, n: int, c: int) -> "Permutation":
        """Shift p(j) = ((j - 1 + c) mod n) + 1."""
        return cls(tuple((j - 1 + c) % n + 1 for j in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ValueError(f"mode index {j} out of range 1..{self.n}")
        return self.mapping[j - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j, pj in enumerate(self.mapping, start=1):
            inv[pj - 1] = j
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return self.mapping == tuple(range(1, self.n + 1))

    def zero_based(self) -> np.ndarray:
        """Return p as a 0-based index array: out[j] = p(j+1) - 1."""
        return np.array(self.mapping, dtype=int) - 1

    def matrix(self) -> np.ndarray:
        """Dense matrix M with M e_k = e_{p(k)} (columns move to images)."""
        mat = np.zeros((self.n, self.n))
        mat[self.zero_based(), np.arange(self.n)] = 1.0
        return mat


# ---- eigensystems ------------------------------------------------------

_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a coupling matrix.

    Column ``k`` of ``eigenvectors`` is the k-th normal mode with frequency
    ``eigenvalues[k]``.  No eigenvalue ordering is promised; closed-form
    constructors keep their natural analytic order, the numeric solver
    sorts ascending.  Consumers must not assume either.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        v = np.array(self.eigenvectors, dtype=complex)
        n = lam.shape[0] if lam.ndim == 1 else -1
        if lam.ndim != 1 or v.shape != (n, n):
            raise ValueError(
                f"inconsistent eigensystem shapes {lam.shape} / {v.shape}"
            )
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(v))):
            raise ValueError("eigensystem entries must be finite")
        err = np.max(np.abs(v.conj().T @ v - np.eye(n)))
        if err > _UNITARITY_TOL:
            raise ValueError(f"eigenvector matrix not unitary: residual {err:.3e}")
        object.__setattr__(self, "eigenvalues", _readonly(lam))
        object.__setattr__(self, "eigenvectors", _readonly(v))

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """V diag(lambda) V^dagger."""
        v = self.eigenvectors
        return (v * self.eigenvalues[None, :]) @ v.conj().T

    def reconstruction_error(self, coupling: "CouplingMatrix | np.ndarray") -> float:
        g = coupling.g if isinstance(coupling, CouplingMatrix) else np.asarray(coupling)
        return float(np.max(np.abs(self.reconstruct() - g)))

    def to_dict(self) -> dict:
        v = self.eigenvectors
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors_re": v.real.tolist(),
            "eigenvectors_im": v.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EigenSystem":
        v = np.array(d["eigenvectors_re"], dtype=float) + 1j * np.array(
            d["eigenvectors_im"], dtype=float
        )
        return cls(np.array(d["eigenvalues"], dtype=float), v)


# ---- device configuration ----------------------------------------------

_DEVICE_KEYS = {
    "topology",
    "n_modes",
    "theta",
    "tau",
    "omega",
    "shift_c",
    "g_vector",
    "custom_G",
    "custom_perm",
}


def uniform_angle(theta) -> float:
    """The one coupler angle of ``theta`` (a scalar or one per guide).

    Closed-form correlation expressions assume one angle for the whole
    coupler bank, so paths that need it call this rather than taking
    theta[0] silently; differing angles raise UnsupportedConfigError.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.size == 0 or not np.all(th == th[0]):
        raise UnsupportedConfigError(
            f"closed-form expressions require a uniform coupler angle, got {theta!r}"
        )
    return float(th[0])


@dataclass(frozen=True)
class DeviceConfig:
    """Complete description of one looped-array experiment.

    ``theta`` may be given as a scalar (broadcast to every guide) or as a
    per-guide sequence; it is stored per guide.  Construction only
    normalises shapes; physics-level checks are reported by
    :func:`validate_device` so that invalid configurations can be
    inspected as data rather than exceptions.
    """

    topology: str
    n_modes: int
    theta: float | Sequence[float]
    tau: float = 1.0
    omega: float = 0.0
    shift_c: int | None = None
    g_vector: tuple[float, ...] | None = None
    custom_g: np.ndarray | None = None
    custom_perm: tuple[int, ...] | None = None

    def __post_init__(self):
        th = self.theta
        if np.isscalar(th):
            th = (float(th),) * int(self.n_modes)
        else:
            th = tuple(float(t) for t in th)
        object.__setattr__(self, "theta", th)
        if self.g_vector is not None:
            object.__setattr__(self, "g_vector", tuple(float(g) for g in self.g_vector))
        if self.custom_g is not None:
            g = np.array(self.custom_g, dtype=float)
            if g.ndim == 1 and g.size == self.n_modes**2:
                g = g.reshape(self.n_modes, self.n_modes)
            object.__setattr__(self, "custom_g", _readonly(g))
        if self.custom_perm is not None:
            object.__setattr__(
                self, "custom_perm", tuple(int(v) for v in self.custom_perm)
            )

    # -- JSON round trip --

    def to_json_dict(self) -> dict:
        th = self.theta
        theta_out = th[0] if len(set(th)) == 1 else list(th)
        d: dict = {
            "topology": self.topology,
            "n_modes": self.n_modes,
            "theta": theta_out,
            "tau": self.tau,
            "omega": self.omega,
        }
        if self.shift_c is not None:
            d["shift_c"] = self.shift_c
        if self.g_vector is not None:
            d["g_vector"] = list(self.g_vector)
        if self.custom_g is not None:
            d["custom_G"] = [float(x) for x in self.custom_g.ravel()]
        if self.custom_perm is not None:
            d["custom_perm"] = list(self.custom_perm)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "DeviceConfig":
        unknown = set(d) - _DEVICE_KEYS
        if unknown:
            raise ConfigError(f"unknown device config keys: {sorted(unknown)}")
        for key in ("topology", "n_modes", "theta"):
            if key not in d:
                raise ConfigError(f"device config missing required key {key!r}")
        try:
            n = int(d["n_modes"])
        except (TypeError, ValueError):
            raise ConfigError(f"n_modes must be an integer, got {d['n_modes']!r}")
        return cls(
            topology=str(d["topology"]),
            n_modes=n,
            theta=d["theta"],
            tau=float(d.get("tau", 1.0)),
            omega=float(d.get("omega", 0.0)),
            shift_c=None if d.get("shift_c") is None else int(d["shift_c"]),
            g_vector=d.get("g_vector"),
            custom_g=d.get("custom_G"),
            custom_perm=d.get("custom_perm"),
        )

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "DeviceConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"device config is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("device config JSON must be an object")
        return cls.from_json_dict(d)


def _circulant_symmetry_violations(g_vector: Sequence[float]) -> list[int]:
    """1-based positions j > N/2 + 1 where g_j != g_{N-j+2} (exact test)."""
    g = list(g_vector)
    n = len(g)
    bad = []
    for j in range(int(n / 2 + 1) + 1, n + 1):
        if g[j - 1] != g[n - j + 1]:
            bad.append(j)
    return bad


def coupler_angle_ok(theta: float) -> bool:
    """A coupler angle is usable when finite and within [0, pi/2]."""
    return math.isfinite(theta) and 0.0 <= theta <= math.pi / 2


def validate_device(cfg: DeviceConfig) -> list[str]:
    """Check a device against its invariants; violations come back as data.

    An empty list means the configuration is usable by every code path
    appropriate to its topology.
    """
    v: list[str] = []
    if cfg.topology not in TOPOLOGIES:
        v.append(f"unknown topology {cfg.topology!r}; expected one of {TOPOLOGIES}")
    if not isinstance(cfg.n_modes, int) or cfg.n_modes < 1:
        v.append(f"n_modes must be a positive integer, got {cfg.n_modes!r}")
        return v  # nothing below is meaningful without a mode count

    th = cfg.theta
    if len(th) != cfg.n_modes:
        v.append(f"theta has {len(th)} entries for {cfg.n_modes} guides")
    for i, t in enumerate(th, start=1):
        if not coupler_angle_ok(t):
            v.append(f"coupler angle theta[{i}] = {t!r} outside [0, pi/2]")
    if not (math.isfinite(cfg.tau) and cfg.tau > 0.0):
        v.append(f"tau must be positive and finite, got {cfg.tau!r}")
    if not math.isfinite(cfg.omega):
        v.append(f"omega must be finite, got {cfg.omega!r}")

    if cfg.topology == "twisted_circle":
        if cfg.shift_c is None:
            v.append("twisted_circle requires shift_c")
        elif not 0 <= cfg.shift_c < cfg.n_modes:
            v.append(f"shift_c = {cfg.shift_c} outside 0..{cfg.n_modes - 1}")
        if cfg.g_vector is None:
            v.append("twisted_circle requires g_vector")
        else:
            if len(cfg.g_vector) != cfg.n_modes:
                v.append(
                    f"g_vector has {len(cfg.g_vector)} entries for {cfg.n_modes} modes"
                )
            elif not all(math.isfinite(g) for g in cfg.g_vector):
                v.append("g_vector entries must be finite")
            else:
                for j in _circulant_symmetry_violations(cfg.g_vector):
                    n = cfg.n_modes
                    v.append(
                        f"circulant symmetry violated: g_{j} != g_{n - j + 2} "
                        "(the coupling matrix would not be symmetric)"
                    )

    if cfg.topology == "custom":
        if cfg.custom_g is None:
            v.append("custom topology requires custom_G")
        else:
            g = cfg.custom_g
            if g.shape != (cfg.n_modes, cfg.n_modes):
                v.append(f"custom_G shape {g.shape} does not match n_modes={cfg.n_modes}")
            else:
                if not np.all(np.isfinite(g)):
                    v.append("custom_G entries must be finite")
                if not np.array_equal(g, g.T):
                    v.append("custom_G must be exactly symmetric")
        if cfg.custom_perm is None:
            v.append("custom topology requires custom_perm")
        elif sorted(cfg.custom_perm) != list(range(1, cfg.n_modes + 1)):
            v.append(f"custom_perm is not a permutation of 1..{cfg.n_modes}")

    return v


def permutation_for(cfg: DeviceConfig) -> Permutation:
    """The single-transit mode relabelling performed by the loop.

    cylinder: identity.  moebius: index reversal from the half twist.
    twisted_circle: cyclic shift by ``shift_c``.  custom: as configured.
    """
    n = cfg.n_modes
    if cfg.topology == "cylinder":
        return Permutation.identity(n)
    if cfg.topology == "moebius":
        return Permutation.mirror(n)
    if cfg.topology == "twisted_circle":
        c = cfg.shift_c
        if c is None or not 0 <= c < n:
            raise ConfigError(f"twisted_circle needs shift_c in 0..{n - 1}, got {c!r}")
        return Permutation.cyclic(n, c)
    if cfg.topology == "custom":
        if cfg.custom_perm is None:
            raise ConfigError("custom topology requires custom_perm")
        return Permutation(cfg.custom_perm)
    raise ConfigError(f"unknown topology {cfg.topology!r}")


# ---- correlation matrices ----------------------------------------------


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-photon coincidence (or classical intensity) probabilities.

    ``values[r-1, s-1]`` is the probability for the detector pair (r, s);
    the matrix is symmetric and non-negative by construction.  ``step`` is
    the transit count n of the later photon, ``delay`` the injection delay
    of the second photon in transits.  ``rescaled`` records whether the
    per-transit coupler survival prefactor was divided out.
    """

    values: np.ndarray
    step: int
    delay: int
    inputs: tuple[int, int]
    kind: str
    rescaled: bool

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {vals.shape}")
        if not np.array_equal(vals, vals.T):
            raise ValueError("correlation matrix must be exactly symmetric")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("correlation entries must be finite and non-negative")
        if self.kind not in ("quantum", "classical"):
            raise ValueError(f"kind must be quantum or classical, got {self.kind!r}")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "inputs", (int(self.inputs[0]), int(self.inputs[1])))

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "step": self.step,
            "delay": self.delay,
            "inputs": list(self.inputs),
            "kind": self.kind,
            "rescaled": self.rescaled,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorrelationMatrix":
        return cls(
            values=np.array(d["values"], dtype=float),
            step=int(d["step"]),
            delay=int(d["delay"]),
            inputs=(int(d["inputs"][0]), int(d["inputs"][1])),
            kind=str(d["kind"]),
            rescaled=bool(d["rescaled"]),
        )
