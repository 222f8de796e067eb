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
import numbers
import os
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, UnsupportedConfigError  # noqa: F401 (re-exported)

TOPOLOGIES = ("cylinder", "moebius", "twisted_circle", "custom")


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


# ---- JSON records ------------------------------------------------------


def json_object(text: str, what: str) -> dict:
    """``text`` parsed as a JSON object; anything else is a ConfigError
    naming ``what``."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} JSON is not valid: {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"{what} JSON must be an object")
    return d


def record_from_dict(cls, d: dict, what: str, json_names: dict):
    """The dataclass ``cls`` built from the JSON object ``d``.

    A field's key is ``json_names.get(name, name)``.  A field without a
    default is required, any other may be left out (a null in one whose
    default is None is the same as leaving it out); unknown and missing
    keys are refused with a ConfigError naming ``what`` and the keys, and
    the values are left to ``cls`` to check.
    """
    by_key = {json_names.get(f.name, f.name): f for f in fields(cls)}
    unknown = set(d) - set(by_key)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [k for k, f in by_key.items() if f.default is MISSING and k not in d]
    if missing:
        raise ConfigError(f"missing {what} keys: {sorted(missing)}")
    return cls(**{by_key[k].name: v for k, v in d.items()})


# ---- device configuration ----------------------------------------------


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


def as_int(value) -> int:
    """``value`` as an int; a float, string, bool or None is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """``value`` as a float; a string, bool or None is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


_LISTS = (list, tuple, np.ndarray)


def _each(convert, values) -> tuple:
    if not isinstance(values, _LISTS):
        raise TypeError(f"expected a list, got {values!r}")
    return tuple(convert(v) for v in values)


def _float_matrix(value, n: int) -> np.ndarray:
    g = np.asarray(value)
    if g.ndim == 0 or g.dtype.kind not in "iuf":
        raise TypeError("expected a list of numbers")
    g = g.astype(float)
    if g.ndim == 1 and g.size == n**2:
        g = g.reshape(n, n)
    return _readonly(g)


def physical_memory_bytes() -> int:
    """The host's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(need: int, who: str, what: str, error: type) -> None:
    """Raise ``error`` when ``need`` bytes, which ``who`` needs for ``what``,
    exceed the host's physical memory."""
    avail = physical_memory_bytes()
    if need > avail:
        raise error(
            f"{who} {need / 1e9:.1f} GB for {what}, "
            f"more than the {avail / 1e9:.1f} GB of physical memory"
        )


# tracemalloc peak of eigensystem_for, in N x N complex matrices, at
# N = 128..512: 4.5 for a chain, 5.0 for a custom coupling, 6.0 for a ring
_EIGENSYSTEM_MATRICES = 6


def mode_count_check(n_modes: int) -> None:
    """Refuse a positive ``n_modes`` whose eigensystem exceeds physical memory.

    Raises ConfigError before anything is sized by the mode count; a count
    below one is left to the device's own check.
    """
    if n_modes > 0:
        need = _EIGENSYSTEM_MATRICES * n_modes**2 * np.dtype(complex).itemsize
        require_memory(need, f"N = {n_modes} needs", "its eigensystem", ConfigError)


def _mode_count(value) -> int:
    n = as_int(value)
    mode_count_check(n)
    return n


# How each field is converted, in field order: n_modes before theta, since
# a scalar theta is broadcast over it (over one guide when n_modes < 1,
# which is refused later, so a huge negative count cannot overflow the
# broadcast, and a count too large for memory is refused before it).
_CONVERTERS = {
    "n_modes": lambda v, n: _mode_count(v),
    "theta": lambda v, n: (
        _each(as_float, v) if isinstance(v, _LISTS) else (as_float(v),) * max(n, 1)
    ),
    "tau": lambda v, n: as_float(v),
    "omega": lambda v, n: as_float(v),
    "shift_c": lambda v, n: as_int(v),
    "g_vector": lambda v, n: _each(as_float, v),
    "custom_g": _float_matrix,
    "custom_perm": lambda v, n: _each(as_int, v),
}
# a field's JSON key where it differs from the field's name
_JSON_NAMES = {"custom_g": "custom_G"}
# the one topology that reads each topology-specific field
_READ_BY = {
    "shift_c": "twisted_circle",
    "g_vector": "twisted_circle",
    "custom_g": "custom",
    "custom_perm": "custom",
}


@dataclass(frozen=True)
class DeviceConfig:
    """Complete description of one looped-array experiment.

    A DeviceConfig that exists is valid: construction converts every field,
    refusing a count (``n_modes``, ``shift_c``, ``custom_perm`` entries)
    that is not an integer, then raises one ConfigError listing every
    violated invariant.  ``theta`` is a scalar (broadcast to every guide) or
    one angle per guide, and is stored per guide.  A field that defaults to
    None stays None when left out, and is refused on a topology that does
    not read it.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in _CONVERTERS or (value is None and f.default is None):
                continue
            try:
                value = _CONVERTERS[f.name](value, self.n_modes)
            except (TypeError, ValueError, OverflowError) as exc:
                key = _JSON_NAMES.get(f.name, f.name)
                raise ConfigError(f"invalid device config:\n  {key}: {exc}") from None
            object.__setattr__(self, f.name, value)
        violations = self._violations()
        if violations:
            raise ConfigError("invalid device config:\n  " + "\n  ".join(violations))

    def _violations(self) -> list[str]:
        v: list[str] = []
        if self.topology not in TOPOLOGIES:
            v.append(f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")
        for name, topology in _READ_BY.items():
            if getattr(self, name) is not None and self.topology != topology:
                key = _JSON_NAMES.get(name, name)
                v.append(f"{key} is read by the {topology} topology only")
        n = self.n_modes
        if n < 1:
            v.append(f"n_modes must be a positive integer, got {n!r}")
            return v  # nothing below is meaningful without a mode count

        if len(self.theta) != n:
            v.append(f"theta has {len(self.theta)} entries for {n} guides")
        for i, t in enumerate(self.theta, start=1):
            if not coupler_angle_ok(t):
                v.append(f"coupler angle theta[{i}] = {t!r} outside [0, pi/2]")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            v.append(f"tau must be positive and finite, got {self.tau!r}")
        if not math.isfinite(self.omega):
            v.append(f"omega must be finite, got {self.omega!r}")

        if self.topology == "twisted_circle":
            if self.shift_c is None:
                v.append("twisted_circle requires shift_c")
            elif not 0 <= self.shift_c < n:
                v.append(f"shift_c = {self.shift_c} outside 0..{n - 1}")
            if self.g_vector is None:
                v.append("twisted_circle requires g_vector")
            elif len(self.g_vector) != n:
                v.append(f"g_vector has {len(self.g_vector)} entries for {n} modes")
            elif not all(math.isfinite(g) for g in self.g_vector):
                v.append("g_vector entries must be finite")
            elif not math.isfinite(sum(abs(g) for g in self.g_vector)):
                v.append("g_vector spectral bound sum |g_j| is not finite")
            else:
                for j in _circulant_symmetry_violations(self.g_vector):
                    v.append(
                        f"circulant symmetry violated: g_{j} != g_{n - j + 2} "
                        "(the coupling matrix would not be symmetric)"
                    )

        if self.topology == "custom":
            if self.custom_g is None:
                v.append("custom topology requires custom_G")
            else:
                try:
                    g = CouplingMatrix(n, self.custom_g).g
                except ConfigError as exc:
                    v.append(f"custom_G: {exc}")
                else:
                    with np.errstate(over="ignore"):
                        row_sums = np.abs(g).sum(axis=1)
                    if not np.all(np.isfinite(row_sums)):
                        v.append("custom_G spectral bound max_r sum_s |G_rs| is not finite")
            if self.custom_perm is None:
                v.append("custom topology requires custom_perm")
            elif len(self.custom_perm) != n:
                v.append(f"custom_perm has {len(self.custom_perm)} entries for {n} guides")
            else:
                try:
                    Permutation(self.custom_perm)
                except ConfigError as exc:
                    v.append(f"custom_perm: {exc}")
        return v

    # -- JSON round trip --

    def to_json_dict(self) -> dict:
        """The fields that are set, under their JSON keys, with tuples and
        arrays as flat lists; a theta that is the same on every guide is
        written as that one angle."""
        d: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.ravel().tolist()
            elif isinstance(value, tuple):
                value = list(value)
            if value is not None:
                d[_JSON_NAMES.get(f.name, f.name)] = value
        if len(set(self.theta)) == 1:
            d["theta"] = self.theta[0]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "DeviceConfig":
        return record_from_dict(cls, d, "device config", _JSON_NAMES)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "DeviceConfig":
        return cls.from_json_dict(json_object(text, "device config"))


def _circulant_symmetry_violations(g_vector: Sequence[float]) -> list[int]:
    """1-based positions j > N/2 + 1 where g_j != g_{N-j+2} (exact test)."""
    n = len(g_vector)
    return [j for j in range(n // 2 + 2, n + 1) if g_vector[j - 1] != g_vector[n - j + 1]]


def coupler_angle_ok(theta: float) -> bool:
    """A coupler angle is usable when finite and within [0, pi/2]."""
    return math.isfinite(theta) and 0.0 <= theta <= math.pi / 2


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
        return Permutation.cyclic(n, cfg.shift_c)
    return Permutation(cfg.custom_perm)


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
