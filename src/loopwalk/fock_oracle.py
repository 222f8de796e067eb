"""Brute-force two-photon simulator for the looped array.

This module evolves exact photon-number states over the 2N modes of the
device (N array guides ``a_1..a_N`` plus their tap guides ``b_1..b_N``)
through an explicit schedule of transit steps: free evolution, loop
relabelling, coupler bank, tap-guide injections and vacuum projections.
It exists to cross-check the closed-form correlation expressions, so it
deliberately shares no linear-algebra route with them: free evolution is
exponentiated by Pade scaling-and-squaring here, never spectrally, and
two-photon statistics come from propagating symmetric Fock amplitudes,
never from permanents of transfer-matrix blocks.

States with two photons live in the symmetric subspace over 2N modes,
dimension 2N(2N+1)/2, indexed by unordered mode pairs in lexicographic
order.  The basis vector for m1 = m2 is (a^dag)^2 |0> / sqrt(2).  Free
evolution acts on such a state through its 2N x 2N symmetric amplitude
matrix (:func:`act_on_pairs`); the coupler bank through its lifted
dim x dim matrix (:func:`lift_to_two_photon`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .model import (
    ConfigError,
    DeviceConfig,
    NumericError,
    UnsupportedConfigError,
    _readonly,
    permutation_for,
    physical_memory_bytes,  # noqa: F401 (re-exported)
    require_memory,
)
from .spectra import coupling_for

_OCCUPIED_TOL = 1e-12
_LIFT_BLOCK_BYTES = 4 << 20  # output rows lift_to_two_photon fills per pass


# ---- matrix exponential (Pade 13, scaling and squaring) ------------------

_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square complex matrix.

    Degree-13 Pade approximant after scaling ||a||_1 below the standard
    threshold, then repeated squaring.  Accuracy is near machine epsilon
    for the skew-Hermitian generators used here.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    ident = np.eye(n, dtype=complex)
    norm = float(np.max(np.sum(np.abs(a), axis=0))) if n else 0.0
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        a = a / (2.0**squarings)
    b = _PADE13_B
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    x = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        x = x @ x
    return x


# ---- symmetric two-photon basis ------------------------------------------


class PairBasis:
    """Lexicographic basis of unordered mode pairs over ``n_total`` modes."""

    def __init__(self, n_total: int):
        self.n_total = n_total
        i1, i2 = np.triu_indices(n_total)
        self.i1 = _readonly(i1)
        self.i2 = _readonly(i2)
        self.dim = i1.shape[0]
        lookup = np.zeros((n_total, n_total), dtype=int)
        lookup[i1, i2] = np.arange(self.dim)
        lookup[i2, i1] = np.arange(self.dim)
        self.lookup = _readonly(lookup)
        # 1/sqrt(1 + delta_{m1 m2}) weights for the doubly occupied pairs
        self.weight = _readonly(np.where(i1 == i2, 1.0 / np.sqrt(2.0), 1.0))


@lru_cache(maxsize=32)
def pair_basis(n_total: int) -> PairBasis:
    return PairBasis(n_total)


def lift_to_two_photon(u: np.ndarray) -> np.ndarray:
    """Two-photon action of a one-photon unitary on the symmetric subspace.

    For output pair (r1 <= r2) and input pair (m1 <= m2) the matrix element
    is (u[r1,m1] u[r2,m2] + u[r1,m2] u[r2,m1]) / sqrt(1+delta_r) sqrt(1+delta_m),
    which keeps the map unitary on the normalised pair basis.

    The result is filled a block of about _LIFT_BLOCK_BYTES of output rows
    at a time, so the only dim x dim allocation is the result itself.
    """
    u = np.asarray(u, dtype=complex)
    pb = pair_basis(u.shape[0])
    rows1 = u[pb.i1]  # u[r1, :] for every output pair
    rows2 = u[pb.i2]  # u[r2, :]
    lifted = np.empty((pb.dim, pb.dim), dtype=complex)
    block = max(1, _LIFT_BLOCK_BYTES // (lifted.itemsize * max(pb.dim, 1)))
    for lo in range(0, pb.dim, block):
        rows = slice(lo, lo + block)
        a1, a2, out = rows1[rows], rows2[rows], lifted[rows]
        np.multiply(a1.take(pb.i1, axis=1), a2.take(pb.i2, axis=1), out=out)
        out += a1.take(pb.i2, axis=1) * a2.take(pb.i1, axis=1)
        out *= pb.weight[rows, None]
        out *= pb.weight[None, :]
    return lifted


def act_on_pairs(u: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Two-photon action of a one-photon unitary on a pair amplitude vector.

    The pairs are scattered into the symmetric amplitude matrix S over the
    2N modes (S_ab = c_ab, S_mm = sqrt(2) c_mm), which a one-photon u maps
    to u S u^T, and gathered back.  Equals ``lift_to_two_photon(u) @ vec``
    without forming the dim x dim lift.
    """
    pb = pair_basis(u.shape[0])
    amps = vec / pb.weight
    s = np.empty((pb.n_total, pb.n_total), dtype=complex)
    s[pb.i1, pb.i2] = amps
    s[pb.i2, pb.i1] = amps
    return (u @ s @ u.T)[pb.i1, pb.i2] * pb.weight


# tracemalloc peak of delayed_run per transit at N = 2..30, beyond the
# 8 N^2 B of its coincidence matrix: ~680 B for its StepRecord and the
# four schedule steps
_TRANSIT_OVERHEAD_BYTES = 768


def oracle_memory_check(n_modes: int, transits: int = 0) -> None:
    """Refuse an oracle that would not fit in physical memory.

    Couple is lifted to a dim x dim complex matrix with dim = N(2N+1), and
    a run over ``transits`` transits keeps a schedule entry and an N x N
    StepRecord for each until it ends; raises UnsupportedConfigError before
    anything of that size is allocated.
    """
    dim = n_modes * (2 * n_modes + 1)
    lifted = dim * dim * np.dtype(complex).itemsize
    per_transit = n_modes * n_modes * np.dtype(float).itemsize + _TRANSIT_OVERHEAD_BYTES
    require_memory(lifted + transits * per_transit, f"the exact oracle at N = {n_modes} needs",
                   f"its lifted coupler matrix and {transits} transit records",
                   UnsupportedConfigError)


# ---- states ---------------------------------------------------------------


def _tap_coincidences(n_modes: int, amps: np.ndarray) -> np.ndarray:
    """N x N tap-guide pair probabilities |<b_r b_s|psi>|^2 of the pair
    amplitudes ``amps`` over the 2N modes."""
    pb = pair_basis(2 * n_modes)
    taps = pb.i1 >= n_modes  # both photons in tap guides
    probs = np.abs(amps[taps]) ** 2
    r, s = pb.i1[taps] - n_modes, pb.i2[taps] - n_modes
    out = np.zeros((n_modes, n_modes))
    out[r, s] = out[s, r] = probs
    return out


@dataclass(frozen=True)
class TwoPhotonState:
    """Exactly two photons across the 2N device modes.

    ``amps`` follows the lexicographic unordered-pair order of
    ``pair_basis(2 * n_modes)``.  Norm may be below one: projections leave
    states sub-normalised, with the missing mass accounted for in pipeline
    records.
    """

    n_modes: int
    amps: np.ndarray

    def __post_init__(self):
        pb = pair_basis(2 * self.n_modes)
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (pb.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({pb.dim},)"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        nsq = float(np.sum(np.abs(amps) ** 2))
        if nsq > 1.0 + 1e-12:
            raise ValueError(f"state norm^2 = {nsq} exceeds 1")
        object.__setattr__(self, "amps", _readonly(amps))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def amplitude(self, m1: int, m2: int) -> complex:
        """Amplitude of the unordered pair (m1, m2), 1-based over 2N modes;
        array guides are 1..N, tap guides N+1..2N."""
        pb = pair_basis(2 * self.n_modes)
        if not (1 <= m1 <= 2 * self.n_modes and 1 <= m2 <= 2 * self.n_modes):
            raise ValueError(f"mode pair ({m1}, {m2}) out of range 1..{2 * self.n_modes}")
        return complex(self.amps[pb.lookup[m1 - 1, m2 - 1]])

    def coincidence_matrix(self) -> np.ndarray:
        """N x N matrix of tap-guide pair probabilities |<b_r b_s|psi>|^2."""
        return _tap_coincidences(self.n_modes, self.amps)

    @classmethod
    def from_array_pair(cls, n_modes: int, j: int, k: int) -> "TwoPhotonState":
        """One photon in array guide j and one in k (j = k gives the
        doubly occupied state)."""
        if not (1 <= j <= n_modes and 1 <= k <= n_modes):
            raise ValueError(f"inputs ({j}, {k}) out of range 1..{n_modes}")
        pb = pair_basis(2 * n_modes)
        amps = np.zeros(pb.dim, dtype=complex)
        amps[pb.lookup[j - 1, k - 1]] = 1.0
        return cls(n_modes, amps)

    @classmethod
    def from_mode_vectors(cls, n_modes: int, phi_a, phi_b) -> "TwoPhotonState":
        """Normalised symmetric product of two array-guide wavefunctions.

        Each argument is a length-N complex vector of amplitudes over the
        array guides; the photons may occupy the same wavefunction.
        """
        pa = np.asarray(phi_a, dtype=complex)
        pb_vec = np.asarray(phi_b, dtype=complex)
        if pa.shape != (n_modes,) or pb_vec.shape != (n_modes,):
            raise ValueError("mode vectors must each have one entry per array guide")
        sym = np.outer(pa, pb_vec)
        sym = sym + sym.T
        basis = pair_basis(2 * n_modes)
        amps = np.zeros(basis.dim, dtype=complex)
        in_a = basis.i2 < n_modes
        amps[in_a] = sym[basis.i1[in_a], basis.i2[in_a]] * basis.weight[in_a]
        norm = np.sqrt(np.sum(np.abs(amps) ** 2))
        if norm == 0.0:
            raise ValueError("mode vectors give a vanishing two-photon state")
        return cls(n_modes, amps / norm)


# ---- pipeline steps --------------------------------------------------------


@dataclass(frozen=True)
class Evolve:
    """Free propagation through the coupled array for one transit time."""


@dataclass(frozen=True)
class Permute:
    """Mode relabelling applied by the loop closure."""


@dataclass(frozen=True)
class Couple:
    """Directional coupler bank joining each array guide to its tap guide."""


@dataclass(frozen=True)
class InjectB:
    """Place one photon into tap guide b_mode (1-based array index)."""

    mode: int


@dataclass(frozen=True)
class ProjectBVacuum:
    """Condition on no photon remaining in any tap guide.

    With ``renormalize`` the surviving state is scaled back to unit norm
    and the event probability is recorded; without it the lost mass stays
    missing, which is how per-transit detection probabilities are read off.
    """

    renormalize: bool = False


PipelineStep = Union[Evolve, Permute, Couple, InjectB, ProjectBVacuum]


def single_particle_step_matrix(step: PipelineStep, cfg: DeviceConfig) -> np.ndarray:
    """The 2N x 2N one-photon unitary for a linear pipeline step.

    Ordering is array guides first, tap guides second.  Injection and
    projection are not one-photon unitaries and raise ValueError.
    """
    n = cfg.n_modes
    if isinstance(step, Evolve):
        g = coupling_for(cfg).g
        u = np.eye(2 * n, dtype=complex)
        u[:n, :n] = _expm(-1j * g * cfg.tau)
        return u
    if isinstance(step, Permute):
        u = np.eye(2 * n, dtype=complex)
        u[:n, :n] = permutation_for(cfg).matrix()
        return u
    if isinstance(step, Couple):
        theta = np.asarray(cfg.theta, dtype=float)
        u = np.zeros((2 * n, 2 * n), dtype=complex)
        idx = np.arange(n)
        u[idx, idx] = np.cos(theta)
        u[n + idx, n + idx] = np.cos(theta)
        u[idx, n + idx] = 1j * np.sin(theta)
        u[n + idx, idx] = 1j * np.sin(theta)
        return u
    raise ValueError(f"{type(step).__name__} has no single-particle matrix")


# ---- pipeline runner --------------------------------------------------------


class StepOperators:
    """One- and two-photon actions of the linear steps of one device.

    Evolve, Permute and Couple depend only on the device and its coupler
    angles, so runs of several schedules on the same ``cfg`` may share one
    holder.  Permute only relabels modes: ``relabel[k]`` is the index
    gather that applies it to a k-photon amplitude vector, exactly, built at
    construction.  Evolve and Couple are one-photon matrices, built on first
    use and then kept.  Evolve reaches a two-photon state through
    :func:`act_on_pairs` on the 2N x 2N amplitude matrix, so Couple is the
    only step lifted: one dim x dim complex matrix with dim = N(2N+1),
    53.6 MB at N = 30.  Its peak memory is that matrix plus the one ~4-MiB
    row block a lift fills at a time: ~98 MB peak RSS for the N = 30
    benchmark sweep.  A device whose lifted Couple would not fit in
    physical memory is refused with UnsupportedConfigError by
    :func:`oracle_memory_check` at construction.
    """

    def __init__(self, cfg: DeviceConfig):
        oracle_memory_check(cfg.n_modes)
        self.cfg = cfg
        n = cfg.n_modes
        pb = pair_basis(2 * n)
        # Permute moves guide m to p(m), so guide r takes the amplitude of
        # p^-1(r); a pair (r1, r2) takes that of (p^-1(r1), p^-1(r2))
        one = np.concatenate([permutation_for(cfg).inverse().zero_based(), np.arange(n, 2 * n)])
        self.relabel = {1: _readonly(one), 2: _readonly(pb.lookup[one[pb.i1], one[pb.i2]])}
        self.singles: dict[PipelineStep, np.ndarray] = {}
        self.lifted: dict[PipelineStep, np.ndarray] = {}

    def one_photon(self, step: PipelineStep) -> np.ndarray:
        if step not in self.singles:
            self.singles[step] = single_particle_step_matrix(step, self.cfg)
        return self.singles[step]

    def two_photon(self, step: PipelineStep) -> np.ndarray:
        if step not in self.lifted:
            self.lifted[step] = lift_to_two_photon(self.one_photon(step))
        return self.lifted[step]


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one vacuum projection.

    ``coincidences`` holds the tap-guide pair probabilities present just
    before the projection (zeros while only one photon is in flight);
    ``post_selection_prob`` is the cumulative probability of every
    conditioning event up to and including this one.
    """

    coincidences: np.ndarray
    removed_mass: float
    post_selection_prob: float

    def __post_init__(self):
        object.__setattr__(
            self, "coincidences", _readonly(np.array(self.coincidences, dtype=float))
        )


@dataclass(frozen=True)
class PipelineResult:
    """A run's StepRecords; ``transit_records`` are those after its last
    conditioning event, the observation transits n = 1, 2, ... in order, and
    ``entry_prob`` is the joint probability of all its conditioning events."""

    records: tuple[StepRecord, ...]
    transit_records: tuple[StepRecord, ...]
    entry_prob: float
    final_state: TwoPhotonState | None


def run_pipeline(
    cfg: DeviceConfig,
    schedule,
    initial_state: TwoPhotonState | None = None,
    *,
    operators: StepOperators | None = None,
) -> PipelineResult:
    """Propagate photon-number states through an explicit step schedule.

    Exactly two photons must enter the run, either through the initial
    state or through InjectB steps; anything else is a ConfigError.  One
    StepRecord is emitted per ProjectBVacuum step.  ``operators`` shares
    the step actions of a :class:`StepOperators` built for this very
    ``cfg`` object; without it the run builds its own.
    """
    n = cfg.n_modes
    total = 2 * n
    pb = pair_basis(total)
    schedule = list(schedule)

    injected = sum(isinstance(s, InjectB) for s in schedule)
    nphot = 2 if initial_state is not None else 0
    if injected + nphot != 2:
        raise ConfigError(
            f"schedule injects {injected + nphot} photons in total, need exactly 2"
        )
    if initial_state is not None and initial_state.n_modes != n:
        raise ConfigError(
            f"initial state has {initial_state.n_modes} array modes, device has {n}"
        )

    for s in schedule:
        if isinstance(s, InjectB) and not 1 <= s.mode <= n:
            raise ConfigError(f"injection mode {s.mode} out of range 1..{n}")

    if operators is None:
        operators = StepOperators(cfg)
    elif operators.cfg is not cfg:
        raise ConfigError("step operators were built for another DeviceConfig object")

    vec = np.array(initial_state.amps, dtype=complex) if initial_state is not None else None

    any_b = pb.i2 >= n  # at least one photon in a tap guide
    records: list[StepRecord] = []
    cumulative = 1.0
    entry_end = 0  # records[:entry_end] end with the last conditioning event

    for step in schedule:
        if isinstance(step, Permute):
            if nphot:
                vec = vec[operators.relabel[nphot]]
        elif isinstance(step, (Evolve, Couple)):
            if nphot == 1:
                vec = operators.one_photon(step) @ vec
            elif nphot == 2 and isinstance(step, Evolve):
                vec = act_on_pairs(operators.one_photon(step), vec)
            elif nphot == 2:
                vec = operators.two_photon(step) @ vec
        elif isinstance(step, InjectB):
            q = n + step.mode - 1
            if nphot == 0:
                vec = np.zeros(total, dtype=complex)
                vec[q] = 1.0
                nphot = 1
            else:
                if abs(vec[q]) > _OCCUPIED_TOL:
                    raise ConfigError(
                        f"injection into occupied tap guide b_{step.mode} "
                        f"(amplitude {abs(vec[q]):.3e})"
                    )
                pair_vec = np.zeros(pb.dim, dtype=complex)
                src = vec.copy()
                src[q] = 0.0
                pair_vec[pb.lookup[np.arange(total), q]] = src
                vec = pair_vec
                nphot = 2
        elif isinstance(step, ProjectBVacuum):
            pre = float(np.sum(np.abs(vec) ** 2))
            vec = vec.copy()
            if nphot == 2:
                coinc = _tap_coincidences(n, vec)
                vec[any_b] = 0.0
            else:
                coinc = np.zeros((n, n))
                vec[n:] = 0.0
            post = float(np.sum(np.abs(vec) ** 2))
            removed = pre - post
            if step.renormalize:
                if post <= 1e-300:
                    raise NumericError(
                        "conditioning on a zero-probability projection", residual=post
                    )
                cumulative *= post
                vec = vec / np.sqrt(post)
                entry_end = len(records) + 1
            records.append(
                StepRecord(coincidences=coinc, removed_mass=removed, post_selection_prob=cumulative)
            )
        else:
            raise ConfigError(f"unknown pipeline step {step!r}")

    return PipelineResult(
        records=tuple(records),
        transit_records=tuple(records[entry_end:]),
        entry_prob=cumulative,
        final_state=TwoPhotonState(n, vec) if nphot == 2 else None,
    )


# ---- standard schedules ------------------------------------------------------


def transit_schedule(n_steps: int) -> list:
    """n_steps observation transits: evolve, relabel, couple, read taps."""
    steps: list = []
    for _ in range(n_steps):
        steps += [Evolve(), Permute(), Couple(), ProjectBVacuum(renormalize=False)]
    return steps


def simultaneous_schedule(j: int, k: int, n_steps: int) -> list:
    """Both photons enter through their tap guides before the first transit."""
    entry: list = [InjectB(j), InjectB(k), Couple(), ProjectBVacuum(renormalize=True)]
    return entry + transit_schedule(n_steps)


def delayed_schedule(j: int, k: int, delay: int, n_steps: int) -> list:
    """Photon one enters first; photon two joins after ``delay`` transits.

    The run conditions on photon one staying in the array until the second
    injection (every tap projection up to that point).
    """
    if delay < 0:
        raise ConfigError(f"delay must be >= 0, got {delay}")
    if delay == 0:
        return simultaneous_schedule(j, k, n_steps)
    steps: list = [InjectB(j), Couple(), ProjectBVacuum(renormalize=True)]
    for _ in range(delay - 1):
        steps += [Evolve(), Permute(), Couple(), ProjectBVacuum(renormalize=False)]
    steps += [Evolve(), Permute(), InjectB(k), Couple(), ProjectBVacuum(renormalize=True)]
    return steps + transit_schedule(n_steps)


def delayed_run(
    cfg: DeviceConfig,
    j: int,
    k: int,
    delay: int,
    n_steps: int,
    *,
    operators: StepOperators | None = None,
) -> PipelineResult:
    return run_pipeline(cfg, delayed_schedule(j, k, delay, n_steps), operators=operators)


def state_run(cfg: DeviceConfig, state: TwoPhotonState, n_steps: int) -> PipelineResult:
    """Observe an already prepared in-array two-photon state; no entry
    conditioning is applied."""
    return run_pipeline(cfg, transit_schedule(n_steps), initial_state=state)
