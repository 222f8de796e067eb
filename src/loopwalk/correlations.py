"""Two-photon correlation matrices observed at the tap guides.

A pair of indistinguishable photons injected into array guides j and k
produces, after n transits around the loop, a coincidence probability for
the detector pair (r, s) of

    cos(theta)^(4(n-1)) sin(theta)^4 / ((1 + delta_rs) (1 + delta_jk))
        * | U_n[j, r] U_n[k, s] + U_n[j, s] U_n[k, r] |^2

where U_n = U(n tau) P^-n carries the walk pattern n times round the loop
relabelling P.  P commutes with the coupling matrix, so the normal modes
can be chosen with P v_i = mu_i v_i (:func:`loop_basis`), and U_n is
V diag(exp(-i lambda n tau) conj(mu)^n) V^dagger: one phase per mode.
The moebius half twist is the modes with mu = -1, the twisted circle's
shift gives Fourier mode m the phase exp(2 pi i (m - 1) c / N), and the
modes with mu = 1 freeze the pattern (:func:`invariant_modes`).
When photon two enters n_d transits late, 1 + delta_jk becomes
1 + |U_{n_d}[j, k]|^2.  The classical (distinguishable) counterpart adds
the two squared moduli instead of the two amplitudes, so the difference
is purely two-photon interference.

The formula lives in :func:`correlation_sweep`, which evaluates it for
every step of one (input pair, delay, kind); :func:`device_correlation`
is a one-cell call into it from a device description, and
:func:`check_sweep` and :func:`check_phase` hold the input rules both
share with the CLI.

Every function takes 1-based guide indices and an explicit ``rescaled``
flag: rescaled output divides out the survival prefactor (the form used
for pattern comparison between transits), physical output keeps it (the
form that sums to the actual detection probability).  The n = 0 snapshot
is defined for rescaled output only, where it reduces to the input pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock_oracle
from .model import (
    ConfigError,
    CorrelationMatrix,
    DeviceConfig,
    EigenSystem,
    NumericError,
    Permutation,
    UnsupportedConfigError,
    _readonly,
    permutation_for,
    require_memory,
    uniform_angle,
)
from .spectra import coupling_for, eigensystem_for


def survival_prefactor(theta, n: int) -> float:
    """cos^(4(n-1)) sin^4: two photons surviving n-1 couplers, then exiting."""
    th = uniform_angle(theta)
    if n < 1:
        raise ConfigError(f"survival prefactor needs n >= 1, got n = {n}")
    return math.cos(th) ** (4 * (n - 1)) * math.sin(th) ** 4


# tracemalloc peak of correlation_sweep per step, at N = 2..64: six complex
# N-vectors (the phases, the two scaled eigenvector rows, their product)
# plus ~104 B of Python objects
_STEP_VECTORS = 6
_STEP_OVERHEAD_BYTES = 128


def check_sweep(n_modes: int, steps, pairs, delays, kinds, *, rescaled: bool):
    """Refuse sweep axes that :func:`correlation_sweep` cannot evaluate.

    Every combination of the axes must be valid: steps n >= 0, with the
    n = 0 snapshot only rescaled; delays n_d >= 0, with classical kinds
    only at n_d = 0; both guides of every pair in 1..n_modes.  ``steps``
    may be a range; its per-step arrays must fit in physical memory, which
    is checked before any step is read.
    """
    per_step = _STEP_VECTORS * n_modes * np.dtype(complex).itemsize + _STEP_OVERHEAD_BYTES
    require_memory(len(steps) * per_step, f"{len(steps)} steps at N = {n_modes} need",
                   "the sweep's per-step arrays", ConfigError)
    for kind in kinds:
        if kind not in ("quantum", "classical"):
            raise ConfigError(f"kind must be quantum or classical, got {kind!r}")
    for n in steps:
        if n < 0:
            raise ConfigError(f"transit count must be >= 0, got {n}")
        if n == 0 and not rescaled:
            raise ConfigError("the n = 0 snapshot exists only as rescaled output")
    for n_d in delays:
        if n_d < 0:
            raise ConfigError(f"delay must be >= 0, got {n_d}")
        if n_d > 0 and "classical" in kinds:
            raise UnsupportedConfigError(
                "classical correlations are only defined for simultaneous input"
            )
    for j, k in pairs:
        if not (1 <= j <= n_modes and 1 <= k <= n_modes):
            raise ConfigError(f"input guides ({j}, {k}) out of range 1..{n_modes}")


def check_phase(es: EigenSystem, tau: float, transits: int):
    """Refuse a largest count m (step plus delay) whose phases
    max |lambda| tau m reach 2^32 rad: their rounding exceeds 2^-21 rad."""
    rate = float(np.max(np.abs(es.eigenvalues))) * tau  # rad per transit
    if rate > 0.0 and not transits < 2.0**32 / rate:  # an int never overflows here
        raise ConfigError(f"{transits} transits at max|lambda| tau = {rate:.3g} rad give phases "
                          "not below 2^32 rad, where their rounding exceeds 2^-21 rad")


# ---- the loop basis ------------------------------------------------------------


def _clusters(lam: np.ndarray, degeneracy_tol: float) -> list:
    """Sorted mode indices per cluster: in ascending order of eigenvalue, a
    mode joins the one before it when within degeneracy_tol max(1, max |lambda|)."""
    idx = np.argsort(lam, kind="stable")
    gaps = np.diff(lam[idx]) > degeneracy_tol * max(1.0, float(np.max(np.abs(lam))))
    return [sorted(c.tolist()) for c in np.split(idx, np.flatnonzero(gaps) + 1)]


def loop_basis(es: EigenSystem, p: Permutation, *, degeneracy_tol: float = 1e-9):
    """Normal modes that the loop relabelling P also diagonalises.

    Returns ``(eigenvalues, vectors, k, period)``: P v_i = mu_i v_i for
    column i of ``vectors``, mu_i = exp(2 pi i k_i / period), k_i an exact
    int and period = p.order().  A cluster (as in :func:`invariant_modes`)
    on which P is not diagonal is rotated onto its eigenvectors there; a
    basis that still leaves P V - V diag(mu) above 1e-12 is projected onto
    P's eigenspaces, and NumericError raised if a mode loses more than
    1e-12 of its weight, as when P does not commute with G.  ``es`` and
    ``p`` on different mode counts are a ConfigError.
    """
    if es.n != p.n:
        raise ConfigError(f"eigensystem on {es.n} modes, permutation on {p.n}")
    lam = np.array(es.eigenvalues)
    v = np.array(es.eigenvectors)
    pinv = p.inverse().zero_based()  # (P x)[r] = x[pinv[r]]
    pv = v[pinv]
    mu = np.einsum("ri,ri->i", v.conj(), pv)  # v_i^dagger P v_i for every mode
    for c in [c for c in _clusters(lam, degeneracy_tol) if len(c) > 1]:
        m = v[:, c].conj().T @ pv[:, c]
        if np.max(np.abs(m - np.diag(np.diag(m)))) > 1e-12:
            q = np.linalg.qr(np.linalg.eig(m)[1])[0]
            v[:, c] = v[:, c] @ q
            lam[c] = (np.abs(q) ** 2).T @ lam[c]  # each new mode's Rayleigh quotient
            mu[c] = np.diag(q.conj().T @ m @ q)
    lengths = np.array(p.cycle_lengths())
    ell = lengths[np.argmax(np.abs(v), axis=0)]
    turns = np.rint(np.angle(mu) / (2.0 * np.pi) * ell).astype(np.int64) % ell
    if not np.max(np.abs(v[pinv] - v * np.exp(2j * np.pi * turns / ell))) <= 1e-12:
        # LAPACK's vector of a mode a gap away in eigenvalue from one of
        # another loop phase leaks into it by ~eps |G| / gap.  On the mu
        # eigenspace x[p^t(r)] = conj(mu)^t x[r], so on a cycle of length l
        # the projection is x[r] -> the mean over t < l of mu^t x[p^t(r)],
        # or 0 where mu^l != 1
        w, at, step = v.copy(), np.arange(p.n), np.array(p.mapping) - 1
        for t in range(1, int(lengths.max())):
            at = step[at]
            live = t < lengths
            w[live] += v[at[live]] * np.exp(2j * np.pi * (turns * t % ell) / ell)
        v = w / lengths[:, None]
        v[turns * lengths[:, None] % ell != 0] = 0.0
        lost = float(np.max(np.abs(1.0 - np.sum(np.abs(v) ** 2, axis=0))))
        if not lost <= 1e-12:
            raise NumericError("no normal modes carry the loop relabelling as one phase each: "
                               f"{lost:.3e} > 1e-12 of a mode's weight is outside it", residual=lost)
    period = p.order()
    k = tuple(int(a) * (period // int(length)) for a, length in zip(turns, ell))
    return lam, v, k, period


# ---- the kernel ------------------------------------------------------------------


def correlation_sweep(
    es: EigenSystem,
    p: Permutation,
    theta,
    tau: float,
    steps,
    j: int,
    k: int,
    *,
    n_d: int = 0,
    kind: str = "quantum",
    rescaled: bool,
):
    """Coincidence matrices for one input pair, delay and kind, step by step.

    Photon one enters guide j and has propagated n + n_d transits when
    photon two, entering guide k n_d transits later, has propagated n.
    Rows j and k of U_m for every step come from one phase matrix over the
    loop basis (:func:`loop_basis`, built once per call) and one matrix
    product.  Inputs are checked by :func:`check_sweep` and
    :func:`check_phase` before anything is computed; the returned iterator
    yields one :class:`CorrelationMatrix` per entry of ``steps``, in order.

    ``n = 0`` is the input snapshot and is only defined rescaled (the
    physical prefactor counts coupler passes that have not happened yet).
    Classical (distinguishable) patterns exist for n_d = 0 only.  Quantum
    cells are exact in scale: they divide by the norm^2 of the pair state
    photon two enters, so physical cells equal the exact simulator's.
    """
    steps = tuple(int(n) for n in steps)
    check_sweep(es.n, steps, ((j, k),), (n_d,), (kind,), rescaled=rescaled)
    # photon one's counts n + n_d, photon two's n, then photon two's entry
    counts = [n + n_d for n in steps] + list(steps) + [n_d]
    th = uniform_angle(theta)
    check_phase(es, tau, max(counts))
    lam, v, loop_k, period = loop_basis(es, p)

    # phases conj(mu_i)^m exp(-i lambda_i m tau), with k_i m reduced mod the
    # period in integers: int64 while the product fits, Python ints beyond
    reduced = np.array([m % period for m in counts], dtype=np.int64 if period < 2**31 else object)
    phases = np.empty((len(counts), es.n))
    for i, k_i in enumerate(loop_k):
        phases[:, i] = reduced * k_i % period
    phases /= period
    phases = np.exp(-2j * np.pi * phases)
    t = np.array([float(m * tau) for m in counts])
    phases *= np.exp((-1j * lam)[None, :] * t[:, None])
    # the stack of rows always has >= 2 of them, so matmul stays a gemm (a
    # one-row product goes to gemv, whose sums differ in the last bit)
    half = len(steps)
    rows = np.concatenate((v[j - 1] * phases[:half], v[k - 1] * phases[half:-1])) @ v.conj().T
    # 1 + |photon one's amplitude at guide k when photon two enters there|^2
    norm_sq = 1.0 + (abs(np.dot(v[j - 1] * phases[-1], v[k - 1].conj())) ** 2 if n_d else (j == k))

    def matrices():
        for i, n in enumerate(steps):
            cross = np.outer(rows[i], rows[half + i])
            if kind == "quantum":
                amp_sq = np.abs(cross + cross.T) ** 2
            else:
                amp_sq = np.abs(cross) ** 2
                amp_sq = amp_sq + amp_sq.T
            amp_sq.reshape(-1)[:: es.n + 1] *= 0.5  # the diagonal, as a strided view
            values = (1.0 if rescaled else survival_prefactor(th, n)) * amp_sq
            if kind == "quantum":
                values /= norm_sq
            yield CorrelationMatrix(
                values=values, step=n, delay=n_d, inputs=(j, k), kind=kind, rescaled=rescaled
            )

    return matrices()


def optimal_theta(n: int) -> float:
    """Coupler angle maximising the two-photon exit mass at transit n.

    Maximises cos^(4(n-1)) sin^4 over [0, pi/2] at sin^2 theta = 1/n, as
    atan2(1, sqrt(n - 1)): arccos(sqrt((n-1)/n)) loses digits as n grows.
    Larger n favours weaker taps, approaching theta ~ 1/sqrt(n).
    """
    if n < 1:
        raise ConfigError(f"transit count must be >= 1, got {n}")
    try:
        return math.atan2(1.0, math.sqrt(n - 1))
    except OverflowError:
        raise ConfigError("transit count is too large for a float") from None


def symmetry_map(topology: str, n: int, n_modes: int, shift_c: int | None = None) -> Permutation:
    """Relabelling that carries a reference pattern onto a twisted one.

    After n transits the moebius pattern is the cylinder pattern mirrored
    on odd n, as the chain's modes have mu = +-1; a twisted circle is the
    untwisted ring shifted by n * c.  The returned permutation is meant for
    ``perm.relabel(reference_matrix)``.
    """
    if n < 0:
        raise ConfigError(f"transit count must be >= 0, got {n}")
    if topology == "moebius":
        return Permutation.mirror(n_modes) if n % 2 else Permutation.identity(n_modes)
    if topology == "twisted_circle":
        if shift_c is None or not 0 <= shift_c < n_modes:
            raise ConfigError(
                f"twisted_circle needs shift_c in 0..{n_modes - 1}, got {shift_c!r}"
            )
        return Permutation.cyclic(n_modes, (n * shift_c) % n_modes)
    raise ConfigError(
        f"no transit symmetry map for topology {topology!r}; "
        "only moebius and twisted_circle have one"
    )


# ---- invariant normal modes -------------------------------------------------


@dataclass(frozen=True)
class InvariantSubspace:
    """Modes of one (near-)degenerate eigenvalue and the part of their
    span left unchanged by the loop relabelling.

    ``mode_indices`` are 1-based positions into the eigensystem's column
    order.  ``basis`` holds an orthonormal set spanning the relabelling-
    invariant subspace; zero columns means no combination is preserved.
    """

    eigenvalue: float
    mode_indices: tuple[int, ...]
    basis: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.mode_indices)

    @property
    def invariant_dim(self) -> int:
        return self.basis.shape[1]


def invariant_modes(
    es: EigenSystem,
    p: Permutation,
    tol: float = 1e-9,
    degeneracy_tol: float = 1e-9,
) -> list:
    """Group modes by eigenvalue and keep those the relabelling fixes.

    The modes are those of :func:`loop_basis`, so P v_i = mu_i v_i, and a
    mode is invariant when mu_i is exactly one (k_i = 0) and
    max |P v_i - v_i| <= ``tol``: a sign flip or any other unit phase does
    not count, since only a fixed mode keeps two-photon statistics frozen
    together with any other fixed mode.

    Eigenvalues within ``degeneracy_tol`` (relative to the spectral scale)
    of each other are treated as one cluster.  Both tolerances must be
    finite and non-negative.
    """
    for name, value in (("tol", tol), ("degeneracy_tol", degeneracy_tol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
    _, v, loop_k, _ = loop_basis(es, p, degeneracy_tol=degeneracy_tol)
    moved = np.max(np.abs(v[p.inverse().zero_based()] - v), axis=0)
    fixed = [k_i == 0 and moved[i] <= tol for i, k_i in enumerate(loop_k)]
    return [
        InvariantSubspace(
            eigenvalue=float(np.mean(es.eigenvalues[c])),
            mode_indices=tuple(i + 1 for i in c),
            basis=_readonly(v[:, [i for i in c if fixed[i]]]),
        )
        for c in sorted(_clusters(es.eigenvalues, degeneracy_tol))
    ]


def two_photon_invariant_check(
    es: EigenSystem,
    p: Permutation,
    theta,
    tau: float,
    phi_a,
    phi_b,
    *,
    n_steps: int = 4,
    tol: float = 1e-9,
    enforce_invariance: bool = True,
) -> bool:
    """Verify by direct simulation that a two-photon normal-mode state
    produces the same rescaled coincidence pattern at every transit.

    The symmetric product of ``phi_a`` and ``phi_b`` is placed in the
    array and observed for ``n_steps`` transits with the exact Fock
    simulator; the check passes when every rescaled pattern matches the
    first one entrywise within ``tol``.

    With ``enforce_invariance`` both wavefunctions must individually pass
    the relabelling-invariance condition first (as certified by
    :func:`invariant_modes`); passing uncertified vectors with the flag
    set raises ValueError.  Disable it to probe arbitrary states.
    """
    th = uniform_angle(theta)
    n = es.n
    pa = np.asarray(phi_a, dtype=complex)
    pb = np.asarray(phi_b, dtype=complex)
    if pa.shape != (n,) or pb.shape != (n,):
        raise ConfigError("mode vectors must each have one entry per array guide")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")

    if enforce_invariance:
        pmat = p.matrix()
        for name, phi in (("first", pa), ("second", pb)):
            drift = float(np.max(np.abs(pmat @ phi - phi)))
            if drift > tol:
                raise ValueError(
                    f"{name} mode vector is not relabelling-invariant "
                    f"(max drift {drift:.3e}); pass enforce_invariance=False to probe it"
                )

    # the simulator needs the coupling matrix itself; rebuild it from the
    # eigensystem (exact symmetrisation kills roundoff skew)
    g = es.reconstruct().real
    g = (g + g.T) / 2.0
    cfg = DeviceConfig(
        topology="custom",
        n_modes=n,
        theta=th,
        tau=tau,
        custom_g=g,
        custom_perm=p.mapping,
    )
    state = fock_oracle.TwoPhotonState.from_mode_vectors(n, pa, pb)
    result = fock_oracle.state_run(cfg, state, n_steps)

    reference = None
    for step_n, rec in enumerate(result.transit_records, start=1):
        pattern = rec.coincidences / survival_prefactor(th, step_n)
        if reference is None:
            reference = pattern
        elif float(np.max(np.abs(pattern - reference))) > tol:
            return False
    return True


# ---- device-level convenience -----------------------------------------------


def require_commuting_loop(cfg: DeviceConfig) -> Permutation:
    """The device's loop permutation, checked against the closed forms.

    The closed forms carry the pattern around the loop as one phase per
    normal mode, which needs the relabelling P to commute with the
    coupling matrix G.  Topologies built here always do; a custom device
    may not, and is refused with UnsupportedConfigError when
    max |P G P^T - G| exceeds 1e-12 max(1, max |G|).
    """
    p = permutation_for(cfg)
    g = coupling_for(cfg).g
    defect = float(np.max(np.abs(p.relabel(g) - g)))
    if defect > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise UnsupportedConfigError(
            "closed-form correlations need a loop permutation that commutes with "
            f"the coupling matrix; max |P G P^T - G| = {defect:.3e}"
        )
    return p


def device_correlation(
    cfg: DeviceConfig,
    n: int,
    j: int,
    k: int,
    *,
    n_d: int = 0,
    kind: str = "quantum",
    rescaled: bool,
) -> CorrelationMatrix:
    """One correlation matrix straight from a device description."""
    p = require_commuting_loop(cfg)
    es = eigensystem_for(cfg)
    sweep = correlation_sweep(
        es, p, cfg.theta, cfg.tau, (n,), j, k, n_d=n_d, kind=kind, rescaled=rescaled
    )
    return next(sweep)
