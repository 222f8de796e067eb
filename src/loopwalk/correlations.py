"""Two-photon correlation matrices observed at the tap guides.

A pair of indistinguishable photons injected into array guides j and k
produces, after n transits around the loop, a coincidence probability for
the detector pair (r, s) of

    cos(theta)^(4(n-1)) sin(theta)^4 / ((1 + delta_rs) (1 + delta_jk))
        * | U[j, q(r)] U[k, q(s)] + U[j, q(s)] U[k, q(r)] |^2

where U = U(n tau) is the single-photon transfer matrix over n transits
and q is the inverse of the n-fold loop relabelling: detectors are wired
to fixed positions while the walk pattern is carried around the loop.
The 1 + delta_jk is the norm^2 of the input pair state; when photon two
enters n_d transits late it becomes 1 + |W[j, k]|^2, with W = U(n_d tau)
rewired by the n_d-fold relabelling, the amplitude that photon one
already occupies guide k.
The classical (distinguishable) counterpart adds the two squared moduli
instead of the two amplitudes, so the difference between the matrices is
purely two-photon interference.  Carrying the pattern by relabelling is
exact only when the loop permutation commutes with the coupling matrix.

The formula lives in :func:`correlation_sweep`, which evaluates it for
every step of one (input pair, delay, kind); :func:`device_correlation`
is a one-cell call into it from a device description, and
:func:`check_sweep` holds the input rules both share with the CLI.

Every function takes 1-based guide indices and an explicit ``rescaled``
flag: rescaled output divides out the survival prefactor (the form used
for pattern comparison between transits), physical output keeps it (the
form that sums to the actual detection probability).  The n = 0 snapshot
is defined for rescaled output only, where it reduces to the input pair.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock_oracle
from .model import (
    ConfigError,
    CorrelationMatrix,
    DeviceConfig,
    EigenSystem,
    Permutation,
    UnsupportedConfigError,
    permutation_for,
    require_memory,
    uniform_angle,
)
from .propagate import compose, order, permute_modes
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
    photon two, entering guide k n_d transits later, has propagated n; the
    detector wiring follows each photon's own relabelling depth.  Rows
    j and k of U(m tau) for every step come from one phase matrix and one
    matrix product.  Inputs are checked by :func:`check_sweep` before
    anything is computed; the returned iterator yields one
    :class:`CorrelationMatrix` per entry of ``steps``, in order.

    ``n = 0`` is the input snapshot and is only defined rescaled (the
    physical prefactor counts coupler passes that have not happened yet).
    Classical (distinguishable) patterns exist for n_d = 0 only.  Quantum
    cells are exact in scale: they divide by the norm^2 of the pair state
    photon two enters, so physical cells equal the exact simulator's.
    """
    steps = tuple(int(n) for n in steps)
    check_sweep(es.n, steps, ((j, k),), (n_d,), (kind,), rescaled=rescaled)
    th = uniform_angle(theta)

    # photon one's row at steps n + n_d, then photon two's at steps n; the
    # stack always has >= 2 rows, so matmul stays a gemm and each row is
    # bit-identical to the same row of transfer_matrix (a one-row product
    # goes to gemv, whose sums differ in the last bit)
    counts = [n + n_d for n in steps] + list(steps)
    t = np.array([float(m * tau) for m in counts])
    v = es.eigenvectors
    phases = np.exp((-1j * es.eigenvalues)[None, :] * t[:, None])
    half = len(steps)
    rows = np.concatenate((v[j - 1] * phases[:half], v[k - 1] * phases[half:])) @ v.conj().T
    # detector d reads mode q(d), q the inverse of the m-fold relabelling;
    # q depends on m only through m mod the order of p
    period = order(p)
    wiring = {r: compose(p, -r).zero_based() for r in {m % period for m in counts}}
    if n_d == 0:
        norm_sq = 1.0 + (j == k)
    else:
        # photon one's amplitude at guide k when photon two enters there:
        # W[j-1, k-1] with W = U(n_d tau)[:, compose(p, -n_d).zero_based()]
        q_k = compose(p, -n_d).zero_based()[k - 1]
        phase = np.exp(-1j * es.eigenvalues * float(n_d * tau))
        norm_sq = 1.0 + abs(np.dot(v[j - 1] * phase, v[q_k].conj())) ** 2

    def matrices():
        for i, n in enumerate(steps):
            cross = np.outer(
                rows[i, wiring[(n + n_d) % period]], rows[half + i, wiring[n % period]]
            )
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

    After n transits the moebius pattern is the cylinder pattern with
    indices mirrored on odd n (and untouched on even n); a twisted circle
    is the untwisted ring shifted by n * c.  The returned permutation is
    meant for ``permute_modes(reference_matrix, perm, side="both")``.
    """
    if n < 0:
        raise ConfigError(f"transit count must be >= 0, got {n}")
    if topology == "moebius":
        return compose(Permutation.mirror(n_modes), n)
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


class InvariantSubspace:
    """Modes of one (near-)degenerate eigenvalue and the part of their
    span left unchanged by the loop relabelling.

    ``mode_indices`` are 1-based positions into the eigensystem's column
    order.  ``basis`` holds an orthonormal set spanning the relabelling-
    invariant subspace; zero columns means no combination is preserved.
    """

    def __init__(self, eigenvalue: float, mode_indices: tuple, basis: np.ndarray):
        self.eigenvalue = float(eigenvalue)
        self.mode_indices = tuple(int(i) for i in mode_indices)
        basis = np.array(basis, dtype=complex)
        basis.setflags(write=False)
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.mode_indices)

    @property
    def invariant_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_invariant(self) -> bool:
        return self.invariant_dim > 0

    def __repr__(self):
        return (
            f"InvariantSubspace(eigenvalue={self.eigenvalue!r}, "
            f"modes={self.mode_indices}, invariant_dim={self.invariant_dim})"
        )


def invariant_modes(
    es: EigenSystem,
    p: Permutation,
    tol: float = 1e-9,
    degeneracy_tol: float = 1e-9,
) -> list:
    """Group modes by eigenvalue and test invariance under the relabelling.

    A nondegenerate mode phi is invariant when phi[p^-1(m)] == phi[m] for
    every entry, i.e. the relabelling fixes it with eigenvalue exactly one
    (a sign flip or any other unit phase does not count: only a fixed mode
    keeps two-photon statistics frozen together with any other fixed
    mode).  For a degenerate cluster the invariant combinations are the
    null space of (P - 1) restricted to the cluster span, found by SVD.

    Eigenvalues within ``degeneracy_tol`` (relative to the spectral scale)
    of each other are treated as one cluster.  Both tolerances must be
    finite and non-negative.
    """
    if es.n != p.n:
        raise ConfigError(f"eigensystem on {es.n} modes, permutation on {p.n}")
    for name, value in (("tol", tol), ("degeneracy_tol", degeneracy_tol)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
    lam = es.eigenvalues
    scale = max(1.0, float(np.max(np.abs(lam))))
    thr = degeneracy_tol * scale

    order = np.argsort(lam, kind="stable")
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and lam[idx] - lam[clusters[-1][-1]] <= thr:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])

    pmat = p.matrix()
    out = []
    for cluster in clusters:
        cluster = sorted(cluster)
        block = es.eigenvectors[:, cluster]
        if len(cluster) == 1:
            phi = block[:, 0]
            moved = pmat @ phi
            basis = block if float(np.max(np.abs(moved - phi))) <= tol else block[:, :0]
        else:
            defect = pmat @ block - block
            _, sing, vh = np.linalg.svd(defect, full_matrices=True)
            sing = np.concatenate([sing, np.zeros(len(cluster) - len(sing))])
            null_cols = vh.conj().T[:, sing <= tol]
            basis = block @ null_cols
        out.append(
            InvariantSubspace(
                eigenvalue=float(np.mean(lam[cluster])),
                mode_indices=tuple(i + 1 for i in cluster),
                basis=basis,
            )
        )
    out.sort(key=lambda s: min(s.mode_indices))
    return out


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

    The closed forms carry the pattern around the loop by rewiring the
    detectors, which is exact only when the relabelling P commutes with
    the coupling matrix G.  Topologies built here always do; a custom
    device may not, and is refused with UnsupportedConfigError when
    max |P G P^T - G| exceeds 1e-12 max(1, max |G|).
    """
    p = permutation_for(cfg)
    g = coupling_for(cfg).g
    defect = float(np.max(np.abs(permute_modes(g, p) - g)))
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
