import numpy as np
import pytest

from loopwalk import correlations
from loopwalk.correlations import (
    correlation_sweep,
    device_correlation,
    invariant_modes,
    optimal_theta,
    survival_prefactor,
    symmetry_map,
    two_photon_invariant_check,
)
from loopwalk.model import (
    ConfigError,
    DeviceConfig,
    EigenSystem,
    NumericError,
    Permutation,
    UnsupportedConfigError,
    permutation_for,
)
from loopwalk.fock_oracle import delayed_run
from loopwalk.spectra import eigen_circulant, eigen_tridiagonal, eigensystem_for
from reference import transfer_matrix
from test_propagate import _naive_compose

Q = np.pi / 4


def _chain(n):
    return eigen_tridiagonal(n), Permutation.identity(n)


# ---- two-guide interference, worked by hand --------------------------------
# For two guides run for g tau = pi/4 the array acts as a balanced
# splitter, so photons injected one per guide must bunch: no coincidence
# across guides, each double occupation with probability 1/2.


def test_bunching_quantum():
    es, p = _chain(2)
    (g,) = correlation_sweep(es, p, Q, Q, (1,), 1, 2, rescaled=True)
    assert abs(g.values[0, 1]) < 1e-12
    assert abs(g.values[0, 0] - 0.5) < 1e-12
    assert abs(g.values[1, 1] - 0.5) < 1e-12


def test_bunching_gone_for_distinguishable_photons():
    es, p = _chain(2)
    (c,) = correlation_sweep(es, p, Q, Q, (1,), 1, 2, kind="classical", rescaled=True)
    assert abs(c.values[0, 1] - 0.5) < 1e-12
    assert abs(c.values[0, 0] - 0.25) < 1e-12


def test_physical_scale_is_entry_probability_at_first_transit():
    es, p = _chain(2)
    (g,) = correlation_sweep(es, p, Q, Q, (1,), 1, 2, rescaled=False)
    assert abs(g.values[0, 0] - 0.5 * np.sin(Q) ** 4) < 1e-14


# ---- prefactor and optimal angle ----------------------------------------------


def test_survival_prefactor_values():
    th = 0.8
    assert abs(survival_prefactor(th, 1) - np.sin(th) ** 4) < 1e-15
    assert abs(
        survival_prefactor(th, 3) - np.cos(th) ** 8 * np.sin(th) ** 4
    ) < 1e-15
    with pytest.raises(ConfigError):
        survival_prefactor(th, 0)


def test_optimal_theta_known_angles():
    assert abs(optimal_theta(1) - np.pi / 2) < 1e-14
    assert abs(optimal_theta(2) - np.pi / 4) < 1e-14
    assert abs(optimal_theta(4) - np.pi / 6) < 1e-14


def test_optimal_theta_beats_neighbours():
    for n in (2, 3, 5, 8):
        t0 = optimal_theta(n)
        best = survival_prefactor(t0, n)
        assert best >= survival_prefactor(t0 + 1e-4, n)
        assert best >= survival_prefactor(t0 - 1e-4, n)


# ---- structural invariances -------------------------------------------------------


def test_common_frequency_drops_out():
    for topo, kw in (
        ("cylinder", {}),
        ("moebius", {}),
        ("twisted_circle", {"shift_c": 2, "g_vector": (0.0, 1.0) + (0.0,) * 5 + (1.0,)}),
    ):
        base = DeviceConfig(topology=topo, n_modes=8, theta=0.5, **kw)
        lifted = DeviceConfig(topology=topo, n_modes=8, theta=0.5, omega=1.7, **kw)
        for n in (1, 3):
            a = device_correlation(base, n, 1, 4, rescaled=True)
            b = device_correlation(lifted, n, 1, 4, rescaled=True)
            assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_mirror_relabelling_identity_is_exact():
    n_modes = 9
    es, _ = _chain(n_modes)
    ident = Permutation.identity(n_modes)
    mirror = Permutation.mirror(n_modes)
    cyls = correlation_sweep(es, ident, 0.7, 1.0, (1, 2, 3), 1, 4, rescaled=True)
    mobs = correlation_sweep(es, mirror, 0.7, 1.0, (1, 2, 3), 1, 4, rescaled=True)
    for cyl, mob in zip(cyls, mobs):
        # exact in the mathematics; in floats the loop phase mu = -1 of the
        # even sine modes stands for the mirror, and the sine modes are
        # mirror-symmetric only to their last bit
        mapped = symmetry_map("moebius", cyl.step, n_modes).relabel(cyl.values)
        assert np.max(np.abs(mob.values - mapped)) <= 4 * np.finfo(float).eps
        if cyl.step % 2 == 0:
            # even transit counts undo the twist entirely, to the bit
            assert np.array_equal(mob.values, cyl.values)


def test_shift_relabelling_identity_is_exact():
    n_modes, c = 10, 3
    gvec = (0.0, 1.0) + (0.0,) * 7 + (1.0,)
    es = eigen_circulant(n_modes, gvec)
    ring = Permutation.identity(n_modes)
    twist = Permutation.cyclic(n_modes, c)
    refs = correlation_sweep(es, ring, 0.55, 1.0, (1, 2, 3, 4), 2, 6, rescaled=True)
    twists = correlation_sweep(es, twist, 0.55, 1.0, (1, 2, 3, 4), 2, 6, rescaled=True)
    for a, b in zip(refs, twists):
        # exact in the mathematics, to rounding in floats (the shift is a
        # loop phase per Fourier mode, not a relabelling of the detectors)
        mapped = symmetry_map("twisted_circle", a.step, n_modes, c).relabel(a.values)
        assert np.max(np.abs(b.values - mapped)) <= 4 * np.finfo(float).eps


def test_quantum_bounded_by_twice_classical():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n_modes = int(rng.integers(2, 10))
        es, p = _chain(n_modes)
        theta = float(rng.uniform(0.1, 1.4))
        n = int(rng.integers(1, 5))
        j = int(rng.integers(1, n_modes + 1))
        k = int(rng.integers(1, n_modes + 1))
        (g,) = correlation_sweep(es, p, theta, 1.0, (n,), j, k, rescaled=True)
        (c,) = correlation_sweep(es, p, theta, 1.0, (n,), j, k, kind="classical", rescaled=True)
        assert np.all(g.values <= 2.0 * c.values + 1e-12)


def test_doubly_occupied_input():
    """Both photons into one guide: no interference term survives, the
    quantum pattern collapses onto the classical one."""
    es, p = _chain(5)
    (g,) = correlation_sweep(es, p, 0.7, 1.0, (2,), 3, 3, rescaled=True)
    (c,) = correlation_sweep(es, p, 0.7, 1.0, (2,), 3, 3, kind="classical", rescaled=True)
    assert np.max(np.abs(g.values - c.values)) < 1e-14
    assert abs(np.triu(g.values).sum() - 1.0) < 1e-12

    # exact simulator agrees entrywise
    from loopwalk.fock_oracle import TwoPhotonState, state_run

    cfg = DeviceConfig(topology="cylinder", n_modes=5, theta=0.7)
    run = state_run(cfg, TwoPhotonState.from_array_pair(5, 3, 3), 2)
    (phys,) = correlation_sweep(es, p, 0.7, 1.0, (2,), 3, 3, rescaled=False)
    assert np.max(np.abs(run.transit_records[1].coincidences - phys.values)) < 1e-12


def test_pair_mass_sums_to_one_when_rescaled():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n_modes = int(rng.integers(2, 9))
        es, p = _chain(n_modes)
        n = int(rng.integers(1, 4))
        (g,) = correlation_sweep(es, p, 0.8, 1.0, (n,), 1, n_modes, rescaled=True)
        (c,) = correlation_sweep(es, p, 0.8, 1.0, (n,), 1, n_modes, kind="classical", rescaled=True)
        assert abs(np.triu(g.values).sum() - 1.0) < 1e-12
        assert abs(np.triu(c.values).sum() - 1.0) < 1e-12


# ---- input snapshot and delayed entry ------------------------------------------------


def test_snapshot_before_first_transit():
    es, p = _chain(6)
    (g,) = correlation_sweep(es, p, 0.5, 1.0, (0,), 2, 5, rescaled=True)
    expected = np.zeros((6, 6))
    expected[1, 4] = expected[4, 1] = 1.0
    assert np.allclose(g.values, expected, atol=1e-14)
    with pytest.raises(ConfigError):
        correlation_sweep(es, p, 0.5, 1.0, (0,), 2, 5, rescaled=False)


def test_delayed_two_guides_frozen():
    """One transit of extra delay on a balanced two-guide splitter.

    The early photon sees U(2 g tau) = -i X, the late one U(g tau), giving
    (0, 1/2, 1) over (11, 12, 22) before normalisation.  When photon two
    enters guide 2, photon one is there with amplitude U(g tau)[1, 2] =
    -i/sqrt(2), so the pair state has norm^2 3/2 and the rescaled pattern
    is (0, 1/3, 2/3), of unit pair mass."""
    es, p = _chain(2)
    (g,) = correlation_sweep(es, p, Q, Q, (1,), 1, 2, n_d=1, rescaled=True)
    assert abs(g.values[0, 0] - 0.0) < 1e-12
    assert abs(g.values[0, 1] - 1.0 / 3.0) < 1e-12
    assert abs(g.values[1, 1] - 2.0 / 3.0) < 1e-12


def test_delayed_records_delay():
    es, p = _chain(4)
    (g,) = correlation_sweep(es, p, 0.5, 1.0, (2,), 1, 2, n_d=3, rescaled=True)
    assert g.delay == 3 and g.step == 2


# ---- the batched kernel against a per-cell reference ---------------------------


def _reference_cell(es, p, theta, tau, n, n_d, j, k, kind, rescaled):
    """One cell from full transfer matrices and step-by-step relabelling."""
    a = transfer_matrix(es, (n + n_d) * tau)[j - 1]
    b = transfer_matrix(es, n * tau)[k - 1]
    a = a[[q - 1 for q in _naive_compose(p, -(n + n_d))]]
    b = b[[q - 1 for q in _naive_compose(p, -n)]]
    if kind == "quantum":
        vals = np.abs(np.einsum("r,s->rs", a, b) + np.einsum("s,r->rs", a, b)) ** 2
        # norm^2 of the entering pair state: photon one's amplitude at guide
        # k after n_d transits (delta_jk at n_d = 0, where U(0) = 1)
        w = transfer_matrix(es, n_d * tau)[j - 1, _naive_compose(p, -n_d)[k - 1] - 1]
        vals /= 1.0 + abs(w) ** 2
    else:
        vals = np.abs(np.einsum("r,s->rs", a, b)) ** 2 + np.abs(np.einsum("s,r->rs", a, b)) ** 2
    vals /= 1.0 + np.eye(es.n)
    if not rescaled:
        vals *= np.cos(theta) ** (4 * (n - 1)) * np.sin(theta) ** 4
    return vals


_SWEEP_DEVICES = (
    (eigen_tridiagonal(9, omega=0.3), Permutation.mirror(9)),
    (eigen_circulant(8, (0.0, 1.0, 0.4, 0.0, 0.0, 0.0, 0.4, 1.0)), Permutation.cyclic(8, 3)),
)


@pytest.mark.parametrize("device", range(len(_SWEEP_DEVICES)))
@pytest.mark.parametrize(
    "kind, n_d, j, k",
    [("quantum", 0, 2, 5), ("quantum", 0, 4, 4), ("quantum", 2, 1, 6),
     ("quantum", 3, 3, 3), ("classical", 0, 2, 7), ("classical", 0, 5, 5)],
)
@pytest.mark.parametrize("rescaled", [True, False])
def test_sweep_matches_per_cell_reference(device, kind, n_d, j, k, rescaled):
    es, p = _SWEEP_DEVICES[device]
    theta, tau = 0.45, 0.8
    steps = (0, 1, 2, 5, 11) if rescaled else (1, 2, 5, 11)
    sweep = list(
        correlation_sweep(es, p, theta, tau, steps, j, k, n_d=n_d, kind=kind, rescaled=rescaled)
    )
    assert [m.step for m in sweep] == list(steps)
    for m in sweep:
        assert (m.delay, m.inputs, m.kind, m.rescaled) == (n_d, (j, k), kind, rescaled)
        ref = _reference_cell(es, p, theta, tau, m.step, n_d, j, k, kind, rescaled)
        assert np.max(np.abs(m.values - ref)) <= 1e-15


def test_sweep_cells_equal_one_step_calls():
    es, p = eigen_tridiagonal(7), Permutation.mirror(7)
    sweep = correlation_sweep(es, p, 0.5, 1.0, (1, 3), 2, 6, n_d=1, rescaled=False)
    for m in sweep:
        (one,) = correlation_sweep(es, p, 0.5, 1.0, (m.step,), 2, 6, n_d=1, rescaled=False)
        assert np.array_equal(m.values, one.values)


_RESIDUE_DEVICES = (
    # odd N: the mirror has cycles of lengths 1 and 2, order 2
    (eigen_tridiagonal(9, omega=0.3), Permutation.mirror(9)),
    # gcd(8, 12) = 4: four 3-cycles, order 3
    (eigen_circulant(12, (0.0, 1.0, 0.3) + (0.0,) * 7 + (0.3, 1.0)), Permutation.cyclic(12, 8)),
)


@pytest.mark.parametrize("device", range(len(_RESIDUE_DEVICES)))
@pytest.mark.parametrize("kind, n_d", [("quantum", 0), ("quantum", 3), ("classical", 0)])
def test_sweep_wiring_by_residue_is_bitwise(device, kind, n_d, monkeypatch):
    es, p = _RESIDUE_DEVICES[device]
    steps = (0, 1, 2, 3, 4, 5, 997, 10**6)
    args = (es, p, 0.45, 0.8, steps, 2, 7)
    fast = list(correlation_sweep(*args, n_d=n_d, kind=kind, rescaled=True))
    # the loop enters only as k_i m mod the period: a multiple of the period
    # too large for int64 products reduces in Python ints to the same turns
    real = Permutation.order
    monkeypatch.setattr(Permutation, "order", lambda p: real(p) * 10**18)
    slow = list(correlation_sweep(*args, n_d=n_d, kind=kind, rescaled=True))
    assert [m.step for m in fast] == list(steps)
    for a, b in zip(fast, slow):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("device", range(len(_RESIDUE_DEVICES)))
def test_sweep_builds_its_loop_basis_once(device, monkeypatch):
    es, p = _RESIDUE_DEVICES[device]
    calls = []
    real = correlations.loop_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(correlations, "loop_basis", counting)
    for kind in ("quantum", "classical"):
        calls.clear()
        list(correlation_sweep(es, p, 0.45, 0.8, range(201), 1, 7, kind=kind, rescaled=True))
        assert len(calls) == 1


@pytest.mark.parametrize("device", range(len(_RESIDUE_DEVICES)))
def test_loop_basis_phases(device):
    es, p = _RESIDUE_DEVICES[device]
    lam, v, k, period = correlations.loop_basis(es, p)
    assert period == (2, 3)[device]
    assert np.array_equal(lam, es.eigenvalues) and np.array_equal(v, es.eigenvectors)
    mu = np.exp(2j * np.pi * np.array(k) / period)
    assert np.max(np.abs(p.matrix() @ v - v * mu)) <= 1e-14
    if device == 0:
        # sine mode m is even (mu = 1) for odd m and odd (mu = -1) for even m
        assert k == tuple(int(m % 2 == 0) for m in range(1, 10))
    else:
        # Fourier mode m of a shift by c = 8: mu = exp(2 pi i (m - 1) 8 / 12)
        assert k == tuple((m - 1) * 8 % 12 // 4 for m in range(1, 13))


def test_loop_basis_rotates_a_degenerate_cluster():
    # a ring's Fourier pairs rotated into real standing waves, which the
    # shift does not keep: the basis must rotate them back
    es = eigen_circulant(12, (0.0, 1.0) + (0.0,) * 9 + (1.0,))
    p = Permutation.cyclic(12, 5)
    v = es.eigenvectors.copy()
    for a, b in ((1, 11), (2, 10), (3, 9), (4, 8), (5, 7)):
        v[:, [a, b]] = v[:, [a, b]] @ (np.array([[1, 1j], [1, -1j]]) / np.sqrt(2))
    standing = EigenSystem(es.eigenvalues, v)
    lam, v, k, period = correlations.loop_basis(standing, p)
    assert period == 12
    mu = np.exp(2j * np.pi * np.array(k) / period)
    assert np.max(np.abs(p.matrix() @ v - v * mu)) <= 1e-12
    assert np.max(np.abs(lam - es.eigenvalues)) <= 1e-14
    assert sorted(k) == sorted((m * 5) % 12 for m in range(12))
    # the relabelled closed form is the same whichever basis it starts from
    for a, b in zip(
        correlation_sweep(es, p, 0.6, 1.0, range(6), 1, 4, rescaled=True),
        correlation_sweep(standing, p, 0.6, 1.0, range(6), 1, 4, rescaled=True),
    ):
        assert np.max(np.abs(a.values - b.values)) <= 1e-14


def test_sweep_checks_inputs_before_iterating():
    es, p = _chain(4)
    with pytest.raises(ConfigError):
        correlation_sweep(es, p, 0.4, 1.0, (1, 0), 1, 2, rescaled=False)
    with pytest.raises(ConfigError):
        correlation_sweep(es, p, 0.4, 1.0, (1, 2), 1, 2, kind="bosonic", rescaled=True)
    with pytest.raises(UnsupportedConfigError):
        correlation_sweep(es, p, 0.4, 1.0, (1,), 1, 2, n_d=1, kind="classical", rescaled=True)
    assert list(correlation_sweep(es, p, 0.4, 1.0, (), 1, 2, rescaled=True)) == []


# ---- guards ------------------------------------------------------------------


def non_commuting_device():
    """A random exactly symmetric G with a shuffled loop permutation."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 8))
    perm = tuple(int(x) + 1 for x in rng.permutation(8))
    return DeviceConfig(
        topology="custom", n_modes=8, theta=0.5, custom_g=(a + a.T) / 2, custom_perm=perm
    )


def test_non_commuting_loop_refused():
    cfg = non_commuting_device()
    p = permutation_for(cfg)
    assert np.max(np.abs(p.relabel(cfg.custom_g) - cfg.custom_g)) > 1.0
    # why it is refused: relabelling U(n tau) drifts from the exact
    # simulator once the walk has gone round the loop more than once
    es = eigensystem_for(cfg)
    run = delayed_run(cfg, 1, 3, 0, 2)
    diffs = [
        np.max(np.abs(_reference_cell(es, p, 0.5, 1.0, n, 0, 1, 3, "quantum", False)
                      - run.transit_records[n - 1].coincidences))
        for n in (1, 2)
    ]
    assert diffs[0] < 1e-15 and diffs[1] > 1e-3
    # and no mode basis carries the relabelling as a phase
    with pytest.raises(NumericError, match="one phase each"):
        correlation_sweep(es, p, 0.5, 1.0, (1, 2), 1, 3, rescaled=False)
    with pytest.raises(UnsupportedConfigError, match="commutes"):
        device_correlation(cfg, 1, 1, 3, rescaled=True)


def test_commuting_custom_loop_accepted():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6))
    g = a + a.T
    cfg = DeviceConfig(topology="custom", n_modes=6, theta=0.5, custom_g=g,
                       custom_perm=(1, 2, 3, 4, 5, 6))
    run = delayed_run(cfg, 2, 5, 0, 3)
    got = device_correlation(cfg, 3, 2, 5, rescaled=False).values
    assert np.max(np.abs(got - run.transit_records[2].coincidences)) < 1e-15



def test_per_guide_theta_rejected_by_closed_form():
    cfg = DeviceConfig(topology="cylinder", n_modes=3, theta=(0.1, 0.2, 0.3))
    with pytest.raises(UnsupportedConfigError):
        device_correlation(cfg, 1, 1, 2, rescaled=True)


def test_classical_delayed_unsupported():
    cfg = DeviceConfig(topology="cylinder", n_modes=4, theta=0.4)
    with pytest.raises(UnsupportedConfigError):
        device_correlation(cfg, 1, 1, 2, n_d=1, kind="classical", rescaled=True)


def test_inputs_validated():
    es, p = _chain(3)
    with pytest.raises(ConfigError):
        correlation_sweep(es, p, 0.4, 1.0, (1,), 0, 2, rescaled=True)
    with pytest.raises(ConfigError):
        correlation_sweep(es, p, 0.4, 1.0, (1,), 1, 4, rescaled=True)


def test_symmetry_map_guards():
    with pytest.raises(ConfigError):
        symmetry_map("cylinder", 1, 5)
    with pytest.raises(ConfigError):
        symmetry_map("twisted_circle", 1, 5, shift_c=7)


# ---- invariant normal modes --------------------------------------------------------


def test_chain_modes_alternate_mirror_parity():
    # sine modes flip sign under mirroring when their index is even
    es = eigen_tridiagonal(5)
    groups = invariant_modes(es, Permutation.mirror(5))
    by_mode = {g.mode_indices[0]: g for g in groups}
    assert all(g.dim == 1 for g in groups)
    assert [by_mode[m].invariant_dim for m in (1, 2, 3, 4, 5)] == [1, 0, 1, 0, 1]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("name", ["tol", "degeneracy_tol"])
def test_invariant_modes_refuse_bad_tolerances(name, bad):
    # a nan tol certified no mode and an inf one every mode
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        invariant_modes(eigen_tridiagonal(5), Permutation.mirror(5), **{name: bad})


@pytest.mark.parametrize("n_perm", [4, 6])
@pytest.mark.parametrize(
    "entry",
    [
        correlations.loop_basis,
        invariant_modes,
        lambda es, p: next(correlation_sweep(es, p, 0.5, 1.0, (1,), 1, 2, rescaled=True)),
    ],
    ids=["loop_basis", "invariant_modes", "correlation_sweep"],
)
def test_mismatched_sizes_are_config_error(entry, n_perm):
    # the kernel failed with a ValueError (4 modes) or an IndexError (6 modes)
    with pytest.raises(ConfigError, match=f"^eigensystem on 5 modes, permutation on {n_perm}$"):
        entry(eigen_tridiagonal(5), Permutation.mirror(n_perm))


def test_ring_modes_under_shift():
    # N = 12, shift 4: Fourier mode m is fixed iff 4 (m - 1) = 0 mod 12
    gvec = (0.0, 1.0) + (0.0,) * 9 + (1.0,)
    es = eigen_circulant(12, gvec)
    groups = invariant_modes(es, Permutation.cyclic(12, 4))
    by_modes = {g.mode_indices: g for g in groups}
    assert by_modes[(1,)].invariant_dim == 1
    assert by_modes[(7,)].invariant_dim == 1
    zero_cluster = by_modes[(4, 10)]
    assert zero_cluster.dim == 2
    assert zero_cluster.invariant_dim == 2  # both Fourier modes are fixed
    assert by_modes[(2, 12)].invariant_dim == 0
    # invariant bases really are fixed by the relabelling
    pmat = Permutation.cyclic(12, 4).matrix()
    for g in groups:
        if g.invariant_dim:
            assert np.max(np.abs(pmat @ g.basis - g.basis)) < 1e-9


def test_two_photon_check_accepts_fixed_modes():
    es = eigen_tridiagonal(5)
    p = Permutation.mirror(5)
    v = es.eigenvectors
    assert two_photon_invariant_check(es, p, 0.6, 1.0, v[:, 0], v[:, 2], n_steps=3)


def test_two_photon_check_rejects_moving_state():
    es = eigen_tridiagonal(5)
    p = Permutation.mirror(5)
    e1 = np.zeros(5, dtype=complex)
    e2 = np.zeros(5, dtype=complex)
    e1[0] = 1.0
    e2[1] = 1.0
    assert not two_photon_invariant_check(
        es, p, 0.6, 1.0, e1, e2, n_steps=3, enforce_invariance=False
    )
    with pytest.raises(ValueError, match="invariant"):
        two_photon_invariant_check(es, p, 0.6, 1.0, e1, e2, n_steps=3)


@pytest.mark.parametrize(
    "n", [1, 2, 3, 7, 12345, 10**6, 10**12, 10**17, 10**20, 10**20 + 1, 2**60 + 1]
)
def test_optimal_theta_keeps_full_precision(n):
    # sin^2 theta = 1/n exactly at the optimum; arccos(sqrt((n-1)/n)) lost
    # digits from n ~ 1e4 and returned 0 from n = 1e17
    theta = optimal_theta(n)
    assert abs(n * np.sin(theta) ** 2 - 1.0) <= 4 * np.finfo(float).eps


def test_optimal_theta_beyond_floats_is_config_error():
    with pytest.raises(ConfigError, match="too large for a float"):
        optimal_theta(10**400)
