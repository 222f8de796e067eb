import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loopwalk import fock_oracle
from loopwalk.fock_oracle import (
    Couple,
    Evolve,
    InjectB,
    Permute,
    ProjectBVacuum,
    StepOperators,
    TwoPhotonState,
    _expm,
    act_on_pairs,
    delayed_run,
    lift_to_two_photon,
    pair_basis,
    run_pipeline,
    simultaneous_schedule,
    single_particle_step_matrix,
    transit_schedule,
)
from loopwalk.model import ConfigError, DeviceConfig, NumericError, UnsupportedConfigError
from loopwalk.spectra import eigen_tridiagonal
from reference import transfer_matrix


def _cfg(n, theta=np.pi / 4, **kw):
    return DeviceConfig(topology="cylinder", n_modes=n, theta=theta, **kw)


# ---- matrix exponential --------------------------------------------------


def test_expm_matches_spectral_route():
    rng = np.random.default_rng(1)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        g = a + a.T
        t = float(rng.uniform(0.1, 3.0))
        lam, v = np.linalg.eigh(g)
        direct = (v * np.exp(-1j * lam * t)[None, :]) @ v.conj().T
        assert np.max(np.abs(_expm(-1j * g * t) - direct)) < 1e-12


def test_expm_identity_and_scaling_path():
    assert np.allclose(_expm(np.zeros((3, 3), dtype=complex)), np.eye(3))
    # norm above the Pade threshold exercises squaring
    g = 40.0 * eigen_tridiagonal(4).reconstruct().real
    lam, v = np.linalg.eigh(g)
    direct = (v * np.exp(-1j * lam)[None, :]) @ v.conj().T
    assert np.max(np.abs(_expm(-1j * g) - direct)) < 1e-10


# ---- pair basis and lifting -------------------------------------------------


def test_pair_basis_dimensions():
    pb = pair_basis(42)  # 2N for N = 21
    assert pb.dim == 42 * 43 // 2 == 903
    assert pb.lookup[3, 7] == pb.lookup[7, 3]


def test_lift_preserves_unitarity():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    u, _ = np.linalg.qr(a)
    big = lift_to_two_photon(u)
    d = big.shape[0]
    assert d == 5 * 6 // 2
    assert np.max(np.abs(big.conj().T @ big - np.eye(d))) < 1e-12


def test_lift_is_multiplicative():
    rng = np.random.default_rng(6)
    mats = []
    for _ in range(2):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        mats.append(q)
    u1, u2 = mats
    assert np.max(
        np.abs(lift_to_two_photon(u1 @ u2) - lift_to_two_photon(u1) @ lift_to_two_photon(u2))
    ) < 1e-12


# ---- states ----------------------------------------------------------------


def _reference_lift(u):
    """The lift as one broadcast expression over the full dim x dim grid."""
    pb = pair_basis(u.shape[0])
    r1, r2 = pb.i1[:, None], pb.i2[:, None]
    m1, m2 = pb.i1[None, :], pb.i2[None, :]
    lifted = u[r1, m1] * u[r2, m2] + u[r1, m2] * u[r2, m1]
    lifted *= pb.weight[:, None]
    lifted *= pb.weight[None, :]
    return lifted


def _random_complex(size, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_lift_matches_reference_bitwise(n):
    # at N = 30 the 1830 output rows span several row blocks, the last one short
    u = _random_complex(2 * n, seed=n)
    assert np.array_equal(lift_to_two_photon(u), _reference_lift(u))


def _block_rows(blocks, dim):
    """Output rows per lift block: one, a count that does not divide dim,
    exactly dim, or more than dim."""
    if blocks == "one":
        return 1
    if blocks == "non_divisor":
        return next(k for k in range(2, dim) if dim % k)
    return dim if blocks == "dim" else 2 * dim + 1


@pytest.mark.parametrize("blocks", ["one", "non_divisor", "dim", "beyond"])
@pytest.mark.parametrize("n", [1, 7, 12, 30])
def test_lift_is_independent_of_its_block_size(n, blocks, monkeypatch):
    u = _random_complex(2 * n, seed=n + 100)
    dim = pair_basis(2 * n).dim
    rows = _block_rows(blocks, dim)
    monkeypatch.setattr(fock_oracle, "_LIFT_BLOCK_BYTES", rows * dim * 16)
    assert np.array_equal(lift_to_two_photon(u), _reference_lift(u))


def test_lift_allocates_little_beyond_its_result():
    # a lift's tracemalloc peak is its result plus ~3 block-sized
    # temporaries: 1.70, 1.15 and 1.08 lifted sizes measured at N = 12, 21, 30
    for n, bound in ((12, 1.85), (21, 1.25), (30, 1.15)):
        u = _random_complex(2 * n, seed=3)
        pair_basis(2 * n)
        tracemalloc.start()
        try:
            lifted = lift_to_two_photon(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * lifted.nbytes, f"N = {n}: {peak / lifted.nbytes:.2f} lifted sizes"


def test_from_array_pair_amplitudes():
    st = TwoPhotonState.from_array_pair(3, 1, 2)
    assert st.amplitude(1, 2) == 1.0
    assert st.amplitude(2, 1) == 1.0
    assert st.amplitude(1, 1) == 0.0
    assert st.norm_sq() == 1.0


def test_state_norm_cap():
    pb = pair_basis(4)
    amps = np.zeros(pb.dim, dtype=complex)
    amps[0] = 1.1
    with pytest.raises(ValueError, match="norm"):
        TwoPhotonState(2, amps)


def test_from_mode_vectors_orthogonal_inputs():
    st = TwoPhotonState.from_mode_vectors(2, [1.0, 0.0], [0.0, 1.0])
    assert abs(st.amplitude(1, 2) - 1.0) < 1e-14
    assert st.amplitude(1, 1) == 0.0


def test_from_mode_vectors_same_input():
    st = TwoPhotonState.from_mode_vectors(2, [1.0, 0.0], [1.0, 0.0])
    assert abs(st.amplitude(1, 1) - 1.0) < 1e-14


def test_coincidence_matrix_reads_tap_guides():
    n = 3
    pb = pair_basis(2 * n)
    amps = np.zeros(pb.dim, dtype=complex)
    amps[pb.lookup[n + 0, n + 2]] = 0.6  # taps of guides 1 and 3
    amps[pb.lookup[n + 1, n + 1]] = 0.8  # both photons in tap 2
    st = TwoPhotonState(n, amps)
    m = st.coincidence_matrix()
    assert abs(m[0, 2] - 0.36) < 1e-14 and abs(m[2, 0] - 0.36) < 1e-14
    assert abs(m[1, 1] - 0.64) < 1e-14
    assert m[0, 0] == 0.0


# ---- single steps -------------------------------------------------------------


def test_step_matrices_are_unitary():
    cfg = _cfg(4, theta=(0.2, 0.3, 0.4, 0.5))
    for step in (Evolve(), Permute(), Couple()):
        u = single_particle_step_matrix(step, cfg)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12


def test_evolve_block_matches_transfer_matrix():
    cfg = _cfg(5, tau=1.3)
    u = single_particle_step_matrix(Evolve(), cfg)
    ref = transfer_matrix(eigen_tridiagonal(5), 1.3)
    assert np.max(np.abs(u[:5, :5] - ref)) < 1e-12
    assert np.allclose(u[5:, 5:], np.eye(5))
    assert np.all(u[:5, 5:] == 0) and np.all(u[5:, :5] == 0)


def test_injection_has_no_matrix():
    with pytest.raises(ValueError):
        single_particle_step_matrix(InjectB(1), _cfg(2))


# ---- pipeline -------------------------------------------------------------------


def test_entry_probability_uniform_theta():
    theta = 0.6
    res = delayed_run(_cfg(5, theta=theta), 2, 4, 0, 1)
    assert abs(res.entry_prob - np.sin(theta) ** 4) < 1e-12


def test_entry_probability_per_guide_theta():
    # entry conditioning transmits each photon through its own coupler
    thetas = (0.3, 0.5, 0.7, 0.9)
    cfg = _cfg(4, theta=thetas)
    res = run_pipeline(
        cfg,
        [InjectB(1), InjectB(3), Couple(), ProjectBVacuum(renormalize=True)],
    )
    expected = np.sin(0.3) ** 2 * np.sin(0.7) ** 2
    assert abs(res.entry_prob - expected) < 1e-12


def test_transit_mass_follows_coupler_budget():
    theta = 0.7
    res = delayed_run(_cfg(6, theta=theta), 1, 4, 0, 4)
    for n, rec in enumerate(res.transit_records, start=1):
        expected = np.cos(theta) ** (4 * (n - 1)) * np.sin(theta) ** 4
        # unordered pairs: the mirrored matrix double-counts r != s
        pair_mass = np.triu(rec.coincidences).sum()
        assert abs(pair_mass - expected) < 1e-12


def test_delay_zero_matches_simultaneous():
    a = run_pipeline(_cfg(5), simultaneous_schedule(1, 3, 3))
    b = delayed_run(_cfg(5), 1, 3, 0, 3)
    for ra, rb in zip(a.transit_records, b.transit_records):
        assert np.array_equal(ra.coincidences, rb.coincidences)


def test_double_injection_into_occupied_guide_rejected():
    with pytest.raises(ConfigError, match="occupied"):
        run_pipeline(_cfg(3), [InjectB(1), InjectB(1), Couple(), ProjectBVacuum(True)])


def test_pipeline_requires_two_photons():
    with pytest.raises(ConfigError):
        run_pipeline(_cfg(3), [InjectB(1), Couple(), ProjectBVacuum(False)])


def test_zero_probability_conditioning_raises():
    # theta = 0 decouples the taps: nothing survives the projection
    with pytest.raises(NumericError):
        run_pipeline(
            _cfg(3, theta=0.0),
            [InjectB(1), InjectB(2), Couple(), ProjectBVacuum(renormalize=True)],
        )


def test_norm_bookkeeping_across_transits():
    res = delayed_run(_cfg(4, theta=0.5), 1, 2, 0, 3)
    total_removed = sum(r.removed_mass for r in res.transit_records)
    remaining = res.final_state.norm_sq()
    assert abs(total_removed + remaining - 1.0) < 1e-12


def test_transit_schedule_layout():
    sched = transit_schedule(2)
    kinds = [type(s).__name__ for s in sched]
    assert kinds == [
        "Evolve", "Permute", "Couple", "ProjectBVacuum",
        "Evolve", "Permute", "Couple", "ProjectBVacuum",
    ]
    assert not any(s.renormalize for s in sched if isinstance(s, ProjectBVacuum))


# ---- shared step operators ------------------------------------------------------


def _twisted(n=12, theta=0.6):
    g = [0.0] * n
    g[1] = g[-1] = 1.0
    return DeviceConfig(
        topology="twisted_circle", n_modes=n, theta=theta, shift_c=5, g_vector=tuple(g)
    )


def test_shared_operators_match_fresh_runs():
    cfg = _twisted()
    ops = StepOperators(cfg)
    for j, k, nd in ((1, 7, 0), (3, 12, 2), (2, 5, 1)):
        shared = delayed_run(cfg, j, k, nd, 3, operators=ops)
        fresh = delayed_run(cfg, j, k, nd, 3)
        assert len(shared.records) == len(fresh.records)
        for a, b in zip(shared.records, fresh.records):
            assert np.array_equal(a.coincidences, b.coincidences)
            assert a.post_selection_prob == b.post_selection_prob
        assert np.array_equal(shared.final_state.amps, fresh.final_state.amps)
    assert set(ops.lifted) == {Couple()}


@st.composite
def relabelled_amplitudes(draw, photons):
    """A custom device with a random loop permutation, N <= 8, and a random
    amplitude vector over its one-photon modes or its mode pairs."""
    n = draw(st.integers(min_value=1, max_value=8))
    perm = draw(st.permutations(range(1, n + 1)))
    cfg = DeviceConfig(
        topology="custom", n_modes=n, theta=0.5, custom_g=np.zeros((n, n)), custom_perm=perm
    )
    size = 2 * n if photons == 1 else pair_basis(2 * n).dim
    parts = draw(hnp.arrays(np.float64, (2, size), elements=st.floats(-1.0, 1.0)))
    return cfg, parts[0] + 1j * parts[1]


@settings(max_examples=200, deadline=None)
@given(case=relabelled_amplitudes(photons=1))
def test_one_photon_relabel_is_the_permute_matrix(case):
    cfg, vec = case
    u = single_particle_step_matrix(Permute(), cfg)
    assert np.array_equal(vec[StepOperators(cfg).relabel[1]], u @ vec)


@settings(max_examples=200, deadline=None)
@given(case=relabelled_amplitudes(photons=2))
def test_two_photon_relabel_is_the_lifted_permute_matrix(case):
    cfg, vec = case
    pb = pair_basis(2 * cfg.n_modes)
    got = vec[StepOperators(cfg).relabel[2]]
    want = lift_to_two_photon(single_particle_step_matrix(Permute(), cfg)) @ vec
    single = pb.i1 != pb.i2
    assert np.array_equal(got[single], want[single])
    # the lift weights a doubly occupied pair by 2 (1/sqrt 2)^2 = 1 - 2^-52
    double = ~single
    assert np.all(np.abs(got[double] - want[double]) <= 3e-16 * np.abs(got[double]))


@st.composite
def evolved_amplitudes(draw):
    """A custom device, N <= 8, with random couplings and transit time, and
    a random amplitude vector over its mode pairs, doubly occupied included."""
    n = draw(st.integers(min_value=1, max_value=8))
    a = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
    cfg = DeviceConfig(
        topology="custom", n_modes=n, theta=0.5, tau=draw(st.floats(0.1, 3.0)),
        custom_g=a + a.T, custom_perm=list(range(1, n + 1)),
    )
    size = pair_basis(2 * n).dim
    parts = draw(hnp.arrays(np.float64, (2, size), elements=st.floats(-1.0, 1.0)))
    return cfg, parts[0] + 1j * parts[1]


@settings(max_examples=200, deadline=None)
@given(case=evolved_amplitudes())
def test_amplitude_matrix_evolve_is_the_lifted_evolve(case):
    cfg, vec = case
    u = single_particle_step_matrix(Evolve(), cfg)
    got = act_on_pairs(u, vec)
    want = lift_to_two_photon(u) @ vec
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_sweep_holds_one_lifted_matrix():
    # at N = 30 a lift's ~256-KiB row block is small against its 53.6-MB
    # result, so the peak is the lifted Couple plus the block's temporaries
    # (1.08 lifted sizes measured); a second lifted matrix would need twice that
    cfg = _twisted(n=30)
    delayed_run(cfg, 1, 7, 2, 2)
    lifted_bytes = pair_basis(60).dim ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        delayed_run(cfg, 1, 7, 2, 4, operators=StepOperators(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * lifted_bytes


def test_operators_of_another_device_refused():
    ops = StepOperators(_twisted())
    with pytest.raises(ConfigError, match="another DeviceConfig"):
        delayed_run(_twisted(), 1, 7, 0, 1, operators=ops)


def test_operators_beyond_physical_memory_refused():
    # one 2001000 x 2001000 complex matrix: ~64 TB
    with pytest.raises(UnsupportedConfigError, match="GB of physical memory"):
        StepOperators(_cfg(1000))
