"""End-to-end acceptance gate.

Each test records one PASS/FAIL verdict and then asserts; the conftest
summary hook prints the ten-line scoreboard after the run (pytest captures
file descriptors mid-run, so printing here would be swallowed)."""

import time

import numpy as np

import loopwalk as lw
from loopwalk.correlations import (
    correlation_sweep,
    invariant_modes,
    optimal_theta,
    survival_prefactor,
    symmetry_map,
    two_photon_invariant_check,
)
from loopwalk.model import DeviceConfig, Permutation, permutation_for
from loopwalk.spectra import (
    build_circulant,
    build_tridiagonal,
    eigen_circulant,
    eigen_numeric,
    eigen_tridiagonal,
    eigensystem_for,
)

Q = np.pi / 4

RING12 = (0.0, 1.0) + (0.0,) * 9 + (1.0,)

DEVICES = [
    DeviceConfig(topology="cylinder", n_modes=12, theta=Q),
    DeviceConfig(topology="moebius", n_modes=12, theta=Q),
    DeviceConfig(topology="twisted_circle", n_modes=12, theta=Q, shift_c=4, g_vector=RING12),
    DeviceConfig(topology="cylinder", n_modes=21, theta=Q),
]


RESULTS = {}


def _verdict(num, name, ok, detail=""):
    RESULTS[num] = (name, bool(ok), detail)
    line = f"acceptance {num:2d}/10 [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    assert ok, line


def test_01_closed_forms_match_exact_simulator():
    t0 = time.perf_counter()
    worst = 0.0
    for cfg in DEVICES:
        run = lw.delayed_run(cfg, 1, 7, 0, 4)
        for n in range(1, 5):
            closed = lw.device_correlation(cfg, n, 1, 7, rescaled=False)
            diff = float(np.max(np.abs(closed.values - run.transit_records[n - 1].coincidences)))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "closed forms vs exact simulator, all topologies, n = 1..4",
        worst < 1e-10 and elapsed < 10.0,
        f"worst {worst:.2e}, {elapsed:.2f} s",
    )


def test_02_half_twist_mirrors_the_pattern():
    n_modes = 12
    es = eigen_tridiagonal(n_modes)
    ident = Permutation.identity(n_modes)
    mirror = Permutation.mirror(n_modes)
    worst = 0.0
    cyls = correlation_sweep(es, ident, Q, 1.0, (1, 2, 3), 1, 7, rescaled=True)
    mobs = correlation_sweep(es, mirror, Q, 1.0, (1, 2, 3), 1, 7, rescaled=True)
    for cyl, mob in zip(cyls, mobs):
        expect = symmetry_map("moebius", cyl.step, n_modes).relabel(cyl.values)
        worst = max(worst, float(np.max(np.abs(mob.values - expect))))
    _verdict(2, "half twist = mirrored pattern (odd n), undone (even n)", worst < 1e-12,
             f"worst {worst:.2e}")


def test_03_twist_shifts_the_pattern():
    n_modes, c = 12, 4
    es = eigen_circulant(n_modes, RING12)
    ring = Permutation.identity(n_modes)
    twist = Permutation.cyclic(n_modes, c)
    worst = 0.0
    refs = correlation_sweep(es, ring, Q, 1.0, range(1, 5), 1, 7, rescaled=True)
    tws = correlation_sweep(es, twist, Q, 1.0, range(1, 5), 1, 7, rescaled=True)
    for ref, tw in zip(refs, tws):
        expect = symmetry_map("twisted_circle", ref.step, n_modes, c).relabel(ref.values)
        worst = max(worst, float(np.max(np.abs(tw.values - expect))))
    _verdict(3, "twisted circle = ring pattern shifted by n c", worst < 1e-12,
             f"worst {worst:.2e}")


def test_04_detection_mass_follows_coupler_budget():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        n_modes = int(rng.integers(2, 13))
        theta = float(rng.uniform(0.05, 1.5))
        n = int(rng.integers(1, 6))
        topo = rng.choice(["cylinder", "moebius", "twisted_circle"])
        if topo == "twisted_circle":
            g = [0.0] * n_modes
            if n_modes >= 2:
                g[1] = g[-1] = 1.0
            cfg = DeviceConfig(
                topology=topo, n_modes=n_modes, theta=theta,
                shift_c=int(rng.integers(0, n_modes)), g_vector=tuple(g),
            )
        else:
            cfg = DeviceConfig(topology=topo, n_modes=n_modes, theta=theta)
        j = int(rng.integers(1, n_modes + 1))
        k = int(rng.integers(1, n_modes + 1))
        got = np.triu(lw.device_correlation(cfg, n, j, k, rescaled=False).values).sum()
        worst = max(worst, abs(got - survival_prefactor(theta, n)))

    entry_worst = 0.0
    for theta in (0.3, 0.7, Q, 1.2):
        run = lw.delayed_run(
            DeviceConfig(topology="cylinder", n_modes=6, theta=theta), 1, 4, 0, 1
        )
        entry_worst = max(entry_worst, abs(run.entry_prob - np.sin(theta) ** 4))
    _verdict(
        4,
        "pair mass = cos^(4(n-1)) sin^4 over 50 random devices; entry = sin^4",
        worst < 1e-10 and entry_worst < 1e-12,
        f"mass {worst:.2e}, entry {entry_worst:.2e}",
    )


def test_05_optimal_angle_against_dense_grid():
    grid = np.linspace(0.0, np.pi / 2, 10**6)
    worst = 0.0
    for n in range(1, 11):
        mass = np.cos(grid) ** (4 * (n - 1)) * np.sin(grid) ** 4
        best = grid[int(np.argmax(mass))]
        worst = max(worst, abs(optimal_theta(n) - best))
    _verdict(5, "optimal coupler angle vs 1e6-point grid, n = 1..10", worst < 1e-5,
             f"worst {worst:.2e}")


def test_06_spectra_reconstruct_and_cross_check():
    worst_rec = 0.0
    worst_lam = 0.0
    rng = np.random.default_rng(99)
    for n in range(2, 33):
        cm = build_tridiagonal(n, omega=0.3)
        es = eigen_tridiagonal(n, omega=0.3)
        worst_rec = max(worst_rec, es.reconstruction_error(cm))
        num = eigen_numeric(cm)
        worst_lam = max(
            worst_lam,
            float(np.max(np.abs(np.sort(es.eigenvalues) - num.eigenvalues))),
        )
        if n >= 3:
            g = np.zeros(n)
            g[0] = rng.normal()
            for j in range(1, n // 2 + 1):
                g[j] = g[n - j] = rng.normal()
            cm2 = build_circulant(n, g)
            es2 = eigen_circulant(n, g)
            worst_rec = max(worst_rec, es2.reconstruction_error(cm2))
            num2 = eigen_numeric(cm2)
            worst_lam = max(
                worst_lam,
                float(np.max(np.abs(np.sort(es2.eigenvalues) - num2.eigenvalues))),
            )
    _verdict(
        6,
        "closed-form spectra reconstruct G and match the numeric solver, N <= 32",
        worst_rec < 1e-10 and worst_lam < 1e-10,
        f"reconstruct {worst_rec:.2e}, eigenvalues {worst_lam:.2e}",
    )


def test_07_two_guide_bunching():
    es = eigen_tridiagonal(2)
    p = Permutation.identity(2)
    (g,) = correlation_sweep(es, p, Q, Q, (1,), 1, 2, rescaled=True)
    (c,) = correlation_sweep(es, p, Q, Q, (1,), 1, 2, kind="classical", rescaled=True)
    worst = max(
        abs(g.values[0, 1]), abs(g.values[0, 0] - 0.5), abs(g.values[1, 1] - 0.5),
        abs(c.values[0, 1] - 0.5),
    )
    _verdict(7, "two-guide bunching: no cross coincidences, equal doubles",
             worst < 1e-12, f"worst {worst:.2e}")


def test_08_delayed_entry_matches_staged_simulator():
    worst = 0.0
    for topo in ("cylinder", "moebius"):
        cfg = DeviceConfig(topology=topo, n_modes=12, theta=Q)
        es = eigensystem_for(cfg)
        p = permutation_for(cfg)
        for n_d in (1, 2):
            run = lw.delayed_run(cfg, 1, 7, n_d, 4)
            sweep = correlation_sweep(es, p, Q, 1.0, range(1, 5), 1, 7, n_d=n_d, rescaled=False)
            for cell, rec in zip(sweep, run.transit_records):
                worst = max(worst, float(np.max(np.abs(cell.values - rec.coincidences))))
    _verdict(8, "delayed entry: closed forms match the staged simulator",
             worst < 1e-10, f"worst {worst:.2e}")


def test_09_loop_design_is_feasible():
    budget = lw.loop_budget(lw.PhysicalParams.glass_800nm())
    loss_pct = 100.0 * budget["loss_fraction"]
    pulse_cm = 100.0 * budget["pulse_length_m"]
    ok = (
        abs(loss_pct - 0.85) < 0.01
        and abs(pulse_cm - 0.41) < 0.01
        and budget["broadening_fraction"] < 0.02
    )
    _verdict(
        9,
        "100-transit loop: sub-percent loss, cm-scale pulse, < 2% broadening",
        ok,
        f"loss {loss_pct:.3f}%, pulse {pulse_cm:.3f} cm, "
        f"broadening {100 * budget['broadening_fraction']:.2f}%",
    )


def test_10_invariant_modes_freeze_the_pattern():
    cfg = DeviceConfig(topology="twisted_circle", n_modes=12, theta=0.6, shift_c=4,
                       g_vector=RING12)
    es = eigensystem_for(cfg)
    p = permutation_for(cfg)
    groups = {g.mode_indices: g for g in invariant_modes(es, p)}

    certified = (
        groups[(1,)].invariant_dim == 1
        and groups[(7,)].invariant_dim == 1
        and groups[(4, 10)].invariant_dim == 2
    )

    v = es.eigenvectors
    cluster = groups[(4, 10)].basis
    constant = (
        two_photon_invariant_check(es, p, 0.6, 1.0, v[:, 0], v[:, 6])
        and two_photon_invariant_check(es, p, 0.6, 1.0, v[:, 0], cluster[:, 0])
        and two_photon_invariant_check(es, p, 0.6, 1.0, cluster[:, 0], cluster[:, 1])
    )

    e1 = np.zeros(12, dtype=complex)
    e2 = np.zeros(12, dtype=complex)
    e1[0] = 1.0
    e2[1] = 1.0
    moving = two_photon_invariant_check(
        es, p, 0.6, 1.0, e1, e2, enforce_invariance=False
    )

    _verdict(
        10,
        "certified invariant modes give transit-independent patterns; site states do not",
        certified and constant and not moving,
        f"certified={certified}, constant={constant}, moving={moving}",
    )
