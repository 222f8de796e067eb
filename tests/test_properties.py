"""Properties of the closed forms on randomly generated devices.

The acceptance tests check pair mass, the relabelling maps and agreement
with the exact simulator on a few fixed devices; here hypothesis draws
the devices: every topology, N <= 8, any coupler angle, transit time and
common mode frequency, any symmetric circulant ring, and custom couplings
G = sum_k a_k (P^k + P^-k), which commute with their random loop
permutation P by construction.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopwalk.cli import main
from loopwalk.correlations import (
    correlation_sweep,
    require_commuting_loop,
    survival_prefactor,
    symmetry_map,
)
from loopwalk.fock_oracle import StepOperators, delayed_run
from loopwalk.model import DeviceConfig, Permutation, permutation_for
from loopwalk.propagate import permute_modes
from loopwalk.spectra import eigensystem_for

STEPS = (1, 2, 3)

# theta = 0 never lets a photon in and theta = pi/2 lets none stay in the
# array, so the simulator's conditioning events have probability zero there
angles = st.floats(min_value=0.05, max_value=1.5)
times = st.floats(min_value=0.1, max_value=3.0)
couplings = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def permutations(draw, n):
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def devices(draw, topologies=("cylinder", "moebius", "twisted_circle", "custom")):
    topology = draw(st.sampled_from(topologies))
    n = draw(st.integers(min_value=2, max_value=8))
    cfg = dict(
        topology=topology, n_modes=n, theta=draw(angles), tau=draw(times), omega=draw(couplings)
    )
    if topology == "twisted_circle":
        half = draw(st.lists(couplings, min_size=n // 2 + 1, max_size=n // 2 + 1))
        cfg.update(
            shift_c=draw(st.integers(min_value=0, max_value=n - 1)),
            g_vector=tuple(half[min(m, n - m)] for m in range(n)),
        )
    elif topology == "custom":
        p = draw(permutations(n))
        power = np.eye(n)
        g = np.zeros((n, n))
        for a in draw(st.lists(couplings, min_size=1, max_size=n)):
            g = g + a * (power + power.T)
            power = p.matrix() @ power
        cfg.update(custom_g=g, custom_perm=p.mapping)
    return DeviceConfig(**cfg)


def _guides(draw, n, distinct):
    j = draw(st.integers(min_value=1, max_value=n))
    k = draw(st.integers(min_value=1, max_value=n).filter(lambda k: not distinct or k != j))
    return j, k


@settings(max_examples=60, deadline=None)
@given(cfg=devices(), data=st.data())
def test_pair_mass_is_survival_prefactor(cfg, data):
    j, k = _guides(data.draw, cfg.n_modes, distinct=False)
    es, p = eigensystem_for(cfg), require_commuting_loop(cfg)
    theta = cfg.theta[0]
    for n_d, kind in ((0, "quantum"), (0, "classical"), (1, "quantum"), (2, "quantum")):
        sweep = correlation_sweep(
            es, p, theta, cfg.tau, STEPS, j, k, n_d=n_d, kind=kind, rescaled=False
        )
        for m in sweep:
            mass = np.triu(m.values).sum()
            assert abs(mass - survival_prefactor(theta, m.step)) <= 1e-12, (n_d, kind, m.step)


@settings(max_examples=40, deadline=None)
@given(cfg=devices(topologies=("moebius", "twisted_circle")), data=st.data())
def test_twisted_pattern_is_the_mapped_untwisted_one(cfg, data):
    j, k = _guides(data.draw, cfg.n_modes, distinct=False)
    if cfg.topology == "moebius":
        untwisted = replace(cfg, topology="cylinder")
    else:
        untwisted = replace(cfg, shift_c=0)
    es = eigensystem_for(cfg)
    args = (cfg.theta[0], cfg.tau, STEPS, j, k)
    twisted = correlation_sweep(es, permutation_for(cfg), *args, rescaled=True)
    plain = correlation_sweep(es, permutation_for(untwisted), *args, rescaled=True)
    for a, b in zip(plain, twisted):
        mapped = permute_modes(
            a.values, symmetry_map(cfg.topology, a.step, cfg.n_modes, cfg.shift_c)
        )
        assert np.max(np.abs(b.values - mapped)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(cfg=devices(), data=st.data())
def test_closed_form_matches_simulator(cfg, data):
    j, k = _guides(data.draw, cfg.n_modes, distinct=True)
    es, p = eigensystem_for(cfg), require_commuting_loop(cfg)
    operators = StepOperators(cfg)
    for n_d in (0, 1, 2):
        run = delayed_run(cfg, j, k, n_d, max(STEPS), operators=operators)
        sweep = correlation_sweep(
            es, p, cfg.theta[0], cfg.tau, STEPS, j, k, n_d=n_d, rescaled=False
        )
        for m, rec in zip(sweep, run.transit_records):
            assert np.max(np.abs(m.values - rec.coincidences)) <= 1e-12, (n_d, m.step)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_non_commuting_custom_device_exits_2(data, tmp_path_factory):
    n = data.draw(st.integers(min_value=2, max_value=8))
    a = np.array(data.draw(st.lists(couplings, min_size=n * n, max_size=n * n))).reshape(n, n)
    g = a + a.T
    p = data.draw(permutations(n))
    defect = np.max(np.abs(permute_modes(g, p) - g))
    assume(defect > 1e-6 * max(1.0, np.max(np.abs(g))))  # else it commutes, or nearly
    cfg = DeviceConfig(topology="custom", n_modes=n, theta=0.5, custom_g=g, custom_perm=p.mapping)
    work = tmp_path_factory.mktemp("noncommuting")
    (work / "dev.json").write_text(cfg.to_json())
    out = work / "out"
    argv = ["correlate", "--config", str(work / "dev.json"), "--inputs", "1,2", "--steps", "1..2"]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
