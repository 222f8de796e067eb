"""Properties of the closed forms on randomly generated devices.

The acceptance tests check pair mass, the relabelling maps and agreement
with the exact simulator on a few fixed devices; here hypothesis draws
the devices: every topology, N <= 8, any coupler angle, transit time and
common mode frequency, any symmetric circulant ring, and custom couplings
G = sum_k a_k (P^k + P^-k), which commute with their random loop
permutation P by construction.  Every drawn device round-trips through
its JSON form, and a drawn device's JSON with one field of the wrong type
or out of range, or one key missing or unknown, is refused by
``correlate --config`` with exit code 2.  The same holds for drawn
physical loop parameters: they round-trip through JSON, and with one key
missing or unknown ``feasibility`` refuses them with exit code 2.  Drawn
``correlate`` argument strings either run, writing a manifest whose axes
hold no repeats, or are refused with exit code 2 before ``--out`` exists.
"""

import contextlib
import io
import json
import math
from dataclasses import MISSING, asdict, fields, replace

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopwalk.cli import main
from loopwalk.correlations import (
    correlation_sweep,
    require_commuting_loop,
    survival_prefactor,
    symmetry_map,
)
from loopwalk.feasibility import PhysicalParams
from loopwalk.fock_oracle import StepOperators, delayed_run
from loopwalk.model import TOPOLOGIES, DeviceConfig, Permutation, permutation_for
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


# JSON values of the wrong type for a device key (None in an optional key
# means absent, so it is wrong only for a required one)
_lists = st.lists(st.integers(), max_size=2)
_maps = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
_texts = st.text(max_size=3)
_not_numbers = st.lists(st.one_of(st.none(), st.booleans(), _texts), min_size=1, max_size=3)
_non_integral = st.floats().filter(lambda x: not x.is_integer())
_WRONG_TYPES = {
    "topology": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _lists, _maps),
    "n_modes": st.one_of(st.none(), st.booleans(), _texts, st.floats(), _lists, _maps),
    "theta": st.one_of(st.none(), st.booleans(), _texts, _maps, _not_numbers),
    "tau": st.one_of(st.none(), st.booleans(), _texts, _lists, _maps),
    "omega": st.one_of(st.none(), st.booleans(), _texts, _lists, _maps),
    "shift_c": st.one_of(st.booleans(), _texts, st.floats(), _lists, _maps),
    "g_vector": st.one_of(st.booleans(), _texts, st.integers(), st.floats(), _maps, _not_numbers),
    "custom_G": st.one_of(st.booleans(), _texts, st.integers(), st.floats(), _maps, _not_numbers),
    "custom_perm": st.one_of(
        st.booleans(), _texts, st.integers(), st.floats(), _maps, _not_numbers,
        st.lists(_non_integral, min_size=1, max_size=3),
    ),
}
_OUT_OF_RANGE = {
    "topology": st.text(max_size=12).filter(lambda t: t not in TOPOLOGIES),
    "n_modes": st.integers(max_value=0),
    "theta": st.one_of(
        st.floats(max_value=-1e-9), st.floats(min_value=math.pi / 2 + 1e-9), st.just(math.nan)
    ),
    "tau": st.one_of(st.floats(max_value=0.0), st.sampled_from((math.inf, math.nan))),
    "omega": st.sampled_from((math.inf, -math.inf, math.nan)),
}


@st.composite
def malformed_devices(draw):
    """A valid device's JSON dict with one thing wrong, and the key at fault."""
    d = draw(devices()).to_json_dict()
    fault = draw(st.sampled_from(("type", "value", "shift", "missing", "unknown")))
    if fault == "type":
        key = draw(st.sampled_from(sorted(_WRONG_TYPES)))
        d[key] = draw(_WRONG_TYPES[key])
    elif fault == "value":
        key = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
        d[key] = draw(_OUT_OF_RANGE[key])
        if key == "theta" and draw(st.booleans()):
            # one guide of a per-guide theta
            theta = [draw(angles)] * d["n_modes"]
            theta[draw(st.integers(0, d["n_modes"] - 1))] = d[key]
            d[key] = theta
    elif fault == "shift":
        # shift_c is read by the twisted circle only
        d = draw(devices(topologies=("twisted_circle",))).to_json_dict()
        key = "shift_c"
        d[key] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=d["n_modes"])))
    elif fault == "missing":
        key = draw(st.sampled_from(("topology", "n_modes", "theta")))
        del d[key]
    else:
        key = draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
                   .filter(lambda t: t not in _WRONG_TYPES))
        d[key] = 0
    return d, key


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


def test_closed_form_matches_simulator_on_near_degenerate_modes():
    # found by the deep profile (st.data() cannot be an @example): modes
    # 3e-5 apart in eigenvalue and of different loop phases, whose LAPACK
    # eigenvectors carry P as a phase to 3.8e-11 only
    g = np.full((3, 3), 1e-5) + (2.0 - 1e-5) * np.eye(3)
    cfg = DeviceConfig(topology="custom", n_modes=3, theta=1.0, custom_g=g, custom_perm=(2, 3, 1))
    es, p = eigensystem_for(cfg), require_commuting_loop(cfg)
    for n_d in (0, 1, 2):
        run = delayed_run(cfg, 1, 2, n_d, max(STEPS))
        sweep = correlation_sweep(es, p, 1.0, cfg.tau, STEPS, 1, 2, n_d=n_d, rescaled=False)
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


@settings(max_examples=100, deadline=None)
@given(cfg=devices())
def test_every_drawn_device_round_trips_through_json(cfg):
    back = DeviceConfig.from_json(cfg.to_json())
    assert back.to_json() == cfg.to_json()


@settings(max_examples=200, deadline=None)
@given(case=malformed_devices())
# a count too negative for a tuple's length, with a scalar theta to broadcast
@example(case=({"topology": "cylinder", "n_modes": -2**63 - 1, "theta": 1.0}, "n_modes"))
# couplings whose spectral bound overflows: the circulant eigenvalue sums would be inf
@example(case=({"topology": "twisted_circle", "n_modes": 5, "theta": 1.0, "shift_c": 2,
                "g_vector": [0, 1e308, 0, 0, 1e308]}, "g_vector"))
@example(case=({"topology": "custom", "n_modes": 2, "theta": 1.0,
                "custom_G": [[1e308, 1e308], [1e308, 1e308]], "custom_perm": [1, 2]}, "custom_G"))
def test_malformed_device_config_exits_2(case, tmp_path_factory):
    d, key = case
    work = tmp_path_factory.mktemp("malformed")
    (work / "dev.json").write_text(json.dumps(d))
    out = work / "out"
    argv = ["correlate", "--config", str(work / "dev.json"), "--inputs", "1,2", "--steps", "1"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv + ["--out", str(out)]) == 2
    assert err.getvalue().startswith("config error:")
    assert "device config" in err.getvalue() and key in err.getvalue()
    assert not out.exists()


# ---- correlate argument strings -------------------------------------------------

# integers as typed: mostly small ones, then negative ones, and ones past
# int64 or whose phases max|lambda| tau m carry no digits
_int_text = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-3, max_value=6),
    st.sampled_from([10**11, 2**63 - 1, 2**63, -(2**63), 10**20]),
).map(str)
_guide_text = st.one_of(st.integers(min_value=1, max_value=4).map(str), _int_text)
_junk = st.sampled_from(["", " ", "x", "1.5", "1e3", "nan", "..", ";", ",,", "0x1", "1_0", "+2"])


def _joined(sep, item, max_size=3):
    return st.lists(item, min_size=1, max_size=max_size).map(sep.join)


_steps_text = st.one_of(
    _joined(",", _int_text),
    st.tuples(_int_text, _int_text).map("..".join),
    _junk,
)
_pairs_text = st.one_of(
    _joined(";", st.tuples(_guide_text, _guide_text).map(",".join)),
    _joined(";", st.tuples(_guide_text, _guide_text).map(",".join)),
    _joined(";", st.one_of(_guide_text, _junk)),
)
_delays_text = st.one_of(_joined(",", _int_text), _junk)
_formats_text = _joined(",", st.sampled_from(["csv", "json", "pgm", "csv", "pgm", "npy", "", "CSV"]), 4)
_theta_text = _joined(",", st.one_of(
    st.floats(min_value=0.0, max_value=1.6).map(repr),
    st.floats(min_value=-0.5, max_value=2.0).map(repr),
    st.sampled_from(["0", "-0.0", "1.5707963267948966", "nan", "inf", "-1"]),
    _junk,
))


@settings(max_examples=60, deadline=None)
@given(
    device=st.sampled_from([["--topology", "cylinder"], ["--topology", "moebius"],
                            ["--topology", "twisted_circle", "--c", "3"]]),
    steps=_steps_text, inputs=_pairs_text, delay=_delays_text, formats=_formats_text,
    theta=st.none() | _theta_text,
)
# a repeated format was recorded twice in manifest.json
@example(device=["--topology", "cylinder"], steps="1_0", inputs="1,1", delay="1_0",
         formats="csv,csv", theta=None)
# phases of ~1e20 rad, which exited 0 with cells of noise
@example(device=["--topology", "moebius"], steps="1", inputs="1,2", delay="100000000000000000000",
         formats="pgm", theta=None)
def test_correlate_argument_strings_run_or_exit_2(device, steps, inputs, delay, formats, theta,
                                                  tmp_path_factory):
    out = tmp_path_factory.mktemp("argv") / "out"
    argv = ["correlate", *device, "--n-modes", "4", "--steps", steps, "--inputs", inputs,
            "--delay", delay, "--formats", formats, "--out", str(out)]
    if theta is not None:
        argv += ["--theta", theta]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals, "--steps -1,2" say
            code = exc.code
    if code != 0:
        assert code == 2
        assert not out.exists()
        return
    manifest = json.loads((out / "manifest.json").read_text())
    for axis in ("steps", "delays", "input_pairs", "thetas", "kinds", "formats"):
        values = [json.dumps(v) for v in manifest[axis]]
        assert len(values) == len(set(values)), axis


# ---- physical loop parameters ---------------------------------------------------

_positive = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def physical_params(draw):
    """Any valid PhysicalParams: one bandwidth given, group_index or not."""
    bandwidth = draw(st.sampled_from(("bandwidth_hz", "bandwidth_wavelength_m")))
    return PhysicalParams(
        wavelength_m=draw(_positive),
        background_index=draw(_positive),
        loop_radius_m=draw(_positive),
        bend_loss_per_cm=draw(st.floats(min_value=0.0, max_value=1e300)),
        pulse_width_s=draw(_positive),
        dispersion_ps_nm_km=draw(st.floats(allow_nan=False, allow_infinity=False)),
        coupler_separation_m=draw(_positive),
        transits=draw(st.integers(min_value=1, max_value=2**70)),
        group_index=draw(st.none() | _positive),
        **{bandwidth: draw(_positive)},
    )


@settings(max_examples=100, deadline=None)
@given(p=physical_params(), drop_nulls=st.booleans())
def test_every_drawn_loop_round_trips_through_json(p, drop_nulls):
    d = {k: v for k, v in asdict(p).items() if v is not None or not drop_nulls}
    assert PhysicalParams.from_json(json.dumps(d)) == p


_LOOP_KEYS = [f.name for f in fields(PhysicalParams)]


@settings(max_examples=60, deadline=None)
@given(p=physical_params(), data=st.data())
def test_loop_json_with_a_key_missing_or_unknown_exits_2(p, data, tmp_path_factory):
    d = {k: v for k, v in asdict(p).items() if v is not None}
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(
            [f.name for f in fields(PhysicalParams) if f.default is MISSING]))
        del d[key]
    else:
        key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
                        .filter(lambda t: t not in _LOOP_KEYS))
        d[key] = 0
    work = tmp_path_factory.mktemp("loop")
    (work / "params.json").write_text(json.dumps(d))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["feasibility", str(work / "params.json")]) == 2
    assert err.getvalue().startswith("config error:")
    assert "physical parameter" in err.getvalue() and key in err.getvalue()
