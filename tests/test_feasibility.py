import dataclasses
import json

import pytest

from loopwalk.feasibility import (
    SPEED_OF_LIGHT,
    PhysicalParams,
    discreteness_check,
    loop_budget,
)
from loopwalk.model import ConfigError

# Reference design, worked through by hand (R = 0.2 m, n = 1.44, 100
# transits, 0.68e-6 / cm field attenuation, 20 ps pulses, 17 pm bandwidth):
#   loop length     = 2 pi 0.2          = 1.25664 m
#   path            = 100 loops         = 125.664 m
#   loss            = 1 - exp(-6.8e-7 * 12566.4) = 0.85087 %
#   pulse length    = (c / 1.44) * 20e-12 = 0.41638 cm
#   rel. bandwidth  = 17 pm / 800 nm      = 2.125e-5
#   broadening      = 150e-6 ps/pm/m * 17 pm * 125.664 m = 0.3204 ps
#                   -> 1.6022 % of the pulse width


def test_loss_budget_reference_design():
    b = loop_budget(PhysicalParams.glass_800nm())
    assert abs(b["loop_length_m"] - 1.2566370614) < 1e-9
    assert abs(b["loss_fraction"] - 0.0085087) < 1e-7
    assert abs(b["pulse_length_m"] - 0.0041637841) < 1e-9
    assert abs(b["relative_bandwidth"] - 2.125e-5) < 1e-9
    assert abs(b["broadening_fraction"] - 0.016022) < 1e-6
    assert b["broadening_fraction"] < 0.02


def test_bandwidth_both_ways():
    b = loop_budget(PhysicalParams.glass_800nm())
    assert b["bandwidth_source"] == "wavelength"
    # 17 pm at 800 nm is roughly 8 GHz
    assert abs(b["bandwidth_hz"] - 7.9633e9) < 1e6

    by_freq = PhysicalParams(
        wavelength_m=800e-9,
        background_index=1.44,
        loop_radius_m=0.20,
        bend_loss_per_cm=6.8e-7,
        pulse_width_s=20e-12,
        dispersion_ps_nm_km=-150.0,
        coupler_separation_m=10e-6,
        transits=100,
        bandwidth_hz=7.9633e9,
    )
    b2 = loop_budget(by_freq)
    assert b2["bandwidth_source"] == "frequency"
    assert abs(b2["bandwidth_wavelength_m"] - 17e-12) < 1e-15
    assert abs(b2["broadening_fraction"] - b["broadening_fraction"]) < 1e-6


def test_transit_scaling():
    short = loop_budget(PhysicalParams.glass_800nm(transits=1))
    long = loop_budget(PhysicalParams.glass_800nm(transits=200))
    assert abs(long["path_length_m"] - 200 * short["path_length_m"]) < 1e-9
    assert abs(long["broadening_s"] - 200 * short["broadening_s"]) < 1e-20
    # loss compounds exponentially, not linearly
    assert long["loss_fraction"] < 200 * short["loss_fraction"]


def test_group_index_defaults_to_background():
    p = PhysicalParams.glass_800nm()
    assert p.effective_group_index == 1.44
    b = loop_budget(p)
    assert abs(b["group_velocity_m_s"] - SPEED_OF_LIGHT / 1.44) < 1e-6

    import dataclasses

    slow = dataclasses.replace(p, group_index=1.5)
    assert loop_budget(slow)["transit_time_s"] > b["transit_time_s"]


# ---- discreteness -----------------------------------------------------------


def test_discreteness_reference_design_passes():
    d = discreteness_check(PhysicalParams.glass_800nm())
    assert d["passed"]
    assert abs(d["ratio"] - 0.0033134) < 1e-6
    assert d["margin"] > 0


def test_discreteness_zero_threshold_always_fails():
    d = discreteness_check(PhysicalParams.glass_800nm(), threshold=0.0)
    assert not d["passed"]
    assert d["margin"] < 0


def test_discreteness_long_pulse_fails():
    import dataclasses

    slow = dataclasses.replace(PhysicalParams.glass_800nm(), pulse_width_s=10e-9)
    d = discreteness_check(slow)
    assert not d["passed"]


def test_discreteness_rejects_nan_threshold():
    with pytest.raises(ConfigError):
        discreteness_check(PhysicalParams.glass_800nm(), threshold=float("nan"))


# ---- parameter validation ---------------------------------------------------------


def test_exactly_one_bandwidth():
    kw = dict(
        wavelength_m=800e-9,
        background_index=1.44,
        loop_radius_m=0.2,
        bend_loss_per_cm=6.8e-7,
        pulse_width_s=20e-12,
        dispersion_ps_nm_km=-150.0,
        coupler_separation_m=10e-6,
        transits=10,
    )
    with pytest.raises(ConfigError, match="bandwidth"):
        PhysicalParams(**kw)
    with pytest.raises(ConfigError, match="bandwidth"):
        PhysicalParams(**kw, bandwidth_hz=1e9, bandwidth_wavelength_m=17e-12)


def test_positive_lengths_enforced():
    with pytest.raises(ConfigError, match="wavelength"):
        PhysicalParams(
            wavelength_m=-800e-9,
            background_index=1.44,
            loop_radius_m=0.2,
            bend_loss_per_cm=6.8e-7,
            pulse_width_s=20e-12,
            dispersion_ps_nm_km=-150.0,
            coupler_separation_m=10e-6,
            transits=10,
            bandwidth_hz=1e9,
        )


def test_negative_dispersion_is_fine():
    p = PhysicalParams.glass_800nm()
    assert p.dispersion_ps_nm_km == -150.0
    assert loop_budget(p)["broadening_s"] > 0


def test_transits_must_be_positive_integer():
    import dataclasses

    with pytest.raises(ConfigError, match="transits"):
        dataclasses.replace(PhysicalParams.glass_800nm(), transits=0)


def test_json_round_trip():
    p = PhysicalParams.glass_800nm()
    d = {
        "wavelength_m": p.wavelength_m,
        "background_index": p.background_index,
        "loop_radius_m": p.loop_radius_m,
        "bend_loss_per_cm": p.bend_loss_per_cm,
        "pulse_width_s": p.pulse_width_s,
        "dispersion_ps_nm_km": p.dispersion_ps_nm_km,
        "coupler_separation_m": p.coupler_separation_m,
        "transits": p.transits,
        "bandwidth_wavelength_m": p.bandwidth_wavelength_m,
    }
    back = PhysicalParams.from_json(json.dumps(d))
    assert back == p


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("wavelength_m", "abc", "expected a number, got 'abc'"),
        ("transits", None, "expected an integer, got None"),
        ("transits", 2.5, "expected an integer, got 2.5"),
    ],
)
def test_json_values_of_the_wrong_type_are_refused(key, value, message):
    glass = dataclasses.asdict(PhysicalParams.glass_800nm())
    d = {k: v for k, v in glass.items() if v is not None}
    assert PhysicalParams.from_json(json.dumps(d)) == PhysicalParams.glass_800nm()
    d[key] = value
    with pytest.raises(ConfigError, match=f"{key}: {message}"):
        PhysicalParams.from_json(json.dumps(d))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("bend_loss_per_cm", "abc", "expected a number, got 'abc'"),
        ("dispersion_ps_nm_km", None, "expected a number, got None"),
        ("group_index", "x", "expected a number, got 'x'"),
        ("wavelength_m", True, "expected a number, got True"),
    ],
)
def test_constructor_refuses_values_of_the_wrong_type(key, value, message):
    with pytest.raises(ConfigError, match=f"physical parameter {key}: {message}"):
        dataclasses.replace(PhysicalParams.glass_800nm(), **{key: value})


def test_json_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown"):
        PhysicalParams.from_json('{"radius": 1}')
    with pytest.raises(ConfigError, match="missing"):
        PhysicalParams.from_json('{"wavelength_m": 8e-7}')


# ---- the JSON reader ------------------------------------------------------------

_REQUIRED = [f.name for f in dataclasses.fields(PhysicalParams)
             if f.default is dataclasses.MISSING]


def _glass_dict() -> dict:
    return {k: v for k, v in dataclasses.asdict(PhysicalParams.glass_800nm()).items()
            if v is not None}


@pytest.mark.parametrize("key", ["radius", "transit", "Group_index", "custom_G"])
def test_json_refuses_an_unknown_key_naming_it(key):
    with pytest.raises(ConfigError) as err:
        PhysicalParams.from_json(json.dumps({**_glass_dict(), key: 1}))
    assert str(err.value) == f"unknown physical parameter keys: [{key!r}]"


@pytest.mark.parametrize("key", _REQUIRED)
def test_json_names_each_missing_required_key(key):
    d = {k: v for k, v in _glass_dict().items() if k != key}
    with pytest.raises(ConfigError) as err:
        PhysicalParams.from_json(json.dumps(d))
    assert str(err.value) == f"missing physical parameter keys: [{key!r}]"


@pytest.mark.parametrize("text", ["[]", json.dumps([_glass_dict()]), '"glass"'])
def test_json_must_be_an_object(text):
    with pytest.raises(ConfigError, match="^physical parameter JSON must be an object$"):
        PhysicalParams.from_json(text)


def test_json_that_does_not_parse_is_config_error():
    with pytest.raises(ConfigError, match="^physical parameter JSON is not valid: "):
        PhysicalParams.from_json("{")
