"""Physical budgets for a fibre-loop realisation of the walk.

Checks that a proposed loop geometry keeps three effects small enough to
treat the device as the idealised model: cumulative bend loss over the
full run, dispersive pulse broadening over the total propagated length,
and the pulse length staying far below the loop circumference so that
transits remain discrete events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import ConfigError, as_float, as_int, json_object, record_from_dict

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class PhysicalParams:
    """Geometry and material numbers for one loop design.

    Exactly one of ``bandwidth_hz`` / ``bandwidth_wavelength_m`` must be
    given; the other is derived.  ``bend_loss_per_cm`` is the field
    attenuation coefficient in 1/cm, ``dispersion_ps_nm_km`` the usual
    fibre dispersion parameter (sign carries no weight here, only the
    magnitude spreads the pulse).

    A PhysicalParams that exists is valid: construction converts every
    field, refusing a string, bool or None (None is kept in a field that
    defaults to None) and a non-integer ``transits``, then checks every range.
    """

    wavelength_m: float
    background_index: float
    loop_radius_m: float
    bend_loss_per_cm: float
    pulse_width_s: float
    dispersion_ps_nm_km: float
    coupler_separation_m: float
    transits: int
    group_index: float | None = None
    bandwidth_hz: float | None = None
    bandwidth_wavelength_m: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            try:
                value = as_int(value) if f.name == "transits" else as_float(value)
            except (TypeError, OverflowError) as exc:
                raise ConfigError(f"physical parameter {f.name}: {exc}") from None
            object.__setattr__(self, f.name, value)
        positive = {
            "wavelength_m": self.wavelength_m,
            "background_index": self.background_index,
            "loop_radius_m": self.loop_radius_m,
            "pulse_width_s": self.pulse_width_s,
            "coupler_separation_m": self.coupler_separation_m,
        }
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.bend_loss_per_cm) and self.bend_loss_per_cm >= 0):
            raise ConfigError(f"bend_loss_per_cm must be >= 0, got {self.bend_loss_per_cm!r}")
        if not math.isfinite(self.dispersion_ps_nm_km):
            raise ConfigError(f"dispersion_ps_nm_km must be finite, got {self.dispersion_ps_nm_km!r}")
        if self.transits < 1:
            raise ConfigError(f"transits must be a positive integer, got {self.transits!r}")
        if self.group_index is not None and not (
            math.isfinite(self.group_index) and self.group_index > 0
        ):
            raise ConfigError(f"group_index must be positive, got {self.group_index!r}")
        given = [
            v for v in (self.bandwidth_hz, self.bandwidth_wavelength_m) if v is not None
        ]
        if len(given) != 1:
            raise ConfigError(
                "exactly one of bandwidth_hz / bandwidth_wavelength_m must be given"
            )
        if not (math.isfinite(given[0]) and given[0] > 0):
            raise ConfigError(f"bandwidth must be positive, got {given[0]!r}")

    @property
    def effective_group_index(self) -> float:
        return self.background_index if self.group_index is None else self.group_index

    @classmethod
    def glass_800nm(cls, transits: int = 100) -> "PhysicalParams":
        """Representative numbers for a laser-written borosilicate loop
        running at 800 nm with 20 ps pulses."""
        return cls(
            wavelength_m=800e-9,
            background_index=1.44,
            loop_radius_m=0.20,
            bend_loss_per_cm=6.8e-7,
            pulse_width_s=20e-12,
            dispersion_ps_nm_km=-150.0,
            coupler_separation_m=10e-6,
            transits=transits,
            bandwidth_wavelength_m=17e-12,
        )

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhysicalParams":
        return record_from_dict(cls, d, "physical parameter", {})

    @classmethod
    def from_json(cls, text: str) -> "PhysicalParams":
        return cls.from_json_dict(json_object(text, "physical parameter"))


def loop_budget(params: PhysicalParams) -> dict:
    """Loss, timing and bandwidth numbers for a full run of the loop.

    Returns a flat dict (JSON-friendly): loop geometry, transit time,
    cumulative loss fraction over all transits, spatial pulse length,
    dispersive broadening as a fraction of the pulse width, and the
    bandwidth expressed both ways with the derived one marked.
    """
    loop_length_m = 2.0 * math.pi * params.loop_radius_m
    v_g = SPEED_OF_LIGHT / params.effective_group_index
    transit_time_s = loop_length_m / v_g
    path_m = params.transits * loop_length_m

    loss_fraction = 1.0 - math.exp(-params.bend_loss_per_cm * path_m * 100.0)
    pulse_length_m = v_g * params.pulse_width_s

    lam = params.wavelength_m
    if params.bandwidth_wavelength_m is not None:
        d_lambda_m = params.bandwidth_wavelength_m
        d_nu_hz = SPEED_OF_LIGHT * d_lambda_m / lam**2
        bandwidth_source = "wavelength"
    else:
        d_nu_hz = params.bandwidth_hz
        d_lambda_m = d_nu_hz * lam**2 / SPEED_OF_LIGHT
        bandwidth_source = "frequency"

    # D is quoted in ps per nm of bandwidth per km of path
    dispersion_si = abs(params.dispersion_ps_nm_km) * 1e-12 / (1e-9 * 1e3)
    broadening_s = dispersion_si * d_lambda_m * path_m
    broadening_fraction = broadening_s / params.pulse_width_s

    return {
        "loop_length_m": loop_length_m,
        "group_velocity_m_s": v_g,
        "transit_time_s": transit_time_s,
        "transits": params.transits,
        "path_length_m": path_m,
        "loss_fraction": loss_fraction,
        "pulse_length_m": pulse_length_m,
        "bandwidth_wavelength_m": d_lambda_m,
        "bandwidth_hz": d_nu_hz,
        "bandwidth_source": bandwidth_source,
        "relative_bandwidth": d_lambda_m / lam,
        "broadening_s": broadening_s,
        "broadening_fraction": broadening_fraction,
    }


def discreteness_check(params: PhysicalParams, threshold: float = 0.05) -> dict:
    """Is the pulse short enough for transits to count as discrete?

    Passes when pulse length / loop circumference stays strictly below
    ``threshold`` (a zero threshold therefore always fails).  The report
    carries both lengths, their ratio and the margin to the threshold.
    """
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be finite, got {threshold!r}")
    budget = loop_budget(params)
    ratio = budget["pulse_length_m"] / budget["loop_length_m"]
    return {
        "pulse_length_m": budget["pulse_length_m"],
        "loop_length_m": budget["loop_length_m"],
        "ratio": ratio,
        "threshold": threshold,
        "margin": threshold - ratio,
        "passed": ratio < threshold,
    }
