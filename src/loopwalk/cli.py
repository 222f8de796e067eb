"""Command line front end.

Subcommands: ``correlate`` sweeps correlation matrices over steps, delays
and input pairs; ``spectra`` prints and exports eigensystems; ``modes``
lists relabelling-invariant normal modes; ``theta-opt`` prints the
optimal coupler angle for a transit count; ``feasibility`` evaluates a
physical loop design.

Output files are deterministic byte for byte for a given manifest and
tool version; wall-clock timestamps go only to ``run.log``.  Exit codes:
0 success, 2 configuration error, 3 numeric failure.

Importing this module and parsing a command line use the standard
library only: ``--version``, ``--help`` and a usage error never load
numpy.  Each ``cmd_*`` imports the physics modules it uses when it runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cache
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, NumericError

if TYPE_CHECKING:
    import numpy as np

    from .model import DeviceConfig

SCHEMA_VERSION = 1
_FORMATS = ("csv", "json", "pgm")


# ---- manifest -------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Everything a correlate sweep depends on, for reproducibility."""

    device: dict
    steps: Sequence[int]
    delays: tuple[int, ...]
    input_pairs: tuple[tuple[int, int], ...]
    thetas: tuple[float, ...]
    kinds: tuple[str, ...]
    rescaled: bool
    formats: tuple[str, ...]
    out_dir: str
    seed: int  # recorded only: nothing in a run is random
    tool_version: str
    oracle: bool

    def __post_init__(self):
        bad = set(self.formats) - set(_FORMATS)
        if bad:
            raise ConfigError(f"unknown output formats {sorted(bad)}; choose from {_FORMATS}")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "record": "run_manifest",
            "device": self.device,
            "steps": list(self.steps),
            "delays": list(self.delays),
            "input_pairs": [list(p) for p in self.input_pairs],
            "thetas": list(self.thetas),
            "kinds": list(self.kinds),
            "rescaled": self.rescaled,
            "formats": list(self.formats),
            "seed": self.seed,
            "tool_version": self.tool_version,
            "oracle": self.oracle,
        }


# ---- small parsers ----------------------------------------------------------


def _unique(items) -> tuple:
    """Items with repeats dropped, in first-seen order: a repeated sweep
    entry would recompute and rewrite the same cells."""
    return tuple(dict.fromkeys(items))


def _parse_steps(text: str) -> Sequence[int]:
    """A step list, or a lo..hi range kept as a range: check_sweep sizes it
    against memory before any step is built."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"bad step range {text!r}")
        if hi_i < lo_i:
            raise ConfigError(f"empty step range {text!r}")
        if hi_i - lo_i >= sys.maxsize:
            raise ConfigError(f"step range {text!r} has more steps than can be indexed")
        return range(lo_i, hi_i + 1)
    try:
        return _unique(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"bad step list {text!r}")


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"input pair {chunk!r} is not of the form j,k")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(f"input pair {chunk!r} is not of the form j,k")
    return _unique(pairs)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"bad number list {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"bad integer list {text!r}")


def _read_input(path: str) -> str:
    """The text of an input file; one that cannot be read as UTF-8 text,
    a directory or a missing file, say, is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path} as UTF-8 text: {exc}") from None


# ---- device assembly ---------------------------------------------------------

_DEVICE_FLAGS = ("topology", "n_modes", "theta", "tau", "omega", "shift_c", "g_vector")


def _add_device_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="device config JSON file (excludes device flags)")
    sub.add_argument("--topology", choices=("cylinder", "moebius", "twisted_circle"))
    sub.add_argument("--n-modes", dest="n_modes", type=int)
    sub.add_argument(
        "--theta",
        help="coupler angle(s) in radians, comma separated for a sweep (default pi/4)",
    )
    sub.add_argument("--tau", type=float, help="transit time in units of 1/g (default 1)")
    sub.add_argument("--omega", type=float, help="common mode frequency (default 0)")
    sub.add_argument("--shift-c", "--c", dest="shift_c", type=int,
                     help="cyclic shift for twisted_circle")
    sub.add_argument("--g-vector", dest="g_vector",
                     help="circulant coupling vector, comma separated")


def _device_from_args(args, theta) -> DeviceConfig:
    from .model import DeviceConfig, mode_count_check

    if args.config:
        for flag in _DEVICE_FLAGS:
            if getattr(args, flag) is not None:
                raise ConfigError(f"--config cannot be combined with --{flag.replace('_', '-')}")
        return DeviceConfig.from_json(_read_input(args.config))
    topology = args.topology or "cylinder"
    n_modes = args.n_modes if args.n_modes is not None else 21
    tau = args.tau if args.tau is not None else 1.0
    omega = args.omega if args.omega is not None else 0.0
    g_vector = None
    if topology == "twisted_circle":
        if args.g_vector is not None:
            g_vector = _parse_float_list(args.g_vector)
        else:
            # nearest-neighbour ring
            mode_count_check(n_modes)
            g = [0.0] * n_modes
            if n_modes >= 2:
                g[1] = 1.0
                g[-1] = 1.0
            g_vector = tuple(g)
    return DeviceConfig(
        topology=topology,
        n_modes=n_modes,
        theta=theta,
        tau=tau,
        omega=omega,
        shift_c=args.shift_c,
        g_vector=g_vector,
    )


def _thetas_from_args(args) -> tuple[float, ...]:
    from .model import coupler_angle_ok

    if getattr(args, "theta", None) is None:
        return (math.pi / 4,)
    thetas = _unique(_parse_float_list(args.theta))
    for theta in thetas:
        if not coupler_angle_ok(theta):
            raise ConfigError(f"--theta value {theta!r} outside [0, pi/2]")
    return thetas


def _out_dir(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("QWALK_OUT", "qwalk_out")


# ---- writers -------------------------------------------------------------------


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, values: np.ndarray):
    lines = ["r,s,value\n"]
    for r, row in enumerate(values.tolist(), start=1):
        lines.extend(f"{r},{s},{v:.17g}\n" for s, v in enumerate(row, start=1))
    with open(path, "w") as fh:
        fh.write("".join(lines))


@cache
def _grey_table(sep: str) -> np.ndarray:
    """Entry v holds the ASCII digits of v then ``sep``, NUL-padded to 4 bytes
    (read-only, built on first use)."""
    import numpy as np

    cells = b"".join(f"{v}{sep}".encode("ascii").ljust(4, b"\0") for v in range(256))
    return np.frombuffer(cells, dtype=np.uint32)


_PGM_PER_LINE = 15  # 15 values of at most 4 chars keep lines under the 70-char limit


def _write_pgm(path: str, values: np.ndarray):
    import numpy as np

    grey_sp, grey_nl = _grey_table(" "), _grey_table("\n")
    vmax = float(values.max())
    if vmax > 0.0:
        grey = np.rint(values / vmax * 255.0).astype(int)
    else:
        grey = np.zeros_like(values, dtype=int)
    flat = grey.ravel()
    body = grey_sp[flat]
    body[_PGM_PER_LINE - 1 :: _PGM_PER_LINE] = grey_nl[flat[_PGM_PER_LINE - 1 :: _PGM_PER_LINE]]
    body[-1] = grey_nl[flat[-1]]
    header = f"P2\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + body.tobytes().translate(None, b"\0"))


def _log_line(out_dir: str, message: str):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out_dir, "run.log"), "a") as fh:
        fh.write(f"{stamp} {message}\n")


# ---- correlate ------------------------------------------------------------------


def _cell_name(kind: str, rescaled: bool, ti: int, nd: int, n: int, j: int, k: int) -> str:
    scale = "resc" if rescaled else "phys"
    return f"{kind}_{scale}_th{ti}_nd{nd}_n{n}_j{j}k{k}"


def cmd_correlate(args) -> int:
    from .correlations import check_sweep, correlation_sweep, require_commuting_loop
    from .fock_oracle import StepOperators, delayed_run, oracle_memory_check
    from .model import uniform_angle
    from .spectra import eigensystem_for

    thetas = _thetas_from_args(args)
    base_cfg = _device_from_args(args, thetas[0])
    if args.config:
        # --theta is refused with --config, so the file's one angle is swept
        thetas = (uniform_angle(base_cfg.theta),)

    steps = _parse_steps(args.steps)
    delays = _unique(_parse_int_list(args.delay))
    pairs = _parse_pairs(args.inputs)
    rescaled = not args.physical
    kinds = ("quantum", "classical") if args.kind == "both" else (args.kind,)

    check_sweep(base_cfg.n_modes, steps, pairs, delays, kinds, rescaled=rescaled)
    if args.oracle:
        if any(j == k for j, k in pairs):
            raise ConfigError("oracle comparison needs distinct input guides")
        oracle_memory_check(base_cfg.n_modes)

    # the eigensystem and the loop relabelling do not depend on theta
    p = require_commuting_loop(base_cfg)
    es = eigensystem_for(base_cfg)

    out_dir = _out_dir(args)
    formats = tuple(args.formats.split(","))

    manifest = RunManifest(
        device=base_cfg.to_json_dict(),
        steps=steps,
        delays=delays,
        input_pairs=pairs,
        thetas=thetas,
        kinds=kinds,
        rescaled=rescaled,
        formats=formats,
        out_dir=out_dir,
        seed=args.seed,
        tool_version=__version__,
        oracle=bool(args.oracle),
    )
    # created only once every input has been checked, so a refused run leaves nothing
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from None

    written = []
    oracle_entries = []
    max_step = max(steps)
    for ti, theta in enumerate(thetas):
        # the oracle runs of one theta share its step matrices and lifted Couple
        operators = StepOperators(replace(base_cfg, theta=theta)) if args.oracle else None
        for nd in delays:
            for j, k in pairs:
                run = None
                if operators is not None and "quantum" in kinds and max_step >= 1:
                    run = delayed_run(operators.cfg, j, k, nd, max_step, operators=operators)
                for kind in kinds:
                    sweep = correlation_sweep(
                        es, p, theta, base_cfg.tau, steps, j, k,
                        n_d=nd, kind=kind, rescaled=rescaled,
                    )
                    for matrix in sweep:
                        written += _write_cell(base_cfg, theta, ti, matrix, formats, out_dir)
                        if run is not None and kind == "quantum" and matrix.step >= 1:
                            names, entry = _oracle_cell(
                                base_cfg, theta, ti, matrix, run, formats, out_dir
                            )
                            written += names
                            oracle_entries.append(entry)

    if args.oracle:
        oracle_entries.sort(key=lambda e: e["cell"])
        report = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "record": "oracle_diff_report",
            "entries": oracle_entries,
            "worst_max_abs_diff": max(
                (e["max_abs_diff"] for e in oracle_entries), default=0.0
            ),
        }
        _write_json(os.path.join(out_dir, "oracle_diff.json"), report)
        written.append("oracle_diff.json")

    _write_json(os.path.join(out_dir, "manifest.json"), manifest.to_json_dict())
    _log_line(out_dir, f"correlate wrote {len(written) + 1} files to {out_dir}")
    print(f"wrote {len(written) + 1} files to {out_dir}")
    return 0


def _write_cell(cfg, theta, ti, matrix, formats, out_dir) -> list:
    """Write one correlation matrix in every requested format."""
    j, k = matrix.inputs
    name = _cell_name(matrix.kind, matrix.rescaled, ti, matrix.delay, matrix.step, j, k)
    written = []
    if "json" in formats:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "record": "correlation_matrix",
            "topology": cfg.topology,
            "n_modes": cfg.n_modes,
            "theta": theta,
            "tau": cfg.tau,
            "omega": cfg.omega,
        }
        payload.update(matrix.to_dict())
        _write_json(os.path.join(out_dir, f"corr_{name}.json"), payload)
        written.append(f"corr_{name}.json")
    if "csv" in formats:
        _write_csv(os.path.join(out_dir, f"corr_{name}.csv"), matrix.values)
        written.append(f"corr_{name}.csv")
    if "pgm" in formats:
        _write_pgm(os.path.join(out_dir, f"corr_{name}.pgm"), matrix.values)
        written.append(f"corr_{name}.pgm")
    return written


def _oracle_cell(cfg, theta, ti, matrix, run, formats, out_dir) -> tuple:
    """Compare one quantum cell with transit ``matrix.step`` of the exact
    simulator's ``run``; returns the files written and the report entry."""
    from .correlations import survival_prefactor

    n, nd, (j, k) = matrix.step, matrix.delay, matrix.inputs
    physical = run.transit_records[n - 1].coincidences
    oracle_vals = physical / survival_prefactor(theta, n) if matrix.rescaled else physical
    name = _cell_name(matrix.kind, matrix.rescaled, ti, nd, n, j, k)
    written = []
    if "json" in formats:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "record": "oracle_correlation_matrix",
            "topology": cfg.topology,
            "n_modes": cfg.n_modes,
            "theta": theta,
            "entry_probability": run.entry_prob,
            "values": oracle_vals.tolist(),
            "step": n,
            "delay": nd,
            "inputs": [j, k],
            "kind": matrix.kind,
            "rescaled": matrix.rescaled,
        }
        _write_json(os.path.join(out_dir, f"oracle_{name}.json"), payload)
        written.append(f"oracle_{name}.json")

    diff = float(abs(matrix.values - oracle_vals).max())
    return written, {"cell": name, "max_abs_diff": diff, "comparison": "direct"}


# ---- other subcommands -----------------------------------------------------------


def cmd_spectra(args) -> int:
    from .spectra import eigensystem_for

    cfg = _device_from_args(args, _thetas_from_args(args)[0])
    es = eigensystem_for(cfg)
    for idx, lam in enumerate(es.eigenvalues, start=1):
        print(f"lambda_{idx} = {lam:.12g}")
    if args.out:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "record": "eigen_system",
            "topology": cfg.topology,
            "n_modes": cfg.n_modes,
        }
        payload.update(es.to_dict())
        _write_json(args.out, payload)
    return 0


def cmd_modes(args) -> int:
    from .correlations import invariant_modes
    from .model import permutation_for
    from .spectra import eigensystem_for

    cfg = _device_from_args(args, _thetas_from_args(args)[0])
    es = eigensystem_for(cfg)
    p = permutation_for(cfg)
    groups = invariant_modes(es, p, tol=args.tol)
    for grp in groups:
        modes = ",".join(str(i) for i in grp.mode_indices)
        print(
            f"lambda = {grp.eigenvalue:.12g}  modes [{modes}]  "
            f"invariant {grp.invariant_dim}/{grp.dim}"
        )
    total = sum(g.invariant_dim for g in groups)
    print(f"invariant modes: {total} of {es.n}")
    return 0


def cmd_theta_opt(args) -> int:
    from .correlations import optimal_theta

    print(f"{optimal_theta(args.n):.12g}")
    return 0


def cmd_feasibility(args) -> int:
    from .feasibility import PhysicalParams, discreteness_check, loop_budget

    params = PhysicalParams.from_json(_read_input(args.params))
    if args.transits is not None:
        params = replace(params, transits=args.transits)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "record": "feasibility_report",
        "budget": loop_budget(params),
        "discreteness": discreteness_check(params, threshold=args.threshold),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# ---- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopwalk",
        description="Two-photon quantum walks on looped waveguide arrays, "
        "observed transit by transit.",
    )
    parser.add_argument("--version", action="version", version=f"loopwalk {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    corr = subs.add_parser("correlate", help="correlation matrix sweeps")
    _add_device_flags(corr)
    corr.add_argument("--inputs", default="1,7",
                      help="input guide pair(s), e.g. 1,7 or 1,7;3,5")
    corr.add_argument("--steps", default="0..3", help="transit counts, e.g. 0..3 or 1,2,4")
    corr.add_argument("--delay", default="0", help="second-photon delays in transits")
    corr.add_argument("--kind", choices=("quantum", "classical", "both"), default="quantum")
    scale = corr.add_mutually_exclusive_group()
    scale.add_argument("--rescaled", action="store_true",
                       help="divide out the survival prefactor (default)")
    scale.add_argument("--physical", action="store_true",
                       help="keep absolute detection probabilities")
    corr.add_argument("--oracle", action="store_true",
                      help="also run the exact Fock simulator and report differences")
    corr.add_argument("--formats", default="csv,json", help="comma list from csv,json,pgm")
    corr.add_argument("--out", help="output directory (default $QWALK_OUT or ./qwalk_out)")
    corr.add_argument("--seed", type=int, default=0,
                      help="recorded in the manifest only; nothing in a run is random")
    corr.set_defaults(func=cmd_correlate)

    spec = subs.add_parser("spectra", help="eigenvalues and eigenvectors of a device")
    _add_device_flags(spec)
    spec.add_argument("--out", help="write the eigensystem as JSON")
    spec.set_defaults(func=cmd_spectra)

    modes = subs.add_parser("modes", help="relabelling-invariant normal modes")
    _add_device_flags(modes)
    modes.add_argument("--tol", type=float, default=1e-9)
    modes.set_defaults(func=cmd_modes)

    topt = subs.add_parser("theta-opt", help="optimal coupler angle for transit n")
    topt.add_argument("--n", type=int, required=True)
    topt.set_defaults(func=cmd_theta_opt)

    feas = subs.add_parser("feasibility", help="physical loop design report")
    feas.add_argument("params", help="PhysicalParams JSON file")
    feas.add_argument("--transits", type=int, help="override the transit count")
    feas.add_argument("--threshold", type=float, default=0.05,
                      help="discreteness threshold for pulse/loop length ratio")
    feas.add_argument("--out", help="write the report to a file instead of stdout")
    feas.set_defaults(func=cmd_feasibility)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
