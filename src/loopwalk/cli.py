"""Command line front end.

Subcommands: ``correlate`` sweeps correlation matrices over steps, delays
and input pairs; ``spectra`` prints and exports eigensystems; ``modes``
lists relabelling-invariant normal modes; ``theta-opt`` prints the
optimal coupler angle for a transit count; ``feasibility`` evaluates a
physical loop design.

Output files are deterministic byte for byte for a given manifest and
tool version; wall-clock timestamps go only to ``run.log``.  Exit codes:
0 success, 2 configuration error, 3 numeric failure.

Importing this module and parsing a command line load nothing beyond
argparse, math, os, sys, functools and loopwalk's stdlib-only ``errors``:
``--version``, ``--help`` and a usage error load neither numpy nor json,
datetime or dataclasses.  Each ``cmd_*`` imports what it uses when it runs.
Annotations name only what is loaded at start-up, so ``typing.get_type_hints``
resolves every function here; docstrings give the types of numpy arguments.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache

from . import __version__
from .errors import ConfigError, NumericError

SCHEMA_VERSION = 1
_FORMATS = ("csv", "json", "pgm")


# ---- small parsers ----------------------------------------------------------


def _unique(items) -> tuple:
    """Items with repeats dropped, in first-seen order: a repeated sweep
    entry would recompute and rewrite the same cells."""
    return tuple(dict.fromkeys(items))


def _parse_steps(text: str) -> range | tuple[int, ...]:
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
        try:
            j, k = (int(part) for part in chunk.split(","))
        except ValueError:
            raise ConfigError(f"input pair {chunk!r} is not of the form j,k")
        pairs.append((j, k))
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


def _device_from_args(args, theta):
    """The DeviceConfig of ``--config`` or of the device flags given; the
    command line's own defaults are a cylinder of 21 guides and, for a
    twisted circle, the nearest-neighbour ring."""
    from .model import DeviceConfig, mode_count_check

    given = {flag: getattr(args, flag) for flag in _DEVICE_FLAGS
             if getattr(args, flag) is not None}
    if args.config:
        if given:
            flag = next(iter(given)).replace("_", "-")
            raise ConfigError(f"--config cannot be combined with --{flag}")
        return DeviceConfig.from_json(_read_input(args.config))
    device = {"topology": "cylinder", "n_modes": 21, **given, "theta": theta}
    if args.g_vector is not None:
        device["g_vector"] = _parse_float_list(args.g_vector)
    elif device["topology"] == "twisted_circle":
        n_modes = device["n_modes"]
        mode_count_check(n_modes)
        g = [0.0] * n_modes
        if n_modes >= 2:
            g[1] = 1.0
            g[-1] = 1.0
        device["g_vector"] = tuple(g)
    return DeviceConfig(**device)


def _thetas_from_args(args) -> tuple[float, ...]:
    from .model import coupler_angle_ok

    if getattr(args, "theta", None) is None:
        return (math.pi / 4,)
    thetas = _unique(_parse_float_list(args.theta))
    for theta in thetas:
        if not coupler_angle_ok(theta):
            raise ConfigError(f"--theta value {theta!r} outside [0, pi/2]")
    return thetas


# ---- writers -------------------------------------------------------------------


def _record(record: str, **fields) -> dict:
    """A JSON record: ``fields`` under the schema version, the tool version
    and the record's name."""
    return dict(schema_version=SCHEMA_VERSION, tool_version=__version__, record=record, **fields)


def _is_number_matrix(values) -> bool:
    """Whether ``values`` is a non-empty list of non-empty lists of plain
    floats and ints: then in its JSON text every ", " separates two numbers
    and every "], [" two rows."""
    return type(values) is list and len(values) > 0 and all(
        type(row) is list and len(row) > 0 and set(map(type, row)) <= {float, int}
        for row in values
    )


def _write_json(path: str, payload: dict):
    """``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)``
    writes it, byte for byte.  A top-level ``values`` matrix is encoded by
    json's C encoder, which ``indent`` turns off, and laid out as ``indent``
    would: its rows at indent 4, their numbers at indent 6."""
    import json

    values = payload.get("values")
    if not _is_number_matrix(values):
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        key = '\n  "values": '  # only a top-level key starts a line at indent 2
        text = json.dumps({**payload, "values": 0}, indent=2, sort_keys=True)
        rows = (json.dumps(values)[2:-2]
                .replace("], [", "\n    ],\n    [\n      ")
                .replace(", ", ",\n      "))
        text = text.replace(key + "0", f"{key}[\n    [\n      {rows}\n    ]\n  ]", 1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


@cache
def _csv_template(n_rows: int, n_cols: int) -> str:
    """The csv text of an n_rows x n_cols matrix with a ``%.17g`` in place
    of each value, in row-major order."""
    cells = (f"{r},{s},%.17g\n" for r in range(1, n_rows + 1) for s in range(1, n_cols + 1))
    return "r,s,value\n" + "".join(cells)


def _write_csv(path: str, values):
    """The 2-D float array ``values`` as ``r,s,value`` lines, 1-based, in
    row-major order, each value to 17 significant digits."""
    text = _csv_template(*values.shape) % tuple(values.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(text)


@cache
def _grey_table(sep: str):
    """A uint32 array whose entry v holds the ASCII digits of v then ``sep``,
    NUL-padded to 4 bytes (read-only, built on first use)."""
    import numpy as np

    cells = b"".join(f"{v}{sep}".encode("ascii").ljust(4, b"\0") for v in range(256))
    return np.frombuffer(cells, dtype=np.uint32)


_PGM_PER_LINE = 15  # 15 values of at most 4 chars keep lines under the 70-char limit


def _write_pgm(path: str, values):
    """The 2-D float array ``values`` as a plain (P2) pgm image, scaled so
    that its maximum is grey level 255, half steps rounding up."""
    import numpy as np

    grey_sp, grey_nl = _grey_table(" "), _grey_table("\n")
    vmax = float(values.max())
    if vmax > 0.0:
        # a value within 1e-9 grey levels below a half step rounds up, so a
        # tie does not follow the last bit of the value
        grey = np.floor(values / vmax * 255.0 + (0.5 + 1e-9)).astype(int)
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
    import datetime

    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out_dir, "run.log"), "a") as fh:
        fh.write(f"{stamp} {message}\n")


# ---- correlate ------------------------------------------------------------------


def _cell_name(kind: str, rescaled: bool, ti: int, nd: int, n: int, j: int, k: int) -> str:
    scale = "resc" if rescaled else "phys"
    return f"{kind}_{scale}_th{ti}_nd{nd}_n{n}_j{j}k{k}"


def _write_cell(out_dir: str, stem: str, record, values, formats) -> list:
    """Write one cell as ``stem.<format>`` in each of ``formats``; the JSON
    record, which lists every value, is built by ``record()`` only for json."""
    written = []
    for fmt in _FORMATS:
        if fmt in formats:
            path = os.path.join(out_dir, f"{stem}.{fmt}")
            if fmt == "json":
                _write_json(path, record())
            else:
                (_write_csv if fmt == "csv" else _write_pgm)(path, values)
            written.append(f"{stem}.{fmt}")
    return written


def cmd_correlate(args) -> int:
    from dataclasses import replace

    from .correlations import (check_phase, check_sweep, correlation_sweep,
                               require_commuting_loop, survival_prefactor)
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
    max_step = max(steps)
    if args.oracle:
        if any(j == k for j, k in pairs):
            raise ConfigError("oracle comparison needs distinct input guides")
        # each delayed_run keeps a record of every transit until it ends
        oracle_memory_check(base_cfg.n_modes, transits=max_step + max(delays))
        if rescaled and max_step >= 1:
            # rescaling divides by the survival prefactor, which must stay a normal
            # float; theta = 0 (sin theta = 0) lets no photon in and is left to
            # the simulator's NumericError
            for theta in thetas:
                if theta > 0 and survival_prefactor(theta, max_step) < sys.float_info.min:
                    raise ConfigError(
                        f"--oracle cannot rescale transit {max_step} at theta {theta!r}: its "
                        "survival prefactor underflows the float range (use --physical)"
                    )

    # the eigensystem and the loop relabelling do not depend on theta
    p = require_commuting_loop(base_cfg)
    es = eigensystem_for(base_cfg)

    out_dir = args.out or os.environ.get("QWALK_OUT", "qwalk_out")
    formats = _unique(args.formats.split(","))
    bad = set(formats) - set(_FORMATS)
    if bad:
        raise ConfigError(f"unknown output formats {sorted(bad)}; choose from {_FORMATS}")
    check_phase(es, base_cfg.tau, max_step + max(delays))

    # created only once every input has been checked, so a refused run leaves nothing
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from None

    written = []
    oracle_entries = []
    for ti, theta in enumerate(thetas):
        device = {"topology": base_cfg.topology, "n_modes": base_cfg.n_modes, "theta": theta}
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
                        n = matrix.step
                        name = _cell_name(kind, rescaled, ti, nd, n, j, k)
                        written += _write_cell(
                            out_dir, f"corr_{name}",
                            lambda: _record(
                                "correlation_matrix", **device,
                                tau=base_cfg.tau, omega=base_cfg.omega, **matrix.to_dict(),
                            ),
                            matrix.values, formats,
                        )
                        if run is None or kind != "quantum" or n < 1:
                            continue
                        # compared directly with transit n of the exact simulator
                        oracle = run.transit_records[n - 1].coincidences
                        if rescaled:
                            oracle = oracle / survival_prefactor(theta, n)
                        written += _write_cell(
                            out_dir, f"oracle_{name}",
                            lambda: _record(
                                "oracle_correlation_matrix", **device,
                                entry_probability=run.entry_prob,
                                **{**matrix.to_dict(), "values": oracle.tolist()},
                            ),
                            oracle, ("json",) if "json" in formats else (),
                        )
                        diff = float(abs(matrix.values - oracle).max())
                        oracle_entries.append(
                            {"cell": name, "max_abs_diff": diff, "comparison": "direct"}
                        )

    if args.oracle:
        oracle_entries.sort(key=lambda e: e["cell"])
        worst = max((e["max_abs_diff"] for e in oracle_entries), default=0.0)
        report = _record("oracle_diff_report", entries=oracle_entries, worst_max_abs_diff=worst)
        _write_json(os.path.join(out_dir, "oracle_diff.json"), report)
        written.append("oracle_diff.json")

    # everything the sweep depends on, for reproducibility; the seed is
    # recorded only, nothing in a run is random
    manifest = _record(
        "run_manifest",
        device=base_cfg.to_json_dict(),
        steps=list(steps),
        delays=list(delays),
        input_pairs=[list(pair) for pair in pairs],
        thetas=list(thetas),
        kinds=list(kinds),
        rescaled=rescaled,
        formats=list(formats),
        seed=args.seed,
        oracle=bool(args.oracle),
    )
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    _log_line(out_dir, f"correlate wrote {len(written) + 1} files to {out_dir}")
    print(f"wrote {len(written) + 1} files to {out_dir}")
    return 0


# ---- other subcommands -----------------------------------------------------------


def _write_out(path: str, payload: dict):
    """Write a command's ``--out`` JSON file; a path that cannot be written,
    a directory or one below a missing directory, say, is a ConfigError."""
    try:
        _write_json(path, payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def cmd_spectra(args) -> int:
    from .spectra import eigensystem_for

    cfg = _device_from_args(args, _thetas_from_args(args)[0])
    es = eigensystem_for(cfg)
    for idx, lam in enumerate(es.eigenvalues, start=1):
        print(f"lambda_{idx} = {lam:.12g}")
    if args.out:
        device = {"topology": cfg.topology, "n_modes": cfg.n_modes}
        _write_out(args.out, _record("eigen_system", **device, **es.to_dict()))
    return 0


def cmd_modes(args) -> int:
    from .correlations import invariant_modes, require_commuting_loop
    from .spectra import eigensystem_for

    cfg = _device_from_args(args, _thetas_from_args(args)[0])
    es = eigensystem_for(cfg)
    p = require_commuting_loop(cfg)
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
    import json
    from dataclasses import replace

    from .feasibility import PhysicalParams, discreteness_check, loop_budget

    params = PhysicalParams.from_json(_read_input(args.params))
    if args.transits is not None:
        params = replace(params, transits=args.transits)
    budget = loop_budget(params)
    discreteness = discreteness_check(params, threshold=args.threshold)
    report = _record("feasibility_report", budget=budget, discreteness=discreteness)
    if args.out:
        _write_out(args.out, report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
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


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
