"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py.  Imports loopwalk from the checkout's ``src`` and calls
``loopwalk.cli.main`` in-process.  The first sweep warms the process up
and gives the peak resident memory of a fresh process that ran one sweep;
later sweeps are timed.  Between timed sweeps the run times a fixed
reference task, which gauges the host's speed, and launches the fresh
interpreters that measure set-up time, so that their median covers the
same stretch of time as the sweeps.  With ``--trace 1`` untraced and
traced sweeps alternate and the traced ones are summarised layer by
layer.  Every sweep writes to a fresh directory that is removed once its
gates have run.  The result goes to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from checks import SweepChecker
from tracer import Tracer
from workloads import WORKLOADS, cell_name

MIN_TIMED_SWEEPS = 2
SETUP_REPEATS = 7
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Runs in a fresh interpreter: import the CLI and parse a correlate
# command line; --help makes argparse stop after parsing, before running.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from loopwalk.cli import main
main(sys.argv[2:] + ["--help"])
sys.exit(1)
"""


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import loopwalk
    import loopwalk.cli

    if not os.path.abspath(loopwalk.__file__).startswith(src + os.sep):
        raise SystemExit(f"loopwalk imported from {loopwalk.__file__}, not from {src}")
    return loopwalk


def _sweep(cli, workload, scratch: str, config: str | None, errors: list):
    out_dir = tempfile.mkdtemp(prefix="out-", dir=scratch)
    argv = workload.argv(out_dir, config)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crashed sweep fails its cells; the run goes on
            code = -1
            errors.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
    return out_dir, code, elapsed


REF_LOOP = 600_000
REF_PRODUCTS = 140


def reference_s() -> float:
    """Wall seconds of a fixed task that runs no loopwalk code.

    Timed between the timed sweeps, it gauges the host's speed at the
    time: mostly interpreter work, like most of a sweep, and a share of
    small dense products, like the oracle's.
    """
    start = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i * i % 7
    a = np.cos(np.arange(160 * 160, dtype=float)).reshape(160, 160) / 20
    b = a
    for _ in range(REF_PRODUCTS):
        b = np.tanh(a @ b)
    return time.perf_counter() - start


def _setup_launch(root: str, argv: list[str]) -> float:
    """Wall seconds for a fresh interpreter to import the CLI and parse argv."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, os.path.join(root, "src"), *argv],
                          cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: " + proc.stderr.decode(errors="replace")[-500:])
    return elapsed


def _check_sample(loopwalk, workload, checker: SweepChecker, out_dir: str):
    """Recompute a fixed sample of cells outside the timed sweeps."""
    if not workload.sample_steps:
        return
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        cfg = loopwalk.DeviceConfig.from_json_dict(json.load(fh)["device"])
    for (j, k) in workload.pairs:
        for kind in workload.kinds:
            for n in workload.sample_steps:
                cell = (kind, 0, n, j, k)
                pgm = os.path.join(out_dir, f"corr_{cell_name(workload, cell)}.pgm")
                try:
                    matrix = loopwalk.device_correlation(cfg, n, j, k, n_d=0, kind=kind,
                                                         rescaled=workload.rescaled)
                except Exception:  # an API change must show as a failed cell
                    checker.attempted += 1
                    checker.fail(1, f"sample {cell}: " + traceback.format_exc(limit=2))
                    continue
                checker.check_sample(cell, np.asarray(matrix.values, dtype=float), pgm)


# ---- per-layer summary of one traced sweep ----------------------------------


def _device_key(cfg) -> str:
    to_json = getattr(cfg, "to_json", None)
    return to_json() if callable(to_json) else repr(cfg)


def layer_summary(spans, sweep_s: float) -> dict:
    """Per-layer counts and busy times of one traced sweep.

    Busy and self times are CPU seconds of the calling thread inside the
    spans, so that time a pool thread spends waiting for the interpreter
    lock is not counted twice.  Self time subtracts the direct children.
    """
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_cpu[s.parent] = child_cpu.get(s.parent, 0.0) + s.cpu
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.cpu for s in by.get(name, ()))

    def self_time(name):
        return sum(s.cpu - child_cpu.get(s.id, 0.0) for s in by.get(name, ()))

    eig = by.get("spectra.eigensystem_for", [])
    compose = by.get("propagate.compose", [])
    cells = by.get("correlations.device_correlation", [])
    lifts = by.get("fock_oracle.lift_to_two_photon", [])
    writers = [s for s in spans if s.layer == "cli"]
    dims = [s.detail for s in lifts if s.detail is not None]
    pair_dim = max(dims, default=0)
    paths = {s.detail for s in writers if s.detail is not None}
    written = sum(os.path.getsize(p) for p in paths if os.path.isfile(p))
    writer_cpu = sum(s.cpu for s in writers)
    compute_wall = (max(s.end for s in cells) - min(s.start for s in cells)) if cells else 0.0

    layer_self: dict[str, float] = {}
    for s in spans:
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + s.cpu - child_cpu.get(s.id, 0.0)
    total_self = sum(layer_self.values()) or 1.0

    out = {
        "spectra.eigensystem_calls": len(eig),
        "spectra.eigensystem_s": busy("spectra.eigensystem_for"),
        "spectra.useful_ratio": (len({_device_key(s.detail) for s in eig if s.detail is not None})
                                 / len(eig)) if eig else 0.0,
        "propagate.compose_calls": len(compose),
        "propagate.compose_s": busy("propagate.compose"),
        "propagate.compose_power_sum": sum(s.detail for s in compose if s.detail is not None),
        "propagate.transfer_calls": len(by.get("propagate.transfer_matrix", [])),
        "propagate.transfer_s": busy("propagate.transfer_matrix"),
        "correlations.cells": len(cells),
        "correlations.self_s": self_time("correlations.device_correlation"),
        "fock_oracle.runs": len(by.get("fock_oracle.delayed_run", [])),
        "fock_oracle.run_s": busy("fock_oracle.delayed_run"),
        "fock_oracle.self_s": self_time("fock_oracle.delayed_run"),
        "fock_oracle.lift_calls": len(lifts),
        "fock_oracle.lift_s": busy("fock_oracle.lift_to_two_photon"),
        "fock_oracle.pair_dim": pair_dim,
        "fock_oracle.lifted_mb": len(lifts) * pair_dim**2 * 16 / 1e6,
        "cli.write_json_s": busy("cli._write_json"),
        "cli.write_csv_s": busy("cli._write_csv"),
        "cli.write_pgm_s": busy("cli._write_pgm"),
        "cli.files_written": len(writers),
        "cli.bytes_written": written,
        "cli.write_share": writer_cpu / sweep_s,
        "cli.pool_parallelism": (sum(s.cpu for s in cells) / compute_wall) if compute_wall else 0.0,
        "trace.sweep_s": sweep_s,
    }
    for layer in ("spectra", "propagate", "correlations", "fock_oracle", "cli"):
        out[f"share.{layer}"] = layer_self.get(layer, 0.0) / total_self
    return out


def _p_hi_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in PERCENTILE_LADDER:
        if count * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


# ---- environment --------------------------------------------------------------


def _blas_info() -> dict:
    info = {"name": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    info["threads"] = env or f"unset (OpenBLAS default: {os.cpu_count()})"
    return info


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(),
    }


# ---- main ------------------------------------------------------------------------


def run(args) -> dict:
    loopwalk = _import_cli(args.root)
    cli = sys.modules["loopwalk.cli"]
    workload = WORKLOADS[args.workload]
    config = args.config or None
    checker = SweepChecker(workload)
    crashes: list[str] = []

    def sweep():
        return _sweep(cli, workload, args.scratch, config, crashes)

    def finish(out_dir, code):
        checker.check(out_dir, code)
        shutil.rmtree(out_dir, ignore_errors=True)

    out_dir, code, warmup_s = sweep()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.check(out_dir, code)
    if code == 0:
        _check_sample(loopwalk, workload, checker, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)

    untraced: list[float] = []
    setup: list[float] = []
    result: dict = {"warmup_s": warmup_s, "peak_rss_mb": peak_rss_mb, "setup_s": setup}
    if not args.trace:
        setup_argv = workload.argv(os.path.join(args.scratch, "out"), config)
        reference_s()  # untimed: the first call pays numpy's lazy set-up
        ref = [reference_s()]
        setup_ref: list[float] = []
        while len(untraced) < MIN_TIMED_SWEEPS or sum(untraced) < args.seconds:
            out_dir, code, elapsed = sweep()
            untraced.append(elapsed)
            ref.append(reference_s())
            finish(out_dir, code)
            setup_ref.append(ref[-1])
            setup.append(_setup_launch(args.root, setup_argv))
        while len(setup) < SETUP_REPEATS:
            setup_ref.append(reference_s())
            setup.append(_setup_launch(args.root, setup_argv))
        result.update(reference_s=ref, setup_reference_s=setup_ref)
    else:
        tracer = Tracer()
        summaries, cell_ms, all_spans, layer_spans = [], [], [], {}
        traced: list[float] = []
        while not traced or sum(untraced) + sum(traced) < args.seconds:
            out_dir, code, elapsed = sweep()
            untraced.append(elapsed)
            finish(out_dir, code)
            with tracer:
                bindings = tracer.bindings()
                out_dir, code, elapsed = sweep()
            traced.append(elapsed)
            spans = tracer.take()
            summaries.append(layer_summary(spans, elapsed))
            finish(out_dir, code)
            cell_ms += [s.cpu * 1e3 for s in spans if s.name == "correlations.device_correlation"]
            for s in spans:
                layer_spans[s.layer] = layer_spans.get(s.layer, 0) + 1
            all_spans.append([s.to_json() for s in spans])
        metrics = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
        p_hi = _p_hi_percentile(len(cell_ms))
        metrics["correlations.cell_ms.p50"] = float(np.percentile(cell_ms, 50)) if cell_ms else 0.0
        metrics["correlations.cell_ms.p_hi"] = float(np.percentile(cell_ms, p_hi)) if cell_ms else 0.0
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["trace"] = {
            "metrics": metrics,
            "traced_sweep_s": traced,
            "p_hi_percentile": p_hi,
            "cells_timed": len(cell_ms),
            "layer_spans": layer_spans,
            "missing_layers": [layer for layer in workload.layers if not layer_spans.get(layer)],
            "absent": tracer.absent,
            "detail_errors": tracer.detail_errors,
            "bindings": bindings,
        }
        with open(args.spans, "w") as fh:
            json.dump({"workload": workload.name, "sweeps": all_spans}, fh)

    result.update({
        "sweep_s": untraced,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "pair_mass_residual": checker.pair_mass_residual,
        "pair_mass_checked": checker.pair_mass_checked,
        "oracle_max_abs_diff": checker.oracle_max_abs_diff,
        "errors": (crashes + checker.errors)[:20],
        "env": environment(),
    })
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--config", default="")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
