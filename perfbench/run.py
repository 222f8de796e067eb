"""Benchmark of ``loopwalk correlate`` sweeps, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload moebius_long --seed 1 --seconds 10 --trace 0

Workloads are defined in workloads.py.  With ``--trace 0`` the run reports
the end-to-end metrics: ``setup_s`` (median time of fresh interpreters
that import ``loopwalk.cli`` and parse the workload's command line without
running it), and, from a fresh worker process, ``peak_rss_mb`` after its
first sweep and ``sweep_s`` / ``cells_per_s`` from the sweeps repeated
after it.  This run and all it starts are pinned to one CPU, and its times
are host-scaled: each wall time is divided by the time of a fixed
reference task run next to it and multiplied by REF_NOMINAL_S, so that
they read as on a host of fixed speed.  The record keeps the unscaled wall
times.  With ``--trace 1`` untraced and traced sweeps alternate on every
CPU and the run reports the per-layer metrics in unscaled seconds.
Workers always get one BLAS thread.  Every sweep is gated by checks.py;
``attempted`` and ``failed`` count closed-form cells, so failed /
attempted is the failed fraction.

The last line of standard output is one JSON object.  A fuller record,
with quartiles, the environment, the seed and the SHA-256 of generated
inputs, goes to ``.perfbench_out/`` in the checkout, next to the spans of
traced runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

from workloads import WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
# A shared host's speed drifts by up to a third over minutes, more than
# the bounds in BENCHMARK.json, so the end-to-end times are reported as
# on a host on which worker.reference_s() takes this long.  A shared
# 2-vCPU virtual machine took 0.07 to 0.12 s.
REF_NOMINAL_S = 0.1


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def host_scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each wall time times REF_NOMINAL_S over the reference task's time
    measured next to it."""
    return [t * REF_NOMINAL_S / r for t, r in zip(times, refs, strict=True)]


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> None:
    """Restrict this process, and every process it starts, to one CPU.

    On a small shared host the vCPUs are descheduled independently.  A
    process whose threads hand the interpreter lock or BLAS work from one
    vCPU to the other stalls whenever either is away, so its speed follows
    the host's load on both; on one CPU it depends on one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_worker(args, run_dir: str, config: str | None, spans_path: str) -> dict:
    """Run worker.py in its own process group; on timeout kill the group,
    which holds any set-up probe the worker has started.

    The worker gets one BLAS thread, so that numpy's work stays on the
    thread that asked for it and in that thread's CPU time.
    """
    result_path = os.path.join(run_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--config", config or "", "--scratch", run_dir,
           "--result", result_path, "--spans", spans_path]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "loopwalk", "cli.py")):
        print(f"perfbench: no loopwalk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if not args.trace:
        # The traced run keeps every CPU, so that cli.pool_parallelism can
        # show whether the CLI's thread pool uses more than one.
        pin_to_one_cpu()
    out_root = os.path.join(ROOT, ".perfbench_out")
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(out_root, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = tempfile.mkdtemp(prefix=tag + "-", dir=tmp_root)
    try:
        config = os.path.join(run_dir, "device.json")
        config_sha = write_inputs(workload, args.seed, config)
        config = config if config_sha else None
        result = run_worker(args, run_dir, config, os.path.join(out_root, f"spans-{tag}.json"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(tmp_root) and not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    sweeps, setup = result["sweep_s"], result["setup_s"]
    if args.trace:
        values = dict(result["trace"]["metrics"])
        values["check.pair_mass_residual"] = result["pair_mass_residual"]
        values["check.oracle_max_abs_diff"] = result["oracle_max_abs_diff"]
    else:
        ref = result["reference_s"]  # one before the first timed sweep and one after each
        sweeps = host_scaled(sweeps, [(a + b) / 2 for a, b in zip(ref, ref[1:])])
        setup = host_scaled(setup, result["setup_reference_s"])
        sweep_s = statistics.median(sweeps)
        values = {
            "cells_per_s": len(workload.cells()) / sweep_s,
            "sweep_s": sweep_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = declared_units(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics declared but not measured: {missing}", file=sys.stderr)
        return 1
    report = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed, attempted = result["failed"], result["attempted"]
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": report}

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "argv": workload.argv("<out>", "<config>" if config_sha else None),
        "generated_config_sha256": config_sha, "commit": git_commit(),
        "env": result["env"], "failed_frac": failed / attempted if attempted else math.nan,
        "sweep_s": sweeps, "sweep_s_quartiles": quartiles(sweeps), "warmup_s": result["warmup_s"],
        "wall_sweep_s": result["sweep_s"], "wall_setup_s": result["setup_s"],
        "reference_s": result.get("reference_s"), "ref_nominal_s": REF_NOMINAL_S,
        "setup_s": setup, "setup_s_quartiles": quartiles(setup) if setup else None,
        "errors": result["errors"], "pair_mass_checked": result["pair_mass_checked"],
        "trace": result.get("trace"), "summary": summary,
    }
    with open(os.path.join(out_root, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = result["env"]
    print(f"# {workload.name} seed={args.seed} commit={record['commit'][:12]} "
          f"config_sha256={config_sha or '-'}")
    print(f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} blas_threads={env['blas']['threads']}")
    for error in result["errors"]:
        print(f"# FAILED: {error.strip()}", file=sys.stderr)
    if args.trace:
        trace = result["trace"]
        if trace["absent"] or trace["missing_layers"] or trace["detail_errors"]:
            print(f"# WARNING: absent entry points {trace['absent']}, layers without spans "
                  f"{trace['missing_layers']}, detail errors {trace['detail_errors']}",
                  file=sys.stderr)
        shares = {k[6:]: v["value"] for k, v in report.items() if k.startswith("share.")}
        print(f"# dominant layer: {max(shares, key=shares.get)}; p_hi = "
              f"p{trace['p_hi_percentile']:g} of {trace['cells_timed']} cells; "
              "busy and self times are thread CPU seconds per traced sweep; "
              "fock_oracle.lifted_mb is computed as lifts x pair_dim^2 x 16 B")
    else:
        q1, q3 = quartiles(sweeps)
        print(f"# sweep_s over {len(sweeps)} sweeps: q1 {q1:.4f}, q3 {q3:.4f}; "
              f"setup_s over {len(setup)} launches; failed_frac {record['failed_frac']:.4g}")
        print(f"# times scaled to a {REF_NOMINAL_S} s reference task, which took "
              f"{statistics.median(result['reference_s']):.4f} s (median); unscaled "
              f"sweep_s {statistics.median(result['sweep_s']):.4f} s, "
              f"setup_s {statistics.median(result['setup_s']):.4f} s")
    for name, m in report.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
