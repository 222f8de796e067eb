"""Correctness gates for one sweep's output directory.

A cell fails when any of its files is missing, does not parse as an N x N
matrix, breaks the pair-mass rule, or differs in bytes from the same file
of the run's first sweep.  A sweep that exits non-zero or writes another
set of files fails every cell; an oracle report above the tolerance fails
every cell the oracle covers.  The reference values here are computed
from the file contents and closed-form arithmetic, never from loopwalk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from workloads import THETA, Workload, cell_files, sweep_files

PAIR_MASS_TOL = 1e-12
ORACLE_TOL = 1e-12


class CheckError(ValueError):
    pass


def survival(theta: float, n: int) -> float:
    """cos^(4(n-1)) sin^4: both photons survive n-1 couplers, then exit."""
    return math.cos(theta) ** (4 * (n - 1)) * math.sin(theta) ** 4


def pair_mass_residual(values: np.ndarray, n_step: int, rescaled: bool) -> float:
    """Relative gap between the upper-triangle mass and the coupler budget."""
    expected = 1.0 if rescaled else survival(THETA, n_step)
    mass = float(np.triu(values).sum())
    return abs(mass - expected) / expected


def read_json(path: str, n: int) -> np.ndarray:
    with open(path) as fh:
        values = np.asarray(json.load(fh)["values"], dtype=float)
    return _square(values, n, path)


def read_csv(path: str, n: int) -> np.ndarray:
    with open(path) as fh:
        if fh.readline().strip() != "r,s,value":
            raise CheckError(f"{path}: bad csv header")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (n * n, 3):
        raise CheckError(f"{path}: {rows.shape[0]} rows, expected {n * n}")
    r = rows[:, 0].astype(int) - 1
    s = rows[:, 1].astype(int) - 1
    if r.min() < 0 or s.min() < 0 or r.max() >= n or s.max() >= n:
        raise CheckError(f"{path}: index out of range")
    values = np.full((n, n), np.nan)
    values[r, s] = rows[:, 2]
    return _square(values, n, path)


def read_pgm(path: str, n: int) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 4 or tokens[0] != "P2":
        raise CheckError(f"{path}: not a P2 pgm")
    width, height, maxval = (int(t) for t in tokens[1:4])
    if (width, height, maxval) != (n, n, 255) or len(tokens) != 4 + n * n:
        raise CheckError(f"{path}: header {width}x{height}/{maxval}, {len(tokens) - 4} pixels")
    grey = np.array([int(t) for t in tokens[4:]]).reshape(n, n)
    if grey.min() < 0 or grey.max() > 255:
        raise CheckError(f"{path}: grey level out of range")
    return grey


READERS = {"json": read_json, "csv": read_csv, "pgm": read_pgm}


def _square(values: np.ndarray, n: int, path: str) -> np.ndarray:
    if values.shape != (n, n) or not np.all(np.isfinite(values)):
        raise CheckError(f"{path}: shape {values.shape} or non-finite entries, expected {n}x{n}")
    return values


def file_hashes(out_dir: str) -> dict[str, str]:
    """SHA-256 of every output file except the timestamped run.log."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "run.log":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class SweepChecker:
    """Checks every sweep of one run against the gates and the first sweep."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.expected = sweep_files(workload)
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.pair_mass_residual = 0.0
        self.oracle_max_abs_diff = 0.0
        self.pair_mass_checked = 0
        self.errors: list[str] = []

    def check(self, out_dir: str, exit_code: int):
        """Gate one sweep's output directory and count its failed cells."""
        w = self.workload
        cells = w.cells()
        self.attempted += len(cells)
        present = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
        if exit_code != 0 or present != self.expected:
            missing, extra = sorted(self.expected - present), sorted(present - self.expected)
            self.fail(len(cells), f"exit code {exit_code}, {len(present)} files "
                       f"(expected {len(self.expected)}); missing {missing[:3]}, extra {extra[:3]}")
            return
        hashes = file_hashes(out_dir)
        if self.reference is None:
            self.reference = hashes
            bad = self._first_sweep_gates(out_dir)
        else:
            changed = {f for f, h in hashes.items() if self.reference.get(f) != h}
            if "manifest.json" in changed or "oracle_diff.json" in changed:
                self.fail(len(cells), "manifest or oracle report differs from the first sweep")
                return
            bad = {c for c in cells if changed & set(cell_files(w, c))}
            if bad:
                self.errors.append(f"{len(bad)} cells differ in bytes from the first sweep")
        self.failed += len(bad)

    def _first_sweep_gates(self, out_dir: str) -> set:
        w = self.workload
        bad = set()
        for cell in w.cells():
            kind, nd, n, _, _ = cell
            for name in cell_files(w, cell):
                fmt = name.rsplit(".", 1)[1]
                try:
                    values = READERS[fmt](os.path.join(out_dir, name), w.n_modes)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    bad.add(cell)
                    self.errors.append(f"{name}: {exc}")
                    continue
                if fmt != "pgm" and nd == 0 and name.startswith("corr_"):
                    res = pair_mass_residual(values, n, w.rescaled)
                    self.pair_mass_checked += 1
                    self.pair_mass_residual = max(self.pair_mass_residual, res)
                    if not res <= PAIR_MASS_TOL:
                        bad.add(cell)
                        self.errors.append(f"{name}: pair-mass residual {res:.3e}")
        if w.oracle:
            try:
                with open(os.path.join(out_dir, "oracle_diff.json")) as fh:
                    worst = float(json.load(fh)["worst_max_abs_diff"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                worst = math.inf
                self.errors.append(f"oracle_diff.json: {exc}")
            self.oracle_max_abs_diff = worst
            if not worst <= ORACLE_TOL:
                covered = {c for c in w.cells() if c[0] == "quantum" and c[2] >= 1}
                bad |= covered
                self.errors.append(f"oracle worst_max_abs_diff {worst:.3e}")
        return bad

    def check_sample(self, cell, values: np.ndarray, pgm_path: str):
        """Gate one cell recomputed outside the sweep: pair mass, and the
        sweep's pgm must be the recomputed matrix on a 0..255 grey scale."""
        _, _, n, _, _ = cell
        self.attempted += 1
        res = pair_mass_residual(values, n, self.workload.rescaled)
        self.pair_mass_checked += 1
        self.pair_mass_residual = max(self.pair_mass_residual, res)
        try:
            grey = read_pgm(pgm_path, self.workload.n_modes)
        except (OSError, ValueError) as exc:
            self.fail(1, f"sample {cell}: {exc}")
            return
        off = float(np.max(np.abs(grey - np.rint(values / values.max() * 255.0))))
        if not res <= PAIR_MASS_TOL or off > 1.0:
            self.fail(1, f"sample {cell}: pair-mass residual {res:.3e}, pgm off by {off}")

    def fail(self, cells: int, message: str):
        self.failed += cells
        self.errors.append(message)
