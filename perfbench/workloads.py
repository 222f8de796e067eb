"""The benchmark's workloads: ``loopwalk correlate`` sweeps and their inputs.

Each workload is one closed loop: a single client runs one sweep, waits
for it to finish, checks it, and starts the next.  Every workload uses the
CLI's default coupler angle pi/4, its default tau and its default thread
pool, and passes neither ``--jobs`` nor ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

THETA = math.pi / 4  # the CLI default; no workload passes --theta


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_modes: int
    device_args: tuple[str, ...]  # empty: the device comes from a generated --config
    pairs: tuple[tuple[int, int], ...]
    steps: tuple[int, ...]
    layers: tuple[str, ...]  # layers a traced sweep must record spans for
    delays: tuple[int, ...] = (0,)
    kinds: tuple[str, ...] = ("quantum",)
    physical: bool = False
    oracle: bool = False
    formats: tuple[str, ...] = ("pgm",)
    sample_steps: tuple[int, ...] = ()  # pgm-only: steps recomputed for the pair-mass check

    @property
    def rescaled(self) -> bool:
        return not self.physical

    def argv(self, out_dir: str, config_path: str | None = None) -> list[str]:
        device = list(self.device_args) if self.device_args else ["--config", config_path]
        argv = ["correlate", *device,
                "--inputs", ";".join(f"{j},{k}" for j, k in self.pairs),
                "--steps", f"{self.steps[0]}..{self.steps[-1]}",
                "--delay", ",".join(str(d) for d in self.delays),
                "--kind", "both" if len(self.kinds) == 2 else self.kinds[0],
                "--formats", ",".join(self.formats)]
        if self.physical:
            argv.append("--physical")
        if self.oracle:
            argv.append("--oracle")
        return argv + ["--out", out_dir]

    def cells(self) -> list[tuple[str, int, int, int, int]]:
        """(kind, delay, step, j, k) of every closed-form cell a sweep computes."""
        return [(kind, nd, n, j, k)
                for nd in self.delays for (j, k) in self.pairs
                for kind in self.kinds for n in self.steps]


def cell_name(workload: Workload, cell) -> str:
    """The stem the CLI gives a cell's files (theta index 0)."""
    kind, nd, n, j, k = cell
    scale = "resc" if workload.rescaled else "phys"
    return f"{kind}_{scale}_th0_nd{nd}_n{n}_j{j}k{k}"


def cell_files(workload: Workload, cell) -> list[str]:
    """Every file a sweep writes for one cell."""
    stem = cell_name(workload, cell)
    files = [f"corr_{stem}.{fmt}" for fmt in workload.formats]
    kind, _, n, _, _ = cell
    if workload.oracle and kind == "quantum" and n >= 1 and "json" in workload.formats:
        files.append(f"oracle_{stem}.json")
    return files


def sweep_files(workload: Workload) -> set[str]:
    """Every file a sweep writes, run.log included."""
    files = {"manifest.json", "run.log"}
    if workload.oracle:
        files.add("oracle_diff.json")
    for cell in workload.cells():
        files.update(cell_files(workload, cell))
    return files


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moebius_long",
            why="804-cell moebius sweep to n=200, pgm only: the roadmap baseline, "
                "where compose, eigensystem rebuilds and the thread pool dominate",
            n_modes=64,
            device_args=("--topology", "moebius", "--n-modes", "64"),
            pairs=((1, 7), (20, 40)),
            steps=tuple(range(0, 201)),
            kinds=("quantum", "classical"),
            layers=("spectra", "propagate", "correlations", "cli"),
            sample_steps=(0, 1, 2, 99, 200),
        ),
        Workload(
            name="oracle_twisted",
            why="twisted circle N=30, physical json and csv, delayed entry, --oracle: "
                "the only workload on the exact Fock simulator (~0.3 GB peak)",
            n_modes=30,
            device_args=("--topology", "twisted_circle", "--n-modes", "30", "--shift-c", "7"),
            pairs=((1, 7), (3, 12)),
            steps=tuple(range(1, 5)),
            delays=(0, 2),
            physical=True,
            oracle=True,
            formats=("json", "csv"),
            layers=("spectra", "propagate", "correlations", "fock_oracle", "cli"),
        ),
        # Runs on request only; BENCHMARK.json leaves it out.  On a shared
        # 2-vCPU host its 30-s runs spread by up to 29% over ten seeds, and
        # three workloads leave no time for longer runs.
        # No --oracle here: the closed forms assume the loop permutation
        # commutes with G, which a random permutation does not, and they
        # then differ from the exact simulator from n = 2 on.
        Workload(
            name="custom_jacobi",
            why="seeded custom device N=32, pgm only: the only route into the "
                "Jacobi eigensolver, which is rerun for every cell",
            n_modes=32,
            device_args=(),
            pairs=((1, 7),),
            steps=tuple(range(1, 13)),
            kinds=("quantum", "classical"),
            layers=("spectra", "propagate", "correlations", "cli"),
            sample_steps=(1, 6, 12),
        ),
    )
}

# Magnitudes of the custom coupling matrix: one fixed draw of a disordered
# chain (on-site detuning, nearest- and weaker next-nearest couplings).
# The seed changes G only through a diagonal +-1 similarity S G S, which
# the cyclic Jacobi solver follows rotation for rotation, so every seed
# costs the same number of Jacobi sweeps.  Fully random draws need 7 or 8
# sweeps depending on the seed, a 12% swing in the sweep time.
_CUSTOM_BASE_SEED = 1207


def _custom_base(n: int) -> list[list[float]]:
    rng = random.Random(_CUSTOM_BASE_SEED)
    g = [[0.0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = rng.uniform(-0.5, 0.5)
    for d, lo, hi in ((1, 0.5, 1.5), (2, 0.0, 0.3)):
        for i in range(n - d):
            g[i][i + d] = g[i + d][i] = rng.uniform(lo, hi)
    return g


def custom_config(seed: int, n: int = 32) -> dict:
    """The custom_jacobi device: exactly symmetric G and a random loop permutation."""
    rng = random.Random(seed)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    base = _custom_base(n)
    g = [[signs[r] * base[r][c] * signs[c] for c in range(n)] for r in range(n)]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return {"topology": "custom", "n_modes": n, "theta": THETA, "tau": 1.0,
            "omega": 0.0, "custom_G": g, "custom_perm": perm}


def write_inputs(workload: Workload, seed: int, path: str) -> str | None:
    """Write the workload's generated input file, if it has one.

    Returns the SHA-256 of the bytes written, or None.
    """
    if workload.device_args:
        return None
    data = (json.dumps(custom_config(seed, workload.n_modes), sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
