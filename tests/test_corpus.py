"""Byte corpus: the SHA-256 of every file a few short command lines write.

Each case reruns one command line into a temporary directory and compares
the hash of each output file (``run.log`` aside) with ``golden/corpus.json``,
after setting ``tool_version`` to "" as test_manifest_bytes_match_golden
does.  csv and json values come from BLAS products, whose last bits depend
on the OpenBLAS kernel, so their hashes are compared only on the core the
corpus was made on; ``manifest.json`` and every pgm file are compared
everywhere.  A pgm grey level within 1e-9 of a half step rounds up, so the
custom ring's cells, which hold values of exactly half their maximum (a
grey level of 127.5), write the same pgm bytes whatever their last bit.

A change that moves output bytes on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_corpus.py
"""

import ctypes
import glob
import hashlib
import json
import os
import re
import sys

import numpy as np
import pytest

from loopwalk.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CORPUS = os.path.join(GOLDEN, "corpus.json")

# name -> (argv, where --out points inside the case directory); the device and
# feasibility files live in golden/ and are passed by absolute path
CASES = {
    "moebius_both_pgm_csv": (
        ["correlate", "--topology", "moebius", "--n-modes", "8", "--inputs", "1,3;2,5",
         "--steps", "0..4", "--kind", "both", "--formats", "pgm,csv"],
        "out",
    ),
    "twisted_delayed_physical_oracle": (
        ["correlate", "--topology", "twisted_circle", "--n-modes", "6", "--shift-c", "2",
         "--inputs", "1,4", "--steps", "1..3", "--delay", "0,2", "--physical",
         "--oracle", "--formats", "json"],
        "out",
    ),
    "cylinder_two_thetas": (
        ["correlate", "--topology", "cylinder", "--n-modes", "5", "--theta", "0.3,0.6",
         "--inputs", "1,3", "--steps", "0..3", "--formats", "csv,json,pgm"],
        "out",
    ),
    "custom_ring_config": (
        ["correlate", "--config", os.path.join(GOLDEN, "custom_ring.json"),
         "--inputs", "1,4;2,3", "--steps", "0..3", "--kind", "both",
         "--formats", "csv,json,pgm"],
        "out",
    ),
    "spectra_out": (
        ["spectra", "--topology", "twisted_circle", "--n-modes", "5", "--shift-c", "2"],
        "spectra.json",
    ),
    "feasibility_out": (
        ["feasibility", os.path.join(GOLDEN, "feasibility_params.json"), "--transits", "50"],
        "feasibility.json",
    ),
}


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked at load, or "" when the
    library or its core-name query cannot be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_char_p
                return query().decode("ascii")
    return ""


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        data = re.sub(rb'"tool_version": "[^"]*"', b'"tool_version": ""', data)
    return hashlib.sha256(data).hexdigest()


def case_hashes(name: str, workdir: str) -> dict:
    """Run case ``name`` under ``workdir``; file name -> SHA-256."""
    argv, target = CASES[name]
    out = os.path.join(workdir, target)
    assert main(argv + ["--out", out]) == 0
    if os.path.isfile(out):
        return {target: _digest(out)}
    return {f: _digest(os.path.join(out, f)) for f in sorted(os.listdir(out)) if f != "run.log"}


def _core_independent(filename: str) -> bool:
    return filename.endswith(".pgm") or filename == "manifest.json"


def _corpus() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_covers_every_case():
    assert sorted(_corpus()["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_corpus(tmp_path, name):
    corpus = _corpus()
    expected = corpus["cases"][name]
    got = case_hashes(name, str(tmp_path))
    assert sorted(got) == sorted(expected)
    same_core = openblas_core() == corpus["openblas_core"]
    checked = [f for f in expected if same_core or _core_independent(f)]
    assert [f for f in checked if got[f] != expected[f]] == []


def test_pgm_and_manifest_are_in_the_corpus():
    """Every core checks something: the pgm files and manifests."""
    files = [f for case in _corpus()["cases"].values() for f in case]
    assert sum(f.endswith(".pgm") for f in files) >= 10
    assert files.count("manifest.json") == 4


if __name__ == "__main__":
    import tempfile

    sys.stdout = open(os.devnull, "w")  # the commands' own prints
    cases = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = case_hashes(case, tmp)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump({"openblas_core": openblas_core(), "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
