import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import loopwalk
import loopwalk.fock_oracle as fock_oracle
from loopwalk.cli import _parse_pairs, _parse_steps, _write_csv, _write_json, _write_pgm, main
from loopwalk.model import ConfigError, CorrelationMatrix, EigenSystem
from test_correlations import non_commuting_device


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


# ---- argument parsing helpers ------------------------------------------------


def test_parse_steps_range_and_list():
    assert _parse_steps("0..3") == range(0, 4)
    assert _parse_steps("1,2,4") == (1, 2, 4)
    assert _parse_steps("2,2,1") == (2, 1)
    with pytest.raises(ConfigError):
        _parse_steps("3..1")
    with pytest.raises(ConfigError):
        _parse_steps("a..b")
    with pytest.raises(ConfigError, match="more steps than can be indexed"):
        _parse_steps(f"0..{sys.maxsize}")


def test_parse_pairs():
    assert _parse_pairs("1,7") == ((1, 7),)
    assert _parse_pairs("1,7;3,5") == ((1, 7), (3, 5))
    assert _parse_pairs("3,5;1,7;3,5") == ((3, 5), (1, 7))
    with pytest.raises(ConfigError):
        _parse_pairs("1,2,3")


# ---- correlate ------------------------------------------------------------------


def test_correlate_writes_expected_files(tmp_path):
    code, out = run(
        tmp_path,
        "correlate", "--topology", "moebius", "--n-modes", "12",
        "--inputs", "1,7", "--steps", "0..3", "--rescaled",
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in names and "run.log" in names
    for n in range(4):
        assert f"corr_quantum_resc_th0_nd0_n{n}_j1k7.json" in names
        assert f"corr_quantum_resc_th0_nd0_n{n}_j1k7.csv" in names


def test_cell_json_round_trips(tmp_path):
    code, out = run(
        tmp_path,
        "correlate", "--topology", "cylinder", "--n-modes", "5",
        "--inputs", "1,3", "--steps", "1,2",
    )
    assert code == 0
    d = json.loads((out / "corr_quantum_resc_th0_nd0_n2_j1k3.json").read_text())
    assert d["schema_version"] == 1
    m = CorrelationMatrix.from_dict(d)
    assert m.step == 2 and m.inputs == (1, 3) and m.n_modes == 5


def test_csv_layout(tmp_path):
    code, out = run(
        tmp_path,
        "correlate", "--n-modes", "3", "--inputs", "1,2", "--steps", "1",
        "--formats", "csv",
    )
    assert code == 0
    lines = (out / "corr_quantum_resc_th0_nd0_n1_j1k2.csv").read_text().splitlines()
    assert lines[0] == "r,s,value"
    assert len(lines) == 1 + 9
    r, s, v = lines[1].split(",")
    assert (r, s) == ("1", "1")
    float(v)


def test_default_array_size_is_21(tmp_path):
    code, out = run(tmp_path, "correlate", "--steps", "1")
    assert code == 0
    d = json.loads((out / "corr_quantum_resc_th0_nd0_n1_j1k7.json").read_text())
    assert d["n_modes"] == 21
    assert len(d["values"]) == 21


def test_multiple_input_pairs_and_delays(tmp_path):
    code, out = run(
        tmp_path,
        "correlate", "--n-modes", "6", "--inputs", "1,4;2,5",
        "--steps", "1", "--delay", "0,1",
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    for nd in (0, 1):
        for j, k in ((1, 4), (2, 5)):
            assert f"corr_quantum_resc_th0_nd{nd}_n1_j{j}k{k}.json" in names


def test_repeated_sweep_entries_are_dropped(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "correlate", "--n-modes", "8", "--inputs", "1,7;1,7;2,3;1,7",
        "--delay", "0,0", "--steps", "0..1", "--formats", "csv",
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(
        [f"corr_quantum_resc_th0_nd0_n{n}_j{j}k{k}.csv" for n in (0, 1) for j, k in ((1, 7), (2, 3))]
        + ["manifest.json", "run.log"]
    )
    # the printed count covers every file but run.log
    assert f"wrote {len(names) - 1} files" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_pairs"] == [[1, 7], [2, 3]]
    assert manifest["delays"] == [0]


def test_repeated_theta_is_swept_once(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "correlate", "--n-modes", "5", "--inputs", "1,3", "--theta", "0.5,0.5",
        "--steps", "1", "--formats", "csv",
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["corr_quantum_resc_th0_nd0_n1_j1k3.csv", "manifest.json", "run.log"]
    assert "wrote 2 files" in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text())["thetas"] == [0.5]


def test_runs_are_byte_identical(tmp_path):
    args = (
        "correlate", "--topology", "twisted_circle", "--n-modes", "6",
        "--shift-c", "2", "--inputs", "1,4", "--steps", "0..2",
        "--formats", "csv,json,pgm",
    )
    code1, out1 = run(tmp_path / "a", *args)
    code2, out2 = run(tmp_path / "b", *args)
    assert code1 == code2 == 0
    for p1 in sorted(out1.iterdir()):
        if p1.name == "run.log":
            continue  # timestamps live here by design
        p2 = out2 / p1.name
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_oracle_report_confirms_closed_forms(tmp_path):
    code, out = run(
        tmp_path,
        "correlate", "--topology", "moebius", "--n-modes", "8",
        "--inputs", "1,5", "--steps", "1..3", "--oracle",
    )
    assert code == 0
    report = json.loads((out / "oracle_diff.json").read_text())
    assert report["worst_max_abs_diff"] < 1e-10
    assert all(e["comparison"] == "direct" for e in report["entries"])


def test_oracle_report_delayed_is_direct(tmp_path):
    code, out = run(
        tmp_path,
        "correlate", "--n-modes", "6", "--inputs", "1,4",
        "--steps", "1..2", "--delay", "1", "--oracle",
    )
    assert code == 0
    report = json.loads((out / "oracle_diff.json").read_text())
    assert len(report["entries"]) == 2
    assert report["worst_max_abs_diff"] < 1e-14
    for e in report["entries"]:
        assert e["comparison"] == "direct" and "scale_ratio" not in e


def test_manifest_is_timestamp_free(tmp_path):
    code, out = run(tmp_path, "correlate", "--n-modes", "4", "--inputs", "1,2", "--steps", "1")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["record"] == "run_manifest"
    assert "time" not in json.dumps(manifest).lower()
    assert (out / "run.log").read_text().strip()  # timestamps land here


# ---- failure modes --------------------------------------------------------------


def test_missing_shift_is_config_error(tmp_path):
    code, _ = run(tmp_path, "correlate", "--topology", "twisted_circle", "--steps", "1")
    assert code == 2


def test_physical_step_zero_is_config_error(tmp_path):
    code, _ = run(tmp_path, "correlate", "--steps", "0..2", "--physical")
    assert code == 2


def test_classical_delayed_is_config_error(tmp_path):
    code, _ = run(
        tmp_path,
        "correlate", "--steps", "1", "--delay", "1", "--kind", "classical",
    )
    assert code == 2


def test_bad_format_is_config_error(tmp_path):
    code, out = run(tmp_path, "correlate", "--steps", "1", "--formats", "csv,bmp")
    assert code == 2
    assert not out.exists()
    code, out = run(tmp_path, "correlate", "--steps", "1", "--formats", "png")
    assert code == 2
    assert not out.exists()


def test_repeated_formats_are_written_and_recorded_once(tmp_path):
    code, out = run(tmp_path, "correlate", "--n-modes", "4", "--inputs", "1,2", "--steps", "1",
                    "--formats", "csv,pgm,csv")
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["formats"] == ["csv", "pgm"]
    assert sorted(p.name for p in out.iterdir()) == [
        "corr_quantum_resc_th0_nd0_n1_j1k2.csv", "corr_quantum_resc_th0_nd0_n1_j1k2.pgm",
        "manifest.json", "run.log",
    ]


# each exited 0 and wrote cells of noise: max|lambda| tau m far beyond 2^32 rad
@pytest.mark.parametrize("flags", [
    ["--delay", "99999999999999999999"],
    ["--tau", "1e300"],
    ["--omega", "1e308"],
    ["--steps", "9223372036854775807"],
])
def test_phase_without_digits_is_config_error(tmp_path, capsys, flags):
    code, out = run(tmp_path, "correlate", "--topology", "cylinder", "--n-modes", "4",
                    "--inputs", "1,2", "--steps", "1", *flags)
    assert code == 2
    assert "not below 2^32 rad" in capsys.readouterr().err
    assert not out.exists()


def test_phase_limit_is_2_to_the_32_rad(tmp_path):
    # max |lambda| = 2 cos(pi / 5) on a 4-guide chain
    last = math.floor(2.0**32 / (2.0 * math.cos(math.pi / 5)))
    for delay, code in ((last - 1, 0), (last + 1, 2)):
        argv = ["correlate", "--n-modes", "4", "--inputs", "1,2", "--steps", "1",
                "--delay", str(delay - 1), "--formats", "pgm"]
        assert run(tmp_path / str(delay), *argv)[0] == code


@pytest.mark.parametrize("thetas, bad", [("0.5,2.0", "2.0"), ("0.5,-1", "-1.0"), ("0.5,nan", "nan")])
def test_every_theta_is_checked_before_output(tmp_path, capsys, thetas, bad):
    code, out = run(
        tmp_path,
        "correlate", "--n-modes", "4", "--inputs", "1,2", "--steps", "1",
        "--theta", thetas, "--physical", "--formats", "csv",
    )
    assert code == 2
    assert f"--theta value {bad} outside" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_too_large_for_memory_is_config_error(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "correlate", "--topology", "moebius", "--n-modes", "1000", "--inputs", "1,2",
        "--steps", "1", "--formats", "csv", "--oracle",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "needs 64064.0 GB" in err and "GB of physical memory" in err
    assert not out.exists()


def test_dead_coupler_oracle_is_numeric_error(tmp_path):
    # theta = 0 never lets photons enter, the conditioned state is empty
    code, _ = run(
        tmp_path,
        "correlate", "--n-modes", "4", "--inputs", "1,2", "--steps", "1",
        "--theta", "0", "--oracle",
    )
    assert code == 3


def test_oracle_same_guide_pair_is_config_error(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "correlate", "--n-modes", "4", "--inputs", "2,2", "--steps", "1", "--oracle",
    )
    assert code == 2
    assert "oracle comparison needs distinct input guides" in capsys.readouterr().err
    assert not out.exists()


_ADDRESS_SPACE_LIMIT = 1536 * 2**20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_LIMIT, _ADDRESS_SPACE_LIMIT))


def _run_capped(*argv):
    """The CLI in a separate process under a 1.5-GB address-space cap, so
    that an allocation sized by its input fails there and not in the test run."""
    src = os.path.dirname(os.path.dirname(loopwalk.__file__))
    return subprocess.run(
        [sys.executable, "-m", "loopwalk.cli", *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src}, preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize(
    "n_modes, device",
    [
        ("300000000", ["--topology", "moebius"]),
        ("100000", ["--topology", "moebius"]),
        # the CLI's default nearest-neighbour ring has one entry per guide
        ("300000000", ["--topology", "twisted_circle", "--c", "1"]),
    ],
)
def test_mode_count_too_large_for_memory_is_config_error(n_modes, device):
    proc = _run_capped("spectra", "--n-modes", n_modes, *device)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert f"N = {n_modes} needs" in proc.stderr and "GB of physical memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_step_range_too_large_for_memory_is_config_error(tmp_path):
    # a range built before the check would die under the cap with a MemoryError
    out = tmp_path / "out"
    proc = _run_capped(
        "correlate", "--n-modes", "5", "--steps", "0..100000000000", "--out", str(out)
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: 100000000001 steps at N = 5 need")
    assert "GB of physical memory" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("axis", ["delay", "steps"])
def test_oracle_run_too_long_for_memory_is_config_error(tmp_path, axis):
    # every transit keeps an N x N StepRecord, 7.9 KB at N = 30; the step
    # range passes the closed-form sweep's check at 3.0 KB per step
    transits = fock_oracle.physical_memory_bytes() // 4000
    flags = {"delay": ["--steps", "1", "--delay", "100000000000"],
             "steps": ["--steps", f"1..{transits}"]}[axis]
    out = tmp_path / "out"
    proc = _run_capped(
        "correlate", "--topology", "twisted_circle", "--n-modes", "30", "--c", "7",
        "--inputs", "1,7", *flags, "--oracle", "--out", str(out),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: the exact oracle at N = 30 needs")
    assert "transit records" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _without_version(text: str) -> str:
    return re.sub(r'"tool_version": "[^"]*"', '"tool_version": ""', text)


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("manifest_moebius.json",
         ["--topology", "moebius", "--n-modes", "8", "--inputs", "1,3;2,5",
          "--steps", "0..6", "--kind", "both", "--formats", "pgm"]),
        ("manifest_twisted_oracle.json",
         ["--topology", "twisted_circle", "--n-modes", "6", "--shift-c", "2",
          "--inputs", "1,4", "--steps", "1..3", "--delay", "0,2", "--theta", "0.3,0.6",
          "--physical", "--oracle", "--formats", "json,csv"]),
    ],
)
def test_manifest_bytes_match_golden(tmp_path, capsys, golden, argv):
    code, out = run(tmp_path, "correlate", *argv)
    assert code == 0
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        expected = fh.read()
    got = (out / "manifest.json").read_text(encoding="utf-8")
    assert f'"tool_version": "{loopwalk.__version__}"' in got
    assert _without_version(got) == _without_version(expected)


# ---- other subcommands ------------------------------------------------------------


def test_theta_opt_output(capsys):
    assert main(["theta-opt", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("0.785398")


def test_spectra_prints_centre_mode(capsys):
    assert main(["spectra", "--topology", "cylinder", "--n-modes", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    value = float(lines[3].split("=")[1])
    assert abs(value) < 1e-12


def test_spectra_json_round_trips(tmp_path, capsys):
    out = tmp_path / "es.json"
    assert main(["spectra", "--n-modes", "5", "--out", str(out)]) == 0
    es = EigenSystem.from_dict(json.loads(out.read_text()))
    assert es.n == 5


def test_spectra_g_vector_ring(capsys):
    argv = ["spectra", "--topology", "twisted_circle", "--n-modes", "4", "--c", "1"]
    assert main(argv + ["--g-vector", "0,1,0,1"]) == 0
    lams = [float(line.split("=")[1]) for line in capsys.readouterr().out.splitlines()]
    assert np.allclose(lams, [2.0, 0.0, -2.0, 0.0], atol=1e-14)

    assert main(argv + ["--g-vector", "0,1,abc"]) == 2
    assert "config error: bad number list '0,1,abc'" in capsys.readouterr().err
    assert main(argv + ["--g-vector", "0,1,0,2"]) == 2
    assert "circulant symmetry violated: g_4 != g_2" in capsys.readouterr().err


def _custom_config(tmp_path):
    cfile = tmp_path / "custom.json"
    cfile.write_text(json.dumps({
        "topology": "custom", "n_modes": 3, "theta": 0.5,
        "custom_G": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        "custom_perm": [3, 2, 1],
    }))
    return cfile


def test_spectra_custom_device(tmp_path, capsys):
    assert main(["spectra", "--config", str(_custom_config(tmp_path))]) == 0
    lams = [float(line.split("=")[1]) for line in capsys.readouterr().out.splitlines()]
    assert np.allclose(lams, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-14)


def test_spectra_solver_failure_is_numeric_error(tmp_path, capsys, monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert main(["spectra", "--config", str(_custom_config(tmp_path))]) == 3
    assert "numeric error: symmetric eigensolver did not converge" in capsys.readouterr().err


def test_modes_lists_uniform_mode(capsys):
    assert main(
        ["modes", "--topology", "twisted_circle", "--c", "1", "--n-modes", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "modes [1]" in out and "invariant 1/1" in out
    assert "invariant modes: 1 of 3" in out


@pytest.mark.parametrize("topology, tol", [("cylinder", "nan"), ("moebius", "inf"), ("cylinder", "-1")])
def test_modes_bad_tolerance_is_config_error(topology, tol, capsys):
    # nan certified none of the 5 cylinder modes, inf all 5 moebius ones (3 are)
    argv = ["modes", "--topology", topology, "--n-modes", "5", "--tol", tol]
    assert main(argv) == 2
    assert "config error: tol must be finite and >= 0" in capsys.readouterr().err


FEASIBILITY_PARAMS = {
    "wavelength_m": 800e-9,
    "background_index": 1.44,
    "loop_radius_m": 0.2,
    "bend_loss_per_cm": 6.8e-7,
    "pulse_width_s": 20e-12,
    "dispersion_ps_nm_km": -150.0,
    "coupler_separation_m": 10e-6,
    "transits": 100,
    "bandwidth_wavelength_m": 17e-12,
}


@pytest.mark.parametrize("key, value", [("wavelength_m", "abc"), ("transits", None), ("transits", 2.5)])
def test_feasibility_wrong_json_type_is_config_error(tmp_path, capsys, key, value):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({**FEASIBILITY_PARAMS, key: value}))
    report = tmp_path / "report.json"
    assert main(["feasibility", str(pfile), "--out", str(report)]) == 2
    assert f"config error: physical parameter {key}: expected" in capsys.readouterr().err
    assert not report.exists()


def test_feasibility_report(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(FEASIBILITY_PARAMS))
    assert main(["feasibility", str(pfile)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["budget"]["loss_fraction"] - 0.0085087) < 1e-7
    assert report["discreteness"]["passed"]

    assert main(["feasibility", str(pfile), "--threshold", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["discreteness"]["passed"]


def test_feasibility_transits_override_to_file(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(FEASIBILITY_PARAMS))
    out = tmp_path / "report.json"
    assert main(["feasibility", str(pfile), "--transits", "200", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["budget"]["transits"] == 200
    assert abs(report["budget"]["path_length_m"] - 200 * 2 * np.pi * 0.2) < 1e-9

    assert main(["feasibility", str(pfile), "--transits", "0", "--out", str(tmp_path / "x")]) == 2
    assert "transits must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_feasibility_missing_file(tmp_path):
    assert main(["feasibility", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["feasibility", "{dir}"], "Is a directory"),
        (["spectra", "--config", "{dir}"], "Is a directory"),
        (["spectra", "--config", "{bom}"], "can't decode byte 0xff"),
    ],
)
def test_unreadable_input_file_is_config_error(tmp_path, capsys, argv, reason):
    bom = tmp_path / "dev.json"
    bom.write_bytes(b"\xff\xfe")
    argv = [a.format(dir=tmp_path, bom=bom) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and reason in err


@pytest.mark.parametrize("command", ["spectra", "feasibility"])
@pytest.mark.parametrize(
    "target, reason",
    [("{dir}", "Is a directory"), ("{file}/sub", "Not a directory"),
     ("{dir}/missing/out.json", "No such file or directory")],
)
def test_unwritable_out_file_is_config_error(tmp_path, capsys, command, target, reason):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(FEASIBILITY_PARAMS))
    argv = {"spectra": ["spectra", "--n-modes", "4"], "feasibility": ["feasibility", str(pfile)]}
    out = target.format(dir=tmp_path, file=pfile)
    assert main(argv[command] + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json"]


def test_env_var_sets_output_dir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "envout"
    monkeypatch.setenv("QWALK_OUT", str(target))
    assert main(["correlate", "--n-modes", "4", "--inputs", "1,2", "--steps", "1"]) == 0
    assert (target / "manifest.json").exists()


@pytest.mark.parametrize("out_name", ["taken", "taken/sub"])
def test_unusable_out_dir_is_config_error(tmp_path, capsys, out_name):
    (tmp_path / "taken").write_text("kept")
    code = main(["correlate", "--n-modes", "4", "--inputs", "1,2", "--steps", "1",
                 "--out", str(tmp_path / out_name)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == "kept"


def test_config_file_device(tmp_path):
    cfg = {
        "topology": "twisted_circle",
        "n_modes": 6,
        "theta": 0.6,
        "shift_c": 2,
        "g_vector": [0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    }
    cfile = tmp_path / "dev.json"
    cfile.write_text(json.dumps(cfg))
    code, out = run(
        tmp_path, "correlate", "--config", str(cfile), "--inputs", "1,4", "--steps", "1"
    )
    assert code == 0
    d = json.loads((out / "manifest.json").read_text())
    assert d["device"]["topology"] == "twisted_circle"


def test_non_commuting_custom_device_is_config_error(tmp_path):
    cfile = tmp_path / "dev.json"
    cfile.write_text(non_commuting_device().to_json())
    code, out = run(
        tmp_path, "correlate", "--config", str(cfile), "--inputs", "1,3", "--steps", "1..2"
    )
    assert code == 2
    assert not out.exists()


def test_modes_of_a_non_commuting_loop_is_config_error(tmp_path, capsys):
    # no mode basis carries such a loop as one phase per mode
    cfile = tmp_path / "dev.json"
    cfile.write_text(non_commuting_device().to_json())
    assert main(["modes", "--config", str(cfile)]) == 2
    assert "commutes with the coupling matrix" in capsys.readouterr().err


@pytest.mark.parametrize("topology, tol, fixed", [
    ("cylinder", "0", 21),  # the identity loop fixes every mode to the bit
    ("moebius", "0", 0),  # the odd sine modes are mirror-symmetric to rounding only
    ("moebius", "5", 11),  # a loop phase of -1 is not fixed however loose the tol
])
def test_modes_tol_bounds_how_far_a_fixed_mode_moves(capsys, topology, tol, fixed):
    assert main(["modes", "--topology", topology, "--n-modes", "21", "--tol", tol]) == 0
    assert capsys.readouterr().out.endswith(f"invariant modes: {fixed} of 21\n")


def test_config_file_conflicts_with_flags(tmp_path):
    cfile = tmp_path / "dev.json"
    cfile.write_text('{"topology": "cylinder", "n_modes": 4, "theta": 0.3}')
    code, _ = run(
        tmp_path,
        "correlate", "--config", str(cfile), "--n-modes", "5", "--steps", "1",
    )
    assert code == 2


def test_config_file_theta_is_swept(tmp_path):
    cfile = tmp_path / "dev.json"
    cfile.write_text('{"topology": "cylinder", "n_modes": 7, "theta": 0.3}')
    code, out = run(
        tmp_path,
        "correlate", "--config", str(cfile), "--inputs", "1,4", "--steps", "1..2",
        "--physical", "--formats", "json",
    )
    assert code == 0
    for n in (1, 2):
        cell = json.loads((out / f"corr_quantum_phys_th0_nd0_n{n}_j1k4.json").read_text())
        assert cell["theta"] == 0.3
        mass = np.triu(np.array(cell["values"])).sum()
        assert abs(mass - np.cos(0.3) ** (4 * (n - 1)) * np.sin(0.3) ** 4) < 1e-12
    assert json.loads((out / "manifest.json").read_text())["thetas"] == [0.3]


def test_config_file_per_guide_theta_is_config_error(tmp_path):
    cfile = tmp_path / "dev.json"
    cfile.write_text('{"topology": "cylinder", "n_modes": 3, "theta": [0.1, 0.2, 0.3]}')
    code, out = run(tmp_path, "correlate", "--config", str(cfile), "--inputs", "1,3")
    assert code == 2
    assert not out.exists()


_RING = {"topology": "twisted_circle", "n_modes": 4, "theta": 0.5, "shift_c": 1}
_CUSTOM = {"topology": "custom", "n_modes": 3, "theta": 0.5}


@pytest.mark.parametrize(
    "device, violation",
    [
        ({"topology": "cylinder", "n_modes": 3, "theta": [0.1, 0.1]}, "theta has 2 entries for 3 guides"),
        (_RING, "twisted_circle requires g_vector"),
        ({**_RING, "g_vector": [0.0, 1.0, 1.0]}, "g_vector has 3 entries for 4 modes"),
        ({**_RING, "g_vector": [0.0, 1.0, float("nan"), 1.0]}, "g_vector entries must be finite"),
        ({**_CUSTOM, "custom_perm": [1, 2, 3]}, "custom topology requires custom_G"),
        ({**_CUSTOM, "custom_G": np.eye(3).ravel().tolist()}, "custom topology requires custom_perm"),
        (
            {**_CUSTOM, "custom_G": np.eye(3).ravel().tolist(), "custom_perm": [2, 1]},
            "custom_perm has 2 entries for 3 guides",
        ),
    ],
)
def test_config_file_violation_is_named(tmp_path, capsys, device, violation):
    cfile = tmp_path / "dev.json"
    cfile.write_text(json.dumps(device))
    code, out = run(tmp_path, "correlate", "--config", str(cfile), "--inputs", "1,2", "--steps", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid device config:") and violation in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, keys",
    [
        (["--topology", "cylinder", "--g-vector", "9,9,9,9", "--shift-c", "3"],
         ["g_vector", "shift_c"]),
        (["--shift-c", "1"], ["shift_c"]),
        (["--topology", "moebius", "--c", "2"], ["shift_c"]),
        (["--topology", "moebius", "--g-vector", "0,1,0,1"], ["g_vector"]),
    ],
)
def test_twisted_circle_flags_on_another_topology_exit_2(tmp_path, capsys, flags, keys):
    code, out = run(tmp_path, "correlate", "--n-modes", "4", *flags, "--inputs", "1,2",
                    "--steps", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid device config:")
    for key in keys:
        assert f"{key} is read by the twisted_circle topology only" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "device, key, owner",
    [
        ({"topology": "cylinder", "shift_c": 3}, "shift_c", "twisted_circle"),
        ({"topology": "moebius", "g_vector": [9, 9, 9, 9]}, "g_vector", "twisted_circle"),
        ({**_RING, "g_vector": [0, 1, 0, 1], "custom_perm": [1, 2, 3, 4]}, "custom_perm", "custom"),
        ({"topology": "cylinder", "custom_G": [0.0] * 16}, "custom_G", "custom"),
    ],
)
def test_config_file_key_its_topology_does_not_read_exits_2(tmp_path, capsys, device, key, owner):
    cfile = tmp_path / "dev.json"
    cfile.write_text(json.dumps({"n_modes": 4, "theta": 0.5, **device}))
    code, out = run(tmp_path, "correlate", "--config", str(cfile), "--inputs", "1,2", "--steps", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid device config:")
    assert f"{key} is read by the {owner} topology only" in err
    assert not out.exists()


def test_parse_steps_annotation_resolves():
    hints = typing.get_type_hints(_parse_steps)
    assert hints == {"text": str, "return": range | tuple[int, ...]}


def test_oracle_lifts_step_matrices_once_per_theta(tmp_path, monkeypatch):
    calls = []
    real = fock_oracle.lift_to_two_photon

    def counting(u):
        calls.append(u.shape)
        return real(u)

    monkeypatch.setattr(fock_oracle, "lift_to_two_photon", counting)
    code, out = run(
        tmp_path,
        "correlate", "--topology", "moebius", "--n-modes", "6", "--theta", "0.5,0.9",
        "--inputs", "1,4;2,5", "--steps", "1..2", "--delay", "0,1", "--oracle",
    )
    assert code == 0
    # 2 thetas x Couple; Permute is a gather and Evolve acts on the
    # amplitude matrix, so neither is lifted
    assert len(calls) == 2
    report = json.loads((out / "oracle_diff.json").read_text())
    assert len(report["entries"]) == 2 * 2 * 2 * 2


# ---- writers against reference formatters -------------------------------------
# Each reference is the plain formatting loop the writer replaces; the
# writers must produce the same bytes.


def _reference_pgm(values):
    vmax = float(values.max())
    if vmax > 0.0:
        # nearest grey level, a half step (to 1e-9 of a level) rounding up
        grey = np.floor(values / vmax * 255.0 + (0.5 + 1e-9)).astype(int)
    else:
        grey = np.zeros_like(values, dtype=int)
    lines = ["P2", f"{values.shape[1]} {values.shape[0]}", "255"]
    flat = [str(v) for v in grey.ravel().tolist()]
    for i in range(0, len(flat), 15):
        lines.append(" ".join(flat[i : i + 15]))
    return ("\n".join(lines) + "\n").encode()


def _reference_csv(values):
    text = "r,s,value\n"
    n = values.shape[0]
    for r in range(n):
        for s in range(n):
            text += f"{r + 1},{s + 1},{values[r, s]:.17g}\n"
    return text.encode()


def _reference_json(payload):
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode()


def _pattern(n, fill, seed):
    rng = np.random.default_rng(seed)
    if fill == "zero":
        return np.zeros((n, n))
    if fill == "hot":
        values = np.zeros((n, n))
        values[rng.integers(n), rng.integers(n)] = rng.uniform(1e-300, 1.0)
        return values
    values = rng.uniform(0.0, 1.0, size=(n, n)) ** 3
    values[rng.uniform(size=(n, n)) < 0.2] = 0.0
    return values


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=70),
    fill=st.sampled_from(["random", "zero", "hot"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# N^2 a multiple of 15 (the last line is full) and not
@example(n=1, fill="random", seed=0)
@example(n=15, fill="random", seed=1)
@example(n=30, fill="hot", seed=2)
@example(n=16, fill="zero", seed=3)
@example(n=7, fill="random", seed=4)
def test_pgm_matches_reference(n, fill, seed, tmp_path_factory):
    values = _pattern(n, fill, seed)
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    _write_pgm(str(path), values)
    data = path.read_bytes()
    assert data == _reference_pgm(values)
    assert max(len(line) for line in data.split(b"\n")) <= 70


# floats json writes in a form of their own, and the float extremes
_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308)
_floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(_EDGE_FLOATS))

# number matrices of 1 x 1 to 70 x 70, square or not
_matrices = st.tuples(
    st.integers(min_value=1, max_value=70), st.integers(min_value=1, max_value=70)
).flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=_floats)).map(np.ndarray.tolist)

# lists that hold more than numbers, or are not lists of non-empty rows
_other_values = st.one_of(
    st.sampled_from([[], [[]], [[1.0], []], 3, 2.5, "1, 2", None, [1.0, 2.0], [[True]],
                     [["a, b", 1.0]], [[[1.0]]], [[None]], [[{"x": 1}]]]),
    st.lists(st.lists(st.one_of(st.integers(), _floats), min_size=1, max_size=4),
             min_size=1, max_size=4),
)

_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=6))
# keys around "values" in sort order, a key of its own, and any text
_keys = st.one_of(st.sampled_from(["a", "value", "values ", "valuez", "z", "\n  \"values\": 0"]),
                  st.text(max_size=8))
_json_like = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_keys, inner, max_size=3),
        # a nested dict with its own values key
        st.fixed_dictionaries({"values": st.one_of(_matrices, _other_values)}),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(
    rest=st.dictionaries(_keys, _json_like, max_size=5),
    values=st.one_of(st.just("absent"), _matrices, _other_values),
)
@example(rest={"record": "cell"}, values=[[1.0]])
@example(rest={"step": 3}, values=np.resize(_EDGE_FLOATS, (70, 70)).tolist())
@example(rest={"step": 3}, values=np.resize(_EDGE_FLOATS, (1, 70)).tolist())
@example(rest={"step": 3}, values=np.resize(_EDGE_FLOATS, (70, 1)).tolist())
@example(rest={}, values=[[1.0, 2], [3.5]])
@example(rest={}, values=[[]])
@example(rest={}, values=[[1.0], []])
@example(rest={}, values=[["a, b", 1.0]])
@example(rest={"a": {"values": [[1.0, 2.0]]}}, values="absent")
def test_json_matches_reference(rest, values, tmp_path_factory):
    payload = dict(rest)
    if values != "absent":
        payload["values"] = values
    path = tmp_path_factory.mktemp("json") / "m.json"
    _write_json(str(path), payload)
    assert path.read_bytes() == _reference_json(payload)


@settings(max_examples=40, deadline=None)
@given(
    values=st.integers(min_value=1, max_value=70).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=st.floats(allow_subnormal=True))
    )
)
@example(values=np.resize(_EDGE_FLOATS, (70, 70)))
def test_csv_matches_reference(values, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    _write_csv(str(path), values)
    assert path.read_bytes() == _reference_csv(values)


def test_csv_and_json_match_reference_on_a_cell(tmp_path):
    values = _pattern(30, "random", 5)
    _write_csv(str(tmp_path / "m.csv"), values)
    assert (tmp_path / "m.csv").read_bytes() == _reference_csv(values)
    payload = {
        "values": values.tolist(), "theta": 0.1, "step": 3, "inputs": [1, 7],
        "record": "correlation_matrix", "nested": {"b": [1.5e-300, -0.0], "a": None},
        "text": "Möbius", "nan": float("nan"),
    }
    _write_json(str(tmp_path / "m.json"), payload)
    assert (tmp_path / "m.json").read_bytes() == _reference_json(payload)


# ---- pgm writer ------------------------------------------------------------------


def test_pgm_format(tmp_path):
    path = tmp_path / "m.pgm"
    _write_pgm(str(path), np.array([[0.0, 0.5], [0.5, 1.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["0", "128", "128", "255"]


def test_pgm_half_steps_round_up(tmp_path):
    # a value at a half grey step, or one ulp either side of it, takes the
    # upper level whatever its last bit (rint took 126.5 to 126, 127.5 to 128)
    half = (np.arange(255) + 0.5) / 255.0
    values = np.concatenate([np.nextafter(half, 0.0), half, np.nextafter(half, 1.0), [1.0]])
    path = tmp_path / "h.pgm"
    _write_pgm(str(path), values[None, :])
    grey = [int(v) for v in path.read_text().split()[4:]]
    assert grey == list(range(1, 256)) * 3 + [255]


def test_pgm_zero_matrix(tmp_path):
    path = tmp_path / "z.pgm"
    _write_pgm(str(path), np.zeros((2, 2)))
    assert path.read_text().splitlines()[3].split() == ["0", "0", "0", "0"]


# ---- oracle scale range and theta-opt range ---------------------------------------


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


_LONG_CYLINDER = ["correlate", "--topology", "cylinder", "--n-modes", "3", "--inputs", "1,2",
                  "--oracle", "--formats", "pgm"]


def test_rescaled_oracle_past_float_range_is_config_error(tmp_path, capsys):
    # the survival prefactor underflows past n ~ 512 at pi/4 and rescaling
    # the simulator's values gave 0/0 = NaN in oracle_diff.json
    code, out = run(tmp_path, *_LONG_CYLINDER, "--steps", "1..1200")
    assert code == 2
    assert "--oracle cannot rescale transit 1200" in capsys.readouterr().err
    assert not out.exists()


def test_rescaled_oracle_just_inside_float_range_runs(tmp_path):
    code, out = run(tmp_path, *_LONG_CYLINDER, "--steps", "1..510")
    assert code == 0
    assert _strict_json(out / "oracle_diff.json")["worst_max_abs_diff"] < 1e-12


def test_physical_oracle_past_rescaling_range_runs(tmp_path):
    code, out = run(tmp_path, *_LONG_CYLINDER, "--steps", "1..600", "--physical")
    assert code == 0
    report = _strict_json(out / "oracle_diff.json")
    assert len(report["entries"]) == 600
    assert report["worst_max_abs_diff"] < 1e-15


def test_theta_opt_keeps_precision_and_refuses_overflow(capsys):
    assert main(["theta-opt", "--n", "100000000000000000"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(10**-8.5, rel=1e-11)
    assert main(["theta-opt", "--n", str(10**400)]) == 2
    assert "too large for a float" in capsys.readouterr().err
