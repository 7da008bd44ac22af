"""Batch CLI: exit codes, run records and determinism, run in-process."""

import json

import pytest

from mcbrick.cli import main

GATE_II = ["--tau", "0.7", "--delta", "0.3"]


def run(tmp_path, *args):
    return main([*args, "--out-dir", str(tmp_path)])


def record(tmp_path, command):
    return json.loads((tmp_path / f"{command}-runrecord.json").read_text())


def strict_json(path):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def assert_parameter_error(tmp_path, command):
    rec = record(tmp_path, command)
    assert rec["status"].startswith("parameter-error") and rec["exit_code"] == 2


def test_exit_code_success(tmp_path):
    assert run(tmp_path, "classify", *GATE_II) == 0
    assert record(tmp_path, "classify")["status"] == "ok"
    assert json.loads((tmp_path / "classify.json").read_text())["phase"] == "II"


def test_exit_code_verification_failed(tmp_path):
    assert run(tmp_path, "verify-ybe", "--trials", "5", "--tol-braid", "0") == 1
    rec = record(tmp_path, "verify-ybe")
    assert rec["status"] == "verification-failed" and rec["exit_code"] == 1


def test_exit_code_parameter_errors(tmp_path, capsys):
    assert run(tmp_path, "szm", *GATE_II, "--L", "4", "--sector", "abc") == 2
    rec = record(tmp_path, "szm")
    assert rec["status"].startswith("parameter-error") and rec["exit_code"] == 2
    assert "sector" in capsys.readouterr().err

    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nbogus = 1\n")
    assert run(tmp_path, "classify", *GATE_II, "--config", str(cfg)) == 2
    assert "unknown [run] keys" in capsys.readouterr().err


def test_exit_code_refusal(tmp_path):
    assert run(tmp_path, "rp-spectrum", *GATE_II, "--r", "7") == 3
    rec = record(tmp_path, "rp-spectrum")
    assert rec["status"].startswith("refused") and rec["exit_code"] == 3


def test_two_gate_outputs_repeat_bit_for_bit(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        args = ("spectrum-stats", "--two-gate", "--L", "6", "--seed", "11")
        assert run(out, *args) == 0
        files = {f: (out / f).read_bytes() for f in ("spectrum-stats.csv", "spectrum-stats.json")}
        runs.append((files, record(out, "spectrum-stats")["sha256"]))
    assert runs[0] == runs[1]


def test_negative_steps_are_parameter_errors(tmp_path, capsys):
    for command in ("szm", "staggered-corr", "domain-wall"):
        assert run(tmp_path, command, *GATE_II, "--L", "4", "--steps", "-1") == 2
        rec = record(tmp_path, command)
        assert rec["status"].startswith("parameter-error") and rec["exit_code"] == 2
        assert "steps must be >= 0" in capsys.readouterr().err


def test_verify_ybe_refuses_empty_trials(tmp_path):
    for trials in ("0", "-1"):
        assert run(tmp_path, "verify-ybe", "--trials", trials) == 2
        rec = record(tmp_path, "verify-ybe")
        assert rec["status"].startswith("parameter-error") and rec["exit_code"] == 2
        assert not (tmp_path / "verify-ybe.json").exists()


def test_spectrum_stats_refuses_to_pool_no_ratio(tmp_path, capsys):
    # the only block, m=6 at L=6, holds a single phase
    args = ("spectrum-stats", *GATE_II, "--L", "6", "--m-values", "6", "--min-dim", "0")
    assert run(tmp_path, *args) == 2
    rec = record(tmp_path, "spectrum-stats")
    assert rec["status"].startswith("parameter-error") and rec["exit_code"] == 2
    assert "no gap ratio to pool" in capsys.readouterr().err
    assert not (tmp_path / "spectrum-stats.json").exists()


def test_run_key_precedence_flag_over_config_over_default(tmp_path):
    args = ("staggered-corr", *GATE_II, "--steps", "1")
    assert run(tmp_path, *args) == 0
    assert record(tmp_path, "staggered-corr")["parameters"]["run"]["L"] == 8
    assert run(tmp_path, *args, "--L", "6") == 0
    sha_flag = record(tmp_path, "staggered-corr")["sha256"]
    cfg = tmp_path / "run.ini"
    # configparser lowercases keys; both spellings must reach L
    for text in ("[run]\nL = 6\n", "[run]\nl = 6\n"):
        cfg.write_text(text)
        assert run(tmp_path, *args, "--config", str(cfg)) == 0
        rec = record(tmp_path, "staggered-corr")
        assert rec["parameters"]["run"]["L"] == 6 and rec["sha256"] == sha_flag
    assert run(tmp_path, *args, "--config", str(cfg), "--L", "4") == 0
    assert record(tmp_path, "staggered-corr")["parameters"]["run"]["L"] == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_ybe_fails_on_non_finite_input_and_residuals(tmp_path, capsys):
    for axis in ("--x", "--y"):
        assert run(tmp_path, "verify-ybe", "--trials", "5", axis, "inf") == 2
        assert_parameter_error(tmp_path, "verify-ybe")
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "verify-ybe.json").exists()
    # a finite but huge spectral parameter overflows the R-matrix to NaN
    assert run(tmp_path, "verify-ybe", "--trials", "5", "--x", "800") == 1
    assert record(tmp_path, "verify-ybe")["status"] == "verification-failed"
    d = strict_json(tmp_path / "verify-ybe.json")
    assert d["passed"] is False and d["max_braid_residual"] is None
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (("--two-gate", "--realizations", "-2"), "realizations must be >= 1"),
    ((*GATE_II, "--realizations", "0"), "realizations must be >= 1"),
    ((*GATE_II, "--boundary", "open", "--k-values", "9"), "k_values needs the periodic"),
])
def test_spectrum_stats_refuses_bad_inputs(tmp_path, capsys, args, message):
    assert run(tmp_path, "spectrum-stats", "--L", "6", *args) == 2
    assert_parameter_error(tmp_path, "spectrum-stats")
    assert message in capsys.readouterr().err


def test_spectrum_stats_writes_null_for_blocks_without_ratio(tmp_path):
    args = ("spectrum-stats", *GATE_II, "--L", "6", "--m-values", "4", "--min-dim", "0")
    assert run(tmp_path, *args) == 0
    sectors = strict_json(tmp_path / "spectrum-stats.json")["per_sector"]
    assert [s["r_tilde"] is None for s in sectors] == [s["dim"] < 2 for s in sectors]
    assert sum(s["r_tilde"] is None for s in sectors) == 3


def test_typicality_needs_two_samples(tmp_path, capsys):
    for samples in ("1", "0"):
        args = ("szm", *GATE_II, "--L", "4", "--steps", "2", "--method", "typicality")
        assert run(tmp_path, *args, "--samples", samples) == 2
        assert_parameter_error(tmp_path, "szm")
        assert "samples >= 2" in capsys.readouterr().err


def test_map_params_refuses_gate_with_sin_phi_zero(tmp_path, capsys):
    # phi = 0 off the swap family sends u to infinity: refused, nothing written
    assert run(tmp_path, "map-params", "--alpha", "0.3") == 3
    rec = strict_json(tmp_path / "map-params-runrecord.json")
    assert rec["status"].startswith("refused") and rec["outputs"] == []
    assert "sin(phi) = 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map-params-runrecord.json"]


def test_dynamics_on_gate_with_sin_phi_zero_labels_the_phase(tmp_path):
    assert run(tmp_path, "szm", "--alpha", "0.3", "--L", "4", "--steps", "3") == 0
    d = strict_json(tmp_path / "szm.json")
    assert d["phase"].startswith("unmapped (") and "sin(phi) = 0" in d["phase"]
    strict_json(tmp_path / "szm-runrecord.json")


def test_fields_of_another_gate_family_are_errors(tmp_path, capsys):
    assert run(tmp_path, "map-params", "--B", "0.1", "--alpha", "0.3") == 2
    assert "--B not used by the chosen haar gate family" in capsys.readouterr().err
    cfg = tmp_path / "gate.ini"
    cfg.write_text("[gate]\nd = 0.2\n")
    assert run(tmp_path, "map-params", "--haar-seed", "4", "--config", str(cfg)) == 2
    assert "[gate] d not used by the chosen random gate family" in capsys.readouterr().err
    assert not list(tmp_path.glob("*-runrecord.json"))
    # the shared [gate] delta still feeds the Hurwitz phase
    cfg.write_text("[gate]\ndelta = 0.1\nalpha = 0.4\nphi = 0.9\n")
    assert run(tmp_path, "map-params", "--config", str(cfg)) == 0


def test_refused_non_finite_input_keeps_the_record_strict(tmp_path):
    assert run(tmp_path, "verify-ybe", "--trials", "5", "--y", "inf") == 2
    rec = strict_json(tmp_path / "verify-ybe-runrecord.json")
    assert rec["status"].startswith("parameter-error")
    assert rec["parameters"]["run"]["y"] is None


@pytest.mark.parametrize("command, args", [
    ("rp-spectrum", (*GATE_II, "--r", "2", "--k", "nan")),
    ("rp-spectrum", (*GATE_II, "--r", "2", "--eps-keep", "nan")),
    ("verify-ybe", ("--trials", "3", "--tol-braid", "inf")),
])
def test_non_finite_run_floats_are_parameter_errors(tmp_path, capsys, command, args):
    # checked in main before the handler: no crash, no NaN/Infinity payload
    assert run(tmp_path, command, *args) == 2
    assert_parameter_error(tmp_path, command)
    assert "must be finite" in capsys.readouterr().err
    strict_json(tmp_path / f"{command}-runrecord.json")
    assert not (tmp_path / f"{command}.json").exists()
