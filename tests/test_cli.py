"""Batch CLI: exit codes, run records and determinism, run in-process."""

import json

from mcbrick.cli import main

GATE_II = ["--tau", "0.7", "--delta", "0.3"]


def run(tmp_path, *args):
    return main([*args, "--out-dir", str(tmp_path)])


def record(tmp_path, command):
    return json.loads((tmp_path / f"{command}-runrecord.json").read_text())


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
