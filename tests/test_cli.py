"""Batch CLI: exit codes, run records and determinism, run in-process
(the BLAS thread-count check runs fresh processes, since --threads only
takes effect before numpy loads)."""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mcbrick
from mcbrick.cli import main

GATE_I = ["--delta-phase", "0.1", "--alpha", "0.4", "--phi", "0.9", "--chi", "0.3",
          "--theta", "0.2"]
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


def test_verify_ybe_draws_spectral_arguments_from_the_method_stream(tmp_path, monkeypatch):
    # the gate stream feeds sample_haar; x and y must not repeat its uniforms
    import numpy as np

    from mcbrick import rmatrix

    real, seen = rmatrix.check_yang_baxter, []

    def spy(p, x, y):
        seen.extend(zip(np.atleast_1d(x).tolist(), np.atleast_1d(y).tolist()))
        return real(p, x, y)

    monkeypatch.setattr(rmatrix, "check_yang_baxter", spy)
    assert run(tmp_path, "verify-ybe", "--trials", "3", "--seed", "0") == 0
    assert json.loads((tmp_path / "verify-ybe.json").read_text())["skipped_degenerate"] == 0
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(3)[1])
    # the trials are checked in one batch per phase, so compare as sets of pairs
    want = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3)]
    assert sorted(seen) == sorted(want)


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
    # a repeated sector would be counted, pooled and written once per listing
    ((*GATE_II, "--m-values", "0,0", "--k-values", "1,1"), "m_values lists 0 more than once"),
    ((*GATE_II, "--m-values", "0,2,0"), "m_values lists 0 more than once"),
    ((*GATE_II, "--k-values", "1,2,1"), "k_values lists 1 more than once"),
    # a list with no integer names its own key, not min_dim
    ((*GATE_II, "--m-values", ","), "m_values: expected a comma list of integers, got ','"),
    ((*GATE_II, "--k-values", " , "), "k_values: expected a comma list of integers, got ' , '"),
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


def test_rp_spectrum_on_a_critical_gate_labels_the_phase(tmp_path, capsys):
    # the spectrum needs no conserved densities, which a critical gate lacks;
    # the gap fit excludes them at k = 0, so with --r-list the run is refused
    critical = ["rp-spectrum", "--delta-phase", str(0.5 - math.pi), "--phi", "0.5",
                "--r", "3", "--k", "0"]
    assert run(tmp_path, *critical) == 0
    d = strict_json(tmp_path / "rp-spectrum.json")
    assert d["phase"] == "critical" and d["modes_kept"] > 0
    assert run(tmp_path, *critical, "--r-list", "3,4") == 3
    assert "critical manifold" in capsys.readouterr().err


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


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_are_parameter_errors(tmp_path, capsys, monkeypatch, threads):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert run(tmp_path, "classify", *GATE_II, "--threads", threads) == 2
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert not (tmp_path / "classify.json").exists()


@pytest.mark.parametrize(
    "args, config, key, value",
    [
        (("map-params", "--haar-seed", "-1"), None, "haar_seed", -1),
        (("map-params",), "[gate]\nhaar_seed = -2\n", "haar_seed", -2),
        (("verify-ybe", "--trials", "2", "--haar-seed", "-5"), None, "haar_seed", -5),
        (("szm", *GATE_II, "--method", "typicality", "--seed", "-3"), None, "seed", -3),
    ],
    ids=["map-params-haar-seed", "config-haar-seed", "verify-ybe-haar-seed", "szm-root-seed"],
)
def test_negative_seeds_are_parameter_errors(tmp_path, capsys, args, config, key, value):
    # refused while the parameters are resolved, before numpy sees the seed
    out = tmp_path / "out"
    if config:
        (tmp_path / "gate.ini").write_text(config)
        args = (*args, "--config", str(tmp_path / "gate.ini"))
    assert run(out, *args) == 2
    err = capsys.readouterr().err
    assert f"{key} must be >= 0, got {value}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("domain-wall", *GATE_II, "--L", "0"), "domain wall needs an even number of sites"),
        (("domain-wall", *GATE_II, "--L", "-2"), "domain wall needs an even number of sites"),
        (("rp-spectrum", *GATE_II, "--r", "0"), "support must satisfy 1 <= r <= 6, got 0"),
        (("rp-spectrum", *GATE_II, "--r", "-1"), "support must satisfy 1 <= r <= 6, got -1"),
    ],
    ids=["domain-wall-L0", "domain-wall-L-2", "rp-r0", "rp-r-1"],
)
def test_sizes_below_their_lower_bound_are_parameter_errors(tmp_path, capsys, args, message):
    # exit 3 is kept for well-formed requests past a capacity cap
    assert run(tmp_path, *args) == 2
    assert_parameter_error(tmp_path, args[0])
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (("rp-spectrum", *GATE_II, "--r", "2", "--eps-keep", "-1"), "eps_keep must lie in (0, 1]"),
        (("rp-spectrum", *GATE_II, "--r", "2", "--eps-keep", "0"), "eps_keep must lie in (0, 1]"),
        (("rp-spectrum", *GATE_II, "--r", "2", "--eps-keep", "5"), "eps_keep must lie in (0, 1]"),
        (("spectrum-stats", *GATE_II, "--L", "6", "--min-dim", "-3"), "min_dim must be >= 0"),
    ],
    ids=["eps-keep-negative", "eps-keep-zero", "eps-keep-above-one", "min-dim-negative"],
)
def test_selection_thresholds_out_of_range_are_parameter_errors(tmp_path, capsys, args, message):
    assert run(tmp_path, *args) == 2
    assert_parameter_error(tmp_path, args[0])
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("build, args, code, message", [
    ("rp.truncated_propagator", ("rp-spectrum", *GATE_II, "--r", "6", "--eps-keep", "-1"),
     2, "eps_keep must lie in (0, 1], got -1.0"),
    ("core.build_propagator", ("charges", *GATE_II, "--ell", "3", "--L", "12"),
     3, "charge densities are built up to order 2, got order 3"),
    ("core.build_propagator", ("charges", *GATE_II, "--ell", "0", "--L", "12"),
     2, "charge order must be >= 1"),
    ("core.build_propagator", ("charges", *GATE_II, "--L", "14"),
     3, "charges limited to L <= 12"),
    ("rp.truncated_propagator", ("rp-spectrum", *GATE_II, "--r", "6", "--r-list", "5,7"),
     2, "supports must lie in 3..6, got (5, 7)"),
    ("rp.truncated_propagator", ("rp-spectrum", *GATE_II, "--r", "6", "--r-list", "5"),
     3, "gap fit needs at least two distinct supports"),
    ("rp.truncated_propagator", ("rp-spectrum", *GATE_II, "--r", "6", "--r-list", ","),
     2, "r_list: expected a comma list of integers, got ','"),
], ids=["eps_keep", "charges-ell3", "charges-ell0", "charges-L14", "r_list-range",
        "r_list-one-support", "r_list-no-integer"])
def test_requests_are_refused_before_the_propagator_is_built(
        tmp_path, capsys, monkeypatch, build, args, code, message):
    # a refused request never pays for the build that is its command's whole cost
    module, name = build.split(".")

    def refuse_to_build(*a, **kw):
        raise AssertionError(f"{name} ran for a refused request")

    monkeypatch.setattr(importlib.import_module(f"mcbrick.{module}"), name, refuse_to_build)
    assert run(tmp_path, *args) == code
    rec = record(tmp_path, args[0])
    status = {2: "parameter-error", 3: "refused"}[code]
    assert rec["status"].startswith(status) and rec["exit_code"] == code
    assert message in capsys.readouterr().err


def test_eps_keep_one_keeps_every_mode(tmp_path):
    assert run(tmp_path, "rp-spectrum", *GATE_II, "--r", "2", "--eps-keep", "1") == 0
    d = json.loads((tmp_path / "rp-spectrum.json").read_text())
    assert d["modes_kept"] == sum(d["block_dims"].values())


@pytest.mark.parametrize("L, m_values", [("16", "0"), ("22", "20")])
def test_sizes_past_the_caps_are_refusals(tmp_path, capsys, L, m_values):
    args = ("spectrum-stats", *GATE_II, "--L", L, "--m-values", m_values)
    assert run(tmp_path, *args) == 3
    rec = record(tmp_path, "spectrum-stats")
    assert rec["status"].startswith("refused") and rec["exit_code"] == 3
    assert "limited to L <=" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("szm", *GATE_I, "--L", "10", "--steps", "20"),
    ("staggered-corr", *GATE_I, "--L", "10", "--steps", "20"),
    ("charges", *GATE_I, "--L", "10", "--ell", "1"),
    ("charges", *GATE_I, "--L", "10", "--ell", "2"),
    ("time-reversal", *GATE_I, "--L", "10"),
], ids=["szm", "staggered-corr", "charges-ell1", "charges-ell2", "time-reversal"])
def test_no_command_forms_a_dense_2L_operator(tmp_path, args):
    # one complex 2^L x 2^L array is 16 * 4^L bytes, 16 MB at L = 10; all
    # propagator sector blocks together are 16 C(2L, L) bytes, 3 MB
    tracemalloc.start()
    try:
        code = run(tmp_path, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 4**10, f"{args[0]} peaked at {peak / 2**20:.1f} MiB"
    if args[0] == "charges":
        for c in json.loads((tmp_path / "charges.json").read_text())["charges"].values():
            assert c["conservation_defect"] < 1e-9 and c["hermitian_part_defect"] < 1e-9
            if args[-1] == "2":
                assert c["support_window_norm"] == pytest.approx(3.16085007040542, abs=1e-8)
                assert c["support_window_residual"] < 1e-7


# the bench's rp command, and a sector command whose eigenphases move with
# the thread count (by up to 9e-14 at L = 12; at L = 10 they do not move)
THREAD_RUNS = {
    "rp-spectrum": ["rp-spectrum", *GATE_I, "--r", "4", "--k", "0", "--r-list", "3,4"],
    "spectrum-stats": ["spectrum-stats", *GATE_I, "--L", "12"],
}
THREAD_TOL = 1e-12  # BLAS sums re-associate with the thread count; nothing else may move


def _fresh_run(argv, out):
    src = str(Path(mcbrick.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-m", "mcbrick.cli", *argv, "--out-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _assert_values_close(a, b, where, phase=False):
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            _assert_values_close(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_values_close(x, y, f"{where}[{i}]", phase)
    elif isinstance(a, float) and isinstance(b, float):
        gap = abs(a - b)
        if phase:  # eigenphases are compared on the circle
            gap = abs(math.remainder(a - b, 2 * math.pi))
        assert gap <= THREAD_TOL, f"{where}: {a!r} vs {b!r}"
    else:
        assert a == b, f"{where}: {a!r} vs {b!r}"


def _parsed(path):
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        data.pop("wall_time_s", None)
        return data
    lines = path.read_text().splitlines()
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    header, body = rows[0], rows[1:]

    def cell(x):
        try:
            return float(x)
        except ValueError:
            return x

    return [line for line in lines if line.startswith("#")], header, [
        [cell(x) for x in row] for row in body]


@pytest.mark.parametrize("command", sorted(THREAD_RUNS))
def test_outputs_agree_across_blas_thread_counts(command, tmp_path):
    # same files, headers and row order at 1 and 2 BLAS threads; values
    # within THREAD_TOL, eigenphases on the circle
    outs = []
    for threads in (1, 2):
        _fresh_run([*THREAD_RUNS[command], "--threads", str(threads)], tmp_path / str(threads))
        outs.append(tmp_path / str(threads))
    names = [sorted(p.name for p in out.iterdir()) for out in outs]
    assert names[0] == names[1]
    for name in names[0]:
        one, two = (_parsed(out / name) for out in outs)
        if name.endswith(".csv"):
            assert one[:2] == two[:2], name  # sha line and header
            phase = [col == "eigenphase" for col in one[1]]
            assert len(one[2]) == len(two[2]), name
            for i, (x, y) in enumerate(zip(one[2], two[2])):
                for col, u, v, circle in zip(one[1], x, y, phase):
                    _assert_values_close(u, v, f"{name} row {i} {col}", circle)
        else:
            if name.endswith("-runrecord.json"):  # the one field that records the count
                counts = [rec["environment"].pop("blas_threads")["numpy"] for rec in (one, two)]
                assert counts[0] == 1 and counts[1] in (1, 2), counts
            _assert_values_close(one, two, name)
