"""Golden runs of the batch CLI: every subcommand, gate family and exit path.

Each case runs in-process through ``cli.main`` in a fresh output directory
and is compared with its entry in ``cli_golden.json``.  Compared exactly:
the exit code, the run record's ``status``, ``exit_code``, ``outputs`` and
``sha256``, the set of files written, every JSON key, strings, booleans and
integers, CSV headers, sha comment lines and row counts, and the text of the
first stdout line and the last stderr line.  Floats (in JSON outputs and in
the printed lines) are compared to a tolerance, so a different BLAS build
cannot make the test flaky: a JSON float must lie within
``ABS_TOL + REL_TOL * |golden|``, a printed number within one unit of its
last printed digit plus ``ABS_TOL``.  JSON outputs are parsed with a parser
that rejects NaN and Infinity.

Regenerate the golden file (after a deliberate change of behaviour) with

    PYTHONPATH=src python tests/test_cli_golden.py

which runs every case and rewrites ``tests/cli_golden.json``.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from mcbrick.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
ABS_TOL = 1e-9
REL_TOL = 1e-8

GATE_I = ["--delta-phase", "0.1", "--alpha", "0.4", "--phi", "0.9",
          "--chi", "0.3", "--theta", "0.2"]
GATE_II = ["--tau", "0.7", "--delta", "0.3"]

# id -> (argv, config file text or None); "{config}" in argv is the config path
CASES = {
    # one or more runs per subcommand, across the gate families
    "classify-hamiltonian-all-fields": (
        ["classify", *GATE_II, "--B", "0.1", "--D", "0.2", "--M", "0.05",
         "--A", "0.3", "--J", "0.9"], None),
    "classify-config-gate-flag-wins": (
        ["classify", "--config", "{config}", "--delta", "0.25"],
        "[gate]\ntau = 0.7\ndelta = 0.3\nj = 0.8\n"),
    "map-params-hurwitz": (["map-params", *GATE_I], None),
    "map-params-haar-seed": (["map-params", "--haar-seed", "5"], None),
    "map-params-config-delta-is-hurwitz-phase": (
        ["map-params", "--config", "{config}"],
        "[gate]\ndelta = 0.1\nalpha = 0.4\nphi = 0.9\n"),
    "map-params-config-haar-seed": (
        ["map-params", "--config", "{config}"], "[gate]\nhaar_seed = 9\n"),
    "verify-ybe": (["verify-ybe", "--trials", "20", "--seed", "3"], None),
    "verify-ybe-config-run": (
        ["verify-ybe", "--config", "{config}", "--trials", "6"],
        "[run]\ntrials = 10\nhaar_seed = 4\nx = 0.3\n"),
    "charges-q1": (["charges", *GATE_II, "--L", "6"], None),
    "charges-q2-plus": (["charges", *GATE_I, "--L", "10", "--ell", "2", "--sign", "+"], None),
    "spectrum-stats-periodic": (["spectrum-stats", *GATE_I, "--L", "6"], None),
    "spectrum-stats-open-m-values": (
        ["spectrum-stats", *GATE_II, "--L", "6", "--boundary", "open",
         "--m-values", "0,2"], None),
    "spectrum-stats-periodic-k-values": (
        ["spectrum-stats", "--haar-seed", "2", "--L", "6", "--k-values", "0,2",
         "--min-dim", "3"], None),
    "spectrum-stats-two-gate-ensemble": (
        ["spectrum-stats", "--two-gate", "--L", "6", "--realizations", "2",
         "--seed", "7"], None),
    "spectrum-stats-min-dim-0-null": (
        ["spectrum-stats", *GATE_II, "--L", "6", "--m-values", "4", "--min-dim", "0"], None),
    "spectrum-stats-config-two-gate": (
        ["spectrum-stats", "--config", "{config}", "--L", "6"],
        "[run]\ntwo_gate = yes\nboundary = open\n"),
    "rp-spectrum-gap-fit": (
        ["rp-spectrum", *GATE_I, "--r", "3", "--k", "0", "--r-list", "3,4"], None),
    "rp-spectrum-momentum": (["rp-spectrum", *GATE_II, "--r", "2", "--k", "0.5"], None),
    "szm-exact": (["szm", *GATE_I, "--L", "6", "--steps", "5"], None),
    "szm-sector": (["szm", *GATE_II, "--L", "6", "--steps", "4", "--sector", "0"], None),
    "szm-typicality": (
        ["szm", *GATE_I, "--L", "6", "--steps", "5", "--method", "typicality",
         "--samples", "3", "--seed", "5"], None),
    "staggered-corr": (["staggered-corr", *GATE_I, "--L", "6", "--steps", "5"], None),
    "domain-wall": (["domain-wall", *GATE_II, "--L", "6", "--steps", "5"], None),
    "time-reversal-open": (["time-reversal", *GATE_I, "--L", "6"], None),
    "time-reversal-no-hopping": (
        ["time-reversal", *GATE_II, "--J", "0", "--B", "0.4", "--L", "6"], None),
    # exit 1: a verification measured a violation
    "exit1-verify-ybe-fails": (
        ["verify-ybe", "--trials", "5", "--tol-braid", "0"], None),
    # exit 2 before a run record exists
    "exit2-argparse-hurwitz-flag-on-classify": (["classify", "--alpha", "0.1"], None),
    "exit2-conflicting-families": (["map-params", "--tau", "0.7", "--haar-seed", "3"], None),
    "exit2-no-gate": (["szm", "--L", "4"], None),
    "exit2-tau-without-delta": (["charges", "--tau", "0.7"], None),
    "exit2-classify-hurwitz-config": (
        ["classify", "--config", "{config}"], "[gate]\nalpha = 0.3\n"),
    "exit2-unknown-run-key": (
        ["classify", *GATE_II, "--config", "{config}"], "[run]\nbogus = 1\n"),
    "exit2-unknown-gate-key": (
        ["szm", "--config", "{config}"], "[gate]\ntau = 0.7\ndelta = 0.3\nkappa = 1\n"),
    "exit2-bad-config-type": (
        ["szm", *GATE_II, "--config", "{config}"], "[run]\nsteps = many\n"),
    "exit2-verify-ybe-gate-section": (
        ["verify-ybe", "--config", "{config}"], "[gate]\ntau = 0.7\n"),
    "exit2-two-gate-with-gate": (["spectrum-stats", "--two-gate", *GATE_II], None),
    # exit 2 with a run record
    "exit2-szm-bad-sector": (["szm", *GATE_II, "--L", "4", "--sector", "abc"], None),
    "exit2-charges-too-small": (["charges", *GATE_I, "--L", "6", "--ell", "2"], None),
    "exit2-spectrum-bad-boundary": (
        ["spectrum-stats", *GATE_II, "--L", "6", "--boundary", "ladder"], None),
    # exit 3: capacity limits and refusals
    "exit3-rp-support-cap": (["rp-spectrum", *GATE_II, "--r", "7"], None),
    "exit3-ring-time-reversal": (
        ["time-reversal", *GATE_I, "--L", "6", "--boundary", "periodic"], None),
}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _summarize_file(path):
    text = path.read_text()
    if path.suffix == ".json":
        return {"json": json.loads(text, parse_constant=_reject_constant)}
    lines = text.splitlines()
    return {"comment": lines[0], "header": lines[1], "rows": len(lines) - 2}


def run_case(argv, config, workdir):
    """Run one case in ``workdir``; return what the golden file records."""
    workdir = Path(workdir)
    outdir = workdir / "out"
    if config is not None:
        (workdir / "case.ini").write_text(config)
    argv = [a.replace("{config}", str(workdir / "case.ini")) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out-dir", str(outdir)])
        except SystemExit as exc:
            code = exc.code
    files = sorted(outdir.iterdir()) if outdir.is_dir() else []
    records = [p for p in files if p.name.endswith("-runrecord.json")]
    record = json.loads(records[0].read_text()) if records else None
    return {
        "code": code,
        "record": None if record is None else {
            key: record[key] for key in ("status", "exit_code", "outputs", "sha256")
        },
        "files": {p.name: _summarize_file(p) for p in files if p not in records},
        "stdout_first": (out.getvalue().splitlines() or [""])[0],
        "stderr_last": (err.getvalue().splitlines() or [""])[-1],
    }


# a number standing alone, so the hex digits of a sha are text
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _last_digit_unit(token):
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def assert_line_close(actual, golden, where):
    """Same text; each printed number within one unit of its last digit."""
    parts_a, parts_g = _NUMBER.split(actual), _NUMBER.split(golden)
    nums_a, nums_g = _NUMBER.findall(actual), _NUMBER.findall(golden)
    assert parts_a == parts_g and len(nums_a) == len(nums_g), (
        f"{where}: {actual!r} != {golden!r}")
    for a, g in zip(nums_a, nums_g):
        assert abs(float(a) - float(g)) <= _last_digit_unit(g) + ABS_TOL, (
            f"{where}: {a} vs golden {g} in {golden!r}")


def assert_close(actual, golden, where):
    """Recursive comparison: floats to tolerance, everything else exactly."""
    if isinstance(golden, float):
        assert isinstance(actual, float) and math.isfinite(actual), f"{where}: {actual!r}"
        assert abs(actual - golden) <= ABS_TOL + REL_TOL * abs(golden), (
            f"{where}: {actual!r} vs golden {golden!r}")
    elif isinstance(golden, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(golden), (
            f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} "
            f"vs golden {sorted(golden)}")
        for key in golden:
            assert_close(actual[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), (
            f"{where}: {actual!r} vs golden {golden!r}")
        for i, (a, g) in enumerate(zip(actual, golden)):
            assert_close(a, g, f"{where}[{i}]")
    else:
        assert type(actual) is type(golden) and actual == golden, (
            f"{where}: {actual!r} vs golden {golden!r}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, golden, tmp_path):
    argv, config = CASES[case]
    got, want = run_case(argv, config, tmp_path), golden[case]
    assert got["code"] == want["code"]
    assert got["record"] == want["record"]
    assert_line_close(got["stdout_first"], want["stdout_first"], "stdout")
    assert_line_close(got["stderr_last"], want["stderr_last"], "stderr")
    assert_close(got["files"], want["files"], "files")


if __name__ == "__main__":
    results = {}
    for case, (argv, config) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as workdir:
            results[case] = run_case(argv, config, workdir)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
