"""scipy loads only inside the functions that compute with it.

Each check runs in a fresh interpreter, since this test process has long
loaded scipy.  The child asserts on its own sys.modules and exits nonzero
on failure; the run records it leaves behind carry the environment.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import mcbrick

SRC = Path(mcbrick.__file__).resolve().parents[1]
GATE_I = ["--delta-phase", "0.1", "--alpha", "0.4", "--phi", "0.9", "--chi", "0.3",
          "--theta", "0.2"]
GATE_II = ["--tau", "0.7", "--delta", "0.3"]

# commands that never build a CSR matrix or call the nonsymmetric
# eigensolver, with the exit code each must return
SCIPY_FREE = [
    (["classify", *GATE_II], 0),
    (["map-params", *GATE_II], 0),
    (["verify-ybe", "--trials", "20"], 0),
    (["time-reversal", *GATE_I, "--L", "10", "--boundary", "periodic"], 3),
    (["charges", *GATE_II, "--L", "14"], 3),
    (["rp-spectrum", *GATE_I, "--r", "7"], 3),
]

CHILD = """
import importlib, json, pkgutil, sys
import mcbrick

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for info in pkgutil.iter_modules(mcbrick.__path__):
    importlib.import_module("mcbrick." + info.name)
assert not scipy_loaded(), f"importing mcbrick loaded {scipy_loaded()[:5]}"

from mcbrick.cli import main
for i, (argv, expect) in enumerate(json.loads(sys.argv[2])):
    code = main([*argv, "--out-dir", f"{sys.argv[1]}/{i}"])
    assert code == expect, f"{argv[0]} exited {code}, expected {expect}"
    assert not scipy_loaded(), f"{argv[0]} loaded {scipy_loaded()[:5]}"
"""

POSITIVE = """
import sys
from mcbrick.cli import main
assert main(["spectrum-stats", "--tau", "0.7", "--delta", "0.3", "--L", "4",
             "--out-dir", sys.argv[1] + "/0"]) == 0
assert "scipy.sparse" in sys.modules, "spectrum-stats built its sector blocks without scipy"
"""

# commands whose propagator sector blocks are CSR products but whose
# eigensolves are Hermitian (numpy), so scipy.linalg stays unloaded
SPARSE_ONLY = [
    ["szm", *GATE_I, "--L", "6", "--steps", "20"],
    ["staggered-corr", *GATE_I, "--L", "6", "--steps", "20"],
]

SPARSE_CHILD = """
import json, sys
from mcbrick.cli import main
for i, argv in enumerate(json.loads(sys.argv[2])):
    assert main([*argv, "--out-dir", f"{sys.argv[1]}/{i}"]) == 0
    assert "scipy.sparse" in sys.modules, f"{argv[0]} built its blocks without scipy.sparse"
    assert "scipy.linalg" not in sys.modules, f"{argv[0]} loaded scipy.linalg"
"""


def run_child(source, tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", source, str(tmp_path), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def environment(tmp_path, i, command):
    rec = json.loads((tmp_path / str(i) / f"{command}-runrecord.json").read_text())
    return rec["environment"]


def test_scipy_free_commands_never_load_scipy(tmp_path):
    run_child(CHILD, tmp_path, json.dumps(SCIPY_FREE))
    for i, (argv, _) in enumerate(SCIPY_FREE):
        env = environment(tmp_path, i, argv[0])
        assert env == {"python": platform.python_version(), "numpy": numpy.__version__,
                       "scipy": None}, argv[0]


def test_spectrum_stats_loads_scipy_sparse(tmp_path):
    run_child(POSITIVE, tmp_path)
    assert environment(tmp_path, 0, "spectrum-stats")["scipy"] == scipy.__version__


def test_correlators_load_scipy_sparse_but_not_linalg(tmp_path):
    run_child(SPARSE_CHILD, tmp_path, json.dumps(SPARSE_ONLY))
    for i, argv in enumerate(SPARSE_ONLY):
        assert environment(tmp_path, i, argv[0])["scipy"] == scipy.__version__
