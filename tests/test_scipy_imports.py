"""scipy loads only inside the functions that compute with it.

Each runtime check runs in a fresh interpreter, since this test process
has long loaded scipy.  The child asserts on its own sys.modules and exits
nonzero on failure; the run records it leaves behind carry the
environment.  Those checks cover the listed commands only; a source scan
holds every package module to scipy.sparse.
"""

import ast
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

# commands that never build a CSR matrix (sector blocks are pushed and
# folded in numpy, every eigensolve is numpy's), with the exit code each
# must return
SCIPY_FREE = [
    (["classify", *GATE_II], 0),
    (["map-params", *GATE_II], 0),
    (["verify-ybe", "--trials", "20"], 0),
    (["spectrum-stats", *GATE_I, "--L", "8", "--boundary", "periodic", "--k-values", "0,1"], 0),
    (["spectrum-stats", "--two-gate", "--L", "6", "--boundary", "periodic"], 0),
    (["charges", *GATE_II, "--L", "6", "--ell", "1"], 0),
    (["charges", *GATE_I, "--L", "10", "--ell", "2"], 0),
    (["time-reversal", *GATE_I, "--L", "6"], 0),
    (["szm", *GATE_I, "--L", "6", "--steps", "20"], 0),
    (["staggered-corr", *GATE_I, "--L", "6", "--steps", "20"], 0),
    (["time-reversal", *GATE_I, "--L", "10", "--boundary", "periodic"], 3),
    (["charges", *GATE_II, "--L", "14"], 3),
    (["rp-spectrum", *GATE_I, "--r", "7"], 3),
    # the T(k) join is numpy's: k = 0 builds half the blocks, k = 0.7 all
    (["rp-spectrum", *GATE_I, "--r", "4", "--k", "0", "--r-list", "3,4"], 0),
    (["rp-spectrum", *GATE_I, "--r", "3", "--k", "0.7", "--r-list", "3,4"], 0),
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
assert main(["domain-wall", "--tau", "0.7", "--delta", "0.3", "--L", "6", "--steps", "4",
             "--out-dir", sys.argv[1] + "/0"]) == 0
assert "scipy.sparse" in sys.modules, "domain-wall stepped its sector without scipy"
"""

# the two steppers: they apply CSR layer operators (core.sector_step) to
# dense vectors hundreds of times, but solve nothing, so scipy.linalg and
# scipy.optimize stay unloaded
SPARSE_ONLY = [
    ["domain-wall", *GATE_II, "--L", "8", "--steps", "20", "--threads", "1"],
    ["szm", *GATE_I, "--method", "typicality", "--L", "6", "--steps", "20"],
]

# one command per fresh interpreter, so each must load scipy.sparse itself
SPARSE_CHILD = """
import json, sys
from mcbrick.cli import main
argv = json.loads(sys.argv[2])
assert main([*argv, "--out-dir", sys.argv[1] + "/0"]) == 0
assert "scipy.sparse" in sys.modules, f"{argv[0]} stepped its sector without scipy.sparse"
assert "scipy.linalg" not in sys.modules, f"{argv[0]} loaded scipy.linalg"
assert "scipy.optimize" not in sys.modules, f"{argv[0]} loaded scipy.optimize"
public = {m.split(".")[1] for m in sys.modules
          if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}
assert public <= {"sparse", "version"}, f"{argv[0]} loaded scipy {sorted(public)}"
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
        threads = env.pop("blas_threads")
        assert env == {"python": platform.python_version(), "numpy": numpy.__version__,
                       "scipy": None}, argv[0]
        assert isinstance(threads["numpy"], int) and threads["numpy"] >= 1, argv[0]
        assert threads["scipy"] is None, argv[0]


def test_domain_wall_loads_scipy_sparse(tmp_path):
    run_child(POSITIVE, tmp_path)
    assert environment(tmp_path, 0, "domain-wall")["scipy"] == scipy.__version__


def test_steppers_load_scipy_sparse_but_not_linalg(tmp_path):
    for i, argv in enumerate(SPARSE_ONLY):
        run_child(SPARSE_CHILD, tmp_path / str(i), json.dumps(argv))
        env = environment(tmp_path / str(i), 0, argv[0])
        assert env["scipy"] == scipy.__version__
        threads = env["blas_threads"]
        assert all(isinstance(n, int) and n >= 1 for n in threads.values()), threads
        if "--threads" in argv:  # the cap reaches both libraries
            assert threads == {"numpy": 1, "scipy": 1}


def scipy_imports(source):
    """(line, dotted name) of each scipy name an import reaches; `from a import b` reaches a.b."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name.split(".")[0] == "scipy")


def outside_sparse(name):
    """True unless the name is scipy.sparse or one of its names other than a
    solver subpackage (those load scipy.linalg)."""
    parts = name.split(".")
    return parts[:2] != ["scipy", "sparse"] or parts[2:3] in (["linalg"], ["csgraph"])


def test_package_source_imports_no_scipy_but_sparse():
    flagged = ["import scipy", "import scipy.linalg", "from scipy import optimize",
               "from scipy.optimize import linear_sum_assignment",
               "from scipy.sparse import linalg", "import scipy.sparse.linalg"]
    for source in flagged:
        assert any(outside_sparse(name) for _, name in scipy_imports(source)), source
    for source in ("import scipy.sparse", "from scipy import sparse",
                   "from scipy.sparse import csr_array"):
        assert not any(outside_sparse(name) for _, name in scipy_imports(source)), source
    for path in sorted((SRC / "mcbrick").glob("*.py")):
        for line, name in scipy_imports(path.read_text()):
            assert not outside_sparse(name), f"{path.name}:{line} imports {name}"
