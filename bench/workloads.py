"""The benchmark's workloads: mcbrick CLI commands, expected outcomes and checks.

A workload is an ordered list of commands.  Each command runs in a fresh
process, one at a time (closed loop, one client).  It carries the exit code
it must return and a check that reads its output directory.  Checks use the
package's own tolerances where it exports one, the test suite's tolerances
otherwise, and compare numeric fields with values recorded at the seed
commit.  Fields that depend on ``--seed`` are compared with their recorded
value only at ``DEFAULT_SEED``; at other seeds they get the seed-independent
checks alone.  No check compares bits: BLAS thread counts move residuals in
the last digits.

The module also states which layers each workload must exercise and which it
must bypass; the traced run checks those predictions from call counts.
"""

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0  # the CLI's own default root seed; references were recorded there

# Hurwitz gate in phase I (level statistics, RP spectra, dynamics)
GATE_I = ("--delta-phase", "0.1", "--alpha", "0.4", "--phi", "0.9",
          "--chi", "0.3", "--theta", "0.2")
# Hamiltonian gate in phase II
GATE_II = ("--tau", "0.7", "--delta", "0.3")

# tolerances the test suite applies to the same quantities
CHARGE_Q1_TOL = 1e-9
CHARGE_Q2_TOL = 1e-7
TR_RESIDUAL_TOL = 1e-11
SPECTRAL_MATCH_TOL = 1e-10
DRIFT_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-11
# distance allowed from a value recorded at the seed commit
REF_TOL = 1e-9


class Verdict:
    """Problems and diagnostics found in one command's outputs."""

    def __init__(self, outdir, stderr, seed):
        self.outdir = outdir
        self.stderr = stderr
        self.seed = seed
        self.problems = []
        self.diagnostics = {}

    def json(self, name):
        return json.loads((self.outdir / name).read_text())

    def rows(self, name):
        """Data rows of a CLI csv file (the sha comment and header dropped)."""
        with open(self.outdir / name, newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        return list(csv.DictReader(lines))

    def require(self, ok, what):
        if not ok:
            self.problems.append(what)

    def below(self, label, value, tol):
        self.require(math.isfinite(value) and value <= tol, f"{label}={value!r} exceeds {tol!r}")

    def near(self, label, value, ref, tol=REF_TOL):
        self.require(
            math.isfinite(value) and abs(value - ref) <= tol,
            f"{label}={value!r} differs from reference {ref!r} by more than {tol!r}",
        )

    def near_at_default(self, label, value, ref, tol=REF_TOL):
        if self.seed == DEFAULT_SEED:
            self.near(label, value, ref, tol)

    def diag(self, name, value, tol):
        """Record an invariant next to its tolerance and require it to hold."""
        self.diagnostics[name] = {"value": float(value), "tol": float(tol)}
        self.below(name, value, tol)


@dataclass(frozen=True)
class Command:
    args: tuple
    check: Callable
    expect_code: int = 0

    @property
    def subcommand(self):
        return self.args[0]


def _series(v, name):
    return {int(r["t"]): float(r["value"]) for r in v.rows(name)}


# ------------------------------------------------------------------ spectra

def _spectrum_common(v, two_gate):
    d = v.json("spectrum-stats.json")
    rows = v.rows("spectrum-stats.csv")
    dims = [s["dim"] for s in d["per_sector"]]
    v.require(d["two_gate"] is two_gate, "two_gate flag")
    v.require(d["n_blocks"] == len(dims), "n_blocks disagrees with per_sector")
    v.require(len(rows) == sum(dims), "eigenphase count differs from the block dims")
    v.require(
        all(0.0 <= float(r["eigenphase"]) <= 2 * math.pi for r in rows),
        "eigenphase outside [0, 2pi]",
    )
    return d, dims


def _check_spectrum_l12(v):
    # BLOCK_UNITARITY_TOL is enforced inside resolved_spectra: a block that
    # misses it raises SymmetryError and the command exits 2, not 0
    d, dims = _spectrum_common(v, False)
    v.require(d["n_blocks"] == 110 and sum(dims) == 4070, "L=12 sector layout")
    ref = 0.3940383326171372
    v.near("pooled_r_tilde", d["pooled_r_tilde"], ref, 1e-6)
    v.diagnostics["levelstats.pooled_r_tilde"] = {
        "value": d["pooled_r_tilde"], "tol": 1e-6, "reference": ref,
    }


def _check_spectrum_l14(v):
    d, dims = _spectrum_common(v, False)
    v.require(sorted(dims) == [244, 246], f"L=14 m=0 k=1 dims {dims}")
    v.near("pooled_r_tilde", d["pooled_r_tilde"], 0.393275037955286, 1e-6)


def _check_spectrum_two_gate(v):
    d, dims = _spectrum_common(v, True)
    v.require(d["n_blocks"] == 66 and sum(dims) == 4094, "two-gate sector layout")
    # a chaotic pair sits clearly above the Poisson value at every seed
    v.require(d["pooled_r_tilde"] > d["references"]["poisson"], "two-gate r~ not above Poisson")
    v.near_at_default("pooled_r_tilde", d["pooled_r_tilde"], 0.5076254326845048, 1e-6)


# ----------------------------------------------------------------------- rp

def _check_rp(v):
    from mcbrick.rp import MIXING_TOL, RADIUS_TOL

    d = v.json("rp-spectrum.json")
    v.require(d["phase"] == "I", "phase")
    v.require(d["unit_multiplicity"] == 3, f"unit_multiplicity {d['unit_multiplicity']} at k=0")
    v.diag("rp.spectral_radius", d["spectral_radius"], 1.0 + RADIUS_TOL)
    v.diag("rp.charge_mixing_defect", d["charge_mixing_defect"], MIXING_TOL)
    v.require(
        d["block_dims"] == {"-1": 82, "-2": 44, "-3": 14, "-4": 2, "0": 100,
                            "1": 82, "2": 44, "3": 14, "4": 2},
        "charge block dims",
    )
    v.require(d["modes_kept"] == 7 == len(v.rows("rp-spectrum.csv")), "modes kept")
    fit = d["gap_fit"]
    v.require(fit["model"] == "exponential" and fit["r_values"] == [3, 4], "gap fit model")
    v.near("gap r=3", fit["gaps"]["3"], 0.18522904433900356)
    v.near("gap r=4", fit["gaps"]["4"], 0.16592837921223458)
    v.near("gap rate", fit["rate"], 0.11003689207422082)


# ---------------------------------------------------------------- operators

def _check_charges_q1(v):
    d = v.json("charges.json")
    v.require(d["phase"] == "II" and sorted(d["charges"]) == ["+", "-"], "charge signs")
    worst = 0.0
    for sign, c in d["charges"].items():
        v.require(c["density_support"] == 3, f"q1{sign} support")
        v.below(f"q1{sign} closed form difference", c["closed_form_max_difference"], CHARGE_Q1_TOL)
        v.below(f"q1{sign} hermitian part defect", c["hermitian_part_defect"], CHARGE_Q1_TOL)
        v.below(f"q1{sign} conservation defect", c["conservation_defect"], CHARGE_Q1_TOL)
        worst = max(worst, c["conservation_defect"])
    v.diagnostics["charges.conservation_defect_max"] = {"value": worst, "tol": CHARGE_Q1_TOL}


def _check_charges_q2(v):
    d = v.json("charges.json")
    v.require(d["phase"] == "I" and sorted(d["charges"]) == ["+", "-"], "charge signs")
    for sign, c in d["charges"].items():
        v.require(c["density_support"] == 5, f"q2{sign} support")
        v.below(f"q2{sign} conservation defect", c["conservation_defect"], CHARGE_Q2_TOL)
        v.below(f"q2{sign} window residual", c["support_window_residual"], CHARGE_Q2_TOL)
        v.near(f"q2{sign} window norm", c["support_window_norm"], 3.16085007040542, 1e-8)


def _check_time_reversal(v):
    d = v.json("time-reversal.json")
    v.require(d["refused"] is False and d["angle_defect"] == 0.0, "open chain must not refuse")
    v.diag("symmetry.residual_TR", d["residual_TR"], TR_RESIDUAL_TOL)
    v.diag("symmetry.spectral_match_err", d["spectral_match_error"], SPECTRAL_MATCH_TOL)


def _check_szm_exact(v):
    s = _series(v, "szm.csv")
    v.require(sorted(s) == list(range(201)), "szm time axis")
    v.near("C(0)", s[0], 1.0)
    v.near("C(1)", s[1], 0.61360104734654408)
    v.near("C(60)", s[60], 0.34340559408550408)
    v.near("C(200)", s[200], 0.32731464812270206)


def _check_staggered(v):
    s = _series(v, "staggered-corr.csv")
    v.require(sorted(s) == list(range(201)), "staggered time axis")
    v.near("C(0)", s[0], 1.0)
    v.near("C(1)", s[1], 0.38176167575447023)
    v.near("C(60)", s[60], 0.064410355298855471)
    v.near("C(200)", s[200], 0.0013540728146555273)


def _check_verify_ybe(v):
    d = v.json("verify-ybe.json")
    v.require(d["passed"] is True and d["trials"] == 5000, "verify-ybe did not pass")
    v.diag("rmatrix.max_braid_residual", d["max_braid_residual"], d["tol_braid"])
    v.below("max_inverse_residual", d["max_inverse_residual"], d["tol_inverse"])


def _check_classify(v):
    d = v.json("classify.json")
    v.require(d["phase"] == "II" and d["singular_denominator"] is False, "classify phase")
    v.near("phase_condition_lhs", d["phase_condition_lhs"], 0.4137810794918429)


def _check_map_params(v):
    d = v.json("map-params.json")
    v.require(d["phase"] == "II", "map-params phase")
    v.below("reconstruction_error", d["reconstruction_error"], RECONSTRUCTION_TOL)
    v.near("u", d["u"], 2.36559804376695)
    v.near("rho", d["rho"], 1.1441928511275115)


def _refusal(record_name):
    """Check of a probe that must refuse cleanly: exit 3, reason given, no traceback."""
    def check(v):
        rec = v.json(record_name)
        v.require(rec["status"].startswith("refused") and rec["exit_code"] == 3, "record status")
        v.require("refused" in v.stderr and "Traceback" not in v.stderr, "refusal reason on stderr")
    return check


def _check_tr_refusal(v):
    _refusal("time-reversal-runrecord.json")(v)
    d = v.json("time-reversal.json")
    v.require(d["refused"] is True and "do not close" in d["reason"], "refusal reason")
    v.near("angle_defect", d["angle_defect"], -1.1415926535897931)


# ------------------------------------------------------------------- evolve

def _check_domain_wall(v):
    d = v.json("domain-wall.json")
    v.diag("dynamics.magnetization_drift", d["metadata"]["magnetization_drift"], DRIFT_TOL)
    s = _series(v, "domain-wall.csv")
    v.require(sorted(s) == list(range(401)), "domain-wall time axis")
    v.require(len(v.rows("domain-wall-profiles.csv")) == 401 * 16, "profile rows")
    v.near("transported(1)", s[1], 0.97111117033432703)
    v.near("transported(400)", s[400], 3.727492467439979, 1e-8)


def _check_szm_typicality(v):
    rows = v.rows("szm.csv")
    v.require([int(r["t"]) for r in rows] == list(range(61)), "typicality time axis")
    vals = [float(r["value"]) for r in rows]
    errs = [float(r["err"]) for r in rows]
    v.near("C(0)", vals[0], 1.0)
    v.require(all(abs(x) <= 1.0 + REF_TOL for x in vals), "|C(t)| above 1")
    v.require(all(math.isfinite(e) and e >= 0.0 for e in errs), "bad error bars")
    v.near_at_default("C(1)", vals[1], 0.61246102611741082)
    v.near_at_default("C(60)", vals[60], 0.29119935543550951)


WORKLOADS = {
    "spectra": (
        Command(("spectrum-stats", *GATE_I, "--L", "12"), _check_spectrum_l12),
        Command(("spectrum-stats", *GATE_I, "--L", "14", "--m-values", "0", "--k-values", "1"),
                _check_spectrum_l14),
        Command(("spectrum-stats", "--two-gate", "--L", "12", "--realizations", "1"),
                _check_spectrum_two_gate),
    ),
    "rp": (
        Command(("rp-spectrum", *GATE_I, "--r", "4", "--k", "0", "--r-list", "3,4"), _check_rp),
    ),
    "operators": (
        Command(("charges", *GATE_II, "--L", "10", "--ell", "1"), _check_charges_q1),
        Command(("charges", *GATE_I, "--L", "10", "--ell", "2"), _check_charges_q2),
        Command(("time-reversal", *GATE_I, "--L", "10"), _check_time_reversal),
        Command(("szm", *GATE_I, "--L", "10", "--steps", "200"), _check_szm_exact),
        Command(("staggered-corr", *GATE_I, "--L", "10", "--steps", "200"), _check_staggered),
        Command(("verify-ybe", "--trials", "5000"), _check_verify_ybe),
        Command(("classify", *GATE_II), _check_classify),
        Command(("map-params", *GATE_II), _check_map_params),
        Command(("time-reversal", *GATE_I, "--L", "10", "--boundary", "periodic"),
                _check_tr_refusal, 3),
        Command(("charges", *GATE_II, "--L", "14"), _refusal("charges-runrecord.json"), 3),
        Command(("rp-spectrum", *GATE_I, "--r", "7"), _refusal("rp-spectrum-runrecord.json"), 3),
    ),
    "evolve": (
        Command(("domain-wall", *GATE_II, "--L", "16", "--steps", "400"), _check_domain_wall),
        Command(("szm", *GATE_I, "--method", "typicality", "--L", "14", "--steps", "60",
                 "--samples", "20"), _check_szm_typicality),
    ),
}

# mcbrick modules each workload's commands load; setup_s imports exactly these
IMPORTS = {
    "spectra": ("cli", "core", "levelstats", "gates"),
    "rp": ("cli", "rp", "gates", "rmatrix"),
    "operators": ("cli", "charges", "core", "symmetry", "dynamics", "rmatrix", "gates", "rp"),
    "evolve": ("cli", "dynamics", "core", "gates", "rmatrix"),
}

# layers whose functions must complete no call on a workload (the bypass guard)
BYPASSED = {
    "spectra": ("rp",),
    "rp": ("core",),
    "operators": ("rp",),
    "evolve": ("rp", "levelstats"),
}

# workloads on which each wrapped function must complete at least one call;
# together they make sure every wrapped name is exercised somewhere
HOME = {
    "core.build_sector_block": ("spectra",),
    "core.propagator_apply": ("spectra", "evolve"),
    "core.apply_gate": ("spectra",),
    "core.sector_basis": ("spectra",),
    "core.build_propagator": ("operators",),
    "core.embed_operator": ("operators",),
    "core.commutator_defect": ("operators",),
    "levelstats.resolved_spectra": ("spectra",),
    "levelstats.sector_spectrum": ("spectra",),
    "rp.truncated_propagator": ("rp",),
    "rp.rp_spectrum": ("rp",),
    "rp.conserved_density_vectors": ("rp",),
    "rp.gap_scaling": ("rp",),
    "rp.unit_multiplicity": ("rp",),
    "charges.charge_q1": ("operators",),
    "charges.charge_q1_closed_form": ("operators",),
    "charges.higher_charge": ("operators",),
    "charges.pauli_string_window_projection": ("operators",),
    "charges.ChargeFamily.conservation_defect": ("operators",),
    "dynamics.boundary_autocorrelation": ("operators", "evolve"),
    "dynamics.staggered_correlation": ("operators",),
    "dynamics.domain_wall_evolution": ("evolve",),
    "symmetry.time_reversal_report": ("operators",),
    "symmetry.spectral_match_error": ("operators",),
    "symmetry.equivalent_circuit": ("operators",),
    "symmetry.global_time_reversal": ("operators",),
    "rmatrix.haar_to_r": ("operators", "rp"),
    "rmatrix.check_yang_baxter": ("operators",),
    "rmatrix.r_matrix": ("operators",),
    "gates.haar_params_from_gate": ("operators", "rp"),
    "gates.sample_haar": ("operators",),
}

# invariants the checks record, reported as per-layer diagnostics
DIAGNOSTICS = (
    "rp.charge_mixing_defect",
    "rp.spectral_radius",
    "charges.conservation_defect_max",
    "symmetry.residual_TR",
    "symmetry.spectral_match_err",
    "dynamics.magnetization_drift",
    "rmatrix.max_braid_residual",
    "levelstats.pooled_r_tilde",
)

SUBCOMMANDS = (
    "classify", "map-params", "verify-ybe", "charges", "spectrum-stats",
    "rp-spectrum", "szm", "staggered-corr", "domain-wall", "time-reversal",
)
