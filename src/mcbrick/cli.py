"""Batch command line: one subcommand per experiment, provenance-stamped.

Heavy imports happen inside the handlers so --threads can cap the BLAS
thread pools before numpy first loads.  Every run writes a RunRecord
JSON whose sha256 covers the deterministic fields (subcommand, resolved
parameters, package version, root seed); each output file embeds that
hash, and re-running an identical record reproduces the outputs bit for
bit within a fixed build (wall time and file paths stay outside the
hash).

Config files are INI-style with a [gate] and a [run] section.  A flag
beats a config value beats the built-in default, and any config key the
invoked subcommand does not accept aborts before computation.  The
[gate] section holds exactly one family: tau/delta (+ b, d, m, a, j)
for the Hamiltonian form, delta/alpha/phi/chi/theta for the Hurwitz
angles, or haar_seed for a random draw.

All randomness flows from the single --seed root:
SeedSequence(root).spawn(3) yields, in order, the gate stream (random
gate and ensemble-seed defaults), the method stream (typicality
vectors), and the ensemble stream (per-realization gate pairs).

Exit codes: 0 success, 1 a verification subcommand measured a
violation, 2 parameter or config errors, 3 capacity limits and
refusals.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .errors import (
    CapacityError,
    ConfigError,
    ParameterError,
    RefusalError,
    TimeReversalRefusal,
)

__all__ = ["main"]

_GATE_CONFIG_KEYS = (
    "tau", "delta", "b", "d", "m", "a", "j",
    "alpha", "phi", "chi", "theta", "haar_seed",
)

# accepted [run] keys per subcommand: name -> (type, default)
_RUN_TABLES = {
    "classify": {},
    "map-params": {},
    "verify-ybe": {
        "trials": (int, 1000),
        "haar_seed": (int, None),
        "x": (float, None),
        "y": (float, None),
        "tol_braid": (float, 1e-12),
        "tol_inverse": (float, 1e-13),
    },
    "charges": {"L": (int, 8), "ell": (int, 1), "sign": (str, "both")},
    "spectrum-stats": {
        "L": (int, 8),
        "boundary": (str, "periodic"),
        "two_gate": (bool, False),
        "realizations": (int, 1),
        "m_values": (str, None),
        "k_values": (str, None),
        "min_dim": (int, 2),
    },
    "rp-spectrum": {
        "r": (int, 3),
        "k": (float, 0.0),
        "r_list": (str, None),
        "eps_keep": (float, 0.25),
    },
    "szm": {
        "L": (int, 8),
        "steps": (int, 60),
        "method": (str, "exact-trace"),
        "samples": (int, 20),
        "sector": (str, None),
    },
    "staggered-corr": {"L": (int, 8), "steps": (int, 60)},
    "domain-wall": {"L": (int, 8), "steps": (int, 60)},
    "time-reversal": {"L": (int, 8), "boundary": (str, "open")},
}

_GATELESS = ("verify-ybe",)
_HAMILTONIAN_ONLY = ("classify",)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file with [gate]/[run] sections")
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--seed", type=int, default=0, help="64-bit root seed")
    common.add_argument("--threads", type=int, help="cap BLAS thread pools")

    ap = argparse.ArgumentParser(
        prog="mcbrick",
        description="integrability experiments on magnetization-conserving "
        "brickwork circuits",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    helps = {
        "classify": "phase label of a Hamiltonian-form gate",
        "map-params": "gate -> braid-matrix parameter map, with failures",
        "verify-ybe": "braid relation and inversion on random gates",
        "charges": "conserved-charge construction and commutation defects",
        "spectrum-stats": "symmetry-resolved eigenphase gap-ratio statistics",
        "rp-spectrum": "truncated operator-propagator spectrum and gap fits",
        "szm": "boundary magnetization autocorrelation (zero-mode probe)",
        "staggered-corr": "staggered magnetization autocorrelation and decay fits",
        "domain-wall": "domain-wall profile evolution and transported charge",
        "time-reversal": "anti-unitary symmetry construction report",
    }
    parsers = {}
    for name, table in _RUN_TABLES.items():
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name not in _GATELESS:
            _add_gate_flags(p, hamiltonian_only=name in _HAMILTONIAN_ONLY)
        for key, (typ, _default) in table.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=typ, default=None)
        parsers[name] = p
    return ap, parsers


def _add_gate_flags(p, hamiltonian_only=False):
    g = p.add_argument_group("gate parameters")
    g.add_argument("--tau", type=float)
    g.add_argument("--delta", type=float)
    g.add_argument("--B", type=float)
    g.add_argument("--D", type=float)
    g.add_argument("--M", type=float)
    g.add_argument("--A", type=float)
    g.add_argument("--J", type=float)
    if not hamiltonian_only:
        g.add_argument("--delta-phase", type=float, dest="delta_phase")
        g.add_argument("--alpha", type=float)
        g.add_argument("--phi", type=float)
        g.add_argument("--chi", type=float)
        g.add_argument("--theta", type=float)
        g.add_argument("--haar-seed", type=int, dest="haar_seed")


def _load_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not cp.read(path):
        raise ConfigError(f"config file not found: {path}")
    for section in cp.sections():
        if section not in ("gate", "run"):
            raise ConfigError(f"unknown config section [{section}]")
    gate = dict(cp["gate"]) if cp.has_section("gate") else {}
    run = dict(cp["run"]) if cp.has_section("run") else {}
    return gate, run


def _convert(raw, typ, key):
    if typ is bool:
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key}: expected {typ.__name__}, got {raw!r}")


def _resolve_gate(args, cfg_gate, hamiltonian_only=False, required=True):
    bad = sorted(set(cfg_gate) - set(_GATE_CONFIG_KEYS))
    if bad:
        raise ConfigError(f"unknown [gate] keys: {', '.join(bad)}")
    merged = dict(cfg_gate)
    flag_pairs = (
        ("tau", "tau"), ("delta", "delta"), ("B", "b"), ("D", "d"),
        ("M", "m"), ("A", "a"), ("J", "j"),
        ("alpha", "alpha"), ("phi", "phi"), ("chi", "chi"),
        ("theta", "theta"), ("haar_seed", "haar_seed"),
    )
    for dest, key in flag_pairs:
        val = getattr(args, dest, None)
        if val is not None:
            merged[key] = val
    delta_phase_flag = getattr(args, "delta_phase", None)

    has_ham = "tau" in merged
    has_haar = delta_phase_flag is not None or any(
        key in merged for key in ("alpha", "phi", "chi", "theta")
    )
    has_random = "haar_seed" in merged
    if has_ham + has_haar + has_random > 1:
        raise ParameterError(
            "conflicting gate families: give tau/delta, Hurwitz angles, "
            "or haar_seed, not a mixture"
        )
    if has_ham:
        if "delta" not in merged:
            raise ParameterError("the Hamiltonian gate form needs both tau and delta")
        return {
            "kind": "hamiltonian",
            "tau": _convert(merged["tau"], float, "tau"),
            "delta": _convert(merged["delta"], float, "delta"),
            "B": _convert(merged.get("b", 0.0), float, "b"),
            "D": _convert(merged.get("d", 0.0), float, "d"),
            "M": _convert(merged.get("m", 0.0), float, "m"),
            "A": _convert(merged.get("a", 0.0), float, "a"),
            "J": _convert(merged.get("j", 1.0), float, "j"),
        }
    if has_haar:
        if hamiltonian_only:
            raise ParameterError("this subcommand takes the Hamiltonian gate form only")
        phase = delta_phase_flag if delta_phase_flag is not None else merged.get("delta", 0.0)
        return {
            "kind": "haar",
            "delta_phase": _convert(phase, float, "delta"),
            "alpha": _convert(merged.get("alpha", 0.0), float, "alpha"),
            "phi": _convert(merged.get("phi", 0.0), float, "phi"),
            "chi": _convert(merged.get("chi", 0.0), float, "chi"),
            "theta": _convert(merged.get("theta", 0.0), float, "theta"),
        }
    if has_random:
        if hamiltonian_only:
            raise ParameterError("this subcommand takes the Hamiltonian gate form only")
        return {"kind": "random", "haar_seed": _convert(merged["haar_seed"], int, "haar_seed")}
    if required:
        if hamiltonian_only:
            raise ParameterError(
                "no gate specified: give --tau and --delta (+ --B --D --M --A --J)"
            )
        raise ParameterError(
            "no gate specified: give --tau/--delta (+ --B --D --M --A --J), "
            "Hurwitz angles, or --haar-seed"
        )
    return None


def _resolve_run(args, cfg_run, table):
    bad = sorted(set(cfg_run) - set(table))
    if bad:
        raise ConfigError(f"unknown [run] keys for this subcommand: {', '.join(bad)}")
    out = {}
    for key, (typ, default) in table.items():
        val = getattr(args, key, None)
        if val is None and key in cfg_run:
            val = _convert(cfg_run[key], typ, key)
        out[key] = default if val is None else val
    return out


def _resolve(command, args, cfg_gate, cfg_run):
    params = {"run": _resolve_run(args, cfg_run, _RUN_TABLES[command])}
    if command in _GATELESS:
        if cfg_gate:
            raise ConfigError(f"{command} takes no [gate] section")
    else:
        required = not (command == "spectrum-stats" and params["run"].get("two_gate"))
        gate = _resolve_gate(
            args, cfg_gate,
            hamiltonian_only=command in _HAMILTONIAN_ONLY,
            required=required,
        )
        if command == "spectrum-stats" and params["run"].get("two_gate") and gate:
            raise ParameterError("two-gate ensembles draw their gates; drop the gate parameters")
        params["gate"] = gate
    return params


def _build_gate(spec):
    """Gate object plus its Hamiltonian parameters when that form is known."""
    from .gates import (
        HaarGateParams,
        HamiltonianGateParams,
        gate_from_haar,
        gate_from_hamiltonian,
        random_mc_gate,
    )

    if spec["kind"] == "hamiltonian":
        p = HamiltonianGateParams(
            tau=spec["tau"], delta=spec["delta"], B=spec["B"], D=spec["D"],
            M=spec["M"], A=spec["A"], J=spec["J"],
        )
        return gate_from_hamiltonian(p), p
    if spec["kind"] == "haar":
        p = HaarGateParams(
            spec["delta_phase"], spec["alpha"], spec["phi"], spec["chi"], spec["theta"]
        )
        return gate_from_haar(p), None
    return random_mc_gate(spec["haar_seed"]), None


def _phase_label(gate):
    """Phase of the gate under the braid-matrix map, or why there is none."""
    from .errors import CriticalManifoldError
    from .gates import haar_params_from_gate
    from .rmatrix import haar_to_r

    try:
        p = haar_to_r(haar_params_from_gate(gate).params)
    except CriticalManifoldError:
        return "critical"
    return p.phase if not p.degenerate else f"degenerate ({p.degenerate})"


def _seed_streams(root):
    import numpy as np

    return np.random.SeedSequence(root).spawn(3)  # gate, method, ensemble


def _run_record(command, params, root_seed):
    from . import __version__

    record = {
        "subcommand": command,
        "parameters": params,
        "version": __version__,
        "root_seed": int(root_seed),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return record, hashlib.sha256(blob.encode()).hexdigest()


def _plain(obj):
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path, payload, sha):
    payload = dict(payload)
    payload["run_record_sha256"] = sha
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, sha, header, rows):
    lines = [f"# run_record_sha256: {sha}", ",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _parse_int_list(text, key):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"{key}: expected a comma list of integers, got {text!r}")


def _series_rows(series):
    err = series.estimator_error
    return [
        (int(t), float(v), float(err[i]) if err is not None else None)
        for i, (t, v) in enumerate(zip(series.times, series.values))
    ]


def _cmd_classify(params, root, sha, outdir):
    from .rmatrix import classify_phase_hamiltonian

    _gate, hp = _build_gate(params["gate"])
    c = classify_phase_hamiltonian(hp)
    payload = {
        "phase": c.label,
        "phase_condition_lhs": c.lhs,
        "singular_denominator": c.singular,
    }
    _write_json(outdir / "classify.json", payload, sha)
    print(json.dumps({**payload, "run_record_sha256": sha}, sort_keys=True))
    return ["classify.json"], 0


def _cmd_map_params(params, root, sha, outdir):
    from .gates import haar_params_from_gate
    from .rmatrix import map_report

    gate, _hp = _build_gate(params["gate"])
    extraction = haar_params_from_gate(gate)
    payload = map_report(extraction.params)
    payload["input_gate"] = params["gate"]
    payload["magnetization_phase_mu"] = extraction.mu
    _write_json(outdir / "map-params.json", payload, sha)
    print(f"phase {payload['phase']}; wrote map-params.json (run {sha[:12]})")
    return ["map-params.json"], 0


def _cmd_verify_ybe(params, root, sha, outdir):
    import numpy as np

    from .errors import CriticalManifoldError
    from .gates import sample_haar
    from .rmatrix import check_yang_baxter, haar_to_r, r_matrix

    run = params["run"]
    if run["trials"] < 1:
        raise ParameterError(f"trials must be >= 1, got {run['trials']}")
    gate_stream, _, _ = _seed_streams(root)
    seed = run["haar_seed"] if run["haar_seed"] is not None else gate_stream
    draws = sample_haar(seed, run["trials"])
    rng = np.random.default_rng(seed)
    eye = np.eye(4)
    worst_braid = worst_inverse = 0.0
    skipped = 0
    for hp in draws:
        x = run["x"] if run["x"] is not None else float(rng.uniform(-1.0, 1.0))
        y = run["y"] if run["y"] is not None else float(rng.uniform(-1.0, 1.0))
        try:
            p = haar_to_r(hp)
        except CriticalManifoldError:
            skipped += 1
            continue
        if p.degenerate:
            skipped += 1
            continue
        worst_braid = max(worst_braid, float(check_yang_baxter(p, x, y)))
        inverse = np.abs(r_matrix(p, -x) @ r_matrix(p, x) - eye).max()
        worst_inverse = max(worst_inverse, float(inverse))
    passed = worst_braid < run["tol_braid"] and worst_inverse < run["tol_inverse"]
    payload = {
        "trials": run["trials"],
        "skipped_degenerate": skipped,
        "max_braid_residual": worst_braid,
        "max_inverse_residual": worst_inverse,
        "tol_braid": run["tol_braid"],
        "tol_inverse": run["tol_inverse"],
        "passed": passed,
    }
    _write_json(outdir / "verify-ybe.json", payload, sha)
    print(
        f"braid residual {worst_braid:.3e}, inverse residual {worst_inverse:.3e} "
        f"over {run['trials'] - skipped} gates: {'PASS' if passed else 'FAIL'}"
    )
    return ["verify-ybe.json"], 0 if passed else 1


def _cmd_charges(params, root, sha, outdir):
    import numpy as np

    from .charges import (
        charge_q1,
        charge_q1_closed_form,
        higher_charge,
        pauli_string_window_projection,
    )
    from .core import build_propagator, homogeneous_circuit
    from .gates import haar_params_from_gate
    from .rmatrix import haar_to_r

    run = params["run"]
    gate, _hp = _build_gate(params["gate"])
    if run["sign"] not in ("+", "-", "both"):
        raise ParameterError(f"sign must be +, - or both, got {run['sign']!r}")
    p = haar_to_r(haar_params_from_gate(gate).params)
    prop = build_propagator(homogeneous_circuit(gate, run["L"], "periodic"))
    payload = {"L": run["L"], "ell": run["ell"], "phase": p.phase, "charges": {}}
    for sign in ("+", "-") if run["sign"] == "both" else (run["sign"],):
        if run["ell"] == 1:
            fam = charge_q1(p, sign, run["L"])
            closed = charge_q1_closed_form(p, sign, run["L"])
            extra = {
                "closed_form_max_difference": float(
                    np.abs(fam.matrix - closed.matrix).max()
                )
            }
        else:
            fam = higher_charge(p, run["ell"], sign, run["L"])
            kept, residual = pauli_string_window_projection(
                fam.matrix, run["L"], fam.density_support
            )
            extra = {
                "support_window_sites": fam.density_support,
                "support_window_norm": float(kept),
                "support_window_residual": float(residual),
            }
        payload["charges"][sign] = {
            "density_support": fam.density_support,
            "conservation_defect": float(fam.conservation_defect(prop)),
            "hermitian_part_defect": float(
                np.abs(
                    prop.entries.conj().T @ fam.hermitian_part() @ prop.entries
                    - fam.hermitian_part()
                ).max()
            ),
            **extra,
        }
    _write_json(outdir / "charges.json", payload, sha)
    print(f"wrote charges.json (run {sha[:12]})")
    return ["charges.json"], 0


def _spectrum_blocks(circuit, m_values, k_values, two_gate):
    from .levelstats import resolved_spectra, sector_spectrum

    for m in m_values:
        for k in k_values:
            if two_gate:
                yield sector_spectrum(circuit, m, k)
            else:
                yield from resolved_spectra(circuit, m, k)


def _cmd_spectrum_stats(params, root, sha, outdir):
    from .core import BrickworkCircuit, homogeneous_circuit, layer_bonds
    from .levelstats import (
        R_TILDE_COE,
        R_TILDE_CUE,
        R_TILDE_POISSON,
        chaotic_gate_pair,
        pooled_r_tilde,
    )

    run = params["run"]
    L, boundary = run["L"], run["boundary"]
    if boundary not in ("open", "periodic"):
        raise ParameterError(f"boundary must be open or periodic, got {boundary!r}")
    if run["realizations"] > 1 and not run["two_gate"]:
        raise ParameterError("realizations > 1 needs --two-gate")
    m_values = (
        _parse_int_list(run["m_values"], "m_values")
        if run["m_values"]
        else list(range(-L, L + 1, 2))
    )
    if boundary == "periodic":
        k_values = (
            _parse_int_list(run["k_values"], "k_values")
            if run["k_values"]
            else list(range(L // 2))
        )
    else:
        k_values = [None]
    _, _, ensemble_stream = _seed_streams(root)
    realization_seeds = ensemble_stream.spawn(run["realizations"])

    rows, per_sector, kept = [], [], []
    for t in range(run["realizations"]):
        if run["two_gate"]:
            pair = chaotic_gate_pair(realization_seeds[t])
            layers = [[g] * len(layer_bonds(L, boundary, i)) for i, g in enumerate(pair)]
            circuit = BrickworkCircuit(L, layers, boundary)
        else:
            gate, _hp = _build_gate(params["gate"])
            circuit = homogeneous_circuit(gate, L, boundary)
        for block in _spectrum_blocks(circuit, m_values, k_values, run["two_gate"]):
            if block.dim < run["min_dim"]:
                continue
            kept.append(block)
            key = block.sector_key()
            per_sector.append(
                {
                    "realization": t,
                    "sector": key,
                    "dim": int(block.dim),
                    "r_tilde": float(block.r_tilde),
                }
            )
            rows += [(t, key, float(ph)) for ph in block.eigenphases]
    if not kept:
        raise ParameterError("no blocks at or above min_dim; nothing to pool")
    payload = {
        "L": L,
        "boundary": boundary,
        "two_gate": bool(run["two_gate"]),
        "realizations": run["realizations"],
        "pooled_r_tilde": pooled_r_tilde(kept),
        "n_blocks": len(kept),
        "per_sector": per_sector,
        "references": {
            "poisson": R_TILDE_POISSON,
            "coe": R_TILDE_COE,
            "cue": R_TILDE_CUE,
        },
    }
    _write_csv(
        outdir / "spectrum-stats.csv", sha,
        ("realization", "sector", "eigenphase"), rows,
    )
    _write_json(outdir / "spectrum-stats.json", payload, sha)
    print(
        f"pooled gap-ratio mean {payload['pooled_r_tilde']:.4f} over "
        f"{len(kept)} blocks (run {sha[:12]})"
    )
    return ["spectrum-stats.csv", "spectrum-stats.json"], 0


def _cmd_rp_spectrum(params, root, sha, outdir):
    from .rp import (
        conserved_density_vectors,
        gap_scaling,
        rp_spectrum,
        truncated_propagator,
        unit_multiplicity,
    )

    run = params["run"]
    gate, _hp = _build_gate(params["gate"])
    tp = truncated_propagator(gate, run["r"], run["k"])
    conserved = conserved_density_vectors(gate, run["r"]) if abs(run["k"]) < 1e-12 else None
    spectrum = rp_spectrum(tp, eps_keep=run["eps_keep"], conserved=conserved)
    rows = [
        (run["k"], run["r"], mode.charge_block,
         mode.eigenvalue.real, mode.eigenvalue.imag)
        for mode in spectrum.modes
    ]
    payload = {
        "k": run["k"],
        "r": run["r"],
        "eps_keep": run["eps_keep"],
        "phase": _phase_label(gate),
        "unit_multiplicity": int(unit_multiplicity(tp)),
        "spectral_radius": tp.metadata["spectral_radius"],
        "charge_mixing_defect": float(tp.mixing_defect),
        "block_dims": {str(c): int(d) for c, d in spectrum.block_dims.items()},
        "modes_kept": len(spectrum.modes),
    }
    if run["r_list"]:
        fit = gap_scaling(gate, run["k"], _parse_int_list(run["r_list"], "r_list"))
        fit_payload = {
            "model": fit.model,
            "r_values": list(fit.r_values),
            "gaps": {str(r): fit.gaps[r] for r in fit.r_values},
            "lambda2_abs": {str(r): abs(fit.lambda2[r]) for r in fit.r_values},
        }
        if fit.model == "exponential":
            fit_payload.update(c=fit.c, rate=fit.rate)
        else:
            fit_payload.update(slope=fit.slope, intercept=fit.intercept)
        payload["gap_fit"] = fit_payload
    _write_csv(
        outdir / "rp-spectrum.csv", sha,
        ("k", "r", "charge_block", "re", "im"), rows,
    )
    _write_json(outdir / "rp-spectrum.json", payload, sha)
    print(
        f"kept {len(rows)} modes, unit multiplicity "
        f"{payload['unit_multiplicity']} (run {sha[:12]})"
    )
    return ["rp-spectrum.csv", "rp-spectrum.json"], 0


def _cmd_szm(params, root, sha, outdir):
    from .dynamics import boundary_autocorrelation

    run = params["run"]
    gate, _hp = _build_gate(params["gate"])
    sector = run["sector"]
    if sector is not None and str(sector).lower() != "none":
        try:
            sector = int(sector)
        except ValueError:
            raise ParameterError(f"sector: expected an integer or none, got {sector!r}")
    else:
        sector = None
    _, method_stream, _ = _seed_streams(root)
    series = boundary_autocorrelation(
        gate, run["L"], run["steps"],
        method=run["method"],
        seed=method_stream if run["method"] == "typicality" else None,
        samples=run["samples"],
        sector=sector,
    )
    meta = dict(series.metadata)
    meta["seed"] = {"root": int(root), "stream": "method"}
    payload = {
        "gate": params["gate"],
        "phase": _phase_label(gate),
        "method": series.method,
        "metadata": meta,
    }
    _write_csv(outdir / "szm.csv", sha, ("t", "value", "err"), _series_rows(series))
    _write_json(outdir / "szm.json", payload, sha)
    print(f"wrote szm.csv, szm.json (run {sha[:12]})")
    return ["szm.csv", "szm.json"], 0


def _cmd_staggered_corr(params, root, sha, outdir):
    from .dynamics import staggered_correlation

    run = params["run"]
    gate, _hp = _build_gate(params["gate"])
    series = staggered_correlation(gate, run["L"], run["steps"])
    payload = {
        "gate": params["gate"],
        "phase": _phase_label(gate),
        "method": series.method,
        "metadata": series.metadata,
    }
    _write_csv(
        outdir / "staggered-corr.csv", sha, ("t", "value", "err"), _series_rows(series)
    )
    _write_json(outdir / "staggered-corr.json", payload, sha)
    print(f"wrote staggered-corr.csv, staggered-corr.json (run {sha[:12]})")
    return ["staggered-corr.csv", "staggered-corr.json"], 0


def _cmd_domain_wall(params, root, sha, outdir):
    from .dynamics import domain_wall_evolution

    run = params["run"]
    gate, _hp = _build_gate(params["gate"])
    result = domain_wall_evolution(gate, run["L"], run["steps"])
    transported = [
        (int(t), float(v), None) for t, v in zip(result.times, result.transported)
    ]
    profile_rows = [
        (int(t), site, float(result.profiles[i, site]))
        for i, t in enumerate(result.times)
        for site in range(run["L"])
    ]
    payload = {
        "gate": params["gate"],
        "phase": _phase_label(gate),
        "metadata": result.metadata,
    }
    _write_csv(outdir / "domain-wall.csv", sha, ("t", "value", "err"), transported)
    _write_csv(
        outdir / "domain-wall-profiles.csv", sha, ("t", "site", "sz"), profile_rows
    )
    _write_json(outdir / "domain-wall.json", payload, sha)
    print(f"wrote domain-wall.csv, domain-wall-profiles.csv (run {sha[:12]})")
    return ["domain-wall.csv", "domain-wall-profiles.csv", "domain-wall.json"], 0


def _cmd_time_reversal(params, root, sha, outdir):
    from .core import homogeneous_circuit
    from .symmetry import time_reversal_report

    run = params["run"]
    gate, _hp = _build_gate(params["gate"])
    circuit = homogeneous_circuit(gate, run["L"], run["boundary"])
    try:
        payload = time_reversal_report(circuit)
    except TimeReversalRefusal as exc:
        payload = {
            "refused": True,
            "reason": str(exc),
            "angle_defect": float(exc.angle_defect),
            "L": run["L"],
            "boundary": run["boundary"],
        }
        _write_json(outdir / "time-reversal.json", payload, sha)
        print(f"refused: {exc}", file=sys.stderr)
        return ["time-reversal.json"], 3
    payload = dict(payload)
    payload["refused"] = False
    _write_json(outdir / "time-reversal.json", payload, sha)
    print(
        f"symmetry residual {payload['residual_TR']:.3e}, spectral match "
        f"{payload['spectral_match_error']:.3e} (run {sha[:12]})"
    )
    return ["time-reversal.json"], 0


_HANDLERS = {
    "classify": _cmd_classify,
    "map-params": _cmd_map_params,
    "verify-ybe": _cmd_verify_ybe,
    "charges": _cmd_charges,
    "spectrum-stats": _cmd_spectrum_stats,
    "rp-spectrum": _cmd_rp_spectrum,
    "szm": _cmd_szm,
    "staggered-corr": _cmd_staggered_corr,
    "domain-wall": _cmd_domain_wall,
    "time-reversal": _cmd_time_reversal,
}


def main(argv=None):
    parser, parsers = _build_parser()
    args = parser.parse_args(argv)
    if args.threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        cfg_gate, cfg_run = _load_config(args.config) if args.config else ({}, {})
        params = _resolve(args.command, args, cfg_gate, cfg_run)
    except ParameterError as exc:
        print(parsers[args.command].format_usage(), end="", file=sys.stderr)
        print(f"mcbrick {args.command}: error: {exc}", file=sys.stderr)
        return 2

    root = int(args.seed)
    record, sha = _run_record(args.command, params, root)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    status, outputs, code = "ok", [], 0
    try:
        outputs, code = _HANDLERS[args.command](params, root, sha, outdir)
        if code == 3:
            status = "refused"
        elif code == 1:
            status = "verification-failed"
    except ParameterError as exc:
        status, code = f"parameter-error: {exc}", 2
        print(f"mcbrick {args.command}: error: {exc}", file=sys.stderr)
    except (CapacityError, RefusalError) as exc:
        status, code = f"refused: {exc}", 3
        print(f"mcbrick {args.command}: refused: {exc}", file=sys.stderr)

    record.update(
        sha256=sha,
        wall_time_s=time.monotonic() - started,
        outputs=outputs,
        status=status,
        exit_code=code,
    )
    record_path = outdir / f"{args.command}-runrecord.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True, default=_plain) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
