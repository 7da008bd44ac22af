"""Batch command line: one subcommand per experiment, provenance-stamped.

Heavy imports happen inside the handlers so --threads can cap the BLAS
thread pools before numpy first loads.  Every run writes a RunRecord
JSON whose sha256 covers the deterministic fields (subcommand, resolved
parameters, package version, root seed); each output file embeds that
hash, and re-running an identical record reproduces the outputs bit for
bit within a fixed build (wall time and file paths stay outside the
hash).  The record is strict JSON: a non-finite parameter is written as
null, while the hash covers its value.

Two tables drive the parser, config resolution and the gate spec:
_COMMANDS (per subcommand: help, gate form, [run] keys, handler) and
_GATE_FIELDS (per gate parameter: family, name, [gate] key, type,
default).  A handler only computes: from (params, root seed, sha) it
returns its JSON payload, its CSV tables (name, header, rows) in write
order, its message and its exit code.  main writes the tables, then
<command>.json, prints the message and lists the files in the RunRecord.

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
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    CapacityError,
    ConfigError,
    ParameterError,
    RefusalError,
    TimeReversalRefusal,
)

__all__ = ["main"]

# (family, name, [gate] key, type, default or None if required, chooses).
# The name keys the gate spec and gives the flag (--name, "-" for "_"); a
# flag beats its config key.  A "chooses" field picks its family when given
# by flag, or by a config key no other field shares: [gate] delta feeds the
# Hamiltonian delta and the Hurwitz phase but chooses neither, while
# --delta-phase chooses Hurwitz.  A family lists its fields in the order of
# its parameter class.
_GATE_FIELDS = (
    ("hamiltonian", "tau", "tau", float, None, True),
    ("hamiltonian", "delta", "delta", float, None, False),
    ("hamiltonian", "B", "b", float, 0.0, False),
    ("hamiltonian", "D", "d", float, 0.0, False),
    ("hamiltonian", "M", "m", float, 0.0, False),
    ("hamiltonian", "A", "a", float, 0.0, False),
    ("hamiltonian", "J", "j", float, 1.0, False),
    ("haar", "delta_phase", "delta", float, 0.0, True),
    ("haar", "alpha", "alpha", float, 0.0, True),
    ("haar", "phi", "phi", float, 0.0, True),
    ("haar", "chi", "chi", float, 0.0, True),
    ("haar", "theta", "theta", float, 0.0, True),
    ("random", "haar_seed", "haar_seed", int, None, True),
)


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
    parsers = {}
    for command, (help_text, gate_form, run_keys, _handler) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        if gate_form:
            g = p.add_argument_group("gate parameters")
            for family, name, _key, typ, _default, _chooses in _GATE_FIELDS:
                if gate_form in ("any", family):
                    g.add_argument("--" + name.replace("_", "-"), type=typ)
        for key, (typ, _default) in run_keys.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=typ, default=None)
        parsers[command] = p
    return ap, parsers


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


def _resolve_gate(args, cfg_gate, gate_form, required=True):
    keys = [field[2] for field in _GATE_FIELDS]
    bad = sorted(set(cfg_gate) - set(keys))
    if bad:
        raise ConfigError(f"unknown [gate] keys: {', '.join(bad)}")
    merged, chosen = dict(cfg_gate), set()
    for family, name, key, _typ, _default, chooses in _GATE_FIELDS:
        val = getattr(args, name, None)
        if val is not None:
            merged[key] = val
        if chooses and (val is not None or (key in cfg_gate and keys.count(key) == 1)):
            chosen.add(family)
    if len(chosen) > 1:
        raise ParameterError(
            "conflicting gate families: give tau/delta, Hurwitz angles, "
            "or haar_seed, not a mixture"
        )
    if not chosen:
        if not required:
            return None
        if gate_form == "hamiltonian":
            raise ParameterError(
                "no gate specified: give --tau and --delta (+ --B --D --M --A --J)"
            )
        raise ParameterError(
            "no gate specified: give --tau/--delta (+ --B --D --M --A --J), "
            "Hurwitz angles, or --haar-seed"
        )
    kind = chosen.pop()
    if gate_form not in ("any", kind):
        raise ParameterError("this subcommand takes the Hamiltonian gate form only")
    fields = [field for field in _GATE_FIELDS if field[0] == kind]
    # a field of another family would be dropped silently; [gate] delta is
    # shared with the Hurwitz phase, so it counts as the chosen family's
    own = {field[2] for field in fields}
    stray = {}
    for _family, name, key, _typ, _default, _chooses in _GATE_FIELDS:
        if key in own:
            continue
        if getattr(args, name, None) is not None:
            stray["--" + name.replace("_", "-")] = None
        elif key in cfg_gate:
            stray[f"[gate] {key}"] = None
    if stray:
        raise ParameterError(
            f"{', '.join(stray)} not used by the chosen {kind} gate family; drop it"
        )
    # tau and haar_seed choose their family, so only delta can be missing
    if any(field[4] is None and field[2] not in merged for field in fields):
        raise ParameterError("the Hamiltonian gate form needs both tau and delta")
    spec = {"kind": kind}
    for _family, name, key, typ, default, _chooses in fields:
        spec[name] = _convert(merged.get(key, default), typ, key)
    return spec


def _resolve_run(args, cfg_run, table):
    # configparser lowercases keys, so match them to the table without case
    by_lower = {key.lower(): key for key in table}
    bad = sorted(set(cfg_run) - set(by_lower))
    if bad:
        raise ConfigError(f"unknown [run] keys for this subcommand: {', '.join(bad)}")
    cfg_run = {by_lower[key]: raw for key, raw in cfg_run.items()}
    out = {}
    for key, (typ, default) in table.items():
        val = getattr(args, key, None)
        if val is None and key in cfg_run:
            val = _convert(cfg_run[key], typ, key)
        out[key] = default if val is None else val
    return out


def _resolve(command, args, cfg_gate, cfg_run):
    _help, gate_form, run_keys, _handler = _COMMANDS[command]
    params = {"run": _resolve_run(args, cfg_run, run_keys)}
    if gate_form is None:
        if cfg_gate:
            raise ConfigError(f"{command} takes no [gate] section")
    else:
        two_gate = params["run"].get("two_gate")
        gate = _resolve_gate(args, cfg_gate, gate_form, required=not two_gate)
        if two_gate and gate:
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

    values = [v for key, v in spec.items() if key != "kind"]
    if spec["kind"] == "hamiltonian":
        p = HamiltonianGateParams(*values)
        return gate_from_hamiltonian(p), p
    if spec["kind"] == "haar":
        return gate_from_haar(HaarGateParams(*values)), None
    return random_mc_gate(*values), None


def _phase_label(gate):
    """Phase of the gate under the braid-matrix map, or why there is none."""
    from .errors import CriticalManifoldError
    from .gates import haar_params_from_gate
    from .rmatrix import haar_to_r

    try:
        p = haar_to_r(haar_params_from_gate(gate).params)
    except CriticalManifoldError:
        return "critical"
    except RefusalError as exc:
        return f"unmapped ({exc})"
    return p.phase if not p.degenerate else f"degenerate ({p.degenerate})"


def _finite_or_null(obj):
    """Copy of a parameter tree with non-finite floats as None (strict JSON)."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _require_finite_run(run, table):
    """Refuse a non-finite float [run] parameter before any handler sees it."""
    for key, (typ, _default) in table.items():
        if typ is float and run[key] is not None and not math.isfinite(run[key]):
            raise ParameterError(f"{key} must be finite, got {run[key]}")


def _seed_streams(root):
    import numpy as np

    return np.random.SeedSequence(root).spawn(3)  # gate, method, ensemble


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


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parse_int_list(text, key, default=None):
    if not text:
        return default
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"{key}: expected a comma list of integers, got {text!r}")


def _cmd_classify(params, root, sha):
    from .rmatrix import classify_phase_hamiltonian

    _gate, hp = _build_gate(params["gate"])
    c = classify_phase_hamiltonian(hp)
    payload = {
        "phase": c.label,
        "phase_condition_lhs": c.lhs,
        "singular_denominator": c.singular,
    }
    return payload, [], json.dumps({**payload, "run_record_sha256": sha}, sort_keys=True), 0


def _cmd_map_params(params, root, sha):
    from .gates import haar_params_from_gate
    from .rmatrix import map_report

    gate, _hp = _build_gate(params["gate"])
    extraction = haar_params_from_gate(gate)
    payload = map_report(extraction.params)
    payload["input_gate"] = params["gate"]
    payload["magnetization_phase_mu"] = extraction.mu
    return payload, [], f"phase {payload['phase']}; wrote map-params.json (run {sha[:12]})", 0


def _cmd_verify_ybe(params, root, sha):
    import numpy as np

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
        except RefusalError:  # critical, or off the map (rho or u infinite)
            skipped += 1
            continue
        if p.degenerate:
            skipped += 1
            continue
        # np.maximum keeps a NaN residual, which then fails the check
        worst_braid = float(np.maximum(worst_braid, check_yang_baxter(p, x, y)))
        inverse = np.abs(r_matrix(p, -x) @ r_matrix(p, x) - eye).max()
        worst_inverse = float(np.maximum(worst_inverse, inverse))
    passed = worst_braid < run["tol_braid"] and worst_inverse < run["tol_inverse"]
    payload = {
        "trials": run["trials"],
        "skipped_degenerate": skipped,
        "max_braid_residual": worst_braid if math.isfinite(worst_braid) else None,
        "max_inverse_residual": worst_inverse if math.isfinite(worst_inverse) else None,
        "tol_braid": run["tol_braid"],
        "tol_inverse": run["tol_inverse"],
        "passed": passed,
    }
    message = (
        f"braid residual {worst_braid:.3e}, inverse residual {worst_inverse:.3e} "
        f"over {run['trials'] - skipped} gates: {'PASS' if passed else 'FAIL'}"
    )
    return payload, [], message, 0 if passed else 1


def _cmd_charges(params, root, sha):
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
    return payload, [], f"wrote charges.json (run {sha[:12]})", 0


def _cmd_spectrum_stats(params, root, sha):
    from .core import BrickworkCircuit, homogeneous_circuit, layer_bonds
    from .levelstats import (
        R_TILDE_COE,
        R_TILDE_CUE,
        R_TILDE_POISSON,
        chaotic_gate_pair,
        pooled_r_tilde,
        resolved_spectra,
        sector_spectrum,
    )

    run = params["run"]
    L, boundary = run["L"], run["boundary"]
    if boundary not in ("open", "periodic"):
        raise ParameterError(f"boundary must be open or periodic, got {boundary!r}")
    if run["realizations"] < 1:
        raise ParameterError(f"realizations must be >= 1, got {run['realizations']}")
    if run["realizations"] > 1 and not run["two_gate"]:
        raise ParameterError("realizations > 1 needs --two-gate")
    if boundary == "open" and run["k_values"]:
        raise ParameterError("k_values needs the periodic boundary")
    m_values = _parse_int_list(run["m_values"], "m_values", list(range(-L, L + 1, 2)))
    k_values = [None]
    if boundary == "periodic":
        k_values = _parse_int_list(run["k_values"], "k_values", list(range(L // 2)))
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
        for m in m_values:
            for k in k_values:
                if run["two_gate"]:
                    blocks = [sector_spectrum(circuit, m, k)]
                else:
                    blocks = resolved_spectra(circuit, m, k)
                for block in blocks:
                    if block.dim < run["min_dim"]:
                        continue
                    kept.append(block)
                    key = block.sector_key()
                    per_sector.append(
                        {
                            "realization": t,
                            "sector": key,
                            "dim": int(block.dim),
                            # null when the block has fewer than two phases
                            "r_tilde": block.r_tilde if math.isfinite(block.r_tilde) else None,
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
    message = (
        f"pooled gap-ratio mean {payload['pooled_r_tilde']:.4f} over "
        f"{len(kept)} blocks (run {sha[:12]})"
    )
    tables = [("spectrum-stats.csv", ("realization", "sector", "eigenphase"), rows)]
    return payload, tables, message, 0


def _cmd_rp_spectrum(params, root, sha):
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
    message = (
        f"kept {len(rows)} modes, unit multiplicity "
        f"{payload['unit_multiplicity']} (run {sha[:12]})"
    )
    tables = [("rp-spectrum.csv", ("k", "r", "charge_block", "re", "im"), rows)]
    return payload, tables, message, 0


def _cmd_szm(params, root, sha):
    from .dynamics import boundary_autocorrelation

    run = params["run"]
    gate, _hp = _build_gate(params["gate"])
    sector = run["sector"]
    try:
        sector = None if str(sector).lower() == "none" else int(sector)
    except ValueError:
        raise ParameterError(f"sector: expected an integer or none, got {sector!r}")
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
    err = series.estimator_error
    rows = [
        (int(t), float(v), float(err[i]) if err is not None else None)
        for i, (t, v) in enumerate(zip(series.times, series.values))
    ]
    message = f"wrote szm.csv, szm.json (run {sha[:12]})"
    return payload, [("szm.csv", ("t", "value", "err"), rows)], message, 0


def _cmd_staggered_corr(params, root, sha):
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
    # exact traces carry no estimator error
    rows = [(int(t), float(v), None) for t, v in zip(series.times, series.values)]
    message = f"wrote staggered-corr.csv, staggered-corr.json (run {sha[:12]})"
    return payload, [("staggered-corr.csv", ("t", "value", "err"), rows)], message, 0


def _cmd_domain_wall(params, root, sha):
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
    tables = [
        ("domain-wall.csv", ("t", "value", "err"), transported),
        ("domain-wall-profiles.csv", ("t", "site", "sz"), profile_rows),
    ]
    message = f"wrote domain-wall.csv, domain-wall-profiles.csv (run {sha[:12]})"
    return payload, tables, message, 0


def _cmd_time_reversal(params, root, sha):
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
        return payload, [], f"refused: {exc}", 3
    payload = {**payload, "refused": False}
    message = (
        f"symmetry residual {payload['residual_TR']:.3e}, spectral match "
        f"{payload['spectral_match_error']:.3e} (run {sha[:12]})"
    )
    return payload, [], message, 0


# name -> (help, gate form: "any", "hamiltonian" or None, [run] keys as
# key -> (type, default), each also a --flag, handler)
_COMMANDS = {
    "classify": ("phase label of a Hamiltonian-form gate", "hamiltonian", {}, _cmd_classify),
    "map-params": (
        "gate -> braid-matrix parameter map, with failures", "any", {}, _cmd_map_params
    ),
    "verify-ybe": ("braid relation and inversion on random gates", None, {
        "trials": (int, 1000),
        "haar_seed": (int, None),
        "x": (float, None),
        "y": (float, None),
        "tol_braid": (float, 1e-12),
        "tol_inverse": (float, 1e-13),
    }, _cmd_verify_ybe),
    "charges": ("conserved-charge construction and commutation defects", "any", {
        "L": (int, 8), "ell": (int, 1), "sign": (str, "both"),
    }, _cmd_charges),
    "spectrum-stats": ("symmetry-resolved eigenphase gap-ratio statistics", "any", {
        "L": (int, 8),
        "boundary": (str, "periodic"),
        "two_gate": (bool, False),
        "realizations": (int, 1),
        "m_values": (str, None),
        "k_values": (str, None),
        "min_dim": (int, 2),
    }, _cmd_spectrum_stats),
    "rp-spectrum": ("truncated operator-propagator spectrum and gap fits", "any", {
        "r": (int, 3),
        "k": (float, 0.0),
        "r_list": (str, None),
        "eps_keep": (float, 0.25),
    }, _cmd_rp_spectrum),
    "szm": ("boundary magnetization autocorrelation (zero-mode probe)", "any", {
        "L": (int, 8),
        "steps": (int, 60),
        "method": (str, "exact-trace"),
        "samples": (int, 20),
        "sector": (str, None),
    }, _cmd_szm),
    "staggered-corr": ("staggered magnetization autocorrelation and decay fits", "any", {
        "L": (int, 8), "steps": (int, 60),
    }, _cmd_staggered_corr),
    "domain-wall": ("domain-wall profile evolution and transported charge", "any", {
        "L": (int, 8), "steps": (int, 60),
    }, _cmd_domain_wall),
    "time-reversal": ("anti-unitary symmetry construction report", "any", {
        "L": (int, 8), "boundary": (str, "open"),
    }, _cmd_time_reversal),
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
    record = {
        "subcommand": args.command,
        "parameters": params,
        "version": __version__,
        "root_seed": root,
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    sha = hashlib.sha256(blob.encode()).hexdigest()
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    outputs = []
    _help, _form, run_keys, handler = _COMMANDS[args.command]
    try:
        _require_finite_run(params["run"], run_keys)
        payload, tables, message, code = handler(params, root, sha)
    except ParameterError as exc:
        status, code = f"parameter-error: {exc}", 2
        print(f"mcbrick {args.command}: error: {exc}", file=sys.stderr)
    except (CapacityError, RefusalError) as exc:
        status, code = f"refused: {exc}", 3
        print(f"mcbrick {args.command}: refused: {exc}", file=sys.stderr)
    else:
        for name, header, rows in tables:
            lines = [f"# run_record_sha256: {sha}", ",".join(header)]
            lines += [",".join(_cell(v) for v in row) for row in rows]
            (outdir / name).write_text("\n".join(lines) + "\n")
            outputs.append(name)
        payload = {**payload, "run_record_sha256": sha}
        outputs.append(f"{args.command}.json")
        (outdir / outputs[-1]).write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n"
        )
        # a refusal the handler reports itself goes to stderr
        print(message, file=sys.stderr if code == 3 else sys.stdout)
        status = {0: "ok", 1: "verification-failed", 3: "refused"}[code]

    record.update(
        parameters=_finite_or_null(params),  # the hash covers the given values
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
