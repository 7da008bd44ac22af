"""Infinite-temperature correlators and polarized-state evolution.

Autocorrelations tr(A(t) A)/2^L of diagonal observables are computed
either exactly or by typicality.  The exact trace works per magnetization
sector: one eigendecomposition of the sector's propagator block (by
core.unitary_phases, a Hermitian eigensolve of its Cayley transform),
then one contraction of the matrix-element weights with the matrix of
eigenvalue powers, so 200 time steps cost one diagonalization and a few
matrix products.

Typicality averages <v|A(t)A|v> over normalized Gaussian random vectors,
and the domain wall evolves one polarized state.  An MC circuit never
leaves a magnetization sector, so both evolve sector amplitudes only,
with the grouped layer operators of core.layer_operators (one sparse
product per group of disjoint bonds, a few per step): the domain wall in
its own sector (m = 0), typicality with the v and A v pieces of all
samples as the columns of one array per sector, the overlaps summed over
sectors.  Every evolution checks its first step on one column against
the full-space propagator_apply.
"""

from math import comb

import numpy as np
from dataclasses import dataclass, field

from .core import (
    FULL_DENSE_MAX_L,
    build_propagator,
    build_sector_block,
    check_sector_column,
    homogeneous_circuit,
    layer_operators,
    propagator_apply,
    sector_basis,
    sector_states,
    sector_step,
    site_spins,
    unitary_phases,
)
from .errors import CapacityError, ParameterError

__all__ = [
    "CorrelationSeries",
    "DomainWallResult",
    "boundary_autocorrelation",
    "staggered_correlation",
    "domain_wall_evolution",
    "decay_fits",
]

TYPICALITY_MAX_L = 14
DOMAIN_WALL_MAX_L = 16
TYPICALITY_SAMPLES = 20
FIT_FLOOR = 1e-14
FIT_WINDOW_RATIO = 20.0  # decay fits use the window [t_max / ratio, t_max]
_TIME_BLOCK = 256  # time steps per power-matrix contraction in the exact trace


@dataclass
class CorrelationSeries:
    """Correlation values at integer circuit steps.

    estimator_error is the per-point sample standard error and is only
    set by the typicality estimator.
    """

    times: np.ndarray
    values: np.ndarray
    method: str
    estimator_error: np.ndarray = None
    metadata: dict = field(default_factory=dict)


@dataclass
class DomainWallResult:
    times: np.ndarray
    profiles: np.ndarray  # (steps+1, L) site-resolved <sigma^z_j(t)>
    transported: np.ndarray  # flips moved into the initially-down half
    metadata: dict = field(default_factory=dict)


def _staggered_weights(L):
    """Site weights of S = sum_j (-1)^(j+1) (sigma^z on both sites of cell j)."""
    return np.repeat(np.resize([-1.0, 1.0], L // 2), 2)


def _exact_autocorrelation(blocks, weights, L, steps):
    """Normalized tr(U^-t A U^t A) for A = sum_j weights[j] sigma^z_j, per sector.

    blocks holds the propagator's sector blocks {m: block} of the sectors
    to trace.  On the rows states = sector_states(L, m), A's diagonal is
    site_spins(states, L) @ weights, and each block is diagonalized once
    by unitary_phases, its eigenvectors orthonormal even where eigenphases
    are degenerate; with w = |<alpha|A|beta>|^2 and V[a, t] = lambda_a^t
    the series is Re sum_a conj(V) (w V), contracted over blocks of at
    most _TIME_BLOCK steps with the power carried from block to block.
    The normalization is the summed dimension of the given sectors.
    """
    vals = np.zeros(steps + 1)
    dim = 0
    for m, block in blocks.items():
        dim += len(block)
        phases, q = unitary_phases(block, vectors=True)
        lam = np.exp(1j * phases)
        atil = q.conj().T @ ((site_spins(sector_states(L, m), L) @ weights)[:, None] * q)
        w = np.abs(atil) ** 2
        power = np.ones_like(lam)
        for start in range(0, steps + 1, _TIME_BLOCK):
            n = min(_TIME_BLOCK, steps + 1 - start)
            v = np.empty((lam.size, n), dtype=complex)
            v[:, 0] = power
            v[:, 1:] = lam[:, None]
            np.cumprod(v, axis=1, out=v)
            power = v[:, -1] * lam
            vals[start : start + n] += (v.conj() * (w @ v)).real.sum(axis=0)
    return vals / dim


def _checked_sector_operators(circuit, m, states, col, what):
    """Step operators of sector m, their first step checked on one column.

    col (amplitudes on the sector rows `states`) is stepped once by the
    sector kernel and once by the full-space propagator_apply, and the two
    must agree (core.check_sector_column).  Non-MC gates are refused.
    """
    ops = layer_operators(circuit, m)
    check_sector_column(propagator_apply, circuit, col, sector_step(ops, col), states, what)
    return ops


def _check_steps(steps):
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")


def boundary_autocorrelation(
    gate,
    L,
    steps,
    method="exact-trace",
    seed=None,
    samples=TYPICALITY_SAMPLES,
    sector=None,
):
    """Normalized tr(sigma^z_0(t) sigma^z_0) for the open homogeneous circuit.

    method "exact-trace" needs L within the propagator-block cap;
    "typicality" estimates the trace from `samples` normalized Gaussian
    vectors (error bar = sample standard error) and reaches L = 14.

    sector restricts the trace to one total-sigma^z sector (and the
    normalization to that sector's dimension).  The full trace carries a
    conserved background sum_m (tr_m sigma^z_0)^2 / (dim_m 2^L) ~ 1/L
    that never decays; in the half-filling sector tr_m sigma^z_0 = 0, so
    the series there decays to zero whenever no zero mode survives.
    """
    _check_steps(steps)
    if sector is not None and ((L + sector) % 2 or not -L <= sector <= L):
        raise ParameterError(f"magnetization {sector} impossible for L={L}")
    base = {"L": L, "boundary": "open", "site": 0, "steps": steps, "sector": sector}
    times = np.arange(steps + 1)
    m_values = range(-L, L + 1, 2) if sector is None else [sector]
    if method == "exact-trace":
        if L > FULL_DENSE_MAX_L:
            raise CapacityError(f"exact trace limited to L <= {FULL_DENSE_MAX_L}; use typicality")
        circuit = homogeneous_circuit(gate, L, "open")
        blocks = (build_propagator(circuit) if sector is None
                  else {sector: build_sector_block(circuit, sector_basis(L, sector))})
        vals = _exact_autocorrelation(blocks, np.eye(L)[0], L, steps)
        return CorrelationSeries(times, vals, method, None, base)
    if method != "typicality":
        raise ParameterError(f"method must be exact-trace or typicality, got {method!r}")
    if samples < 2:
        raise ParameterError(f"typicality needs samples >= 2 for an error bar, got {samples}")
    if L > TYPICALITY_MAX_L:
        raise CapacityError(f"typicality limited to L <= {TYPICALITY_MAX_L}")
    circuit = homogeneous_circuit(gate, L, "open")
    rng = np.random.default_rng(seed)
    # all samples drawn up front, in the order of a per-sample loop
    size = 1 << L if sector is None else comb(L, (L + sector) // 2)
    draws = np.empty((samples, size), dtype=complex)
    for s in range(samples):
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        draws[s] = v / np.linalg.norm(v)
    est = np.zeros((samples, steps + 1))
    for m in m_values:
        states = sector_states(L, m)
        am = site_spins(states, L)[:, :1]
        x = np.empty((states.size, 2 * samples), dtype=complex)  # v_s, then A v_s
        x[:, :samples] = draws[:, states].T if sector is None else draws.T
        np.multiply(am, x[:, :samples], out=x[:, samples:])
        ops = _checked_sector_operators(circuit, m, states, x[:, 0], "typicality")
        for t in range(steps + 1):
            if t:
                x = sector_step(ops, x)
            est[:, t] += np.vecdot(x[:, :samples], am * x[:, samples:], axis=0).real
    err = est.std(axis=0, ddof=1) / np.sqrt(samples)
    meta = dict(base, samples=samples, seed=seed)
    return CorrelationSeries(times, est.mean(axis=0), method, err, meta)


def staggered_correlation(gate, L, steps):
    """C(t) = tr(S(t) S)/(L 2^L) on the ring, S the staggered cell magnetization.

    S = sum_j (-1)^(j+1) (sigma^z on both sites of cell j) over the L/2
    cells (_staggered_weights); C(t) is quadratic in S, so its sign is moot.
    For L = 0 mod 4 the cell count is even, S flips sign under a one-cell
    shift and this probes the k = pi sector.  For L = 2 mod 4 the two
    cells at the wrap carry the same sign, so S is no shift eigenoperator
    and has weight at other momenta too.  The series keeps its
    oscillations; a power-law/exponential fit comparison on the window
    [t_max/20, t_max] is attached as metadata.
    """
    _check_steps(steps)
    if L % 2:
        raise ParameterError("staggered magnetization needs an even number of sites")
    circuit = homogeneous_circuit(gate, L, "periodic")
    vals = _exact_autocorrelation(build_propagator(circuit), _staggered_weights(L), L, steps) / L
    times = np.arange(steps + 1)
    meta = {"L": L, "boundary": "periodic", "steps": steps, "oscillations": "retained"}
    series = CorrelationSeries(times, vals, "exact-trace", None, meta)
    if steps >= 20:
        series.metadata["fit"] = decay_fits(times, vals)
    return series


def decay_fits(times, values):
    """Compare power-law and exponential decay on [t_max / FIT_WINDOW_RATIO, t_max].

    Both models are linear fits of log|C|: against log t (power law,
    slope = exponent) and against t (exponential, slope = -rate); the
    shared response makes the summed squared residuals comparable.
    Points with |C| below the fit floor are dropped, not clamped.
    Returns a dict of the window, the point count, both slopes, both
    squared-residual sums and their ratio exp_sse / power_sse.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_max = float(times.max())
    t_min = t_max / FIT_WINDOW_RATIO
    mask = (times >= t_min) & (times <= t_max) & (np.abs(values) > FIT_FLOOR)
    if mask.sum() < 4:
        raise ParameterError("fit window holds fewer than 4 usable points")
    t = times[mask]
    y = np.log(np.abs(values[mask]))
    p_slope, p_int = np.polyfit(np.log(t), y, 1)
    power_sse = float(np.sum((y - (p_slope * np.log(t) + p_int)) ** 2))
    e_slope, e_int = np.polyfit(t, y, 1)
    exp_sse = float(np.sum((y - (e_slope * t + e_int)) ** 2))
    return {
        "t_min": float(t_min),
        "t_max": float(t_max),
        "n_points": int(mask.sum()),
        "power_exponent": float(p_slope),
        "power_sse": power_sse,
        "exp_rate": float(-e_slope),
        "exp_sse": exp_sse,
        "sse_ratio": float(exp_sse / power_sse) if power_sse > 0 else np.inf,
    }


def domain_wall_evolution(gate, L, steps):
    """Evolve |up...up down...down> and track the magnetization profile.

    The wall lies in the m = 0 sector and an MC circuit never leaves it, so
    only the sector amplitudes are evolved (core.sector_step), and the
    profiles are read off the sector bitstrings.  Returns per-site
    <sigma^z_j(t)> and the transported magnetization (number of flips moved
    into the initially-down half).  metadata["magnetization_drift"] is the
    sector-norm drift max_t | ||x(t)||^2 - 1 |: the weight the evolution
    lost from, or gained in, the sector.
    """
    _check_steps(steps)
    if L % 2 or L < 2:
        raise ParameterError(f"domain wall needs an even number of sites L >= 2, got L={L}")
    if L > DOMAIN_WALL_MAX_L:
        raise CapacityError(f"state evolution limited to L <= {DOMAIN_WALL_MAX_L}")
    circuit = homogeneous_circuit(gate, L, "open")
    half = L // 2
    states = sector_states(L, 0)
    x = np.zeros(states.size, dtype=complex)
    x[np.searchsorted(states, ((1 << half) - 1) << half)] = 1.0
    ops = _checked_sector_operators(circuit, 0, states, x, "domain-wall")
    sz = np.ascontiguousarray(site_spins(states, L).T)
    profiles = np.empty((steps + 1, L))
    drift = 0.0
    for t in range(steps + 1):
        if t:
            x = sector_step(ops, x)
        prob = np.abs(x) ** 2
        profiles[t] = sz @ prob
        drift = max(drift, abs(float(prob.sum()) - 1.0))
    transported = 0.5 * (profiles[:, half:] - profiles[0, half:]).sum(axis=1)
    meta = {
        "L": L,
        "boundary": "open",
        "steps": steps,
        "magnetization_drift": drift,
        "interface_bond": (half - 1, half),
    }
    return DomainWallResult(np.arange(steps + 1), profiles, transported, meta)
