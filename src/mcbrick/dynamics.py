"""Infinite-temperature correlators and polarized-state evolution.

Autocorrelations tr(A(t) A)/2^L of diagonal observables are computed
either exactly or by typicality.  The exact trace works per magnetization
sector: one Schur form of the sector propagator, then one contraction of
the matrix-element weights with the matrix of eigenvalue powers, so 200
time steps cost one diagonalization and a few matrix products.  The
sector propagators are still sliced out of the dense build_propagator.

Typicality averages <v|A(t)A|v> over normalized Gaussian random vectors,
and the domain wall evolves one polarized state.  An MC circuit never
leaves a magnetization sector, so both evolve sector amplitudes only,
with the cached sparse bond operators of core.sector_operators: the
domain wall in its own sector (m = 0), typicality with the v and A v
pieces of all samples as the columns of one array per sector, the
overlaps summed over sectors.  Every evolution checks its first step on
one column against the full-space propagator_apply.
"""

from math import comb

import numpy as np
from dataclasses import dataclass, field

import scipy.linalg

from .core import (
    FULL_DENSE_MAX_L,
    build_propagator,
    check_sector_column,
    homogeneous_circuit,
    magnetization_of,
    propagator_apply,
    sector_operators,
    sector_states,
    sector_step,
)
from .errors import CapacityError, ParameterError

__all__ = [
    "CorrelationSeries",
    "DecayFitComparison",
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
class DecayFitComparison:
    """Least-squares fits of log|C| against log t (power) and t (exponential)."""

    t_min: float
    t_max: float
    n_points: int
    power_exponent: float
    power_sse: float
    exp_rate: float
    exp_sse: float
    sse_ratio: float


@dataclass
class DomainWallResult:
    times: np.ndarray
    profiles: np.ndarray  # (steps+1, L) site-resolved <sigma^z_j(t)>
    transported: np.ndarray  # flips moved into the initially-down half
    metadata: dict = field(default_factory=dict)


def _sz_diagonal(L, site):
    """Diagonal of sigma^z at `site` (site 0 is the leftmost/most significant bit)."""
    bits = (np.arange(1 << L) >> (L - 1 - site)) & 1
    return np.where(bits == 1, 1.0, -1.0)


def _staggered_diagonal(L):
    """Diagonal of sum_j (-1)^j (sigma^z on both sites of cell j)."""
    a = np.zeros(1 << L)
    for cell in range(L // 2):
        sign = -1.0 if cell % 2 == 0 else 1.0
        a += sign * (_sz_diagonal(L, 2 * cell) + _sz_diagonal(L, 2 * cell + 1))
    return a


def _exact_autocorrelation(U, a, L, steps, m_values=None):
    """Normalized tr(U^-t A U^t A) for diagonal A over magnetization sectors.

    Each unitary sector block is brought to Schur (here: diagonal) form
    once; with w = |<alpha|A|beta>|^2 and V[a, t] = lambda_a^t the series
    is Re sum_a conj(V) (w V), contracted over blocks of at most
    _TIME_BLOCK steps with the power carried from block to block.
    m_values selects sectors (by number of up spins); the default is all
    of them, i.e. the full trace, and the normalization is always the
    summed sector dimension.
    """
    occ = (magnetization_of(np.arange(1 << L), L) + L) // 2
    if m_values is None:
        m_values = range(L + 1)
    vals = np.zeros(steps + 1)
    dim = 0
    for m in m_values:
        idx = np.flatnonzero(occ == m)
        dim += len(idx)
        t_form, q = scipy.linalg.schur(U[np.ix_(idx, idx)], output="complex")
        lam = np.diag(t_form).copy()
        lam /= np.abs(lam)
        atil = q.conj().T @ (a[idx, None] * q)
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
    ops = sector_operators(circuit.layer_pairs(), circuit.L, m)
    full = np.zeros(1 << circuit.L, dtype=complex)
    full[states] = col
    check_sector_column(propagator_apply(circuit, full), sector_step(ops, col), states, what)
    return ops


def _check_steps(steps):
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")


def _sector_up_count(L, sector):
    """Number of up spins for a total-sigma^z sector value."""
    if (L + sector) % 2 or not 0 <= (L + sector) // 2 <= L:
        raise ParameterError(f"magnetization {sector} impossible for L={L}")
    return (L + sector) // 2


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

    method "exact-trace" needs L within the dense-propagator cap;
    "typicality" estimates the trace from `samples` normalized Gaussian
    vectors (error bar = sample standard error) and reaches L = 14.

    sector restricts the trace to one total-sigma^z sector (and the
    normalization to that sector's dimension).  The full trace carries a
    conserved background sum_m (tr_m sigma^z_0)^2 / (dim_m 2^L) ~ 1/L
    that never decays; in the half-filling sector tr_m sigma^z_0 = 0, so
    the series there decays to zero whenever no zero mode survives.
    """
    _check_steps(steps)
    base = {"L": L, "boundary": "open", "site": 0, "steps": steps, "sector": sector}
    times = np.arange(steps + 1)
    m_sel = None if sector is None else [_sector_up_count(L, sector)]
    if method == "exact-trace":
        if L > FULL_DENSE_MAX_L:
            raise CapacityError(
                f"exact trace limited to L <= {FULL_DENSE_MAX_L}; use typicality"
            )
        circuit = homogeneous_circuit(gate, L, "open")
        a = _sz_diagonal(L, 0)
        vals = _exact_autocorrelation(
            build_propagator(circuit).entries, a, L, steps, m_sel
        )
        return CorrelationSeries(times, vals, method, None, base)
    if method != "typicality":
        raise ParameterError(f"method must be exact-trace or typicality, got {method!r}")
    if samples < 2:
        raise ParameterError(f"typicality needs samples >= 2 for an error bar, got {samples}")
    if L > TYPICALITY_MAX_L:
        raise CapacityError(f"typicality limited to L <= {TYPICALITY_MAX_L}")
    circuit = homogeneous_circuit(gate, L, "open")
    a = _sz_diagonal(L, 0)
    rng = np.random.default_rng(seed)
    # all samples drawn up front, in the order of a per-sample loop
    size = 1 << L if sector is None else comb(L, m_sel[0])
    draws = np.empty((samples, size), dtype=complex)
    for s in range(samples):
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        draws[s] = v / np.linalg.norm(v)
    est = np.zeros((samples, steps + 1))
    for m in range(-L, L + 1, 2) if sector is None else [sector]:
        states = sector_states(L, m)
        am = a[states, None]
        x = np.empty((states.size, 2 * samples), dtype=complex)  # v_s, then A v_s
        x[:, :samples] = draws[:, states].T if sector is None else draws.T
        np.multiply(am, x[:, :samples], out=x[:, samples:])
        ops = _checked_sector_operators(circuit, m, states, x[:, 0], "typicality")
        for t in range(steps + 1):
            if t:
                x = sector_step(ops, x)
            est[:, t] += (x[:, :samples].conj() * (am * x[:, samples:])).sum(axis=0).real
    err = est.std(axis=0, ddof=1) / np.sqrt(samples)
    meta = dict(base, samples=samples, seed=seed)
    return CorrelationSeries(times, est.mean(axis=0), method, err, meta)


def staggered_correlation(gate, L, steps):
    """C(t) = tr(S(t) S)/(L 2^L) on the ring, S the staggered cell magnetization.

    S flips sign under a one-cell shift, so this probes the k = pi sector.
    The series keeps its oscillations; a power-law/exponential fit
    comparison on the window [t_max/20, t_max] is attached as metadata.
    """
    _check_steps(steps)
    if L % 2:
        raise ParameterError("staggered magnetization needs an even number of sites")
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"exact trace limited to L <= {FULL_DENSE_MAX_L}")
    circuit = homogeneous_circuit(gate, L, "periodic")
    a = _staggered_diagonal(L)
    vals = _exact_autocorrelation(build_propagator(circuit).entries, a, L, steps) / L
    times = np.arange(steps + 1)
    meta = {"L": L, "boundary": "periodic", "steps": steps, "oscillations": "retained"}
    series = CorrelationSeries(times, vals, "exact-trace", None, meta)
    if steps >= 20:
        fit = decay_fits(times, vals)
        series.metadata["fit"] = fit.__dict__.copy()
    return series


def decay_fits(times, values, t_min=None, t_max=None):
    """Compare power-law and exponential decay on a time window.

    Both models are linear fits of log|C|: against log t (power law,
    slope = exponent) and against t (exponential, slope = -rate); the
    shared response makes the summed squared residuals comparable.
    Points with |C| below the fit floor are dropped, not clamped.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if t_max is None:
        t_max = float(times.max())
    if t_min is None:
        t_min = t_max / 20.0
    mask = (times >= t_min) & (times <= t_max) & (np.abs(values) > FIT_FLOOR)
    if mask.sum() < 4:
        raise ParameterError("fit window holds fewer than 4 usable points")
    t = times[mask]
    y = np.log(np.abs(values[mask]))
    p_slope, p_int = np.polyfit(np.log(t), y, 1)
    power_sse = float(np.sum((y - (p_slope * np.log(t) + p_int)) ** 2))
    e_slope, e_int = np.polyfit(t, y, 1)
    exp_sse = float(np.sum((y - (e_slope * t + e_int)) ** 2))
    return DecayFitComparison(
        t_min=float(t_min),
        t_max=float(t_max),
        n_points=int(mask.sum()),
        power_exponent=float(p_slope),
        power_sse=power_sse,
        exp_rate=float(-e_slope),
        exp_sse=exp_sse,
        sse_ratio=float(exp_sse / power_sse) if power_sse > 0 else np.inf,
    )


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
    if L % 2:
        raise ParameterError("domain wall needs an even number of sites")
    if not 2 <= L <= DOMAIN_WALL_MAX_L:
        raise CapacityError(f"state evolution limited to L <= {DOMAIN_WALL_MAX_L}")
    circuit = homogeneous_circuit(gate, L, "open")
    half = L // 2
    states = sector_states(L, 0)
    x = np.zeros(states.size, dtype=complex)
    x[np.searchsorted(states, ((1 << half) - 1) << half)] = 1.0
    ops = _checked_sector_operators(circuit, 0, states, x, "domain-wall")
    sz = np.where((states >> (L - 1 - np.arange(L))[:, None]) & 1, 1.0, -1.0)
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
