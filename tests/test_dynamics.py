"""Correlation series, typicality estimates, decay fits, domain walls."""

import numpy as np
import pytest

from mcbrick.core import (
    BrickworkCircuit,
    build_propagator,
    homogeneous_circuit,
    layer_bonds,
    propagator_apply,
    sector_states,
    site_spins,
    translation_permutation,
)
from mcbrick import dynamics
from mcbrick.dynamics import (
    _checked_sector_operators,
    _exact_autocorrelation,
    _staggered_weights,
    boundary_autocorrelation,
    decay_fits,
    domain_wall_evolution,
    staggered_correlation,
)
from mcbrick.errors import CapacityError, ParameterError, SymmetryError
from mcbrick.gates import (
    HamiltonianGateParams,
    gate_from_hamiltonian,
    gate_matrix,
    random_mc_gate,
)

from dense_oracles import dense_propagator, identity_gate


def phase_point(delta):
    p = HamiltonianGateParams(tau=np.pi / 3, delta=delta, B=0.5, D=0.5)
    return gate_from_hamiltonian(p)


def test_boundary_t0_normalization_and_fields():
    s = boundary_autocorrelation(phase_point(1.0), 8, 12)
    assert abs(s.values[0] - 1.0) < 1e-13
    assert s.method == "exact-trace"
    assert s.estimator_error is None
    assert s.times.tolist() == list(range(13))
    assert np.abs(s.values.imag).max() == 0 if np.iscomplexobj(s.values) else True


def test_boundary_phase_points_differ():
    sI = boundary_autocorrelation(phase_point(1.0), 8, 60)
    sII = boundary_autocorrelation(phase_point(1.4), 8, 60)
    assert sI.values[40:].min() > 0.1
    assert np.abs(sII.values[40:]).mean() < sI.values[40:].mean()


def _minus_corner_gate():
    # <00|g|00> = <11|g|11> = -1, so the L - 1 gates of an open chain give
    # the 1x1 sectors m = +-L the phase -1
    g = gate_matrix(random_mc_gate(8)).copy()
    g[0, 0] = g[3, 3] = -1.0
    return g


def test_exact_trace_matches_step_by_step_powers():
    # tr(U^-t A U^t A) from repeated dense products, over more steps than
    # one contraction block, against the eigenvalue-power contraction; the
    # identity and SWAP have highly degenerate spectra, and the 1x1 sectors
    # m = +-L carry the phase edge_phase
    L, steps = 6, 600
    weights = np.eye(L)[1]
    a = site_spins(np.arange(1 << L), L) @ weights
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    for gate, edge_phase in ((random_mc_gate(8), None), (identity_gate(), 1.0),
                             (swap, 1.0), (_minus_corner_gate(), -1.0)):
        circuit = homogeneous_circuit(gate, L, "open")
        u = dense_propagator(circuit)
        blocks = build_propagator(circuit)
        if edge_phase is not None:
            for m in (L, -L):
                s = sector_states(L, m)[0]
                assert abs(u[s, s] - edge_phase) < 1e-12
        for m_values, rows in ((None, np.arange(1 << L)), ([-2], sector_states(L, -2)),
                               ([L], sector_states(L, L))):
            ut = np.eye(1 << L, dtype=complex)
            want = np.empty(steps + 1)
            for t in range(steps + 1):
                heis = ut.conj().T @ (a[:, None] * ut)
                want[t] = np.einsum("ii,i->", heis[np.ix_(rows, rows)], a[rows]).real / len(rows)
                ut = u @ ut
            sectors = {m: blocks[m] for m in m_values or blocks}
            got = _exact_autocorrelation(sectors, weights, L, steps)
            assert np.abs(got - want).max() < 1e-12
            if np.array_equal(u, np.eye(1 << L)):
                assert np.abs(got - 1.0).max() < 1e-12  # C(t) = tr(A^2) / dim


def test_sector_traces_recombine_to_full_trace(monkeypatch):
    # the full trace is the dimension-weighted mean of the sector traces
    g = phase_point(1.4)
    L, steps = 8, 15
    full = boundary_autocorrelation(g, L, steps)
    from math import comb

    def every_block(circuit):
        raise AssertionError("a sector trace built every sector block")

    monkeypatch.setattr(dynamics, "build_propagator", every_block)

    acc = np.zeros(steps + 1)
    for m in range(-L, L + 1, 2):
        s = boundary_autocorrelation(g, L, steps, sector=m)
        assert abs(s.values[0] - 1.0) < 1e-12
        assert s.metadata["sector"] == m
        acc += comb(L, (L + m) // 2) * s.values
    assert np.abs(acc / 2**L - full.values).max() < 1e-10


def test_sector_removes_conserved_background():
    # away from half filling tr_m(sz_0) != 0 leaves a floor; at m=0 it is 0
    g = phase_point(1.4)
    sz_mean_sq = []
    for m in (0, 2):
        s = boundary_autocorrelation(g, 8, 40, sector=m)
        sz_mean_sq.append(np.abs(s.values[25:]).mean())
    assert sz_mean_sq[0] < 0.1
    assert sz_mean_sq[1] > (2 / 8) ** 2 * 0.9  # (m/L)^2 background survives


def test_sector_typicality_matches_exact():
    g = phase_point(1.0)
    ex = boundary_autocorrelation(g, 8, 25, sector=0)
    ty = boundary_autocorrelation(g, 8, 25, method="typicality", seed=11, sector=0)
    assert abs(ty.values[0] - 1.0) < 1e-13
    ok = np.abs(ty.values - ex.values) < 3 * np.maximum(ty.estimator_error, 1e-14)
    assert ok[1:].mean() >= 0.9


def test_sector_parameter_validation():
    g = phase_point(1.0)
    with pytest.raises(ParameterError):
        boundary_autocorrelation(g, 8, 5, sector=1)  # parity mismatch
    with pytest.raises(ParameterError):
        boundary_autocorrelation(g, 8, 5, sector=10)  # out of range
    with pytest.raises(ParameterError):
        boundary_autocorrelation(g, 8, 5, method="typicality", sector=-10)


def test_typicality_tracks_exact_within_errors():
    g = phase_point(1.0)
    exact = boundary_autocorrelation(g, 10, 60)
    typ = boundary_autocorrelation(g, 10, 60, method="typicality", seed=7)
    assert typ.estimator_error is not None
    assert abs(typ.values[0] - 1.0) < 1e-14
    assert typ.estimator_error[0] < 1e-14
    diff = np.abs(typ.values - exact.values)[1:]
    frac = (diff < 3 * typ.estimator_error[1:]).mean()
    assert frac >= 0.95
    assert typ.metadata["samples"] == 20


def test_method_and_capacity_guards():
    g = random_mc_gate(1)
    with pytest.raises(ParameterError):
        boundary_autocorrelation(g, 8, 5, method="montecarlo")
    with pytest.raises(CapacityError):
        boundary_autocorrelation(g, 14, 5)
    with pytest.raises(CapacityError):
        boundary_autocorrelation(g, 16, 5, method="typicality")


def test_staggered_normalization_and_guards():
    s = staggered_correlation(phase_point(1.0), 8, 30)
    assert abs(s.values[0] - 1.0) < 1e-12
    assert s.metadata["boundary"] == "periodic"
    assert s.metadata["fit"]["n_points"] >= 4
    flat = staggered_correlation(identity_gate(), 8, 10)
    assert np.ptp(flat.values) < 1e-12
    with pytest.raises(ParameterError):
        staggered_correlation(phase_point(1.0), 7, 10)
    with pytest.raises(CapacityError):
        staggered_correlation(phase_point(1.0), 14, 10)


@pytest.mark.parametrize("L, flips", [(6, False), (8, True), (10, False), (12, True)])
def test_staggered_magnetization_flips_under_a_cell_shift_only_for_even_cell_counts(L, flips):
    # with L/2 odd the two cells at the wrap carry the same sign
    a = site_spins(np.arange(1 << L), L) @ _staggered_weights(L)
    shifted = a[translation_permutation(np.arange(1 << L), L, 2)]
    assert np.array_equal(shifted, -a) is flips


def test_decay_fits_identify_models():
    t = np.arange(201)
    power = 2.0 * np.maximum(t, 1) ** -0.7
    fp = decay_fits(t, power)
    assert fp["t_min"] == 10.0 and fp["t_max"] == 200.0
    assert abs(fp["power_exponent"] + 0.7) < 1e-9
    assert fp["sse_ratio"] > 100
    expo = 1.5 * np.exp(-0.05 * t)
    fe = decay_fits(t, expo)
    assert abs(fe["exp_rate"] - 0.05) < 1e-9
    assert fe["sse_ratio"] < 1
    with pytest.raises(ParameterError):
        decay_fits(t[:3], power[:3])
    # near-zero points are dropped, not clamped into the fit
    dirty = power.copy()
    dirty[50] = 0.0
    assert decay_fits(t, dirty)["n_points"] == fp["n_points"] - 1


def test_domain_wall_profiles_and_conservation():
    dw = domain_wall_evolution(random_mc_gate(5), 8, 30)
    assert dw.profiles[0].tolist() == [1.0] * 4 + [-1.0] * 4
    assert dw.transported[0] == 0.0
    assert dw.metadata["magnetization_drift"] < 1e-12
    total = dw.profiles.sum(axis=1)
    assert np.abs(total - total[0]).max() < 1e-12
    static = domain_wall_evolution(identity_gate(), 8, 5)
    assert np.ptp(static.profiles, axis=0).max() < 1e-14
    with pytest.raises(ParameterError):
        domain_wall_evolution(random_mc_gate(1), 7, 5)
    with pytest.raises(CapacityError):
        domain_wall_evolution(random_mc_gate(1), 18, 5)


def full_space_domain_wall(gate, L, steps):
    # reference: the whole 2^L state stepped by propagator_apply
    circ = homogeneous_circuit(gate, L, "open")
    psi = np.zeros(1 << L, dtype=complex)
    psi[((1 << (L // 2)) - 1) << (L // 2)] = 1.0
    sz = site_spins(np.arange(1 << L), L).T
    profiles = [sz @ np.abs(psi) ** 2]
    for _ in range(steps):
        psi = propagator_apply(circ, psi)
        profiles.append(sz @ np.abs(psi) ** 2)
    return np.array(profiles)


@pytest.mark.parametrize("L", [8, 10])
@pytest.mark.parametrize("gate", [random_mc_gate(5), phase_point(1.0), phase_point(1.4)],
                         ids=["random", "phase-I", "phase-II"])
def test_domain_wall_matches_full_space_evolution(L, gate):
    dw = domain_wall_evolution(gate, L, 40)
    assert np.abs(dw.profiles - full_space_domain_wall(gate, L, 40)).max() < 1e-12
    assert dw.metadata["magnetization_drift"] < 1e-12


def full_space_typicality(gate, L, steps, seed, samples, sector):
    # reference: one full 2^L vector per sample, drawn as the estimator draws
    circ = homogeneous_circuit(gate, L, "open")
    a = site_spins(np.arange(1 << L), L)[:, 0]
    support = np.arange(1 << L) if sector is None else sector_states(L, sector)
    rng = np.random.default_rng(seed)
    est = np.empty((samples, steps + 1))
    for s in range(samples):
        v = np.zeros(1 << L, dtype=complex)
        v[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
        v /= np.linalg.norm(v)
        w = a * v
        for t in range(steps + 1):
            if t:
                v, w = propagator_apply(circ, v), propagator_apply(circ, w)
            est[s, t] = np.vdot(v, a * w).real
    return est.mean(axis=0), est.std(axis=0, ddof=1) / np.sqrt(samples)


@pytest.mark.parametrize("sector", [None, 0])
def test_typicality_matches_full_space_reference(sector):
    g = phase_point(1.4)
    got = boundary_autocorrelation(g, 8, 30, method="typicality", seed=5, samples=4,
                                   sector=sector)
    values, err = full_space_typicality(g, 8, 30, 5, 4, sector)
    assert np.abs(got.values - values).max() < 1e-12
    assert np.abs(got.estimator_error - err).max() < 1e-12


def test_evolution_refuses_gates_that_are_not_mc():
    # exp(-i 0.3 XX) moves weight between |00> and |11>
    g = np.cos(0.3) * np.eye(4) - 1j * np.sin(0.3) * np.fliplr(np.eye(4))
    with pytest.raises(SymmetryError, match="not magnetization conserving"):
        domain_wall_evolution(g, 8, 3)
    with pytest.raises(SymmetryError, match="not magnetization conserving"):
        boundary_autocorrelation(g, 8, 3, method="typicality", seed=0)


def test_evolution_refuses_a_non_mc_gate_on_any_bond():
    # the step operators shared by the domain wall and typicality
    L = 8
    bad = np.cos(0.3) * np.eye(4) - 1j * np.sin(0.3) * np.fliplr(np.eye(4))
    good = gate_matrix(random_mc_gate(2))
    states = sector_states(L, 0)
    col = np.ones(states.size, dtype=complex) / np.sqrt(states.size)
    for i in (0, 1):
        for j in range(len(layer_bonds(L, "open", i))):
            layers = [[good] * len(layer_bonds(L, "open", n)) for n in (0, 1)]
            layers[i][j] = bad
            circ = BrickworkCircuit(L, layers, "open")
            for what in ("domain-wall", "typicality"):
                with pytest.raises(SymmetryError, match="not magnetization conserving"):
                    _checked_sector_operators(circ, 0, states, col, what)
