"""Time reversal: single-gate antiunitary, DM removal, global construction."""

import itertools

import numpy as np
import pytest

from mcbrick.core import (
    BrickworkCircuit,
    homogeneous_circuit,
    layer_bonds,
    propagator_apply,
    unitary_phases,
)
from mcbrick import symmetry
from mcbrick.errors import CapacityError, ParameterError, TimeReversalRefusal
from mcbrick.gates import (
    HaarGateParams,
    HamiltonianGateParams,
    gate_from_haar,
    gate_from_hamiltonian,
    haar_params_from_gate,
    random_mc_gate,
)
from mcbrick.rmatrix import classify_phase_hamiltonian
from mcbrick.symmetry import (
    closure_defect,
    equivalent_circuit,
    global_time_reversal,
    reversal_residual,
    site_phases,
    spectral_match_error,
    time_reversal_report,
)

from dense_oracles import (
    dense_propagator,
    dm_rotation_gate,
    rotate_out_dm,
    single_gate_time_reversal,
)


def disordered_circuit(L, boundary, seed):
    layers = []
    for i in (0, 1):
        n = len(layer_bonds(L, boundary, i))
        layers.append([random_mc_gate(seed + 100 * i + j) for j in range(n)])
    return BrickworkCircuit(L, layers, boundary)


def test_single_gate_reversal():
    for seed in range(50):
        g = random_mc_gate(seed)
        t1 = single_gate_time_reversal(g)
        assert np.abs(t1 * t1.conj() - 1.0).max() < 1e-14  # T1^2 = 1
        assert reversal_residual(t1, g.matrix) < 1e-12


def test_single_gate_theta_zero_is_plain_conjugation():
    g = gate_from_haar(HaarGateParams(0.3, 0.7, 0.4, 1.1, 0.0))
    t1 = single_gate_time_reversal(g)
    assert np.allclose(t1, 1.0, atol=1e-13)
    assert reversal_residual(t1, g.matrix) < 1e-13


def test_rotate_out_dm_matches_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        tau = rng.uniform(0.05, 1.2)
        de, b, d, m, a = rng.uniform(-1.2, 1.2, size=5)
        p = HamiltonianGateParams(tau=tau, delta=de, B=b, D=d, M=m, A=a)
        p2 = rotate_out_dm(p)
        assert p2.D == 0.0
        assert np.isclose(p2.J, np.hypot(1.0, d))
        w = dm_rotation_gate(p).matrix
        g = gate_from_hamiltonian(p).matrix
        g2 = gate_from_hamiltonian(p2).matrix
        assert np.abs(w @ g @ w.conj().T - g2).max() < 1e-13


def test_rotate_out_dm_general_hopping():
    p = HamiltonianGateParams(tau=0.4, delta=0.6, B=0.1, D=-0.5, M=0.2, A=0.3, J=0.7)
    p2 = rotate_out_dm(p)
    assert np.isclose(p2.J, np.hypot(0.7, 0.5)) and p2.D == 0.0
    w = dm_rotation_gate(p).matrix
    g = gate_from_hamiltonian(p).matrix
    assert np.abs(w @ g @ w.conj().T - gate_from_hamiltonian(p2).matrix).max() < 1e-13


def test_rotate_out_dm_preserves_phase_label():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = HamiltonianGateParams(
            tau=rng.uniform(0.05, 1.5),
            delta=rng.uniform(-2.5, 2.5),
            B=rng.uniform(-1.0, 1.0),
            D=rng.uniform(-1.0, 1.0),
        )
        c1 = classify_phase_hamiltonian(p)
        c2 = classify_phase_hamiltonian(rotate_out_dm(p))
        assert c1.label == c2.label
        if not (c1.singular or c2.singular):
            assert np.isclose(c1.lhs, c2.lhs, rtol=1e-10, atol=1e-12)


def test_equivalent_circuit_preserves_spectrum():
    for boundary in ("open", "periodic"):
        circ = disordered_circuit(8, boundary, seed=40)
        sym = equivalent_circuit(circ)
        u = dense_propagator(circ)
        ut = dense_propagator(sym)
        assert spectral_match_error(u, ut) < 1e-10
        # only a two-layer period can be symmetrized or reversed
        for func in (equivalent_circuit, global_time_reversal, closure_defect):
            with pytest.raises(ParameterError):
                func(sym)


def test_symmetrized_circuit_state_application():
    circ = disordered_circuit(6, "open", seed=77)
    sym = equivalent_circuit(circ)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    dense = dense_propagator(sym)
    assert np.abs(propagator_apply(sym, psi) - dense @ psi).max() < 1e-12


def test_global_reversal_open_chain():
    for seed in (1, 2):
        circ = disordered_circuit(8, "open", seed=300 * seed)
        sym = equivalent_circuit(circ)
        tr = site_phases(global_time_reversal(circ), np.arange(1 << 8), 8)
        assert np.abs(tr * tr.conj() - 1.0).max() < 1e-13  # T^2 = 1
        ut = dense_propagator(sym)
        assert reversal_residual(tr, ut) < 1e-11
        # the unsymmetrized period does not reverse: layer order obstructs it
        u = dense_propagator(circ)
        assert reversal_residual(tr, u) > 1e-3


def test_global_reversal_homogeneous_open():
    p = HamiltonianGateParams(tau=0.43, delta=0.9, B=0.25, D=0.55, M=0.1, A=-0.2)
    circ = homogeneous_circuit(gate_from_hamiltonian(p), 8, "open")
    rep = time_reversal_report(circ)
    assert rep["boundary"] == "open" and rep["L"] == 8
    assert rep["residual_TR"] < 1e-11
    assert rep["spectral_match_error"] < 1e-10
    assert rep["angle_defect"] == 0.0


def test_ring_refusal_carries_defect():
    p = HamiltonianGateParams(tau=0.5, delta=0.8, B=0.2, D=0.6, M=0.0, A=0.1)
    ring = homogeneous_circuit(gate_from_hamiltonian(p), 8, "periodic")
    defect = closure_defect(ring)
    assert abs(defect) > 1e-3
    with pytest.raises(TimeReversalRefusal) as exc:
        global_time_reversal(ring)
    assert np.isclose(exc.value.angle_defect, defect)
    assert abs(exc.value.angle_defect) <= np.pi / 2


def test_fine_tuned_ring_reverses():
    # D = 1 makes the bond angle -pi/4, so eight bonds telescope to -2 pi;
    # four bonds sum to -pi, which closes too: the obstruction has period pi
    p = HamiltonianGateParams(tau=0.5, delta=0.8, B=0.2, D=1.0, M=0.0, A=0.1)
    for L in (8, 4):
        ring = homogeneous_circuit(gate_from_hamiltonian(p), L, "periodic")
        rep = time_reversal_report(ring)
        assert abs(rep["angle_defect"]) < 1e-9
        assert rep["residual_TR"] < 1e-11
        assert rep["spectral_match_error"] < 1e-10


def dense_report(circuit):
    """The time-reversal report from the two dense propagators."""
    tr = site_phases(global_time_reversal(circuit), np.arange(1 << circuit.L), circuit.L)
    u = dense_propagator(circuit)
    ut = dense_propagator(equivalent_circuit(circuit))
    return {
        "boundary": circuit.boundary,
        "L": circuit.L,
        "residual_TR": reversal_residual(tr, ut),
        "spectral_match_error": spectral_match_error(u, ut),
        "angle_defect": closure_defect(circuit),
    }


FINE_TUNED = HamiltonianGateParams(tau=0.5, delta=0.8, B=0.2, D=1.0, M=0.0, A=0.1)
HOMOGENEOUS = HamiltonianGateParams(tau=0.43, delta=0.9, B=0.25, D=0.55, M=0.1, A=-0.2)
NO_HOPPING = HamiltonianGateParams(tau=0.7, delta=0.3, B=0.4, J=0.0)

REPORT_CIRCUITS = {
    "disordered-open-8a": lambda: disordered_circuit(8, "open", seed=300),
    "disordered-open-8b": lambda: disordered_circuit(8, "open", seed=600),
    "homogeneous-open-8": lambda: homogeneous_circuit(gate_from_hamiltonian(HOMOGENEOUS), 8, "open"),
    "fine-tuned-ring-4": lambda: homogeneous_circuit(gate_from_hamiltonian(FINE_TUNED), 4, "periodic"),
    "fine-tuned-ring-8": lambda: homogeneous_circuit(gate_from_hamiltonian(FINE_TUNED), 8, "periodic"),
    # central blocks with no hopping: a z rotation, and no rotation at all
    "no-hopping-open-8": lambda: homogeneous_circuit(gate_from_hamiltonian(NO_HOPPING), 8, "open"),
    "identity-open-8": lambda: homogeneous_circuit(np.eye(4, dtype=complex), 8, "open"),
}


def assert_reports_close(rep, want):
    assert sorted(rep) == sorted(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(rep[key] - value) <= 1e-12, key
        else:
            assert rep[key] == value, key


@pytest.mark.parametrize("make", REPORT_CIRCUITS.values(), ids=REPORT_CIRCUITS.keys())
def test_sector_report_matches_dense_oracle(make):
    circ = make()
    assert_reports_close(time_reversal_report(circ), dense_report(circ))


def twin_bond_angles(circuit):
    """Bond angles read from the symmetrized twin's gates, the ones T reverses."""
    theta = {}
    for gate, (a, _b) in equivalent_circuit(circuit).layer_pairs():
        theta.setdefault(a, haar_params_from_gate(gate).params.theta_v)
    return np.array([theta[a] for a in sorted(theta)])


def report_or_refusal(circuit):
    try:
        return time_reversal_report(circuit)
    except TimeReversalRefusal as exc:
        return {"refused": True, "angle_defect": exc.angle_defect}


@pytest.mark.parametrize("make", [
    *REPORT_CIRCUITS.values(),
    lambda: disordered_circuit(8, "periodic", seed=900),
    lambda: homogeneous_circuit(gate_from_hamiltonian(HOMOGENEOUS), 8, "periodic"),
], ids=[*REPORT_CIRCUITS.keys(), "disordered-ring-8", "homogeneous-ring-8"])
def test_period_bond_angles_are_the_twins_mod_pi(make, monkeypatch):
    circ = make()
    diff = symmetry._bond_angles(circ) - twin_bond_angles(circ)
    assert np.abs((diff + np.pi / 2) % np.pi - np.pi / 2).max() <= 1e-12
    rep = report_or_refusal(circ)
    monkeypatch.setattr(symmetry, "_bond_angles", twin_bond_angles)
    assert_reports_close(rep, report_or_refusal(circ))


def test_report_refuses_beyond_the_dense_cap_before_any_block(monkeypatch):
    def no_block(*args):
        raise AssertionError("a sector block was built")

    monkeypatch.setattr(symmetry, "build_sector_block", no_block)
    p = HamiltonianGateParams(tau=0.5, delta=0.8, B=0.2, D=0.6, M=0.0, A=0.1)
    gate = gate_from_hamiltonian(p)
    with pytest.raises(CapacityError):
        time_reversal_report(homogeneous_circuit(gate, 14, "open"))
    # a ring without closure is refused first, whatever its size
    with pytest.raises(TimeReversalRefusal):
        time_reversal_report(homogeneous_circuit(gate, 14, "periodic"))


def test_spectral_match_branch_cut():
    eps = 1e-11
    u = np.diag([np.exp(1j * eps), -1.0])
    v = np.diag([np.exp(-1j * eps), -1.0])
    # sorted phases pair across the cut; a rotation of one sorted order repairs it
    assert spectral_match_error(u, v) < 1e-9
    assert spectral_match_error(u, u) == 0.0


def brute_force_bottleneck(u, v):
    """Smallest largest distance over all n! pairings of the two eigenvalue lists."""
    ea, eb = (np.exp(1j * unitary_phases(x)) for x in (u, v))
    return min(float(np.abs(ea - eb[list(p)]).max())
               for p in itertools.permutations(range(eb.size)))


def test_spectral_match_is_the_bottleneck_over_all_pairings():
    rng = np.random.default_rng(26)
    for n in range(1, 7):
        for trial in range(40):
            # spread phases, and clustered ones whose sorted orders misalign
            half_width = np.pi if trial % 2 else 0.5
            u, v = (np.diag(np.exp(1j * rng.uniform(-half_width, half_width, n)))
                    for _ in range(2))
            assert abs(spectral_match_error(u, v) - brute_force_bottleneck(u, v)) <= 1e-15


def test_spectral_match_is_not_the_largest_cost_of_a_sum_optimal_pairing():
    # the sum-optimal pairing here has largest distance 1.7833210210072374
    u, v = (np.diag(np.exp(1j * np.array(phases)))
            for phases in ([0.936, 1.988, 2.818, 4.389], [1.48, 2.009, 5.02, 5.026]))
    assert abs(spectral_match_error(u, v) - 1.7793132609561808) <= 1e-15
    with pytest.raises(ParameterError):
        spectral_match_error(u, v[:3, :3])
