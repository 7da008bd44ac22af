"""Two-qubit gate parametrizations and their interconversions."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from mcbrick.gates import (
    HaarGateParams,
    HamiltonianGateParams,
    TwoQubitGate,
    gate_from_haar,
    gate_from_hamiltonian,
    gate_sqrt,
    haar_params_from_gate,
    magnetization_phase_gate,
    mc_zero_pattern_defect,
    sample_haar,
)
from mcbrick.errors import StructureError

from dense_oracles import identity_gate

# single-site operators; bit value 1 means sigma^z = +1
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SZ = np.diag([-1.0, 1.0]).astype(complex)
ID = np.eye(2, dtype=complex)


def dense_generator(p):
    """Brute-force h as a 4x4 for the expm oracle."""
    kron = np.kron
    h = p.J * (kron(SX, SX) + kron(SY, SY)) + p.delta * kron(SZ, SZ)
    h += p.M * (kron(SZ, ID) + kron(ID, SZ))
    h += p.B * (kron(ID, SZ) - kron(SZ, ID))
    h += p.D * (kron(SX, SY) - kron(SY, SX))
    h += p.A * np.eye(4)
    return h


def test_tau_zero_is_identity():
    g = gate_from_hamiltonian(HamiltonianGateParams(tau=0.0, delta=1.3, B=0.2, D=0.4))
    assert np.abs(g.matrix - np.eye(4)).max() < 1e-15


def test_xxx_gate_matches_expm_oracle():
    p = HamiltonianGateParams(tau=np.pi / 3, delta=1.0)
    g = gate_from_hamiltonian(p)
    oracle = expm(-1j * p.tau * dense_generator(p))
    assert np.abs(g.matrix - oracle).max() < 1e-12


def test_closed_form_matches_expm_on_random_draws():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        vals = rng.uniform(-5, 5, size=7)
        p = HamiltonianGateParams(*vals)
        g = gate_from_hamiltonian(p)
        oracle = expm(-1j * p.tau * dense_generator(p))
        worst = max(worst, np.abs(g.matrix - oracle).max())
        assert mc_zero_pattern_defect(g.matrix) == 0.0
    assert worst < 1e-12


def test_m_and_a_only_change_block_phases():
    base = HamiltonianGateParams(tau=0.7, delta=1.1, B=0.3, D=0.2)
    shifted = HamiltonianGateParams(tau=0.7, delta=1.1, B=0.3, D=0.2, M=0.8, A=-0.5)
    g0 = gate_from_hamiltonian(base).matrix
    g1 = gate_from_hamiltonian(shifted).matrix
    # per-magnetization-block constant phase: corners and the central block
    for block in ([0], [1, 2], [3]):
        ratios = g1[np.ix_(block, block)] / g0[np.ix_(block, block)]
        vals = ratios[np.abs(g0[np.ix_(block, block)]) > 1e-12]
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-12
        assert np.abs(vals - vals.flat[0]).max() < 1e-12


def test_haar_gate_structure():
    g = gate_from_haar(HaarGateParams(0.0, 0.0, 0.0, 0.0, 0.0))
    swap_block = np.array([[0, 1], [1, 0]])
    assert np.abs(g.matrix[1:3, 1:3] - swap_block).max() < 1e-15

    rng = np.random.default_rng(0)
    for _ in range(200):
        p = sample_haar(rng.integers(1 << 32))
        g = gate_from_haar(p)
        assert mc_zero_pattern_defect(g.matrix) == 0.0
        assert TwoQubitGate(g.matrix).matrix is not None  # unitarity enforced
        gg = g.matrix.conj().T @ g.matrix
        assert np.abs(gg - np.eye(4)).max() < 1e-13


def test_haar_block_periodicity():
    p = HaarGateParams(0.3, 0.9, 0.7, 1.1, 2.0)
    q = HaarGateParams(0.3, 0.9 + np.pi, 0.7, 1.1 + np.pi, 2.0 + np.pi)
    assert np.abs(gate_from_haar(p).matrix - gate_from_haar(q).matrix).max() < 1e-13


def test_sample_haar_deterministic_and_uniform():
    a = sample_haar(123, n=5)
    b = sample_haar(123, n=5)
    assert a == b

    batch = sample_haar(7, n=100_000)
    sin2 = np.array([np.sin(p.phi) ** 2 for p in batch])
    stat = kstest(sin2, "uniform").statistic
    assert stat < 0.01


def test_haar_round_trip():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(1000):
        p = sample_haar(rng.integers(1 << 32))
        g = gate_from_haar(p)
        ext = haar_params_from_gate(g)
        assert abs(ext.mu) < 1e-12
        rebuilt = gate_from_haar(ext.params)
        worst = max(worst, np.abs(rebuilt.matrix - g.matrix).max())
    assert worst < 1e-13


def test_identity_round_trip():
    ext = haar_params_from_gate(identity_gate())
    rebuilt = gate_from_haar(ext.params)
    assert np.abs(rebuilt.matrix - np.eye(4)).max() < 1e-14


def test_hamiltonian_gate_round_trip_through_haar():
    p = HamiltonianGateParams(tau=np.pi / 3, delta=1.4, B=0.5, D=0.5)
    g = gate_from_hamiltonian(p)
    ext = haar_params_from_gate(g)
    rebuilt = magnetization_phase_gate(ext.mu) @ gate_from_haar(ext.params).matrix
    assert np.abs(rebuilt - g.matrix).max() < 1e-13


def test_corner_phase_mismatch_factored():
    p = HamiltonianGateParams(tau=0.6, delta=1.2, B=0.1, D=0.3, M=0.9)
    g = gate_from_hamiltonian(p)
    ext = haar_params_from_gate(g)
    assert abs(ext.mu) > 1e-3  # M really produced unequal corners
    rebuilt = magnetization_phase_gate(ext.mu) @ gate_from_haar(ext.params).matrix
    assert np.abs(rebuilt - g.matrix).max() < 1e-13


def test_haar_params_from_gate_rejects_non_mc():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1e-3
    with pytest.raises(StructureError):
        haar_params_from_gate(bad)


def test_gate_sqrt():
    # the root halves the gate's phases and rotation angle as principal
    # values; where tau's stay principal too, it is the half-duration gate
    assert np.array_equal(gate_sqrt(identity_gate()).matrix, np.eye(4))
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(400):
        p = HamiltonianGateParams(rng.uniform(-0.6, 0.6), *rng.uniform(-2, 2, size=6))
        w = 2.0 * np.sqrt(p.J * p.J + p.D * p.D + p.B * p.B)
        phases = p.tau * np.array(
            [p.A + p.delta - 2 * p.M, p.A + p.delta + 2 * p.M, 2 * (p.A - p.delta), w])
        if np.abs(phases).max() > np.pi - 1e-3:
            continue
        checked += 1
        root = gate_sqrt(gate_from_hamiltonian(p)).matrix
        assert mc_zero_pattern_defect(root) == 0.0
        half = gate_from_hamiltonian(replace(p, tau=0.5 * p.tau)).matrix
        assert np.abs(root - half).max() < 1e-12
    assert checked >= 100


def test_gate_sqrt_rejects_non_mc():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1e-3
    with pytest.raises(StructureError):
        gate_sqrt(bad)
