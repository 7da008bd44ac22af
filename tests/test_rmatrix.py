"""Braid-form R matrix, gate mapping, and phase classification."""

import numpy as np
import pytest

from dense_oracles import r_matrix_derivative, r_matrix_second_derivative
from mcbrick.gates import (
    HaarGateParams,
    HamiltonianGateParams,
    gate_from_haar,
    gate_from_hamiltonian,
    haar_params_from_gate,
    sample_haar,
)
from mcbrick.rmatrix import (
    RMatrixParams,
    ab_values,
    check_yang_baxter,
    classify_phase_hamiltonian,
    haar_to_r,
    map_report,
    r_matrix,
    r_matrix_jet,
)
from mcbrick.errors import CriticalManifoldError, ParameterError, RefusalError

P_I = RMatrixParams(beta=0.3, xi=0.8, theta=1.1, rho=0.7, u=0.6, phase="I")
P_II = RMatrixParams(beta=0.3, xi=0.8, theta=1.1, rho=0.45, u=0.8, phase="II")


def test_r_at_zero_is_identity():
    for p in (P_I, P_II):
        assert np.abs(r_matrix(p, 0.0) - np.eye(4)).max() == 0.0


def test_inverse_and_unitarity():
    rng = np.random.default_rng(3)
    for p in (P_I, P_II):
        for x in rng.uniform(-3, 3, size=100):
            r = r_matrix(p, x)
            assert np.abs(r_matrix(p, -x) @ r - np.eye(4)).max() < 1e-13
            assert np.abs(r.conj().T @ r - np.eye(4)).max() < 1e-13


def test_ab_circle_constraint():
    for p in (P_I, P_II):
        a, b = ab_values(p, p.u)
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < 1e-13
        assert abs((a * np.conj(b)).imag) < 1e-13


def _phase_one_form(beta, xi, theta, rho, x):
    """Literal phase-I expression, valid at complex parameters."""
    den = np.sin(x + 1j * rho)
    a, b = np.sin(x) / den, np.sinh(rho) / den
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0
    m[1, 1] = 1j * b * np.exp(-1j * xi * x)
    m[2, 2] = 1j * b * np.exp(1j * xi * x)
    m[1, 2] = -a * np.exp(-1j * theta)
    m[2, 1] = -a * np.exp(1j * theta)
    return np.exp(1j * beta * x) * m


def test_phase_ii_is_continuation_of_phase_i():
    # x -> ix, rho -> i rho, xi -> -i xi, beta -> -i beta in phase I
    p2 = P_II
    for x in (0.37, -0.81, 1.2):
        m2 = r_matrix(p2, x)
        m1 = _phase_one_form(
            -1j * p2.beta, -1j * p2.xi, p2.theta, 1j * p2.rho, 1j * x
        )
        assert np.abs(m1 - m2).max() < 1e-13


def test_yang_baxter():
    assert check_yang_baxter(P_I, 0.0, 0.0) == 0.0
    rng = np.random.default_rng(11)
    for p in (P_I, P_II):
        for _ in range(500):
            x, y = rng.uniform(-2, 2, size=2)
            assert check_yang_baxter(p, x, y) < 1e-12


def test_yang_baxter_random_parameters():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        phase = "I" if rng.random() < 0.5 else "II"
        p = RMatrixParams(
            beta=rng.uniform(-2, 2), xi=rng.uniform(-2, 2),
            theta=rng.uniform(0, 2 * np.pi), rho=rng.uniform(0.05, 1.5),
            u=rng.uniform(-1.5, 1.5), phase=phase,
        )
        x, y = rng.uniform(-2, 2, size=2)
        assert check_yang_baxter(p, x, y) < 1e-12


def test_yang_baxter_negative_control():
    # corrupt theta on one side of the relation; residual must be O(1)
    eye2 = np.eye(2, dtype=complex)
    p = P_I
    bad = RMatrixParams(p.beta, p.xi, p.theta + 0.3, p.rho, p.u, p.phase)
    x, y = 0.4, 0.9
    r12 = lambda q, z: np.kron(r_matrix(q, z), eye2)
    r23 = lambda q, z: np.kron(eye2, r_matrix(q, z))
    lhs = r12(p, x) @ r23(p, x + y) @ r12(p, y)
    rhs = r23(bad, y) @ r12(bad, x + y) @ r23(bad, x)
    assert np.abs(lhs - rhs).max() > 0.01


def test_haar_to_r_identity_gate():
    p = haar_to_r(HaarGateParams(0.0, np.pi / 2, np.pi / 2, np.pi / 2, 0.3))
    assert p.degenerate == "identity"
    assert p.u == 0.0
    assert np.abs(r_matrix(p, p.u) - np.eye(4)).max() == 0.0


def test_haar_to_r_swap_gate():
    swap_params = HaarGateParams(0.0, 0.0, 0.0, 0.0, 0.0)
    gate = gate_from_haar(swap_params).matrix
    p = haar_to_r(swap_params)
    assert p.degenerate == "swap-family"
    assert p.phase == "II" and p.rho == 0.0
    assert np.abs(r_matrix(p, p.u) - gate).max() < 1e-13


@pytest.mark.parametrize("alpha", [0.3, 1.2, 2.0])
def test_haar_to_r_refuses_sin_phi_zero_off_the_swap_family(alpha):
    # phi = 0 with gamma != 0 needs u -> infinity, so no finite map exists
    hp = HaarGateParams(0.0, alpha, 0.0, 0.4, 0.7)
    with pytest.raises(RefusalError, match="sin\\(phi\\) = 0"):
        haar_to_r(hp)
    with pytest.raises(RefusalError):
        map_report(hp)


def test_haar_to_r_xxz_family():
    # B = D = 0 with corner phases cancelled lands on beta=0, xi=0, theta=pi
    g = gate_from_hamiltonian(HamiltonianGateParams(tau=0.4, delta=0.9, A=-0.9))
    ext = haar_params_from_gate(g)
    p = haar_to_r(ext.params)
    assert abs(p.beta) < 1e-12
    assert abs(p.xi) < 1e-12
    assert abs(p.theta - np.pi) < 1e-12
    assert np.abs(r_matrix(p, p.u) - g.matrix).max() < 1e-11


def test_haar_to_r_reconstruction_and_phase():
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_done = 0
    for _ in range(1000):
        hp = sample_haar(rng.integers(1 << 32))
        gate = gate_from_haar(hp).matrix
        try:
            p = haar_to_r(hp)
        except CriticalManifoldError:
            continue
        if p.degenerate:
            continue
        worst = max(worst, np.abs(r_matrix(p, p.u) - gate).max())
        n_done += 1
    assert worst < 1e-11
    assert n_done > 990  # critical manifold has measure zero


def test_surjectivity_over_half_disk():
    # a(u, rho) must reproduce cos(phi) e^{-i gamma} across the half-disk
    worst = 0.0
    for i in range(100):
        phi = (i + 0.5) * (np.pi / 2) / 100
        for j in range(100):
            gamma = -np.pi / 2 + (j + 0.5) * np.pi / 100
            hp = HaarGateParams(
                delta_phase=gamma - np.pi, alpha=0.0, phi=phi, chi=0.0, theta_v=0.0
            )
            p = haar_to_r(hp)
            if p.degenerate:
                continue
            a, _ = ab_values(p, p.u)
            worst = max(worst, abs(a - np.cos(phi) * np.exp(-1j * gamma)))
    assert worst < 1e-12


def test_classification_reference_values():
    c1 = classify_phase_hamiltonian(
        HamiltonianGateParams(tau=np.pi / 3, delta=1.0, B=0.5, D=0.5)
    )
    assert c1.label == "I"
    assert abs(c1.lhs - 1.740425) < 1e-5

    c2 = classify_phase_hamiltonian(
        HamiltonianGateParams(tau=np.pi / 3, delta=1.4, B=0.5, D=0.5)
    )
    assert c2.label == "II"
    assert abs(c2.lhs - 0.417834) < 1e-5

    xxx = classify_phase_hamiltonian(HamiltonianGateParams(tau=0.7, delta=1.0))
    assert xxx.label == "critical"
    assert abs(xxx.lhs - 1.0) < 1e-12


def test_classification_agrees_with_map():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(10_000):
        p = HamiltonianGateParams(
            tau=rng.uniform(0.05, 1.5),
            delta=rng.uniform(-2.5, 2.5),
            B=rng.uniform(-1, 1),
            D=rng.uniform(-1, 1),
        )
        c = classify_phase_hamiltonian(p)
        gate = gate_from_hamiltonian(p)
        try:
            rp = haar_to_r(haar_params_from_gate(gate).params)
        except CriticalManifoldError:
            continue
        if rp.degenerate or c.label == "critical":
            continue
        assert c.label == rp.phase, f"{p} -> {c} vs {rp.phase}"
        checked += 1
    assert checked > 9500


def test_phase_fraction_is_half():
    labels = []
    for hp in sample_haar(314159, n=100_000):
        try:
            labels.append(haar_to_r(hp).phase)
        except CriticalManifoldError:
            continue
    frac = labels.count("I") / len(labels)
    assert abs(frac - 0.5) < 0.01


def test_map_report_contents():
    hp = sample_haar(77)
    rec = map_report(hp)
    for key in ("haar", "gamma", "phi", "phase", "beta", "xi", "theta", "rho", "u"):
        assert key in rec
    assert rec["reconstruction_error"] < 1e-11

    xxx = gate_from_hamiltonian(HamiltonianGateParams(tau=0.7, delta=1.0, A=-1.0))
    rec2 = map_report(haar_params_from_gate(xxx).params)
    assert rec2["phase"] == "critical"
    assert "cos_phi" in rec2 and "cos_gamma" in rec2


def test_rmatrix_params_validation():
    with pytest.raises(ParameterError):
        RMatrixParams(0.0, 0.0, 0.0, rho=-0.2, u=0.5, phase="I")
    with pytest.raises(ParameterError):
        RMatrixParams(0.0, 0.0, 0.0, rho=0.2, u=0.5, phase="X")


def test_derivative_matches_finite_differences():
    for p in (P_I, P_II):
        for x in (0.3, -0.7):
            h = 1e-6
            fd = (r_matrix(p, x + h) - r_matrix(p, x - h)) / (2 * h)
            assert np.abs(r_matrix_jet(p, x, 1)[1] - fd).max() < 1e-8


def _mapped_haar_gates(seed, n):
    out = []
    for hp in sample_haar(seed, n):
        try:
            p = haar_to_r(hp)
        except RefusalError:
            continue
        if not p.degenerate:
            out.append(p)
    return out


def test_jet_matches_the_closed_form_derivatives():
    # order 0 is r_matrix itself; orders 1 and 2 against the hand-written R', R''
    params = [P_I, P_II] + _mapped_haar_gates(17, 240)
    assert len(params) >= 202
    for p in params:
        for x in (0.0, 0.3, -0.7, p.u, -p.u, 0.2 - 0.4j, -0.5 * p.u + 0.2j):
            jet = r_matrix_jet(p, x, 2)
            assert np.array_equal(jet[0], r_matrix(p, x))
            refs = (r_matrix_derivative(p, x), r_matrix_second_derivative(p, x))
            for got, ref in zip(jet[1:], refs):
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(got - ref).max() <= 1e-12 * scale


def test_jet_order_three_matches_finite_differences_of_order_two():
    h = 1e-4
    for p in [P_I, P_II] + _mapped_haar_gates(23, 20):
        for x in (0.31, -0.52, 0.1 + 0.2j):
            fd = (r_matrix_jet(p, x + h, 2)[2] - r_matrix_jet(p, x - h, 2)[2]) / (2 * h)
            third = r_matrix_jet(p, x, 3)[3]
            assert np.abs(third - fd).max() <= 1e-6 * max(1.0, np.abs(third).max())
