"""Transfer matrices and the local conserved charges they generate."""

import numpy as np
import pytest

from dense_oracles import (
    dense_charges,
    dense_propagator,
    dense_from_sectors,
    gate_from_r,
    pauli_window_projection,
    propagator_from_transfer,
    split_sectors,
    traceless,
    transfer_matrix,
)
from mcbrick.core import (
    build_sector_block,
    commutator_defect,
    embed_operator,
    homogeneous_circuit,
    sector_basis,
    sector_states,
    site_spins,
    translation_permutation,
)
from mcbrick.gates import (
    HaarGateParams,
    HamiltonianGateParams,
    gate_from_haar,
    gate_from_hamiltonian,
    haar_params_from_gate,
    random_mc_gate,
    sample_haar,
)
from mcbrick.rmatrix import RMatrixParams, haar_to_r, r_matrix, r_matrix_jet
from mcbrick.charges import (
    ChargeFamily,
    charge_kernels,
    charge_q1,
    charge_q1_closed_form,
    closed_form_kernel,
    higher_charge,
    pauli_string_window_projection,
)
from mcbrick.errors import CapacityError, CriticalManifoldError, ParameterError

P_I = RMatrixParams(beta=0.3, xi=0.8, theta=1.1, rho=0.7, u=0.6, phase="I")
P_II = RMatrixParams(beta=0.3, xi=0.8, theta=1.1, rho=0.45, u=0.8, phase="II")


def charge_matrix(q):
    """The dense 2^L charge of a ChargeFamily (its largest sector is m = L)."""
    return dense_from_sectors(q.blocks, max(q.blocks))


def brickwork_unitary(p, L):
    circ = homogeneous_circuit(gate_from_r(p), L, boundary="periodic")
    return dense_propagator(circ)


def sample_mapped(seed):
    """Haar-random gate mapped to R parameters, skipping degenerate draws."""
    rng = np.random.default_rng(seed)
    while True:
        try:
            p = haar_to_r(sample_haar(rng.integers(1 << 32)))
        except CriticalManifoldError:
            continue
        if not p.degenerate:
            return p


def test_transfer_matrix_l2_hand_contraction():
    p = P_I
    x = 0.37
    t = transfer_matrix(p, x, 2)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    r_plus = (swap @ r_matrix(p, x + p.u / 2)).reshape(2, 2, 2, 2)
    r_minus = (swap @ r_matrix(p, x - p.u / 2)).reshape(2, 2, 2, 2)
    # T[s0' s1', s0 s1] = sum_{ab} R+[s0' a s0 b] R-[s1' b s1 a]
    hand = np.einsum("iajb,kbla->ikjl", r_plus, r_minus).reshape(4, 4)
    assert np.abs(t - hand).max() < 1e-14


def test_transfer_matrices_commute():
    rng = np.random.default_rng(4)
    for p in (P_I, P_II):
        for _ in range(5):
            x, y = rng.uniform(-1.5, 1.5, size=2)
            tx = transfer_matrix(p, x, 8)
            ty = transfer_matrix(p, y, 8)
            assert np.abs(tx @ ty - ty @ tx).max() < 1e-9


def test_propagator_identity():
    for p in (P_I, P_II):
        for L in (4, 8):
            u_tm = propagator_from_transfer(p, L)
            u_brick = brickwork_unitary(p, L)
            assert np.abs(u_tm - u_brick).max() < 1e-10


def test_charge_q1_commutes_with_propagator():
    # 50 random gates in each phase at L=8
    found = {"I": 0, "II": 0}
    seed = 0
    while min(found.values()) < 50:
        seed += 1
        p = sample_mapped(seed)
        if found[p.phase] >= 50:
            continue
        found[p.phase] += 1
        u_blocks = split_sectors(brickwork_unitary(p, 8), 8)
        for sign in "+-":
            q = charge_q1(p, sign, 8)
            assert q.conservation_defect(u_blocks) < 1e-9


def test_charge_q1_closed_form_equality():
    # 20 random parameter points, both phases, entrywise
    for seed in range(20):
        p = sample_mapped(1000 + seed)
        for sign in "+-":
            qa = charge_matrix(charge_q1(p, sign, 8))
            qb = charge_matrix(charge_q1_closed_form(p, sign, 8))
            assert np.abs(qa - qb).max() < 1e-10


def test_charge_hermiticity_convention():
    # raw charges are anti-Hermitian; the Hermitian representative is Q/(i)
    for p in (P_I, P_II):
        u_full = brickwork_unitary(p, 8)
        for sign in "+-":
            q = charge_matrix(charge_q1_closed_form(p, sign, 8))
            assert np.abs(q + q.conj().T).max() < 1e-12
            h = q / 1j
            assert np.abs(h - h.conj().T).max() < 1e-12
            assert commutator_defect(split_sectors(h, 8), split_sectors(u_full, 8)) < 1e-9


def test_charge_translation_invariance():
    L = 8
    perm = translation_permutation(np.arange(1 << L), L, 2)
    for sign in "+-":
        q = charge_matrix(charge_q1(P_I, sign, L))
        # S^2 Q S^-2 has entries Q[perm^-1 i, perm^-1 j]
        inv = np.argsort(perm)
        assert np.abs(q[np.ix_(inv, inv)] - q).max() < 1e-12


def test_charges_mutually_commute():
    L = 8
    for p in (P_I, P_II):
        qp, qm = charge_q1(p, "+", L), charge_q1(p, "-", L)
        assert commutator_defect(qp.blocks, qm.blocks) < 1e-9
        qp = charge_matrix(qp)
        mags = site_spins(np.arange(1 << L), L).sum(axis=1)
        assert np.abs((qp * mags[None, :]) - (mags[:, None] * qp)).max() < 1e-12


def test_higher_charge_order_two():
    L = 10
    for p in (P_I, P_II):
        u_blocks = split_sectors(brickwork_unitary(p, L), L)
        for sign in "+-":
            q1 = higher_charge(p, 1, sign, L)
            q2 = higher_charge(p, 2, sign, L)
            assert q2.density_support == 5
            assert q2.conservation_defect(u_blocks) < 1e-7
            assert commutator_defect(q2.blocks, q1.blocks) < 1e-9
            # support: diameter-3 strings carry Q1 entirely, diameter-5 carry Q2
            _, r1 = pauli_string_window_projection(q1.blocks, L, 3)
            _, r2 = pauli_string_window_projection(q2.blocks, L, 5)
            assert r1 < 1e-7
            assert r2 < 1e-7


def test_higher_charge_validation():
    with pytest.raises(CapacityError):
        higher_charge(P_I, 3, "+", 12)
    with pytest.raises(ParameterError):
        higher_charge(P_I, 2, "+", 8)
    with pytest.raises(ParameterError):
        higher_charge(P_I, 1, "x", 8)
    with pytest.raises(ParameterError):
        charge_q1(P_I, "x", 8)
    with pytest.raises(ParameterError):
        charge_q1_closed_form(P_I, "x", 8)
    with pytest.raises(ParameterError):
        closed_form_kernel(P_I, "x")


def test_charge_count_for_small_supports():
    # charges with support <= r plus magnetization: 3 independent ops at r=3,
    # 5 at r=5 (operator-space Gram matrix has full rank)
    L = 10
    p = P_I
    mags = site_spins(np.arange(1 << L), L).sum(axis=1)
    ops3 = [
        charge_matrix(charge_q1(p, "+", L)),
        charge_matrix(charge_q1(p, "-", L)),
        np.diag(mags.astype(complex)),
    ]
    ops5 = ops3 + [
        charge_matrix(higher_charge(p, 2, "+", L)),
        charge_matrix(higher_charge(p, 2, "-", L)),
    ]
    for ops, expected in ((ops3, 3), (ops5, 5)):
        gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
        norms = np.sqrt(np.real(np.diag(gram)))
        gram = gram / np.outer(norms, norms)
        rank = np.linalg.matrix_rank(gram, tol=1e-8)
        assert rank == expected


def test_degenerate_gate_refused():
    ident = RMatrixParams(0.0, 0.0, 0.0, 0.0, 0.0, "I", degenerate="identity")
    with pytest.raises(ParameterError):
        charge_q1(ident, "+", 8)


def test_second_derivative_matches_finite_differences():
    for p in (P_I, P_II):
        for x in (0.31, -0.52):
            h = 1e-5
            fd = (r_matrix_jet(p, x + h, 1)[1] - r_matrix_jet(p, x - h, 1)[1]) / (
                2 * h
            )
            assert np.abs(r_matrix_jet(p, x, 2)[2] - fd).max() < 1e-7


# ------------------------------------------- sector blocks against dense oracles


def _random_mc_params():
    p = haar_to_r(haar_params_from_gate(random_mc_gate(11)).params)
    assert not p.degenerate
    return p


def test_q1_sector_gather_matches_the_dense_window_sum():
    L = 8
    for p in (P_I, _random_mc_params()):
        for sign, start in zip("+-", (1, 0)):
            kernel = charge_kernels(p, sign)[0]
            dense = sum(
                embed_operator(kernel, [(2 * j + start + t) % L for t in range(3)], L)
                for j in range(L // 2)
            )
            assert np.abs(charge_matrix(charge_q1(p, sign, L)) - traceless(dense)).max() < 1e-13


def test_higher_charges_match_dense_solves():
    # the cell densities against T^-1 T' and T^-1 T'' - (T^-1 T')^2 solved
    # densely from the einsum transfer matrix, for every gate and sign
    L = 10
    for p in (P_I, P_II, _random_mc_params()):
        for sign in "+-":
            for ell, want in enumerate(dense_charges(p, sign, L), start=1):
                got = charge_matrix(higher_charge(p, ell, sign, L))
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _random_mc_matrix(L, seed):
    rng = np.random.default_rng(seed)
    blocks = {}
    for m in range(-L, L + 1, 2):
        n = len(sector_states(L, m))
        blocks[m] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return dense_from_sectors(blocks, L)


@pytest.mark.parametrize("L, window", [(8, 3), (10, 5)])
def test_charge0_string_projection_matches_the_pauli_enumeration(L, window):
    # window 5 needs L >= 10 for unique anchoring
    for seed in (1, 2):
        mat = _random_mc_matrix(L, seed)
        want = pauli_window_projection(mat, L, window)
        got = pauli_string_window_projection(split_sectors(mat, L), L, window)
        assert got == pytest.approx(want, rel=1e-12)
    # a local translation-invariant charge keeps its weight in the window
    q = charge_q1(P_I, "+", L)
    assert pauli_string_window_projection(q.blocks, L, 3) == pytest.approx(
        pauli_window_projection(charge_matrix(q), L, 3), rel=1e-12, abs=1e-13
    )


def test_second_charges_at_the_L12_cap():
    L = 12
    circuit = homogeneous_circuit(gate_from_r(P_I), L, boundary="periodic")
    prop = {m: build_sector_block(circuit, sector_basis(L, m)) for m in range(-L, L + 1, 2)}
    for sign in "+-":
        q2 = higher_charge(P_I, 2, sign, L)
        assert q2.conservation_defect(prop) < 1e-7
        _, residual = pauli_string_window_projection(q2.blocks, L, 5)
        assert residual < 1e-7


def test_sector_defects_match_their_dense_definitions():
    # a random MC unitary and a random MC "charge" make both defects O(1),
    # so a wrong block formula cannot hide behind a conserved charge's zero
    L = 6
    rng = np.random.default_rng(5)
    u_blocks, q_blocks = {}, {}
    for m in range(-L, L + 1, 2):
        n = len(sector_states(L, m))
        u_blocks[m], _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q_blocks[m] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = dense_from_sectors(u_blocks, L)
    q = ChargeFamily(3, q_blocks)
    h = 0.5 * (charge_matrix(q) + charge_matrix(q).conj().T)
    want_h = np.abs(u.conj().T @ h @ u - h).max()
    want_c = np.abs(charge_matrix(q) @ u - u @ charge_matrix(q)).max()
    assert want_h > 1e-3 and want_c > 1e-3
    assert q.hermitian_part_defect(u_blocks) == pytest.approx(want_h, rel=1e-12)
    assert q.conservation_defect(u_blocks) == pytest.approx(want_c, rel=1e-12)


@pytest.mark.parametrize("L", [8, 10])
@pytest.mark.parametrize("gate", [
    gate_from_haar(HaarGateParams(0.1, 0.4, 0.9, 0.3, 0.2)),
    gate_from_hamiltonian(HamiltonianGateParams(0.7, 0.3)),
    random_mc_gate(11),
], ids=["gate-I", "gate-II", "random-11"])
def test_charge_families_carry_no_identity_share(gate, L):
    # the charges are their kernels summed over windows, and nothing removes
    # an identity share afterwards: every kernel must be traceless already.
    # The share is trace / 2^L; the bare trace sums 2^L rounded diagonal entries
    p = haar_to_r(haar_params_from_gate(gate).params)
    for sign in "+-":
        for kernel in (*charge_kernels(p, sign), closed_form_kernel(p, sign)):
            assert abs(np.trace(kernel)) <= 1e-12
        families = [charge_q1(p, sign, L), charge_q1_closed_form(p, sign, L)]
        if L >= 10:
            families.append(higher_charge(p, 2, sign, L))
        for fam in families:
            assert abs(sum(np.trace(b) for b in fam.blocks.values())) / 2**L <= 1e-12
