"""Sector bases, gate application, and the brickwork propagator."""

import numpy as np
import pytest
from math import comb

from mcbrick.core import (
    BrickworkCircuit,
    Operator,
    _bond_pattern,
    apply_gate,
    build_propagator,
    check_sector_column,
    homogeneous_circuit,
    layer_bonds,
    magnetization_commutator_defect,
    magnetization_of,
    propagator_apply,
    restrict,
    sector_basis,
    sector_operators,
    sector_states,
    translate_index,
    translation_matrix,
    translation_permutation,
)
from mcbrick.gates import gate_matrix, identity_gate, random_mc_gate, TwoQubitGate
from mcbrick.errors import CapacityError, ParameterError, SymmetryError

SWAP = TwoQubitGate(
    np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    provenance="swap",
)


def test_sector_dimensions():
    assert sector_basis(4, 0).dim == 6
    b = sector_basis(4, 4)
    assert b.dim == 1
    assert b.states == [0b1111]
    for L in (4, 8, 12, 14):
        total = sum(sector_basis(L, m).dim for m in range(-L, L + 1, 2))
        assert total == 2**L


def test_sector_magnetization_parity_rejected():
    with pytest.raises(ParameterError):
        sector_basis(4, 1)
    with pytest.raises(ParameterError):
        sector_basis(4, 6)


def test_momentum_basis_against_projector():
    # brute-force: diagonalize the two-site shift on the m=0 sector of L=8
    L, m = 8, 0
    plain = sector_basis(L, m)
    pos = {s: i for i, s in enumerate(plain.states)}
    shift = np.zeros((plain.dim, plain.dim))
    for i, s in enumerate(plain.states):
        shift[pos[translate_index(s, L, 2)], i] = 1.0
    evals = np.linalg.eigvals(shift)
    n_cells = L // 2
    s2 = translation_matrix(L, 2)
    total = 0
    for k in range(n_cells):
        b = sector_basis(L, m, k=k)
        target = np.exp(2j * np.pi * k / n_cells)
        count = int(np.sum(np.abs(evals - target) < 1e-8))
        assert b.dim == count
        assert b.gram_defect() < 1e-12
        # the stored vectors really are S^2 eigenvectors
        v = b.vectors.toarray()
        assert np.abs(s2 @ v - target * v).max() < 1e-12
        total += b.dim
    assert total == plain.dim


def test_apply_gate_identity_and_swap():
    L = 6
    rng = np.random.default_rng(1)
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    out = apply_gate(psi, identity_gate(), (2, 3), L)
    assert np.abs(out - psi).max() < 1e-15

    ket = np.zeros(1 << L, dtype=complex)
    ket[0b100000] = 1.0  # |100000>
    out = apply_gate(ket, SWAP, (0, 1), L)
    expect = np.zeros_like(ket)
    expect[0b010000] = 1.0
    assert np.abs(out - expect).max() < 1e-15


def test_apply_gate_preserves_magnetization_sector():
    L = 8
    rng = np.random.default_rng(2)
    basis = sector_basis(L, 2)
    psi = basis.vectors @ (rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))
    psi /= np.linalg.norm(psi)
    gate = random_mc_gate(11)
    out = apply_gate(psi, gate, (3, 4), L, boundary="periodic")
    mags = np.array([magnetization_of(n, L) for n in range(1 << L)])
    leak = np.linalg.norm(out[mags != 2])
    assert leak < 1e-13


def test_apply_gate_rejects_non_adjacent():
    with pytest.raises(ParameterError):
        apply_gate(np.zeros(16, dtype=complex), SWAP, (0, 2), 4)
    with pytest.raises(ParameterError):
        apply_gate(np.zeros(16, dtype=complex), SWAP, (3, 0), 4, boundary="open")
    # wraparound pair is fine with periodic boundaries
    apply_gate(np.zeros(16, dtype=complex), SWAP, (3, 0), 4, boundary="periodic")


def test_propagator_trivial_cases():
    circ = homogeneous_circuit(identity_gate(), 6, boundary="periodic")
    u = build_propagator(circ)
    assert np.abs(u.entries - np.eye(64)).max() < 1e-14

    gate = random_mc_gate(3)
    circ2 = BrickworkCircuit(2, layers=([gate], []), boundary="open")
    u2 = build_propagator(circ2)
    assert np.abs(u2.entries - gate.matrix).max() < 1e-14


def test_propagator_matches_gate_composition():
    L = 4
    gate = random_mc_gate(5)
    circ = homogeneous_circuit(gate, L, boundary="periodic")
    u = build_propagator(circ).entries
    rng = np.random.default_rng(7)
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    # odd layer on (0,1) and (2,3), then even layer on (1,2) and (3,0)
    out = apply_gate(psi, gate, (0, 1), L, boundary="periodic")
    out = apply_gate(out, gate, (2, 3), L, boundary="periodic")
    out = apply_gate(out, gate, (1, 2), L, boundary="periodic")
    out = apply_gate(out, gate, (3, 0), L, boundary="periodic")
    assert np.abs(u @ psi - out).max() < 1e-13


def test_matrix_free_propagator_agrees_with_dense():
    for boundary in ("open", "periodic"):
        L = 8
        gate = random_mc_gate(9)
        circ = homogeneous_circuit(gate, L, boundary=boundary)
        u = build_propagator(circ).entries
        rng = np.random.default_rng(13)
        for _ in range(100):
            psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
            assert np.abs(u @ psi - propagator_apply(circ, psi)).max() < 1e-12


def test_propagator_conserves_magnetization():
    circ = homogeneous_circuit(random_mc_gate(21), 8, boundary="periodic")
    u = build_propagator(circ)
    assert magnetization_commutator_defect(u.entries, 8) < 1e-12
    assert u.unitarity_defect() < 1e-12


def test_restrict_trivial_cases():
    basis = sector_basis(4, 0)
    eye = Operator(np.eye(16), unitary=True)
    r = restrict(eye, basis)
    assert np.abs(r.entries - np.eye(6)).max() < 1e-14

    mags = np.array([magnetization_of(n, 4) for n in range(16)], dtype=float)
    sz_total = Operator(np.diag(mags))
    r2 = restrict(sz_total, basis)
    assert np.abs(r2.entries).max() < 1e-14


def test_restrict_reassembles_full_spectrum():
    L = 8
    circ = homogeneous_circuit(random_mc_gate(17), L, boundary="periodic")
    u = build_propagator(circ)
    full = np.sort(np.angle(np.linalg.eigvals(u.entries)))
    blocks = []
    for m in range(-L, L + 1, 2):
        r = restrict(u, sector_basis(L, m))
        blocks.append(np.angle(np.linalg.eigvals(r.entries)))
    assert np.abs(np.sort(np.concatenate(blocks)) - full).max() < 1e-10


def test_check_sector_column_flags_mismatch_and_leak():
    L, m = 6, 0
    states = sector_states(L, m)
    assert list(states) == sector_basis(L, m).states
    rng = np.random.default_rng(2)
    full = np.zeros(1 << L, dtype=complex)
    full[states] = rng.normal(size=states.size)
    col = full[states].copy()
    check_sector_column(full, col, states, "test")
    col[3] += 1e-9
    with pytest.raises(SymmetryError):
        check_sector_column(full, col, states, "test")
    leaked = full.copy()
    leaked[0] = 1e-9  # all-zeros word, outside the m=0 sector
    with pytest.raises(SymmetryError):
        check_sector_column(leaked, full[states], states, "test")


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_cached_bond_pattern_matches_fresh_searchsorted_build(boundary):
    L = 8
    u = gate_matrix(random_mc_gate(3))
    for m in range(-L, L + 1, 2):
        states = sector_states(L, m)
        for a, b in layer_bonds(L, boundary, 0) + layer_bonds(L, boundary, 1):
            mask_a, mask_b = 1 << (L - 1 - a), 1 << (L - 1 - b)
            want = np.zeros((states.size, states.size), dtype=complex)
            for row, s in enumerate(states):
                c = 2 * bool(s & mask_a) + bool(s & mask_b)
                want[row, row] = u[c, c]
                if c in (1, 2):
                    partner = np.searchsorted(states, s ^ (mask_a | mask_b))
                    want[row, partner] = u[c, 3 - c]
            (op,) = sector_operators([(u, (a, b))], L, m)
            assert op.has_canonical_format
            assert np.array_equal(op.toarray(), want)
            pattern = _bond_pattern(L, m, a, b)
            assert _bond_pattern(L, m, a, b) is pattern
            assert not any(arr.flags.writeable for arr in pattern)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        build_propagator(homogeneous_circuit(identity_gate(), 14, boundary="open"))
    with pytest.raises(ParameterError):
        sector_basis(22, 0)


def test_translation_permutation_order():
    L = 8
    perm = translation_permutation(L, 1)
    composed = np.arange(1 << L)
    for _ in range(L):
        composed = perm[composed]
    assert np.array_equal(composed, np.arange(1 << L))
    # shifting by one site twice equals shifting by two
    assert np.array_equal(perm[perm], translation_permutation(L, 2))
