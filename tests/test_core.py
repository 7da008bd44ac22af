"""Sector bases, gate application, and the brickwork propagator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbrick import core
from mcbrick.core import (
    BLOCK_UNITARITY_TOL,
    CAYLEY_ALPHA,
    GROUP_BONDS,
    BrickworkCircuit,
    _group_pattern,
    apply_gate,
    bond_groups,
    build_propagator,
    build_sector_block,
    check_sector_column,
    commutator_defect,
    homogeneous_circuit,
    layer_bonds,
    layer_operators,
    propagator_apply,
    sector_basis,
    sector_operators,
    sector_partial_trace,
    sector_states,
    sector_step,
    site_spins,
    translation_permutation,
    unitary_phases,
)
from mcbrick.gates import gate_matrix, random_mc_gate, TwoQubitGate, unitarity_defect
from mcbrick.errors import CapacityError, ParameterError, SymmetryError
from mcbrick.levelstats import chaotic_gate_pair, flip_reflection_permutation
from mcbrick.symmetry import equivalent_circuit, global_time_reversal

from dense_oracles import (
    basis_matrix,
    dense_from_sectors,
    dense_propagator,
    identity_gate,
    loop_momentum_basis,
    magnetization_commutator_defect,
    restrict,
    translate_index,
    translation_matrix,
)

SWAP = TwoQubitGate(
    np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
)


def test_sector_dimensions():
    assert sector_basis(4, 0).dim == 6
    b = sector_basis(4, 4)
    assert b.dim == 1
    assert sector_states(4, 4).tolist() == [0b1111]
    assert basis_matrix(b).tolist() == [[1.0]]
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
    states = sector_states(L, m)
    pos = {s: i for i, s in enumerate(states)}
    shift = np.zeros((plain.dim, plain.dim))
    for i, s in enumerate(states):
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
        w = basis_matrix(b)
        assert np.abs(w.conj().T @ w - np.eye(b.dim)).max() < 1e-12
        # the stored vectors, lifted to 2^L, really are S^2 eigenvectors
        v = np.zeros((1 << L, b.dim), dtype=complex)
        v[states] = w
        assert np.abs(s2 @ v - target * v).max() < 1e-12
        total += b.dim
    assert total == plain.dim


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_momentum_basis_matches_the_orbit_walk_exactly(L):
    for m in range(-L, L + 1, 2):
        for k in range(L // 2):
            vectors = loop_momentum_basis(L, m, k)
            w = basis_matrix(sector_basis(L, m, k))
            assert w.shape == vectors.shape
            assert np.array_equal(w, vectors.toarray())


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
    psi = np.zeros(1 << L, dtype=complex)
    states = sector_states(L, 2)
    psi[states] = rng.normal(size=states.size) + 1j * rng.normal(size=states.size)
    psi /= np.linalg.norm(psi)
    gate = random_mc_gate(11)
    out = apply_gate(psi, gate, (3, 4), L, boundary="periodic")
    mags = site_spins(np.arange(1 << L), L).sum(axis=1)
    leak = np.linalg.norm(out[mags != 2])
    assert leak < 1e-13


@pytest.mark.parametrize("boundary, sites", [("open", (2, 3)), ("periodic", (5, 0))])
def test_apply_gate_to_a_matrix_acts_column_by_column(boundary, sites):
    L = 6
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(1 << L, 5)) + 1j * rng.normal(size=(1 << L, 5))
    gate = random_mc_gate(7)
    got = apply_gate(mat, gate, sites, L, boundary)
    assert got.shape == mat.shape
    for j in range(mat.shape[1]):
        assert np.array_equal(got[:, j], apply_gate(mat[:, j], gate, sites, L, boundary))
    with pytest.raises(ParameterError):
        apply_gate(mat[:-1], gate, sites, L, boundary)
    with pytest.raises(ParameterError):
        apply_gate(mat.reshape(1 << L, 5, 1), gate, sites, L, boundary)


def test_site_spins_layout():
    L = 6
    for m in range(-L, L + 1, 2):
        states = sector_states(L, m)
        spins = site_spins(states, L)
        assert spins.dtype == np.float64 and spins.shape == (states.size, L)
        assert np.array_equal(spins.sum(axis=1), np.full(states.size, float(m)))
    # column j is the diagonal of sigma^z_j = diag(-1, 1) on site j, dense on 2^L
    sz = np.diag([-1.0, 1.0])
    for j in range(L):
        dense = np.kron(np.kron(np.eye(1 << j), sz), np.eye(1 << (L - 1 - j)))
        assert np.array_equal(site_spins(np.arange(1 << L), L)[:, j], np.diag(dense))


def test_apply_gate_rejects_non_adjacent():
    with pytest.raises(ParameterError):
        apply_gate(np.zeros(16, dtype=complex), SWAP, (0, 2), 4)
    with pytest.raises(ParameterError):
        apply_gate(np.zeros(16, dtype=complex), SWAP, (3, 0), 4, boundary="open")
    # wraparound pair is fine with periodic boundaries
    apply_gate(np.zeros(16, dtype=complex), SWAP, (3, 0), 4, boundary="periodic")


def test_propagator_trivial_cases():
    circ = homogeneous_circuit(identity_gate(), 6, boundary="periodic")
    u = dense_propagator(circ)
    assert np.abs(u - np.eye(64)).max() < 1e-14

    gate = random_mc_gate(3)
    circ2 = BrickworkCircuit(2, layers=([gate], []), boundary="open")
    u2 = dense_propagator(circ2)
    assert np.abs(u2 - gate.matrix).max() < 1e-14


def test_propagator_matches_gate_composition():
    L = 4
    gate = random_mc_gate(5)
    circ = homogeneous_circuit(gate, L, boundary="periodic")
    u = dense_propagator(circ)
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
        u = dense_propagator(circ)
        rng = np.random.default_rng(13)
        for _ in range(100):
            psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
            assert np.abs(u @ psi - propagator_apply(circ, psi)).max() < 1e-12


def test_propagator_conserves_magnetization():
    circ = homogeneous_circuit(random_mc_gate(21), 8, boundary="periodic")
    u = dense_propagator(circ)
    assert magnetization_commutator_defect(u, 8) < 1e-12
    assert unitarity_defect(u) < 1e-12


def _random_sector_blocks(L, rng):
    return {
        m: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for m, n in ((m, sector_states(L, m).size) for m in range(-L, L + 1, 2))
    }


def test_commutator_defect_of_mc_sector_blocks_matches_dense():
    # random MC operators make the commutator O(1), so a wrong block formula shows
    L = 6
    rng = np.random.default_rng(4)
    a_blocks, b_blocks = _random_sector_blocks(L, rng), _random_sector_blocks(L, rng)
    a, b = dense_from_sectors(a_blocks, L), dense_from_sectors(b_blocks, L)
    want = np.abs(a @ b - b @ a).max()
    assert want > 1e-3
    assert commutator_defect(a_blocks, b_blocks) == pytest.approx(want, rel=1e-12)


def test_restrict_trivial_cases():
    basis = sector_basis(4, 0)
    r = restrict(np.eye(16), basis)
    assert np.abs(r - np.eye(6)).max() < 1e-14

    mags = site_spins(np.arange(16), 4).sum(axis=1)
    r2 = restrict(np.diag(mags), basis)
    assert np.abs(r2).max() < 1e-14


def test_restrict_reassembles_full_spectrum():
    L = 8
    circ = homogeneous_circuit(random_mc_gate(17), L, boundary="periodic")
    u = dense_propagator(circ)
    full = np.sort(np.angle(np.linalg.eigvals(u)))
    blocks = []
    for m in range(-L, L + 1, 2):
        r = restrict(u, sector_basis(L, m))
        blocks.append(np.angle(np.linalg.eigvals(r)))
    assert np.abs(np.sort(np.concatenate(blocks)) - full).max() < 1e-10


def test_check_sector_column_flags_mismatch_and_leak():
    L, m = 6, 0
    states = sector_states(L, m)
    assert basis_matrix(sector_basis(L, m)).shape == (states.size, states.size)
    rng = np.random.default_rng(2)
    circuit = homogeneous_circuit(identity_gate(), L)
    col_in = rng.normal(size=states.size)
    col = col_in.copy()
    check_sector_column(propagator_apply, circuit, col_in, col, states, "test")
    col[3] += 1e-9
    with pytest.raises(SymmetryError):
        check_sector_column(propagator_apply, circuit, col_in, col, states, "test")

    def leaky(circuit, full):
        out = full.copy()
        out[0] = 1e-9  # all-zeros word, outside the m=0 sector
        return out

    with pytest.raises(SymmetryError):
        check_sector_column(leaky, circuit, col_in, col_in, states, "test")


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
            (op,) = sector_operators([[(u, (a, b))]], L, m)
            assert op.has_canonical_format
            assert np.array_equal(op.toarray(), want)
            pattern = _group_pattern(L, m, ((a, b),))
            assert _group_pattern(L, m, ((a, b),)) is pattern
            assert not any(arr.flags.writeable for arr in pattern)


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_sector_partial_trace_matches_the_dense_partial_trace(w):
    L = 8
    rng = np.random.default_rng(w)
    blocks = {}
    for m in range(-L, L + 1, 2):
        n = sector_states(L, m).size
        blocks[m] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense = dense_from_sectors(blocks, L).reshape((2,) * 2 * L)
    for sites in (tuple(range(1, w + 1)), tuple((L - 1 + t) % L for t in range(w))):
        order = list(sites) + [s for s in range(L) if s not in sites]
        t = dense.transpose(order + [L + s for s in order])
        want = np.trace(t.reshape(1 << w, 1 << (L - w), 1 << w, 1 << (L - w)), axis1=1, axis2=3)
        got = sector_partial_trace(blocks, sites, L)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def step_circuits(L, boundary):
    """Homogeneous, two-gate, three-layer and disordered periods on L sites."""
    n_bonds = [len(layer_bonds(L, boundary, i)) for i in (0, 1)]
    hom = homogeneous_circuit(random_mc_gate(13), L, boundary)
    pair = chaotic_gate_pair(4)
    seeds = iter(range(100, 200))
    return {
        "homogeneous": hom,
        "two-gate": BrickworkCircuit(L, [[g] * n for g, n in zip(pair, n_bonds)], boundary),
        "three-layer": equivalent_circuit(hom),
        "disordered": BrickworkCircuit(
            L, [[random_mc_gate(next(seeds)) for _ in range(n)] for n in n_bonds], boundary
        ),
    }


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_grouped_layer_step_matches_bond_by_bond(L, boundary):
    rng = np.random.default_rng(L)
    for name, circ in step_circuits(L, boundary).items():
        for m in range(-L, L + 1, 2):
            n = sector_states(L, m).size
            x = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            grouped = sector_step(layer_operators(circ, m), x)
            by_bond = sector_step(sector_operators([[p] for p in circ.layer_pairs()], L, m), x)
            assert np.abs(grouped - by_bond).max() < 1e-13, (name, m)
            # one operator per run of GROUP_BONDS bonds; L = 2 open has no even layer
            runs = [len(bond_groups(circ.layer(i))) for i in range(len(circ.layers))]
            assert runs == [-(-len(layer) // GROUP_BONDS) for layer in circ.layers]
            assert len(layer_operators(circ, m)) == sum(runs)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_group_pattern_cached_read_only_canonical(boundary):
    L = 8
    circ = homogeneous_circuit(random_mc_gate(3), L, boundary)
    for m in range(-L, L + 1, 2):
        states = sector_states(L, m)
        for i in (0, 1):
            bonds = tuple(layer_bonds(L, boundary, i))
            for group in (bonds[:GROUP_BONDS], bonds[GROUP_BONDS:]):
                if not group:
                    continue
                pattern = _group_pattern(L, m, group)
                assert _group_pattern(L, m, group) is pattern
                assert not any(arr.flags.writeable for arr in pattern)
                indptr, indices, entry = pattern
                assert entry.shape == (len(group), indices.size)
                mixed = sum(
                    ((states >> (L - 1 - a)) & 1) != ((states >> (L - 1 - b)) & 1)
                    for a, b in group
                )
                assert np.array_equal(np.diff(indptr), 2**mixed)
            for op in sector_operators(bond_groups(circ.layer(i)), L, m):
                assert op.has_canonical_format
                assert op.nnz == np.count_nonzero(op.data)  # a generic gate fills the pattern


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.sampled_from([2, 4, 6, 8, 10]),
    boundary=st.sampled_from(["open", "periodic"]),
    data=st.data(),
)
def test_grouped_step_matches_full_space_propagator(seed, L, boundary, data):
    m = data.draw(st.sampled_from(range(-L, L + 1, 2)), label="m")
    circ = homogeneous_circuit(random_mc_gate(seed), L, boundary)
    states = sector_states(L, m)
    rng = np.random.default_rng(seed)
    col = rng.normal(size=states.size) + 1j * rng.normal(size=states.size)
    got = sector_step(layer_operators(circ, m), col)
    # raises on a mismatch above SECTOR_ORACLE_TOL or on weight outside the sector
    check_sector_column(propagator_apply, circ, col, got, states, "grouped step")


def test_capacity_limits():
    with pytest.raises(CapacityError):
        build_propagator(homogeneous_circuit(identity_gate(), 14, boundary="open"))
    # an even L past the basis cap is a size refusal, a malformed L a bad request
    with pytest.raises(CapacityError):
        sector_basis(22, 0)
    with pytest.raises(ParameterError):
        sector_basis(21, 1)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_propagator_blocks_are_the_dense_sector_blocks(boundary):
    L = 8
    circ = homogeneous_circuit(random_mc_gate(19), L, boundary=boundary)
    dense = dense_propagator(circ)
    blocks = build_propagator(circ)
    assert list(blocks) == list(range(-L, L + 1, 2))
    for m, block in blocks.items():
        s = sector_states(L, m)
        assert np.abs(block - dense[np.ix_(s, s)]).max() < 1e-12


def _chunk_circuits(L, boundary):
    """Homogeneous, two-gate, odd-layer-only (the K block's) and three-layer
    symmetrized circuits."""
    hom = homogeneous_circuit(random_mc_gate(13), L, boundary)
    pair = chaotic_gate_pair(4)
    layers = [[g] * len(layer_bonds(L, boundary, i)) for i, g in enumerate(pair)]
    return [hom, BrickworkCircuit(L, layers, boundary),
            BrickworkCircuit(L, hom.layers[:1], boundary), equivalent_circuit(hom)]


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_pushed_blocks_are_the_dense_sector_blocks(L, boundary):
    k_values = [None] + list(range(L // 2)) if boundary == "periodic" else [None]
    for circ in _chunk_circuits(L, boundary):
        dense = dense_propagator(circ)
        for m in range(-L, L + 1, 2):
            for k in k_values:
                basis = sector_basis(L, m, k)
                block = build_sector_block(circ, basis)
                assert block.shape == (basis.dim, basis.dim)
                if basis.dim:
                    assert np.abs(block - restrict(dense, basis)).max() < 1e-12, (m, k)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_chunked_build_equals_the_one_pass_build_bit_for_bit(monkeypatch, boundary):
    L = 8
    k_values = [None, 0, 1] if boundary == "periodic" else [None]
    for circ in _chunk_circuits(L, boundary):
        for m in (0, 2):
            for k in k_values:
                basis = sector_basis(L, m, k)
                monkeypatch.setattr(core, "BUILD_PATHS", 1 << 40)
                whole = build_sector_block(circ, basis)
                # one column a pass, and passes of a few columns with a shorter last one
                for paths in (1, 300):
                    monkeypatch.setattr(core, "BUILD_PATHS", paths)
                    chunked = build_sector_block(circ, basis)
                    assert chunked.shape == whole.shape
                    assert chunked.tobytes() == whole.tobytes(), (m, k, paths)


def test_chunked_build_checks_column_zero_once(monkeypatch):
    L = 8
    circ = homogeneous_circuit(random_mc_gate(13), L, "periodic")
    basis = sector_basis(L, 0, 1)
    monkeypatch.setattr(core, "BUILD_PATHS", 1)
    real_check, calls = core.check_sector_column, []

    def spy(*args):
        calls.append(args)
        return real_check(*args)

    monkeypatch.setattr(core, "check_sector_column", spy)
    build_sector_block(circ, basis)
    assert len(calls) == 1
    real_columns = core.layer_columns

    def corrupted(circuit, m):
        groups = real_columns(circuit, m)
        indptr, indices, values = groups[-1]
        groups[-1] = indptr, indices, values * np.exp(0.1j)  # no longer the circuit's layer
        return groups

    monkeypatch.setattr(core, "layer_columns", corrupted)
    with pytest.raises(SymmetryError, match="disagrees with the full-space column"):
        build_sector_block(circ, basis)


def test_momentum_block_of_a_ring_with_unequal_gates_is_refused_after_the_mc_check():
    L = 8
    good, other = gate_matrix(random_mc_gate(2)), gate_matrix(random_mc_gate(3))
    bad = np.cos(0.3) * np.eye(4) - 1j * np.sin(0.3) * np.fliplr(np.eye(4))
    layers = [[good] * (L // 2), [good] * (L // 2)]
    layers[0][1] = other  # still MC, but S^2 no longer commutes with the circuit
    ring = BrickworkCircuit(L, layers, "periodic")
    with pytest.raises(SymmetryError, match="equal gates") as err:
        build_sector_block(ring, sector_basis(L, 0, 1))
    assert err.value.residual == pytest.approx(np.abs(other - good).max())
    # without a momentum the plain block is still built, and exact
    plain = sector_basis(L, 0)
    assert np.abs(build_sector_block(ring, plain) - restrict(dense_propagator(ring), plain)).max() < 1e-12
    layers[1][0] = bad  # a non-MC gate is refused first
    with pytest.raises(SymmetryError, match="not magnetization conserving"):
        build_sector_block(BrickworkCircuit(L, layers, "periodic"), sector_basis(L, 0, 1))
    with pytest.raises(ParameterError, match="periodic"):
        build_sector_block(homogeneous_circuit(good, L, "open"), sector_basis(L, 0, 1))


def test_sector_build_peak_memory_stays_within_the_chunks():
    # at L = 14, m = 0, k = 1 one dense 3432 x 490 evolution is 27 MB, and
    # the one-pass column-stepping build held about two of them (52 MiB traced)
    circ = homogeneous_circuit(random_mc_gate(3), 14, "periodic")
    basis = sector_basis(14, 0, 1)
    tracemalloc.start()
    try:
        block = build_sector_block(circ, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (490, 490)
    assert peak < 20 * 2**20, f"build peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("rows", [1, 7, 100])
def test_group_pattern_is_the_same_in_any_row_chunks(monkeypatch, rows):
    cases = [(8, m, ((0, 1), (2, 3), (4, 5), (6, 7))) for m in (-4, 0, 2)]
    cases += [(8, 0, ((1, 2), (3, 4), (5, 6), (7, 0))), (8, 0, ((1, 2, 3),)), (10, 0, ((9,), (0,)))]
    for L, m, blocks in cases:
        _group_pattern.cache_clear()
        whole = _group_pattern(L, m, blocks)
        _group_pattern.cache_clear()
        monkeypatch.setattr(core, "PATTERN_CHUNK_ROWS", rows)
        chunked = _group_pattern(L, m, blocks)
        monkeypatch.undo()
        for a, b in zip(whole, chunked):
            assert a.dtype == b.dtype and np.array_equal(a, b), (L, m, blocks)
    _group_pattern.cache_clear()


def test_translation_permutation_order():
    L = 8
    states = np.arange(1 << L)
    composed = states
    for _ in range(L):
        composed = translation_permutation(composed, L, 1)
    assert np.array_equal(composed, states)
    # shifting by one site twice equals shifting by two
    once = translation_permutation(states, L, 1)
    assert np.array_equal(translation_permutation(once, L, 1), translation_permutation(states, L, 2))


def test_sector_coordinates_hold_no_full_space_object():
    # W is stored as numpy arrays on the sector's rows, T as its L site angles
    basis = sector_basis(14, 0, 1)
    assert basis.dim == 490
    assert basis.source.shape == (490,)
    assert basis.column.shape == basis.amplitude.shape == (3432,)
    assert all(isinstance(v, np.ndarray) for v in (basis.source, basis.column, basis.amplitude))
    circuit = homogeneous_circuit(random_mc_gate(3), 10, "open")
    assert global_time_reversal(circuit).shape == (10,)
    # the shift and flip-reflection maps act on arrays of states
    for L in (8, 10):
        states = np.arange(1 << L)
        for sites in range(L):
            want = [translate_index(n, L, sites) for n in states]
            assert translation_permutation(states, L, sites).tolist() == want
        # bit-reverse the L-bit word, then complement it
        want = [int(format(n, f"0{L}b")[::-1], 2) ^ ((1 << L) - 1) for n in states]
        assert flip_reflection_permutation(states, L).tolist() == want
        sector = sector_states(L, 0)
        assert flip_reflection_permutation(sector, L).tolist() == [want[n] for n in sector]


# ------------------------------------------------------- unitary eigenphases


def _haar(n, seed):
    from scipy.stats import unitary_group

    return unitary_group.rvs(n, random_state=np.random.default_rng(seed)).reshape(n, n)


def _circle_distance(a, b):
    """Largest distance between two phase multisets under the optimal pairing."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.angle(np.exp(1j * (np.asarray(a)[:, None] - np.asarray(b)[None, :]))))
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max() if cost.size else 0.0


def _check_decomposition(u, phases, q):
    n = u.shape[0]
    assert np.abs(q.conj().T @ q - np.eye(n)).max() < 1e-12
    assert np.abs((q * np.exp(1j * phases)) @ q.conj().T - u).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 64, 300])
def test_unitary_phases_match_eigvals_on_the_circle(n):
    u = _haar(n, seed=n)
    phases = unitary_phases(u)
    assert phases.shape == (n,) and (phases >= 0).all() and (phases < 2 * np.pi).all()
    assert _circle_distance(phases, np.angle(np.linalg.eigvals(u))) < 1e-12
    with_vectors, q = unitary_phases(u, vectors=True)
    assert _circle_distance(with_vectors, phases) < 1e-12
    _check_decomposition(u, with_vectors, q)


def _solves(monkeypatch):
    """Record the pole angle of every Cayley solve unitary_phases makes."""
    alphas, cayley = [], core._cayley

    def counted(u, alpha):
        alphas.append(alpha)
        return cayley(u, alpha)

    monkeypatch.setattr(core, "_cayley", counted)
    return alphas


@pytest.mark.parametrize(
    "offset", [0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 2.5e-3, -2.5e-3]
)
@pytest.mark.parametrize("at", ["pole", "+1", "-1"])
def test_unitary_phases_at_and_near_the_poles(monkeypatch, at, offset):
    # one eigenvalue at (or next to) the first pole -exp(i CAYLEY_ALPHA), +1 or -1;
    # at 2.5e-3 from the pole max|mu| ~ 800 stays in the first pass, where only
    # the Hermitian part of H keeps the other phases within 1e-12
    n = 48
    v = _haar(n, seed=3)
    true = np.random.default_rng(4).uniform(0.0, 2 * np.pi, n)
    true[0] = {"pole": CAYLEY_ALPHA + np.pi, "+1": 0.0, "-1": np.pi}[at] + offset
    true[1] = np.pi - true[0]  # a second structured phase elsewhere on the circle
    u = (v * np.exp(1j * true)) @ v.conj().T
    alphas = _solves(monkeypatch)
    phases, q = unitary_phases(u, vectors=True)
    assert _circle_distance(phases, true) < 1e-12
    _check_decomposition(u, phases, q)
    assert 1 <= len(alphas) <= 2
    if at == "pole" and abs(offset) <= 1e-6:
        assert len(alphas) == 2  # max|mu| ~ 2/offset is past CAYLEY_MU_MAX


@pytest.mark.parametrize(
    "diag",
    [[-1.0] * 6, [1.0] * 6, [1.0, -1.0, -1.0, 1.0, -1.0], [1j, -1j, 1j], [-1.0]],
    ids=["minus-identity", "identity", "signs", "plus-minus-i", "one-by-one"],
)
def test_unitary_phases_of_fully_degenerate_inputs(diag):
    v = _haar(len(diag), 5)
    for u in (np.diag(diag).astype(complex), (v * np.asarray(diag)) @ v.conj().T):
        phases, q = unitary_phases(u, vectors=True)
        assert _circle_distance(phases, np.angle(diag)) < 1e-12
        _check_decomposition(u, phases, q)


def test_unitary_phases_moves_a_singular_first_pole_by_a_quarter_turn(monkeypatch):
    alphas, cayley = [], core._cayley

    def singular_first(u, alpha):
        alphas.append(alpha)
        if alpha == CAYLEY_ALPHA:
            raise np.linalg.LinAlgError("Singular matrix")
        return cayley(u, alpha)

    monkeypatch.setattr(core, "_cayley", singular_first)
    u = _haar(16, seed=6)
    assert _circle_distance(unitary_phases(u), np.angle(np.linalg.eigvals(u))) < 1e-12
    assert alphas == [CAYLEY_ALPHA, CAYLEY_ALPHA + 0.5 * np.pi]


def test_unitary_phases_refuse_matrices_that_are_not_unitary():
    u = _haar(50, seed=7)
    noise = 1e-6 * np.random.default_rng(8).normal(size=u.shape)
    for bad in (u * (1.0 + 1e-6), u + noise, 2.0 * u, np.zeros((3, 3))):
        with pytest.raises(SymmetryError) as err:
            unitary_phases(bad)
        assert err.value.residual > BLOCK_UNITARITY_TOL
    with pytest.raises(ParameterError):
        unitary_phases(np.ones((2, 3)))
    assert unitary_phases(np.zeros((0, 0))).shape == (0,)


def test_every_unitary_eigendecomposition_goes_through_unitary_phases():
    # the general solver stays only where rp builds its truncated propagator,
    # which is not normal: eigenvalues only, solved once per block
    import ast
    from pathlib import Path

    allowed = {("rp.py", "truncated_propagator")}
    found = set()

    def general_solver(fn):
        if isinstance(fn, ast.Name):
            return fn.id in ("eigvals", "eig", "schur")
        if not isinstance(fn, ast.Attribute):
            return False
        owner = getattr(fn.value, "attr", getattr(fn.value, "id", ""))
        return fn.attr in ("eigvals", "schur") or (fn.attr == "eig" and owner == "linalg")

    def walk(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and general_solver(child.func):
                found.add((path.name, inner))
            walk(child, inner, path)

    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path)
    assert found == allowed
