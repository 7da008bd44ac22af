"""Eigenphase statistics: spacings, gap ratios, symmetry-resolved blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcbrick import levelstats
from mcbrick.core import (
    BrickworkCircuit,
    build_sector_block,
    homogeneous_circuit,
    layer_bonds,
    sector_basis,
    sector_states,
    site_spins,
    translation_permutation,
)
from mcbrick.errors import CapacityError, ParameterError, SymmetryError
from mcbrick.gates import gate_matrix, random_mc_gate
from mcbrick.levelstats import (
    R_TILDE_COE,
    R_TILDE_CUE,
    R_TILDE_POISSON,
    chaotic_gate_pair,
    flip_reflection_permutation,
    full_spectrum,
    phase_modded_overlap,
    pooled_r_tilde,
    resolved_spectra,
    scaled_spacings,
    sector_spectrum,
    spacing_ratios,
)
from mcbrick.levelstats import BLOCK_UNITARITY_TOL, _branch_phases, _k_block, _permutation_block
from mcbrick.symmetry import equivalent_circuit

from dense_oracles import (
    dense_propagator,
    pooled_ratios,
    restrict,
    sample_coe_phases,
    sample_cue_phases,
    sample_poisson_phases,
    translation_matrix,
)


def two_gate_circuit(L, boundary, seed):
    pair = chaotic_gate_pair(seed)
    layers = [[g] * len(layer_bonds(L, boundary, i)) for i, g in enumerate(pair)]
    return BrickworkCircuit(L, layers, boundary)


# ---------------------------------------------------------------- spacings


def test_scaled_spacings_unit_mean_and_wrap():
    rng = np.random.default_rng(3)
    ph = rng.uniform(0, 2 * np.pi, 257)
    s = scaled_spacings(ph)
    assert s.size == 257
    assert abs(s.mean() - 1.0) < 1e-12
    assert (s >= 0).all()
    # the wrap gap is included: [eps, 2pi - eps] has one ~full and one ~zero gap
    s2 = scaled_spacings(np.array([1e-3, 2 * np.pi - 1e-3]))
    assert abs(s2.sum() - 2.0) < 1e-12
    assert s2.min() < 1e-3 < 1.9 < s2.max()


def test_spacing_ratios_range_and_degenerate():
    ph = np.sort(np.random.default_rng(5).uniform(0, 2 * np.pi, 100))
    r = spacing_ratios(ph)
    assert r.size == 100
    assert ((r >= 0) & (r <= 1)).all()
    # exactly equidistant phases: all ratios 1
    assert np.allclose(spacing_ratios(np.linspace(0, 2 * np.pi, 16, endpoint=False)), 1.0)
    assert spacing_ratios(np.array([0.3])).size == 0


# ------------------------------------------------------- reference samplers


def test_poisson_reference_value():
    sets = [sample_poisson_phases(128, seed=s) for s in range(120)]
    r = np.concatenate([spacing_ratios(p) for p in sets]).mean()
    assert abs(r - R_TILDE_POISSON) < 0.006


def test_cue_reference_value():
    sets = sample_cue_phases(96, 40, seed=1)
    r = pooled_ratios(sets).mean()
    assert abs(r - R_TILDE_CUE) < 0.008


def test_coe_reference_value():
    sets = sample_coe_phases(96, 40, seed=2)
    r = pooled_ratios(sets).mean()
    assert abs(r - R_TILDE_COE) < 0.008


# ------------------------------------------------------------ sector blocks


def test_sector_spectrum_dimensions_and_pooling():
    ring = homogeneous_circuit(random_mc_gate(5), 8, "periodic")
    dims = 0
    for m in range(-8, 9, 2):
        for k in range(4):
            dims += sector_spectrum(ring, m, k).dim
    assert dims == 2**8
    with pytest.raises(ParameterError):
        sector_spectrum(homogeneous_circuit(random_mc_gate(5), 8, "open"), 0, k=1)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_sector_block_matches_restricted_propagator(boundary):
    L = 8
    hom = homogeneous_circuit(random_mc_gate(13), L, boundary)
    circuits = {
        "homogeneous": hom,
        "two-gate": two_gate_circuit(L, boundary, seed=4),
        "symmetrized": equivalent_circuit(hom),
    }
    k_values = range(L // 2) if boundary == "periodic" else [None]
    shift = translation_matrix(L, 1)
    for name, circ in circuits.items():
        u = dense_propagator(circ)
        odd = dense_propagator(BrickworkCircuit(L, circ.layers[:1], boundary))
        k_dense = shift @ odd
        for m in range(-L, L + 1, 2):
            for k in k_values:
                basis = sector_basis(L, m, k)
                if basis.dim == 0:
                    continue
                block = build_sector_block(circ, basis)
                assert np.abs(block - restrict(u, basis)).max() < 1e-12, (name, m, k)
                kb = _k_block(circ, basis)
                assert np.abs(kb - restrict(k_dense, basis)).max() < 1e-12, (name, m, k)


def test_sector_block_refuses_non_mc_gate():
    # exp(-i 0.3 XX) moves weight between |00> and |11>
    theta = 0.3
    xx = np.fliplr(np.eye(4))
    u = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * xx
    circ = homogeneous_circuit(u, 8, "open")
    with pytest.raises(SymmetryError) as err:
        build_sector_block(circ, sector_basis(8, 0))
    assert err.value.residual == pytest.approx(np.sin(theta))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_non_mc_gate_on_any_bond_is_refused(boundary):
    # one exp(-i 0.3 XX) among MC gates, bond by bond
    L = 8
    bad = np.cos(0.3) * np.eye(4) - 1j * np.sin(0.3) * np.fliplr(np.eye(4))
    good = gate_matrix(random_mc_gate(2))
    basis = sector_basis(L, 0, 0 if boundary == "periodic" else None)
    for i in (0, 1):
        for j in range(len(layer_bonds(L, boundary, i))):
            layers = [[good] * len(layer_bonds(L, boundary, n)) for n in (0, 1)]
            layers[i][j] = bad
            circ = BrickworkCircuit(L, layers, boundary)
            with pytest.raises(SymmetryError, match="not magnetization conserving"):
                build_sector_block(circ, basis)
            if i == 0:  # K holds the odd layer only
                with pytest.raises(SymmetryError, match="not magnetization conserving"):
                    _k_block(circ, basis)


def _shift_block(basis):
    states = sector_states(basis.L, basis.magnetization)
    return _permutation_block(basis, translation_permutation(states, basis.L, 1)).toarray()


def test_shift_block_squares_to_the_momentum_phase():
    # S^2 is exp(i theta2) on an (m, k) block: a shift the wrong way gives exp(-i theta2)
    L = 8
    for m in range(-L, L + 1, 2):
        for k in range(L // 2):
            basis = sector_basis(L, m, k)
            if basis.dim == 0:
                continue
            s = _shift_block(basis)
            theta2 = 2 * np.pi * k / (L // 2)
            assert np.abs(s @ s - np.exp(1j * theta2) * np.eye(basis.dim)).max() < 1e-14, (m, k)


def test_shift_block_to_the_power_l_is_one():
    L = 8
    for m in range(-L, L + 1, 2):
        basis = sector_basis(L, m)
        s = _shift_block(basis)
        assert np.array_equal(np.linalg.matrix_power(s, L), np.eye(basis.dim)), m


def test_k_block_is_the_odd_layer_sector_block_times_the_shift(monkeypatch):
    for name in ("_apply_k", "SECTOR_DIM_MAX", "sector_operators", "sector_step",
                 "bond_groups", "check_sector_column"):
        assert not hasattr(levelstats, name), name
    ring = homogeneous_circuit(random_mc_gate(5), 8, "periodic")
    basis = sector_basis(8, 0, 1)
    real = levelstats.build_sector_block
    seen = []

    def spy(circuit, b):
        seen.append(circuit)
        return real(circuit, b)

    monkeypatch.setattr(levelstats, "build_sector_block", spy)
    kb = _k_block(ring, basis)
    (odd,) = seen
    assert len(odd.layers) == 1 and np.array_equal(odd.layers[0], ring.layers[0])
    assert odd.boundary == "periodic"
    assert np.abs(kb - _shift_block(basis) @ real(odd, basis)).max() == 0.0


def test_flip_reflection_permutation_is_involution():
    for L in (2, 4, 6):
        states = np.arange(1 << L)
        perm = flip_reflection_permutation(states, L)
        assert (flip_reflection_permutation(perm, L) == states).all()
        # spin flip of the reflected word: all-ones maps to zero
        assert perm[(1 << L) - 1] == 0


def test_flip_reflection_block_is_formed_at_zero_magnetization_only(monkeypatch):
    L = 8
    ring = homogeneous_circuit(random_mc_gate(5), L, "periodic")
    real = flip_reflection_permutation
    seen = []

    def spy(states, n):
        seen.append(n)
        return real(states, n)

    monkeypatch.setattr(levelstats, "flip_reflection_permutation", spy)
    for m in range(-L, L + 1, 2):
        for k in range(L // 2):
            before = len(seen)
            split = resolved_spectra(ring, m, k)
            # the flip maps k to -k: only self-conjugate k (2k = 0 mod L/2) can close
            assert len(seen) == before + (m == 0 and (2 * k) % (L // 2) == 0), (m, k)
            plain = sector_spectrum(ring, m, k).eigenphases
            union = np.concatenate([np.zeros(0)] + [r.eigenphases for r in split])
            assert union.size == plain.size
            if not plain.size:
                continue
            diff = _cut_phases(union, plain) - _cut_phases(plain, plain)
            assert np.abs(diff).max() < 1e-12, (m, k)
            if m:
                # the flip maps m to -m: no state of the sector stays in it
                images = real(sector_states(L, m), L)
                assert (site_spins(images, L).sum(axis=1) == -m).all(), (m, k)


@pytest.mark.parametrize("L", [8, 12])
def test_flip_reflection_closes_exactly_on_self_conjugate_momenta(L):
    # the early exit against the numeric path: the flip's permutation block
    # on (0, k) is unitary exactly where 2k = 0 (mod L/2)
    states = sector_states(L, 0)
    images = flip_reflection_permutation(states, L)
    for k in range(L // 2):
        basis = sector_basis(L, 0, k)
        xp = _permutation_block(basis, images).toarray()
        closes = np.abs(xp.conj().T @ xp - np.eye(basis.dim)).max() <= BLOCK_UNITARITY_TOL
        assert closes == ((2 * k) % (L // 2) == 0), k
        block = levelstats._flip_reflection_block(basis)
        assert (block is not None) == closes, k
        if closes:
            assert np.array_equal(block, xp)


def test_resolved_spectra_block_structure():
    ring = homogeneous_circuit(random_mc_gate(5), 8, "periodic")
    # m=0, k=0: flip parity and both K branches -> four blocks
    res = resolved_spectra(ring, 0, 0)
    kinds = sorted(r.sector_key() for r in res)
    assert len(res) == 4
    assert all(".f" in key and ".st" in key for key in kinds)
    assert sum(r.dim for r in res) == sector_basis(8, 0, 0).dim
    assert sorted((r.flip_parity, r.spacetime_block) for r in res) == [
        (-1, 0), (-1, 1), (1, 0), (1, 1)]
    # self-conjugate k = L/4 has theta2 = pi: branch exchange, two blocks
    res2 = resolved_spectra(ring, 0, 2)
    assert len(res2) == 2
    assert all(r.flip_parity is None for r in res2)
    # m != 0: no flip parity (the operation leaves the sector)
    res3 = resolved_spectra(ring, 2, 1)
    assert len(res3) == 2
    assert all(r.flip_parity is None for r in res3)


def test_resolved_spectra_union_matches_plain_block():
    ring = homogeneous_circuit(random_mc_gate(7), 8, "periodic")
    plain = sector_spectrum(ring, 0, 1)
    split = resolved_spectra(ring, 0, 1)
    ph = np.sort(np.concatenate([r.eigenphases for r in split]))
    assert np.abs(ph - plain.eigenphases).max() < 1e-10

    obc = homogeneous_circuit(random_mc_gate(7), 8, "open")
    plain = sector_spectrum(obc, 0)
    split = resolved_spectra(obc, 0)
    assert {r.sector_key() for r in split} == {"m+0.f+", "m+0.f-"}
    ph = np.sort(np.concatenate([r.eigenphases for r in split]))
    assert np.abs(ph - plain.eigenphases).max() < 1e-10


def _cut_phases(phases, ref):
    """Phases measured from the middle of the widest gap of ref, sorted, so
    that no phase near the cut can wrap differently in the two lists."""
    ref = np.sort(ref)
    gaps = np.diff(ref, append=ref[0] + 2 * np.pi)
    cut = ref[np.argmax(gaps)] + 0.5 * gaps.max()
    return np.sort((np.asarray(phases) - cut) % (2 * np.pi))


@pytest.mark.parametrize("L", [8, 10])
def test_resolved_union_matches_plain_eigvals_in_every_sector(L):
    ring = homogeneous_circuit(random_mc_gate(13), L, "periodic")
    for m in range(-L, L + 1, 2):
        for k in range(L // 2):
            plain = sector_spectrum(ring, m, k).eigenphases
            split = resolved_spectra(ring, m, k)
            union = np.concatenate([np.zeros(0)] + [r.eigenphases for r in split])
            assert union.size == plain.size == sector_basis(L, m, k).dim
            if not plain.size:
                continue
            diff = _cut_phases(union, plain) - _cut_phases(plain, plain)
            assert np.abs(diff).max() < 1e-12, (m, k)


def _eigvals_phases(u):
    return np.angle(np.linalg.eigvals(u)) % (2 * np.pi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    L=st.sampled_from([2, 4, 6, 8]),
    boundary=st.sampled_from(["open", "periodic"]),
    data=st.data(),
)
def test_resolved_blocks_match_eigvals_of_the_same_block(seed, L, boundary, data):
    # the Cayley eigensolve against the general solver on every block that
    # resolved_spectra forms (sector, parity halves, K branches)
    m = data.draw(st.sampled_from(range(-L, L + 1, 2)), label="m")
    k = None
    if boundary == "periodic":
        k = data.draw(st.sampled_from([None, *range(L // 2)]), label="k")
    circ = homogeneous_circuit(random_mc_gate(seed), L, boundary)
    got = resolved_spectra(circ, m, k)
    with mock.patch.object(levelstats, "unitary_phases", _eigvals_phases):
        want = resolved_spectra(circ, m, k)
    assert [r.sector_key() for r in got] == [r.sector_key() for r in want]
    for a, b in zip(got, want):
        assert a.dim == b.dim
        if a.dim:
            ref = b.eigenphases
            diff = _cut_phases(a.eigenphases, ref) - _cut_phases(ref, ref)
            assert np.abs(diff).max() < 1e-12, a.sector_key()


def test_branch_phases_refuse_a_propagator_of_another_gate():
    ring = homogeneous_circuit(random_mc_gate(5), 8, "periodic")
    other = homogeneous_circuit(random_mc_gate(6), 8, "periodic")
    basis = sector_basis(8, 0, 1)
    theta2 = 2 * np.pi * basis.momentum / 4
    kb = _k_block(ring, basis)
    phi, par = _branch_phases(build_sector_block(ring, basis), kb, theta2)
    assert phi.size == par.size == basis.dim
    with pytest.raises(SymmetryError, match="residual") as err:
        _branch_phases(build_sector_block(other, basis), kb, theta2)
    assert err.value.residual > BLOCK_UNITARITY_TOL
    # an empty parity half has no phases and nothing to check
    phi, par = _branch_phases(np.zeros((0, 0)), np.zeros((0, 0)), theta2)
    assert phi.size == par.size == 0


def test_resolved_spectra_mirror_sectors_degenerate():
    ring = homogeneous_circuit(random_mc_gate(11), 8, "periodic")
    a = sector_spectrum(ring, 2, 1).eigenphases
    b = sector_spectrum(ring, -2, 3).eigenphases  # k -> -k mod L/2
    assert np.abs(np.sort(a) - np.sort(b)).max() < 1e-10


def test_spacetime_pair_covers_block():
    ring = homogeneous_circuit(random_mc_gate(9), 8, "periodic")
    # k = 1 is not self-conjugate at L = 8: the K-branch split alone applies
    r0, r1 = resolved_spectra(ring, 0, 1)
    assert r0.spacetime_block == 0 and r1.spacetime_block == 1
    assert r0.flip_parity is None and r1.flip_parity is None
    assert r0.dim + r1.dim == sector_basis(8, 0, 1).dim


def test_spacetime_needs_homogeneous_ring():
    circ = two_gate_circuit(8, "periodic", seed=1)
    # resolved_spectra silently skips refinements that do not apply
    res = resolved_spectra(circ, 0, 1)
    assert len(res) == 1
    assert (res[0].m, res[0].k) == (0, 1)
    assert res[0].spacetime_block is None and res[0].flip_parity is None


def test_sector_capacity_guard():
    ring = homogeneous_circuit(random_mc_gate(3), 16, "periodic")
    with pytest.raises(CapacityError):
        sector_spectrum(ring, 0)


# ------------------------------------------------- statistics of circuits


def test_homogeneous_ring_poisson_like():
    ring = homogeneous_circuit(random_mc_gate(23), 12, "periodic")
    blocks = []
    for m in range(-12, 13, 2):
        for k in range(6):
            blocks.extend(resolved_spectra(ring, m, k))
    usable = [b for b in blocks if b.dim >= 2]
    # no residual exact degeneracies once fully resolved
    tiny = sum(
        int(np.sum(scaled_spacings(b.eigenphases) * (2 * np.pi) / b.dim < 1e-10)) for b in usable
    )
    assert tiny == 0
    r = pooled_r_tilde(usable)
    assert abs(r - R_TILDE_POISSON) < 0.02


def test_unresolved_spectrum_reads_below_poisson():
    # merging symmetry sectors piles up uncorrelated spectra: the gap-ratio
    # mean collapses toward zero, a sharp negative control for resolution
    ring = homogeneous_circuit(random_mc_gate(23), 8, "periodic")
    merged = full_spectrum(ring)
    assert merged.r_tilde < R_TILDE_POISSON - 0.05
    resolved = []
    for m in range(-8, 9, 2):
        for k in range(4):
            resolved.extend(resolved_spectra(ring, m, k))
    r = pooled_r_tilde([b for b in resolved if b.dim >= 2])
    assert r > merged.r_tilde + 0.04


def test_two_gate_obc_beats_merged_and_sits_near_coe():
    circ = two_gate_circuit(12, "open", seed=424_200)
    blocks = [sector_spectrum(circ, m) for m in (0, 2, -2)]
    r = pooled_r_tilde(blocks)
    assert 0.49 < r < 0.56


def test_chaotic_gate_pair_deterministic_and_screened():
    ga, gb = chaotic_gate_pair(424_200)
    ga2, gb2 = chaotic_gate_pair(424_200)
    assert np.array_equal(ga.matrix, ga2.matrix)
    assert np.array_equal(gb.matrix, gb2.matrix)
    assert phase_modded_overlap(ga, gb) <= 0.8
    for g in (ga, gb):
        assert 0.55 <= abs(g.matrix[1, 2]) ** 2 <= 0.75
    # a gate against its own phase twist is flagged as near-equivalent
    from mcbrick.gates import TwoQubitGate, magnetization_phase_gate

    twisted = TwoQubitGate(magnetization_phase_gate(0.7) @ ga.matrix)
    assert phase_modded_overlap(ga, twisted) > 0.999
