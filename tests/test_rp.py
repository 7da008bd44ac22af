"""Operator-space propagator: basis, window conjugation, spectra, gap fits."""

import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from hypothesis import given, settings, strategies as st

from dense_oracles import (
    LETTERS,
    SITE_OPS,
    dense_charges,
    dense_propagator,
    heisenberg_step,
    identity_gate,
    letter_charge,
    ring_rep_coefficient,
    string_tensor,
)
from mcbrick.core import embed_operator, homogeneous_circuit
from mcbrick.errors import (
    CapacityError,
    CriticalManifoldError,
    ParameterError,
    RefusalError,
    SymmetryError,
)
from mcbrick.gates import (
    HaarGateParams,
    HamiltonianGateParams,
    gate_from_haar,
    gate_from_hamiltonian,
    haar_params_from_gate,
    random_mc_gate,
)
from mcbrick.rmatrix import haar_to_r
from mcbrick.rp import (
    CONJUGATE_TOL,
    MIXING_TOL,
    ORDER_TOL,
    RADIUS_TOL,
    TruncatedPropagator,
    _charge_block,
    _conjugate_order,
    _conjugation_superop,
    _lambda2,
    _realified,
    check_fit_supports,
    code_charge,
    conserved_density_vectors,
    gap_scaling,
    rp_spectrum,
    string_codes,
    string_weights,
    truncated_propagator,
    unit_multiplicity,
)


def phase_point(delta):
    p = HamiltonianGateParams(tau=np.pi / 3, delta=delta, B=0.5, D=0.5)
    return gate_from_hamiltonian(p)


def block_labels(r, c):
    """(start parity, string) of each row of the charge-c block, spelled out:
    lexicographic in 1zpm order, even starts first."""
    strings = ["".join(t) for t in product(LETTERS, repeat=r)
               if t[0] != "1" and letter_charge("".join(t)) == c]
    return [(p, s) for p in ("even", "odd") for s in strings]


# ------------------------------------------------------------------ basis


def test_basis_counts_and_partition():
    # representatives: length-r strings with a non-identity first letter,
    # at both start parities, each in the block of its own charge
    g = random_mc_gate(1)
    for r in (1, 2, 3):
        tp = truncated_propagator(g, r, 0.0)
        assert sum(len(b) for b in tp.blocks.values()) == 2 * (4**r - 4 ** (r - 1))
        assert list(tp.blocks) == list(range(-r, r + 1))
        assert all(len(b) == len(block_labels(r, c)) for c, b in tp.blocks.items())
    for r in (-1, 0):
        with pytest.raises(ParameterError):
            truncated_propagator(g, r, 0.0)
    with pytest.raises(CapacityError):
        truncated_propagator(g, 7, 0.0)


def test_basis_orthonormal_single_site():
    for a in LETTERS:
        for b in LETTERS:
            ip = np.trace(SITE_OPS[a].conj().T @ SITE_OPS[b]) / 2.0
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-15


# -------------------------------------------------------- window stepping


def test_heisenberg_step_identity_gate_and_charge():
    t = string_tensor("zpm", 2, 8)
    out = heisenberg_step(t, identity_gate(), window=-2)
    assert np.abs(out - t).max() < 1e-14
    # magnetization density stays in the charge-0 block under any MC gate
    g = random_mc_gate(1)
    out = heisenberg_step(string_tensor("z", 3, 8), g, window=-2)
    for digs in np.argwhere(np.abs(out) > 1e-12):
        label = "".join(LETTERS[d] for d in digs)
        assert letter_charge(label) == 0


def test_heisenberg_step_matches_dense_conjugation():
    L = 10
    g = random_mc_gate(3)
    U = dense_propagator(homogeneous_circuit(g, L, "periodic"))

    def dense_string(label, start):
        mats = [np.eye(2, dtype=complex)] * L
        for i, ch in enumerate(label):
            mats[start + i] = SITE_OPS[ch]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    for label, parity in [("zpm", 0), ("pzm", 1), ("z1m", 0)]:
        w = len(label) + 5
        # window on lattice sites 2 .. 2+w-1, operator interior at 4+parity
        stepped = heisenberg_step(string_tensor(label, 2 + parity, w), g, window=2)
        evolved = U.conj().T @ dense_string(label, 4 + parity) @ U
        # embedding is linear: sum the window kernels, then embed once
        kernel = sum(
            stepped[tuple(digs)] * _window_kernel("".join(LETTERS[d] for d in digs))
            for digs in np.argwhere(np.abs(stepped) > 1e-16)
        )
        recon = embed_operator(kernel, list(range(2, 2 + w)), L)
        assert np.abs(recon - evolved).max() < 1e-12


def _window_kernel(label):
    mats = [SITE_OPS[ch] for ch in label]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def test_heisenberg_step_margin_errors():
    g = random_mc_gate(2)
    # left edge on an even lattice site needs two free sites, one is not enough
    with pytest.raises(ParameterError):
        heisenberg_step(string_tensor("zz", 1, 6), g, window=-1)
    # same operator with margin two passes
    heisenberg_step(string_tensor("zz", 2, 7), g, window=-2)
    with pytest.raises(ParameterError):
        heisenberg_step(np.zeros((4, 4, 5)), g, window=0)


# ------------------------------------------------------------- propagator


def test_propagator_identity_gate_is_identity():
    tp = truncated_propagator(identity_gate(), 2, 0.0)
    for block in tp.blocks.values():
        assert np.abs(block - np.eye(len(block))).max() < 1e-13
    assert tp.mixing_defect < 1e-13


def test_propagator_matches_explicit_window_elements():
    # every element of three charge blocks, both column parities, against
    # the dense (r+5)-site window step; at even r the two parities have
    # different light cones (r+2 and r+4 sites).  At k = 0 and pi the
    # negative-charge block is the conjugate of its partner, not a build
    g = random_mc_gate(11)
    ks = (0.7, 0.0, np.pi)

    def slot(lab, pos, w):
        idx = [0] * w
        for t, ch in enumerate(lab):
            idx[pos + t] = LETTERS.index(ch)
        return tuple(idx)

    for r, charges in ((3, (0, 1, -1)), (4, (2, 3, -2))):
        tps = [truncated_propagator(g, r, k) for k in ks]
        w = r + 5
        for c in charges:
            labels = block_labels(r, c)
            for jcol, (p_col, lab_col) in enumerate(labels):
                stepped = heisenberg_step(
                    string_tensor(lab_col, 2 + (p_col == "odd"), w), g, window=-2
                )
                placed = np.array([
                    [stepped[slot(lab_row, 2 + (p_row == "odd") + 2 * jshift, w)]
                     for jshift in (-1, 0, 1)]
                    for p_row, lab_row in labels
                ])
                for k, tp in zip(ks, tps):
                    expected = placed @ np.exp(-1j * k * np.array([-1, 0, 1]))
                    assert np.abs(tp.blocks[c][:, jcol] - expected).max() < 1e-12


def test_propagator_build_stays_small():
    # strings travel as slot integers, one circuit layer each way, so no
    # operator on the 4^cone string space is ever formed; the build imports
    # nothing, so the budget covers all of it
    gate = gate_from_haar(HaarGateParams(0.1, 0.4, 0.9, 0.3, 0.2))
    tracemalloc.start()
    try:
        truncated_propagator(gate, 4, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "gate",
    [gate_from_haar(HaarGateParams(0.1, 0.4, 0.9, 0.3, 0.2)), random_mc_gate(11)],
    ids=["hurwitz-I", "random-11"],
)
def test_conjugate_blocks_match_a_direct_build(gate):
    # at k = 0 and pi block -c is derived from block c; it must equal the
    # block the per-charge build gives, and its eigenvalues the conjugates
    superop = _conjugation_superop(gate)
    for r in range(1, 6):
        for k in (0.0, np.pi):
            tp = truncated_propagator(gate, r, k)
            for c in range(-r, r + 1):
                direct = _charge_block(superop, r, c, k)
                assert np.abs(tp.blocks[c] - direct).max() <= 1e-15, (r, k, c)
            for c in range(1, r + 1):
                assert np.array_equal(tp.eigenvalues[-c], tp.eigenvalues[c].conj())
    # off k = 0, pi the pairing links k with -k, so every block is built
    assert abs(np.sin(0.7)) > CONJUGATE_TOL
    tp = truncated_propagator(gate, 3, 0.7)
    at = _conjugate_order(3, 1)
    assert np.abs(tp.blocks[-1] - tp.blocks[1][np.ix_(at, at)].conj()).max() > 1e-3


def test_join_passes_bound_memory_and_keep_the_block(monkeypatch):
    # at r = 6 one row placement meets about 4 million column entries, so
    # the join sums its products in passes of JOIN_CHUNK; small passes
    # split this r = 5 block many times
    gate = gate_from_haar(HaarGateParams(0.1, 0.4, 0.9, 0.3, 0.2))
    superop = _conjugation_superop(gate)

    def build():
        tracemalloc.start()
        try:
            return _charge_block(superop, 5, 0, 0.7), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = build()  # one pass: at most about 190 000 products
    monkeypatch.setattr("mcbrick.rp.JOIN_CHUNK", 2**12)
    split, split_peak = build()
    assert np.abs(split - whole).max() <= 1e-15
    assert split_peak < 8 * 2**20 < 12 * 2**20 < whole_peak


def test_real_charge_zero_solve_matches_the_complex_one():
    # the charge-0 block is solved in the real basis of the p <-> m pairs
    gate = random_mc_gate(11)
    for r in (4, 5):
        for k in (0.0, np.pi):
            tp = truncated_propagator(gate, r, k)
            perm = _conjugate_order(r, 0)
            assert np.array_equal(perm[perm], np.arange(len(perm)))
            real = _realified(tp.blocks[0], perm)
            assert real.dtype == float and real.shape == tp.blocks[0].shape
            want = np.linalg.eigvals(tp.blocks[0])
            cost = np.abs(tp.eigenvalues[0][:, None] - want[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-13, (r, k)


def test_propagator_radius_multiplicity_and_charge_blocks():
    for seed in (5, 7, 19):
        g = random_mc_gate(seed)
        tp = truncated_propagator(g, 3, 0.0)
        assert tp.spectral_radius <= 1.0 + 1e-10
        assert tp.mixing_defect < 1e-13
        assert unit_multiplicity(tp) == 3
    tp_pi = truncated_propagator(random_mc_gate(5), 3, np.pi)
    assert min(np.abs(vals - 1.0).min() for vals in tp_pi.eigenvalues.values()) > 1e-6


def test_propagator_guards_refuse_broken_gates():
    # exp(-0.3i XX) flips spin pairs, so it mixes the charge blocks
    xx = np.fliplr(np.eye(4))
    with pytest.raises(SymmetryError) as err:
        truncated_propagator(np.cos(0.3) * np.eye(4) - 1j * np.sin(0.3) * xx, 2, 0.0)
    assert err.value.residual > MIXING_TOL
    # a charge-conserving but non-unitary matrix pushes the radius past 1
    with pytest.raises(SymmetryError) as err:
        truncated_propagator(1.1 * np.eye(4), 2, 0.0)
    assert err.value.residual > RADIUS_TOL


def test_unit_eigenvectors_are_the_conserved_densities():
    g = random_mc_gate(7)
    tp = truncated_propagator(g, 3, 0.0)
    cons = conserved_density_vectors(g, 3)
    # conserved vectors are exact fixed points of T(0)
    block = tp.blocks[0]
    fixed = block @ cons[0] - cons[0]
    assert np.abs(fixed).max() < 1e-10
    vals, vecs = np.linalg.eig(block)
    unit = vecs[:, np.abs(vals - 1.0) < 1e-8]
    assert unit.shape[1] == 3
    angles = scipy.linalg.subspace_angles(unit, cons[0])
    assert angles.max() < 1e-6
    # cos of the largest principal angle: eigenspace overlap
    assert np.cos(angles.max()) >= 1.0 - 1e-8


@pytest.mark.parametrize(
    "gate",
    [gate_from_haar(HaarGateParams(0.1, 0.4, 0.9, 0.3, 0.2)), random_mc_gate(7)],
    ids=["hurwitz-I", "random-7"],
)
def test_second_charge_pair_at_r5(gate):
    tp = truncated_propagator(gate, 5, 0.0)
    assert unit_multiplicity(tp) == 5
    # magnetization, the first pair and the ring-extracted second pair are
    # all exact fixed points of T(0)
    cons = conserved_density_vectors(gate, 5)[0]
    assert cons.shape[1] == 5
    assert np.abs(tp.blocks[0] @ cons - cons).max() < 1e-10
    fit = gap_scaling(gate, 0.0, [3, 5], tp=tp)
    assert fit.model == "exponential"
    assert fit.gaps[5] < fit.gaps[3]


GATE_I_ARGS = ["--delta-phase", "0.1", "--alpha", "0.4", "--phi", "0.9",
               "--chi", "0.3", "--theta", "0.2"]


def test_rp_spectrum_builds_each_support_once_and_eigensolves_each_block_once(
        tmp_path, monkeypatch):
    from mcbrick import rp
    from mcbrick.cli import main

    built, solves = [], []
    build = rp.truncated_propagator

    def counted_build(gate, r, k):
        built.append(build(gate, r, k))
        return built[-1]

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            solves.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(rp, "truncated_propagator", counted_build)
    # rp solves with numpy; scipy.linalg is patched too, so a solve there is counted
    for mod in (scipy.linalg, np.linalg):
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    argv = ["rp-spectrum", *GATE_I_ARGS, "--r", "4", "--k", "0", "--r-list", "3,4"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert sorted(tp.r for tp in built) == [3, 4]
    # eigenvalues once per block of charge c >= 0 (at k = 0 block -c is the
    # conjugate of block c), and no eigenvectors: the gap fit drops the
    # conserved unit eigenvalues by counting the conserved densities
    assert solves.count("eigvals") == sum(tp.r + 1 for tp in built)
    assert solves.count("eig") == 0
    assert len(solves) == solves.count("eigvals")


def test_fit_supports_drop_repeats():
    # unlike spectrum-stats sectors, a repeated --r-list support is merged, not refused
    assert check_fit_supports([4, 3, 4]) == (3, 4)


def test_gap_scaling_reads_a_supplied_propagator_bit_for_bit():
    gate = gate_from_haar(HaarGateParams(0.1, 0.4, 0.9, 0.3, 0.2))
    for k in (0.0, 1.3):
        tp = truncated_propagator(gate, 4, k)
        own = gap_scaling(gate, k, [3, 4])
        reused = gap_scaling(gate, k, [3, 4], tp=tp)
        assert reused.gaps == own.gaps and reused.lambda2 == own.lambda2
        assert (reused.rate, reused.slope) == (own.rate, own.slope)
    with pytest.raises(ParameterError):
        gap_scaling(gate, 0.0, [3, 4], tp=tp)


def test_conserved_densities_skip_charges_the_map_refuses():
    # sin(phi) = 0 off the swap family: haar_to_r refuses, magnetization stays
    gate = gate_from_haar(HaarGateParams(0.0, 0.3, 0.0, 0.0, 0.0))
    with np.errstate(all="raise"):
        cols = conserved_density_vectors(gate, 3)[0]
    assert cols.shape[1] == 1 and np.isclose(np.linalg.norm(cols), 1.0)
    # a critical gate is still refused, not reduced to magnetization
    critical = gate_from_haar(HaarGateParams(0.5 - np.pi, 0.0, 0.5, 0.0, 0.0))
    with pytest.raises(CriticalManifoldError):
        conserved_density_vectors(critical, 3)


def test_rp_spectrum_modes_and_filters():
    g = phase_point(1.0)
    tp = truncated_propagator(g, 3, 0.0)
    modes = rp_spectrum(tp, eps_keep=0.5)
    assert all(abs(lam) > 0.5 for lam, _ in modes)
    # moduli descend, up to the ties that rp_spectrum orders by charge and phase
    mods = [abs(lam) for lam, _ in modes]
    assert all(a >= b - ORDER_TOL for a, b in zip(mods, mods[1:]))
    assert [c for lam, c in modes if abs(lam - 1) < 1e-8] == [0, 0, 0]
    # the unit modes' eigenvectors lie in the span of the conserved densities
    vals, vr = scipy.linalg.eig(tp.blocks[0])
    q = np.linalg.qr(conserved_density_vectors(g, 3)[0])[0]
    unit = vr[:, np.abs(vals - 1) < 1e-8]
    assert unit.shape[1] == 3
    assert (np.linalg.norm(q.conj().T @ unit, axis=0) / np.linalg.norm(unit, axis=0)
            > 0.999999).all()


@pytest.mark.parametrize("bump", [0, 1], ids=["charge-0-larger", "charge-1-larger"])
def test_rp_spectrum_order_ignores_rounding_of_tied_moduli(bump):
    # moduli 1e-15 apart tie: charge block, then phase angle, set the order
    eps = 1e-15
    blocks = {0: np.diag([0.9 + eps * (1 - bump), 0.5j, -0.5j, 0.5 + eps * bump]),
              1: np.diag([0.9 + eps * bump, -0.5 + eps * (1 - bump)])}
    tp = TruncatedPropagator(k=0.0, r=1, blocks=blocks,
                             eigenvalues={c: np.diag(b) for c, b in blocks.items()},
                             mixing_defect=0.0, spectral_radius=0.9 + eps)
    modes = rp_spectrum(tp, eps_keep=1.0)
    assert [(c, round(lam.real, 6), round(lam.imag, 6)) for lam, c in modes] == [
        (0, 0.9, 0.0), (1, 0.9, 0.0),
        (0, 0.5, 0.0), (0, 0.0, 0.5), (0, 0.0, -0.5), (1, -0.5, 0.0)]


def test_gap_monotone_in_support():
    g = phase_point(1.0)
    lam = []
    for r in (3, 4):
        tp = truncated_propagator(g, r, 0.0)
        lam.append(abs(_lambda2(tp, conserved_density_vectors(g, r))))
    assert lam[1] >= lam[0]


def test_lambda2_refuses_conserved_columns_without_their_unit_eigenvalues():
    g = phase_point(1.0)
    tp = truncated_propagator(g, 3, 0.0)
    cols = conserved_density_vectors(g, 3)[0]
    assert abs(_lambda2(tp, {0: cols})) < 1.0
    # the uniform vector over the charge-0 strings is no conserved density
    with pytest.raises(SymmetryError) as err:
        _lambda2(tp, {0: np.ones((len(cols), 1)) / np.sqrt(len(cols))})
    assert err.value.residual > 1e-3
    # fixed columns, but the stored eigenvalues hold no unit one to drop
    fixed = TruncatedPropagator(k=0.0, r=1, blocks={0: np.eye(2)},
                                eigenvalues={0: np.array([0.5, 0.3])},
                                mixing_defect=0.0, spectral_radius=0.5)
    with pytest.raises(SymmetryError) as err:
        _lambda2(fixed, {0: np.eye(2)[:, :1]})
    assert err.value.residual == pytest.approx(0.5)


def test_gap_scaling_models_and_refusals():
    g = phase_point(1.0)
    fit = gap_scaling(g, 0.0, [3, 4])
    assert fit.model == "exponential"
    # even supports add no conserved density, so the r=3..4 slope is
    # shallow; the clean decay law lives on odd supports
    assert 0.0 < fit.rate < 0.9
    assert fit.c > 0
    assert fit.gaps[4] < fit.gaps[3]
    fit_pi = gap_scaling(g, np.pi, [3, 4])
    assert fit_pi.model == "linear"
    assert fit_pi.slope < 0  # the gap keeps shrinking toward 1
    with pytest.raises(RefusalError):
        gap_scaling(g, 0.0, [3])
    with pytest.raises(RefusalError):
        gap_scaling(identity_gate(), 0.0, [3, 4])
    with pytest.raises(ParameterError):
        gap_scaling(g, 0.0, [2, 3])


def _dense_conserved_columns(gate, r):
    """conserved_density_vectors rebuilt from dense charges on a 10-site ring."""
    placed = [(s, int(p == "odd")) for p, s in block_labels(r, 0)]
    cols = [np.array([float(s == "z" + "1" * (r - 1)) for s, _ in placed], dtype=complex)]
    p = haar_to_r(haar_params_from_gate(gate).params)
    if not p.degenerate:
        L = 10
        dense = [dense_charges(p, sign, L) for sign in "+-"]  # (Q1, Q2) per sign
        charges = [q1 for q1, _ in dense] + ([q2 for _, q2 in dense] if r >= 5 else [])
        for q in charges:
            cols.append(np.array([ring_rep_coefficient(q, s, a, L) for s, a in placed]))
    mat = np.column_stack(cols)
    return mat / np.linalg.norm(mat, axis=0)


@pytest.mark.parametrize(
    "gate",
    [
        gate_from_haar(HaarGateParams(0.1, 0.4, 0.9, 0.3, 0.2)),
        random_mc_gate(11),
        gate_from_haar(HaarGateParams(0.3 - np.pi, 0.3, 0.0, 0.2, 0.1)),
    ],
    ids=["hurwitz-I", "random-11", "swap-family"],
)
def test_conserved_density_columns_match_the_dense_ring_build(gate):
    for r in (3, 5):
        want = _dense_conserved_columns(gate, r)
        got = conserved_density_vectors(gate, r)[0]
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


def test_one_string_table_and_one_r_matrix_derivative_routine():
    # the string-code table and its helpers live in rp, their only user;
    # charges reads window weights from partial traces and names no string.
    # No second copy may grow back, nor the letter labels the codes replaced
    import importlib
    import pkgutil

    import mcbrick
    from mcbrick import charges, rp

    table = ("STRING_OPS", "DIGIT_CHARGE", "code_charge", "string_codes", "string_weights")
    for name in table:
        assert hasattr(rp, name) and not hasattr(charges, name), name
        assert getattr(getattr(rp, name), "__module__", rp.__name__) == rp.__name__, name
    assert not hasattr(charges, "functools")
    gone = ("r_matrix_derivative", "ab_derivatives", "r_matrix_second_derivative",
            "_kernel_strings", "_transfer_family", "string_coefficients", "q1_kernels",
            "LETTERS", "SITE_OPS", "charge_of_string", "_labels", "_packed",
            "_packed_layout", "_string_gather", "_COLUMN_ENTRY", "CHARGE_OVERLAP_MIN")
    for info in pkgutil.iter_modules(mcbrick.__path__):
        module = importlib.import_module(f"mcbrick.{info.name}")
        assert not [name for name in gone if hasattr(module, name)], info.name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(w=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_string_codes_spell_the_letter_strings(w, seed):
    # code d_0 d_1 ... in base 4 is the string of letters LETTERS[d_t], site 0
    # first, built here by kron from the tests' own letter table
    rng = np.random.default_rng(seed)
    labels = ["".join(t) for t in product(LETTERS, repeat=w)]
    strings = np.array([reduce(np.kron, [SITE_OPS[ch] for ch in lab]) for lab in labels])
    op = rng.normal(size=(2**w, 2**w)) + 1j * rng.normal(size=(2**w, 2**w))
    weights = string_weights(op)
    assert np.abs(np.tensordot(weights, strings, axes=1) - op).max() < 1e-12
    code = int(rng.integers(4**w))
    assert np.abs(string_weights(strings[code]) - np.eye(4**w)[code]).max() < 1e-15
    assert code_charge(np.arange(4**w), w).tolist() == [letter_charge(lab) for lab in labels]
    per_charge = [string_codes(w, c) for c in range(-w, w + 1)]
    assert all((np.diff(codes) > 0).all() for codes in per_charge)
    assert sorted(np.concatenate(per_charge).tolist()) == [
        c for c, lab in enumerate(labels) if lab[0] != "1"]
