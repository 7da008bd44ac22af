"""Reference constructions kept as oracles for the package's live code.

None of these is on a CLI path; each is what a test compares live code
against.

* Dense 2^L builds of the charge path: the auxiliary-space einsum
  contraction of the transfer matrix and its x-derivatives, the Pauli
  x/y/z string enumeration of the window projection, and the dense ring
  coefficient of a {1, z, p, m} string.  The x-derivatives of Rc come from
  the hand-written closed forms of R' and R'' below, not from
  rmatrix.r_matrix_jet.  They share no code with the package's cell
  densities.  transfer_matrix and propagator_from_transfer read the same
  einsum build.  dense_from_sectors assembles sector blocks {m: block}
  into a dense operator, and tests use it on charges; split_sectors is
  its inverse, which hands a dense MC operator to the package's
  block-only functions.
* The dense 2^L x 2^L one-step propagator (dense_propagator), built by
  pushing the identity through every gate, against which the sector
  blocks of core.build_propagator and the correlators are checked.
* The per-state orbit walk of the momentum basis (loop_momentum_basis),
  the dense sector restriction (restrict) and the sparse shift
  (translation_matrix), against which core.sector_basis and the sector
  blocks are checked.
* The window-by-window Heisenberg step of rp (heisenberg_step), which
  conjugates one string tensor through every gate of a fixed window,
  against the light-cone rp.truncated_propagator.  Strings here are
  letter labels over their own table (LETTERS, SITE_OPS), not the
  package's base-4 codes.
* Eigenphase samplers of the three level-statistics classes, which pin
  the levelstats.R_TILDE_* references.
* The one-gate time reversal W(theta) K, as the diagonal of W, and the
  single-bond z rotation that removes the DM coupling of a Hamiltonian
  gate.
"""

from dataclasses import replace

import numpy as np
from scipy import sparse

from mcbrick.core import (
    apply_gate,
    sector_states,
    site_spins,
    translation_permutation,
    unitary_phases,
)
from mcbrick.errors import ParameterError, SymmetryError
from mcbrick.gates import TwoQubitGate, haar_params_from_gate
from mcbrick.levelstats import spacing_ratios
from mcbrick.rmatrix import ab_values, r_matrix
from mcbrick.rp import _conjugation_superop

# {1, z, p, m} string letters, p = sqrt2 sigma+ and m = sqrt2 sigma- (bit 1 is
# sz = +1), written out apart from the package's code table
LETTERS = "1zpm"
SITE_OPS = {
    "1": np.eye(2, dtype=complex),
    "z": np.diag([-1.0, 1.0]).astype(complex),
    "p": np.sqrt(2.0) * np.array([[0, 0], [1, 0]], dtype=complex),
    "m": np.sqrt(2.0) * np.array([[0, 1], [0, 0]], dtype=complex),
}


def letter_charge(label):
    """Raising minus lowering letter count of a string label."""
    return label.count("p") - label.count("m")


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _ab_derivatives(p, x):
    """(a', a'', b', b'') from the closed-form quotients of each phase."""
    if p.phase == "I":
        s, c, amp = np.sin(x + 1j * p.rho), np.cos(x + 1j * p.rho), np.sinh(p.rho)
        return 1j * amp / s**2, -2j * amp * c / s**3, -amp * c / s**2, amp * (1.0 + c * c) / s**3
    s, c, amp = np.sinh(x + 1j * p.rho), np.cosh(x + 1j * p.rho), np.sin(p.rho)
    return 1j * amp / s**2, -2j * amp * c / s**3, -amp * c / s**2, amp * (c * c + 1.0) / s**3


def r_matrix_derivative(p, x):
    """Closed-form d/dx of r_matrix."""
    a, b = ab_values(p, x)
    da, _, db, _ = _ab_derivatives(p, x)
    ex_m, ex_p = np.exp(-1j * p.xi * x), np.exp(1j * p.xi * x)
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = 1j * (db - 1j * p.xi * b) * ex_m
    mat[2, 2] = 1j * (db + 1j * p.xi * b) * ex_p
    mat[1, 2] = -da * np.exp(-1j * p.theta)
    mat[2, 1] = -da * np.exp(1j * p.theta)
    return 1j * p.beta * r_matrix(p, x) + np.exp(1j * p.beta * x) * mat


def r_matrix_second_derivative(p, x):
    """Closed-form d^2/dx^2 of r_matrix."""
    a, b = ab_values(p, x)
    da, dda, db, ddb = _ab_derivatives(p, x)
    ex_m, ex_p = np.exp(-1j * p.xi * x), np.exp(1j * p.xi * x)
    m, dm, ddm = (np.zeros((4, 4), dtype=complex) for _ in range(3))
    m[0, 0] = m[3, 3] = 1.0
    m[1, 1] = 1j * b * ex_m
    m[2, 2] = 1j * b * ex_p
    m[1, 2] = -a * np.exp(-1j * p.theta)
    m[2, 1] = -a * np.exp(1j * p.theta)
    dm[1, 1] = 1j * (db - 1j * p.xi * b) * ex_m
    dm[2, 2] = 1j * (db + 1j * p.xi * b) * ex_p
    dm[1, 2] = -da * np.exp(-1j * p.theta)
    dm[2, 1] = -da * np.exp(1j * p.theta)
    ddm[1, 1] = 1j * (ddb - 2j * p.xi * db - p.xi**2 * b) * ex_m
    ddm[2, 2] = 1j * (ddb + 2j * p.xi * db - p.xi**2 * b) * ex_p
    ddm[1, 2] = -dda * np.exp(-1j * p.theta)
    ddm[2, 1] = -dda * np.exp(1j * p.theta)
    beta = p.beta
    return np.exp(1j * beta * x) * (-beta * beta * m + 2j * beta * dm + ddm)


def einsum_transfer_family(p, x, L, order=0, block_cols=512):
    """T(x;u) and its first `order` x-derivatives, dense on 2^L."""
    derivs = [r_matrix, r_matrix_derivative, r_matrix_second_derivative]
    site_tensors = []
    for i in range(L):
        arg = x + 0.5 * p.u if i % 2 == 0 else x - 0.5 * p.u
        site_tensors.append(
            [(_SWAP @ derivs[d](p, arg)).reshape(2, 2, 2, 2) for d in range(order + 1)]
        )
    dim = 1 << L
    outs = [np.empty((dim, dim), dtype=complex) for _ in range(order + 1)]
    block_cols = min(block_cols, dim)
    for col0 in range(0, dim, block_cols):
        cols = np.arange(col0, min(col0 + block_cols, dim))
        nb = len(cols)
        # C[d][a0, a, rows, cols]; the row register grows site by site
        eye_aux = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
        c = [np.broadcast_to(eye_aux, (2, 2, 1, nb)).copy()]
        c += [np.zeros((2, 2, 1, nb), dtype=complex) for _ in range(order)]
        for i in range(L):
            sbits = (cols >> (L - 1 - i)) & 1
            rg = [t[:, :, sbits, :] for t in site_tensors[i]]
            new = [None] * (order + 1)
            for d in range(order + 1):
                acc = np.einsum("spca,xprc->xarsc", rg[0], c[d], optimize=True)
                if d >= 1:
                    acc += d * np.einsum("spca,xprc->xarsc", rg[1], c[d - 1], optimize=True)
                if d >= 2:
                    acc += np.einsum("spca,xprc->xarsc", rg[2], c[d - 2], optimize=True)
                new[d] = acc.reshape(2, 2, -1, nb)
            c = new
        for d in range(order + 1):
            outs[d][:, cols] = c[d][0, 0] + c[d][1, 1]
    return outs


def traceless(mat):
    return mat - np.trace(mat) / mat.shape[0] * np.eye(mat.shape[0])


def dense_charges(p, sign, L):
    """Traceless Q1 = T^-1 T' and Q2 = T^-1 T'' - Q1^2 from dense solves."""
    x0 = 0.5 * p.u if sign == "+" else -0.5 * p.u
    t, dt, ddt = einsum_transfer_family(p, x0, L, order=2)
    g = np.linalg.solve(t, dt)
    return traceless(g), traceless(np.linalg.solve(t, ddt) - g @ g)


def pauli_window_projection(matrix, L, window):
    """Weight of Pauli x/y/z strings of cyclic diameter <= window, and the
    residual, by enumerating every string over the dense matrix."""
    dim = 1 << L
    # P|b> = phase[b] |b ^ xbit>
    tables = {
        "i": (0, np.array([1.0, 1.0], dtype=complex)),
        "z": (0, np.array([-1.0, 1.0], dtype=complex)),
        "x": (1, np.array([1.0, 1.0], dtype=complex)),
        "y": (1, np.array([1j, -1j], dtype=complex)),
    }
    letters = "ixyz"
    within_sq = 0.0
    cols = np.arange(dim, dtype=np.int64)
    recon = np.zeros_like(matrix)
    for anchor in range(L):
        for first in "xyz":
            for restidx in range(4 ** (window - 1)):
                pattern = [first]
                ridx = restidx
                for _ in range(window - 1):
                    pattern.append(letters[ridx % 4])
                    ridx //= 4
                xmask = 0
                phases = np.ones(dim, dtype=complex)
                for off, let in enumerate(pattern):
                    shift = L - 1 - (anchor + off) % L
                    xbit, table = tables[let]
                    if xbit:
                        xmask |= 1 << shift
                    if let in ("z", "y"):
                        phases = phases * table[(cols >> shift) & 1]
                rows = cols ^ xmask
                coef = np.sum(np.conj(phases) * matrix[rows, cols]) / dim
                within_sq += abs(coef) ** 2
                recon[rows, cols] += coef * phases
    residual_sq = float(np.sum(np.abs(matrix - recon) ** 2).real) / dim
    return float(np.sqrt(within_sq)), float(np.sqrt(residual_sq))


def ring_rep_coefficient(qmat, label, anchor, L):
    """tr(S^dag Q)/2^L for a {1, z, p, m} string at sites anchor.. of a ring."""
    idx = np.arange(1 << L)
    phase = np.ones(1 << L, dtype=complex)
    ok = np.ones(1 << L, dtype=bool)
    flip = 0
    for t, ch in enumerate(label):
        bitpos = L - 1 - (anchor + t)
        bit = (idx >> bitpos) & 1
        if ch == "z":
            phase = phase * np.where(bit == 1, 1.0, -1.0)
        elif ch == "p":
            ok &= bit == 0
            flip |= 1 << bitpos
            phase = phase * np.sqrt(2.0)
        elif ch == "m":
            ok &= bit == 1
            flip |= 1 << bitpos
            phase = phase * np.sqrt(2.0)
    rows = idx[ok] ^ flip
    return complex(np.sum(np.conj(phase[ok]) * qmat[rows, idx[ok]]) / 2**L)


def translate_index(n, L, sites=1):
    """Index of S^sites |n>, S shifting site j to site j+1 (cyclic)."""
    sites %= L
    mask = (1 << L) - 1
    n = int(n)
    return ((n >> sites) | (n << (L - sites))) & mask


def basis_matrix(basis):
    """Dense dim_m x dim basis matrix W of a SectorBasis: row r holds
    amplitude[r] in column column[r], where that is not -1."""
    rows = np.flatnonzero(basis.column >= 0)
    out = np.zeros((basis.column.size, basis.dim), dtype=complex)
    out[rows, basis.column[rows]] = basis.amplitude[rows]
    return out


def loop_momentum_basis(L, m, k):
    """Vectors of the momentum-k basis, one S^2 orbit walk per state.

    Columns are ordered by orbit minimum, each orbit walked r, S^2 r, ...
    with amplitudes exp(-2 pi i k j / (L/2)) / sqrt(p); orbits whose period
    p is incompatible with k are dropped.  The rows are the sector's
    states, in sector_states order.
    """
    n_cells = L // 2
    states = sector_states(L, m)
    row_of = {int(s): i for i, s in enumerate(states)}
    seen = set()
    rows, cols, vals = [], [], []
    col = 0
    for r in map(int, states):
        if r in seen:
            continue
        orbit = [r]
        n = translate_index(r, L, 2)
        while n != r:
            orbit.append(n)
            n = translate_index(n, L, 2)
        seen.update(orbit)
        p = len(orbit)
        if (k * p) % n_cells:
            continue
        amp = np.exp(-2j * np.pi * k / n_cells * np.arange(p)) / np.sqrt(p)
        rows.extend(row_of[n] for n in orbit)
        cols.extend([col] * p)
        vals.extend(amp)
        col += 1
    return sparse.csr_array((vals, (rows, cols)), shape=(len(states), col), dtype=complex)


# ------------------------------------------------------------ gates and R

def identity_gate():
    return TwoQubitGate(np.eye(4, dtype=complex))


def gate_from_r(p):
    """The physical two-qubit gate Rc(u)."""
    return TwoQubitGate(r_matrix(p, p.u))


# ------------------------------------------------------- transfer matrices

def dense_propagator(circuit):
    """Dense 2^L x 2^L one-step propagator: the identity pushed through every gate."""
    mat = np.eye(1 << circuit.L, dtype=complex)
    for u, bond in circuit.layer_pairs():
        mat = apply_gate(mat, u, bond, circuit.L, circuit.boundary)
    return mat


def dense_from_sectors(blocks, L):
    """Dense 2^L x 2^L matrix with the given magnetization-sector blocks."""
    out = np.zeros((1 << L, 1 << L), dtype=complex)
    for m, block in blocks.items():
        s = sector_states(L, m)
        out[np.ix_(s, s)] = block
    return out


def magnetization_commutator_defect(entries, L):
    """max |[O, sum sigma^z]| entrywise, computed from the diagonal charge."""
    m = site_spins(np.arange(1 << L), L).sum(axis=1)
    return np.abs(entries * (m[None, :] - m[:, None])).max()


def split_sectors(op, L, tol=1e-10):
    """Sector blocks {m: block} of a dense 2^L operator, the inverse of
    dense_from_sectors.  Weight between sectors above tol raises
    SymmetryError, since the blocks would silently drop it."""
    entries = np.asarray(op, dtype=complex)
    defect = magnetization_commutator_defect(entries, L)
    if defect > tol:
        raise SymmetryError(
            f"operator does not conserve magnetization (defect {defect:.3e})",
            residual=float(defect),
        )
    blocks = {}
    for m in range(-L, L + 1, 2):
        s = sector_states(L, m)
        blocks[m] = entries[np.ix_(s, s)]
    return blocks


def transfer_matrix(p, x, L):
    """Dense T(x; u) from the einsum build; x may be complex."""
    (t,) = einsum_transfer_family(p, x, L)
    return t


def propagator_from_transfer(p, L):
    """U = T(-u/2)^{-1} T(u/2), one dense solve."""
    return np.linalg.solve(transfer_matrix(p, -0.5 * p.u, L), transfer_matrix(p, 0.5 * p.u, L))


# --------------------------------------------------------- sector blocks

def translation_matrix(L, sites=1):
    """Sparse unitary of the cyclic shift by `sites`."""
    dim = 1 << L
    perm = translation_permutation(np.arange(dim), L, sites)
    return sparse.csr_array(
        (np.ones(dim), (perm, np.arange(dim))), shape=(dim, dim), dtype=complex
    )


def _translation_commutator_defect(entries, L, sites):
    perm = translation_permutation(np.arange(1 << L), L, sites)
    # S O S^-1 has entries O[inv(i), inv(j)]; compare with O
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return np.abs(entries[np.ix_(inv, inv)] - entries).max()


def restrict(op, basis, tol=1e-10):
    """Block <b'|O|b> of a dense operator in a SectorBasis.

    Checks that O commutes with the sector's symmetries (total sigma^z, and
    the two-site shift when the basis is momentum-resolved) before projecting.
    """
    entries = np.asarray(op, dtype=complex)
    if entries.shape != (1 << basis.L, 1 << basis.L):
        raise ParameterError("operator dimension does not match basis.L")
    defect = magnetization_commutator_defect(entries, basis.L)
    if defect > tol:
        raise SymmetryError(
            f"operator does not conserve magnetization (defect {defect:.3e})",
            residual=float(defect),
        )
    if basis.momentum is not None:
        defect = _translation_commutator_defect(entries, basis.L, 2)
        if defect > tol:
            raise SymmetryError(
                f"operator not two-site translation invariant (defect {defect:.3e})",
                residual=float(defect),
            )
    s = sector_states(basis.L, basis.magnetization)
    w = basis_matrix(basis)
    return w.conj().T @ entries[np.ix_(s, s)] @ w


# ------------------------------------------------------ RP window step

def _apply_pair(superop, flat, i, w):
    """Contract a 16x16 superoperator into axes (i, i+1) of string tensors.

    flat: (4**w, n) coefficient columns, C-ordered site axes.
    """
    lead = 4**i
    rest = flat.size // (lead * 16)
    m = flat.reshape(lead, 16, rest)
    return np.matmul(superop[None, :, :], m).reshape(flat.shape)


def _one_step(flat, w, window_parity, superop):
    """U^dag q U for string-coefficient columns on a w-site window.

    window_parity: lattice parity of window site 0.  Layer-one gates start
    on even lattice sites and are applied to states first, so conjugation
    applies the layer-two superoperators first.
    """
    first = [i for i in range(w - 1) if (i + window_parity) % 2 == 0]
    second = [i for i in range(w - 1) if (i + window_parity) % 2 == 1]
    out = flat
    for i in second:
        out = _apply_pair(superop, out, i, w)
    for i in first:
        out = _apply_pair(superop, out, i, w)
    return out


def _support_range(coeffs, w):
    """First and last window site carrying non-identity weight, or None."""
    t = np.abs(coeffs).reshape((4,) * w)
    occupied = []
    for i in range(w):
        m = np.moveaxis(t, i, 0)
        occupied.append(m[1:].sum() > 1e-14)
    idx = [i for i, o in enumerate(occupied) if o]
    if not idx:
        return None
    return idx[0], idx[-1]


def string_tensor(label, position, w):
    """Embed a string with its first letter at window site `position`."""
    if position < 0 or position + len(label) > w:
        raise ParameterError("string does not fit in the window")
    t = np.zeros((4,) * w, dtype=complex)
    idx = [0] * w
    for i, ch in enumerate(label):
        idx[position + i] = LETTERS.index(ch)
    t[tuple(idx)] = 1.0
    return t


def heisenberg_step(q, gate, window):
    """One brickwall step U^dag q U of a window operator, exactly.

    q: string coefficients, shape (4,)*w.  window: lattice position of
    window site 0; its parity aligns the two gate layers.  The operator
    must leave enough identity margin for its one-step light cone: two
    sites on a side where the outermost letter touches a layer-two gate
    from outside (even lattice site on the left edge, odd on the right),
    one site otherwise.  Too little margin raises ParameterError.
    """
    t = np.asarray(q, dtype=complex)
    w = t.ndim
    if t.shape != (4,) * w or w < 2:
        raise ParameterError("operator must have shape (4,)*w with w >= 2")
    span = _support_range(t, w)
    if span is not None:
        left, right = span
        need_left = 2 if (window + left) % 2 == 0 else 1
        need_right = 2 if (window + right) % 2 == 1 else 1
        if left < need_left or (w - 1 - right) < need_right:
            raise ParameterError(
                "window cannot contain the one-step light cone: need "
                f"{need_left} free sites left and {need_right} right of the "
                "support for this alignment"
            )
    superop = _conjugation_superop(gate)
    flat = t.reshape(-1, 1)
    out = _one_step(flat, w, window % 2, superop)
    return out.reshape((4,) * w)


# ------------------------------------------------ level-statistics classes

def sample_poisson_phases(n, seed=0):
    """i.i.d. uniform phases: the uncorrelated reference."""
    return np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=n)


def sample_cue_phases(dim, n_matrices, seed=0):
    """Eigenphases of Haar unitaries (unitary class reference).

    One sorted array per matrix: ratios carry the level correlations, so
    they must be computed per spectrum and only then pooled; see
    pooled_ratios.
    """
    from scipy.stats import unitary_group

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_matrices):
        u = unitary_group.rvs(dim, random_state=rng)
        out.append(np.sort(unitary_phases(u)))
    return out


def sample_coe_phases(dim, n_matrices, seed=0):
    """Eigenphases of symmetric unitaries V V^T (orthogonal class).

    Same per-matrix layout as sample_cue_phases.
    """
    from scipy.stats import unitary_group

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_matrices):
        v = unitary_group.rvs(dim, random_state=rng)
        out.append(np.sort(unitary_phases(v @ v.T)))
    return out


def pooled_ratios(phase_sets):
    """Gap ratios computed per spectrum, then pooled."""
    return np.concatenate([spacing_ratios(p) for p in phase_sets])


# ------------------------------------------------------- time reversal

def _w_pair(theta):
    return np.array([1.0, np.exp(-1j * theta), np.exp(1j * theta), 1.0])


def single_gate_time_reversal(gate):
    """Diagonal of W in T1 = W K, with T1 g T1^{-1} = g^dag for one MC gate."""
    return _w_pair(haar_params_from_gate(gate).params.theta_v)


def dm_rotation_angle(params):
    """Half-angle of the z rotation that cancels the DM coupling."""
    return 0.5 * np.arctan2(-params.D, params.J)


def dm_rotation_gate(params):
    """The two-qubit z rotation W implementing rotate_out_dm by conjugation."""
    return TwoQubitGate(np.diag(_w_pair(dm_rotation_angle(params))))


def rotate_out_dm(params):
    """Generator parameters after rotating the DM term away.

    Rotating by half of atan2(-D, J) maps the couplings (J, D) to
    (sqrt(J^2 + D^2), 0) and leaves the other terms alone, so W g(params)
    W^dag equals the gate generated by the returned parameters.
    """
    return replace(params, J=float(np.hypot(params.J, params.D)), D=0.0)
