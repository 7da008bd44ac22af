"""Qubit Hilbert space plumbing: sector bases, gate embedding, brickwork circuits.

Conventions used everywhere in this package:

* Sites are indexed 0..L-1 in code; site 0 is the most significant bit of the
  computational basis index, so the two-site basis reads {|00>, |01>, |10>, |11>}.
* Bit value 1 means sigma^z = +1, hence the index 2^L - 1 (all ones) carries
  magnetization +L.
* One circuit step applies an ordered list of gate layers.  Layers at even
  positions sit on the odd bonds (0,1), (2,3), ...; layers at odd positions
  sit on the even bonds (1,2), (3,4), ..., plus the wrap bond (L-1, 0) for
  periodic boundaries.  A plain period is the odd layer, then the even layer.
* The one-site translation S moves the content of site j to site j+1 mod L.

Sector blocks and sector evolution run inside the magnetization sector.
An MC gate keeps popcount, so on a bond (a, b) it scales the rows whose
bond bits read 00 or 11 by a phase and mixes each 01 row with the 10 row
it differs from by a 01 <-> 10 swap.  The gates of one layer sit on
disjoint bonds, so their product over a group of up to GROUP_BONDS bonds
has 2^d entries in a row with d bonds reading 01 or 10.  That sparsity
pattern depends only on (L, m, bonds); _group_pattern computes it once
per key (cached), PATTERN_CHUNK_ROWS rows at a time, and the operators'
entries are multiplied into it (_group_values).  The pattern is
symmetric, so read with every operator transposed its row i lists column
i of the group's product (layer_columns).  A block build pushes and
folds (build_sector_block): each column's source state is pushed through
the groups, path by path, in passes of at most BUILD_PATHS paths, and
the images are folded onto the basis with np.bincount.  Permutation
blocks (permutation_block) and dense window sums such as a charge
(sector_window_sum) fold the same way, and read the other way a
one-window pattern sums a sector operator's entries back onto the
window, its partial trace (sector_partial_trace).  Only the two
steppers, which apply a circuit to dense vectors hundreds of times, turn
each group into one CSR matrix (sector_operators, layer_operators,
sector_step).  The pattern holds only the MC entries of an operator, so
the kernel refuses any operator that is not MC.  Each block or evolution
is also compared, on one column and one step, with the full-space
propagator_apply (check_sector_column).

Sector states are the only coordinates: a sector basis holds, per row of
sector_states(L, m), its column and amplitude, the shift and
flip-reflection maps act on int arrays of states, and diagonal
observables and time reversal read their sigma^z per site from
site_spins on them; a 2^L vector appears only in the one-column
full-space oracles (check_sector_column).  Operators that conserve
magnetization are passed around as sector blocks {m: block} on those
rows, and nothing takes them in any other form; the propagator's are
one build_sector_block per sector (build_propagator).

scipy.sparse is the only part of scipy the package imports, and only
inside sector_operators, the steppers' CSR matrices.  Bases, blocks,
window sums and the one-column oracles are numpy only, so a process that
never steps a dense vector never pays scipy's import.
"""

import functools

import numpy as np
from dataclasses import dataclass, field

from .errors import CapacityError, ParameterError, SymmetryError
from .gates import MC_DEFECT_TOL, gate_matrix, mc_zero_pattern_defect

FULL_DENSE_MAX_L = 12   # all propagator blocks, 16 C(2L, L) bytes: 43 MB at L=12, 642 at L=14
SECTOR_MAX_L = 14       # dense work inside a single symmetry sector
BASIS_MAX_L = 20        # bases themselves stay cheap a bit longer
SECTOR_ORACLE_TOL = 1e-12  # sector kernel against the full-space column
GROUP_BONDS = 4  # bonds of one layer multiplied into one sector step operator
BUILD_PATHS = 1 << 16  # pushed paths of one build_sector_block pass, about 60 bytes each
PATTERN_CHUNK_ROWS = 1 << 11  # sector rows per _group_pattern pass
BLOCK_UNITARITY_TOL = 1e-10  # unitarity of a dense block before its eigenphases
# First Cayley pole sits at -exp(i CAYLEY_ALPHA): no rational multiple of pi,
# since structured blocks carry eigenvalues like +-1 and roots of unity.
CAYLEY_ALPHA = 0.5 * (np.sqrt(5.0) - 1.0)
CAYLEY_MU_MAX = 1e3  # largest |mu| a pass may keep; eigvalsh errs by eps * max|mu|


def _popcount(n):
    return np.bitwise_count(np.asarray(n, dtype=np.uint64)).astype(np.int64)


def translation_permutation(states, L, sites=1):
    """Images S^sites |n> of an int array of computational states n."""
    sites %= L
    ns = np.asarray(states, dtype=np.int64)
    return ((ns >> sites) | (ns << (L - sites))) & ((1 << L) - 1)


def _cayley(u, alpha):
    """H = i (1 - V)(1 + V)^-1 for V = exp(-i alpha) u, from one LU solve.

    (1 - V)(1 + V)^-1 = 2 (1 + V)^-1 - 1, so H is formed in the inverse's
    own buffer.  A singular or overflowing 1 + V raises LinAlgError.
    """
    a = u * np.exp(-1j * alpha)
    diag = np.diag_indices_from(a)
    a[diag] += 1.0
    h = np.linalg.inv(a)
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("Cayley pole on an eigenvalue")
    h *= 2j
    h[diag] -= 1j
    return h


def _cayley_phases(h, alpha, vectors):
    """Phases (2 arctan mu + alpha) mod 2 pi of the eigenvalues mu of H, and max|mu|.

    H is Hermitian for a unitary input, and only its Hermitian part is
    solved: the rounding of a unitary input and of the LU solve leaves an
    anti-Hermitian part of order eps * max|mu|^2, which one triangle of H
    would carry into every mu.  The residual max|H - H^dag| / (1 +
    max|mu|)^2 above BLOCK_UNITARITY_TOL raises SymmetryError, so a matrix
    that is not unitary is not hidden by the symmetrization.  h is
    overwritten.
    """
    skew = h.conj().T
    h += skew
    skew *= 2.0
    skew -= h  # H^dag - H
    h *= 0.5
    skew_max = float(np.abs(skew).max())
    del skew  # freed before eigh allocates its workspace
    mu, q = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    mu_max = float(np.abs(mu).max())
    residual = skew_max / (1.0 + mu_max) ** 2
    if residual > BLOCK_UNITARITY_TOL:
        raise SymmetryError(
            f"matrix is not unitary (Cayley residual {residual:.3e})", residual=residual
        )
    return (2.0 * np.arctan(mu) + alpha) % (2 * np.pi), q, mu_max


def unitary_phases(u, vectors=False):
    """Eigenphases in [0, 2 pi) of a unitary matrix, from a Hermitian eigensolve.

    The Cayley transform H = i (1 - V)(1 + V)^-1 of V = exp(-i alpha) U is
    Hermitian, and each eigenvalue mu of H gives the phase 2 arctan(mu) +
    alpha of U, so eigvalsh/eigh replace the general nonsymmetric solver.
    eigvalsh errs by about eps * max|mu| on every mu, and mu diverges at
    the pole -exp(i alpha).  The first pass puts the pole at CAYLEY_ALPHA;
    if that solve is singular, or max|mu| exceeds CAYLEY_MU_MAX, a second
    pass puts it in the middle of the widest gap between the first-pass
    phases (at least 2 pi / n wide, so max|mu| <~ 2n / pi), or at
    CAYLEY_ALPHA + pi/2 when there are no first-pass phases.  A second
    singular solve raises LinAlgError.  A matrix that is not unitary
    raises SymmetryError.  With vectors=True the orthonormal eigenvectors
    come too, as the columns of Q with U = Q diag(exp(i phases)) Q^dag.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ParameterError("unitary_phases needs a square matrix")
    if not u.size:
        return (np.zeros(0), np.zeros((0, 0), dtype=complex)) if vectors else np.zeros(0)
    try:
        h = _cayley(u, CAYLEY_ALPHA)
    except np.linalg.LinAlgError:
        alpha = CAYLEY_ALPHA + 0.5 * np.pi
    else:
        phases, q, mu_max = _cayley_phases(h, CAYLEY_ALPHA, vectors)
        if mu_max <= CAYLEY_MU_MAX:
            return (phases, q) if vectors else phases
        ph = np.sort(phases)
        gaps = np.diff(ph, append=ph[0] + 2 * np.pi)
        widest = np.argmax(gaps)
        alpha = ph[widest] + 0.5 * gaps[widest] - np.pi
    phases, q, _ = _cayley_phases(_cayley(u, alpha), alpha, vectors)
    return (phases, q) if vectors else phases


@dataclass
class SectorBasis:
    """Orthonormal basis of a magnetization (and optionally momentum) sector.

    The basis matrix W has the rows of sector_states(L, magnetization), and
    each row lies in at most one column: row r holds amplitude[r] in column
    column[r], or nothing where column[r] is -1.  Column c is spanned by
    the S^2 orbit of the state in row source[c], its minimal state (the
    state alone without a momentum); a block build pushes that state only.
    Every field is a numpy array.
    """

    L: int
    magnetization: int
    momentum: object  # int k index under the two-site shift, or None
    source: np.ndarray = field(repr=False)
    column: np.ndarray = field(repr=False)
    amplitude: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.source.size


def sector_states(L, m):
    """Sorted computational indices of the magnetization-m sector."""
    ns = np.arange(1 << L, dtype=np.int64)
    return ns[_popcount(ns) == (L + m) // 2]


def site_spins(states, L):
    """sigma^z of every site on an int array of states: float64 +-1.0, shape (n, L)."""
    return 2.0 * ((np.asarray(states)[:, None] >> (L - 1 - np.arange(L))) & 1) - 1.0


def sector_basis(L, m, k=None):
    """Basis of the magnetization-m sector, optionally momentum-resolved.

    Momentum resolution uses the two-site shift S^2 (the exact translation
    symmetry of a homogeneous periodic brickwork circuit); k indexes its
    eigenvalue exp(2 pi i k / (L/2)) and requires periodic boundaries.
    """
    if L % 2 or L < 2:
        raise ParameterError(f"L must be even and >= 2, got {L}")
    if L > BASIS_MAX_L:
        raise CapacityError(f"sector bases limited to L <= {BASIS_MAX_L}, got {L}")
    if (L + m) % 2 or not 0 <= (L + m) // 2 <= L:
        raise ParameterError(f"magnetization {m} impossible for L={L}")
    states = sector_states(L, m)
    if k is None:
        rows = np.arange(states.size)
        return SectorBasis(L, m, k, rows, rows, np.ones(states.size, dtype=complex))
    n_cells = L // 2
    if not 0 <= k < n_cells:
        raise ParameterError(f"momentum index {k} outside 0..{n_cells - 1}")
    _, periods, orbits = _momentum_orbits(L, m)
    keep = (k * periods) % n_cells == 0  # momentum compatible with orbit period
    p = periods[keep]
    in_orbit = np.arange(n_cells) < p[:, None]  # (column, j): S^(2j) rep is a state
    rows = np.searchsorted(states, orbits[keep][in_orbit])
    cols, j = np.nonzero(in_orbit)  # row-major, so cols ascend and each starts at j = 0
    column = np.full(states.size, -1, dtype=np.int64)
    column[rows] = cols
    amplitude = np.zeros(states.size, dtype=complex)
    amplitude[rows] = np.exp(-2j * np.pi * k / n_cells * j) / np.sqrt(p[cols])
    return SectorBasis(L, m, k, rows[j == 0], column, amplitude)


@functools.lru_cache(maxsize=64)
def _momentum_orbits(L, m):
    """Orbits of the two-site shift S^2 on sector m; they do not depend on k.

    Returns (reps, periods, orbits): each orbit's minimal state, in
    increasing order, its period p, and a (orbit, L/2) array whose row
    holds rep, S^2 rep, S^4 rep, ... (only the first p are the orbit).
    Read-only, since the cache hands the same arrays to every caller.
    """
    states = sector_states(L, m)
    n_cells = L // 2
    images = np.empty((n_cells + 1, states.size), dtype=np.int64)  # S^(2j) of each state
    images[0] = states
    for j in range(1, n_cells + 1):
        images[j] = translation_permutation(images[j - 1], L, 2)
    first = images.min(axis=0) == states
    reps = states[first]
    periods = np.argmax(images[1:, first] == reps, axis=0) + 1  # S^(2 n_cells) = 1
    orbits = np.ascontiguousarray(images[:-1, first].T)
    for arr in (reps, periods, orbits):
        arr.setflags(write=False)
    return reps, periods, orbits


def layer_bonds(L, boundary, i):
    """Bonds of brickwork layer i, as ordered site pairs.

    Even i: the odd bonds (2j, 2j+1).  Odd i: the even bonds (2j+1, 2j+2),
    closed by (L-1, 0) on rings.
    """
    if i % 2 == 0:
        return [(2 * j, 2 * j + 1) for j in range(L // 2)]
    n_even = L // 2 if boundary == "periodic" else L // 2 - 1
    return [(2 * j + 1, (2 * j + 2) % L) for j in range(n_even)]


@dataclass
class BrickworkCircuit:
    """One Floquet period of a brickwork circuit: an ordered list of layers.

    layers[i][j] is the gate on bond j of layer_bonds(L, boundary, i), and
    the layers apply in order.  A plain period is (gates_odd, gates_even);
    the symmetrized period sqrt(odd) . even . sqrt(odd) is
    (halves, gates_even, halves).  Gates are stored as 4x4 matrices.
    """

    L: int
    layers: tuple
    boundary: str = "open"

    def __post_init__(self):
        if self.L % 2 or self.L < 2:
            raise ParameterError("L must be even and >= 2")
        if self.boundary not in ("open", "periodic"):
            raise ParameterError(f"unknown boundary {self.boundary!r}")
        self.layers = tuple(tuple(gate_matrix(g) for g in layer) for layer in self.layers)
        for i, layer in enumerate(self.layers):
            if len(layer) != len(layer_bonds(self.L, self.boundary, i)):
                raise ParameterError("gate counts do not match L and boundary")

    def layer(self, i):
        """(gate matrix, bond) pairs of layer i."""
        return list(zip(self.layers[i], layer_bonds(self.L, self.boundary, i)))

    def layer_pairs(self):
        """(gate matrix, bond) for one step, in application order."""
        return [pair for i in range(len(self.layers)) for pair in self.layer(i)]


def homogeneous_circuit(gate, L, boundary="open"):
    """Brickwork circuit with the same two-qubit gate on every bond."""
    return BrickworkCircuit(
        L, [[gate] * len(layer_bonds(L, boundary, i)) for i in (0, 1)], boundary
    )


def apply_gate(target, gate, sites, L, boundary="open"):
    """G|psi> for a two-qubit gate embedded at `sites` = (a, b), b next to a.

    target is one 2^L state vector or a (2^L, n) array of them as columns;
    the action is matrix-free, cost O(2^L) per column.
    """
    a, b = sites
    if not (0 <= a < L and 0 <= b < L):
        raise ParameterError(f"sites {sites} outside 0..{L - 1}")
    if boundary == "periodic":
        adjacent = (b - a) % L == 1
    else:
        adjacent = b == a + 1
    if not adjacent:
        raise ParameterError(f"sites {sites} are not an adjacent ordered pair")
    psi = np.asarray(target, dtype=complex)
    if psi.shape[:1] != (1 << L,) or psi.ndim > 2:
        raise ParameterError("state length does not match L")
    t = psi.reshape((2,) * L + psi.shape[1:])
    res = np.tensordot(gate_matrix(gate).reshape(2, 2, 2, 2), t, axes=([2, 3], [a, b]))
    return np.moveaxis(res, [0, 1], [a, b]).reshape(psi.shape)


def propagator_apply(circuit, psi):
    """One circuit step applied to a state vector, matrix-free."""
    out = np.asarray(psi, dtype=complex).reshape(-1)
    if out.size != 1 << circuit.L:
        raise ParameterError("state length does not match circuit.L")
    for u, bond in circuit.layer_pairs():
        out = apply_gate(out, u, bond, circuit.L, circuit.boundary)
    return out


def embed_operator(kernel, sites, L):
    """Dense 2^L x 2^L embedding of a 2^w x 2^w kernel at the given w sites."""
    sites = list(sites)
    w = len(sites)
    kernel = np.asarray(kernel, dtype=complex)
    if kernel.shape != (1 << w, 1 << w):
        raise ParameterError("kernel shape does not match number of sites")
    if len(set(sites)) != w or not all(0 <= s < L for s in sites):
        raise ParameterError(f"bad site tuple {sites} for L={L}")
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"dense embedding limited to L <= {FULL_DENSE_MAX_L}")
    rest = [s for s in range(L) if s not in sites]
    order = sites + rest
    mat = np.kron(kernel, np.eye(1 << (L - w), dtype=complex))
    t = mat.reshape((2,) * (2 * L))
    t = np.moveaxis(t, list(range(L)), order)
    t = np.moveaxis(t, [L + i for i in range(L)], [L + q for q in order])
    return np.ascontiguousarray(t.reshape(1 << L, 1 << L))


def commutator_defect(a, b):
    """max |[A, B]| entrywise, from the sector blocks {m: block} of A and B.

    Working per sector is what makes L=12 checks affordable.
    """
    return max(float(np.abs(a[m] @ b[m] - b[m] @ a[m]).max()) for m in a)


@functools.lru_cache(maxsize=512)
def _group_pattern(L, m, blocks):
    """CSR pattern of a product of MC operators on disjoint site tuples.

    Row i is the bitstring states[i] of sector_states(L, m); its word c_j,
    the bits at blocks[j] with the first site most significant, picks the
    row of operator j.  An MC operator keeps the popcount of c_j, so row i
    holds prod_j u_j[c_j, c'_j] for every choice of words c'_j of the same
    popcounts, in the column of the row whose bits at blocks[j] read c'_j.
    For d bonds that is 2^(mixed bonds) entries: the phase of a 00 or 11
    bond times the diagonal or swap entry of each 01 or 10 bond.  Rows are
    gathered PATTERN_CHUNK_ROWS at a time, block by block, which bounds the
    entry-sized int64 temporaries.  Returns indptr, indices and, per block
    and entry, the flat index into that operator (one row per block), all
    read-only since the cache hands the same arrays to every caller.
    """
    states = sector_states(L, m)
    n = states.size
    kind = np.min_scalar_type((1 << 2 * max(len(sites) for sites in blocks)) - 1)
    row_of = np.empty(1 << L, dtype=np.int32)  # sector row of each bitstring
    row_of[states] = np.arange(n, dtype=np.int32)
    tables = []  # per block: its sites' shifts, and per word its bits, popcount peers, count
    for sites in blocks:
        w = len(sites)
        words = np.arange(1 << w)
        shifts = [L - 1 - s for s in sites]
        spread = sum(((words >> (w - 1 - j)) & 1) << sh for j, sh in enumerate(shifts))
        pops = _popcount(words)
        by_pop = np.argsort(pops, kind="stable")
        first = np.searchsorted(pops[by_pop], pops)
        tables.append((w, shifts, spread, by_pop, first, np.bincount(pops)[pops]))
    counts, indices, entries = [], [], []
    for lo in range(0, n, PATTERN_CHUNK_ROWS):
        chunk = states[lo:lo + PATTERN_CHUNK_ROWS]
        rows = np.arange(chunk.size)  # row of each entry within the chunk, in order
        flip = np.zeros(chunk.size, dtype=np.int64)  # state bits each entry's column flips
        entry = []
        for w, shifts, spread, by_pop, first, peers in tables:
            word = sum(((chunk >> sh) & 1) << (w - 1 - j) for j, sh in enumerate(shifts))[rows]
            # each entry splits into one per word of the same popcount as its own
            count = peers[word]
            rep = np.repeat(np.arange(rows.size), count)
            to = by_pop[_expand(first[word], count)]
            word = word[rep]
            rows, flip = rows[rep], flip[rep] ^ spread[word ^ to]
            entry = [e[rep] for e in entry] + [((word << w) + to).astype(kind)]
        cols = row_of[chunk[rows] ^ flip]
        order = np.argsort(rows * n + cols, kind="stable")  # nearly sorted
        counts.append(np.bincount(rows, minlength=chunk.size))
        indices.append(cols[order])
        entries.append(np.stack([e[order] for e in entry]))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    pattern = (indptr, np.concatenate(indices), np.concatenate(entries, axis=1))
    for arr in pattern:
        arr.setflags(write=False)
    return pattern


def _require_mc(u, sites):
    defect = mc_zero_pattern_defect(u)
    if defect > MC_DEFECT_TOL:
        raise SymmetryError(
            f"operator on sites {tuple(sites)} is not magnetization conserving "
            f"(defect {defect:.3e}); no sector kernel for it",
            residual=defect,
        )


def _group_values(group, L, m, columns=False):
    """Cached pattern of a group of (operator, sites) pairs on disjoint
    sites, and the value of each of its entries: (indptr, indices, values).

    Row i lists the nonzeros of row i of the group's product.  With
    columns=True every operator is read transposed, so row i lists column
    i instead: a popcount-keeping word change runs both ways, so the
    pattern is symmetric and only the values change.  The pattern holds
    only the MC entries of an operator, so one with weight off the MC
    pattern raises SymmetryError instead of being silently truncated.
    """
    for u, sites in group:
        _require_mc(u, sites)
    indptr, indices, entry = _group_pattern(L, m, tuple(tuple(s) for _, s in group))
    data = np.ones(indices.size, dtype=complex)
    for (u, _), e in zip(group, entry):
        data *= (u.T if columns else u).ravel()[e]
    return indptr, indices, data


def sector_operators(groups, L, m):
    """CSR matrices inside magnetization sector m, one per group of
    (operator, sites) pairs on disjoint sites.

    A group's matrix is the product of its operators: their entries
    multiplied into the cached _group_pattern of their sites
    (_group_values).  Circuit layers pass runs of bonds
    (layer_operators); the steppers apply them with sector_step.
    """
    from scipy import sparse

    ops = []
    for group in groups:
        indptr, indices, data = _group_values(group, L, m)
        dim = indptr.size - 1
        ops.append(sparse.csr_array((data, indices, indptr), shape=(dim, dim)))
    return ops


def _fold(index, values, out):
    """Sum complex values onto their flat index of the array out (np.bincount,
    which adds in input order, on each part)."""
    out.real = np.bincount(index, values.real, out.size).reshape(out.shape)
    out.imag = np.bincount(index, values.imag, out.size).reshape(out.shape)
    return out


def sector_partial_trace(blocks, sites, L):
    """Reduced 2^w x 2^w operator R = tr_rest(A) on the w given sites
    (sites[0] the most significant), from the sector blocks {m: block} of
    an MC operator A.

    Each block entry lands on the operator entry that _group_pattern(L,
    m, (sites,)) multiplies into it, and the entries landing on one are
    summed.  A's blocks hold only MC entries, so R is MC as well.
    """
    w = len(sites)
    flat = np.zeros(4**w, dtype=complex)
    for m, b in blocks.items():
        indptr, indices, (entry,) = _group_pattern(L, m, (tuple(sites),))
        vals = b[np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), indices]
        flat += np.bincount(entry, vals.real, 4**w) + 1j * np.bincount(entry, vals.imag, 4**w)
    return flat.reshape(1 << w, 1 << w)


def sector_window_sum(windows, L, m):
    """Dense block in sector m of a sum of MC operators, one (operator,
    sites) pair per window.

    The adjoint of sector_partial_trace: each operator entry lands on the
    block entries that _group_pattern(L, m, (sites,)) multiplies it into,
    window after window.  An operator that is not MC raises SymmetryError.
    """
    n = sector_states(L, m).size
    flat, values = [], []
    for u, sites in windows:
        _require_mc(u, sites)
        indptr, indices, (entry,) = _group_pattern(L, m, (tuple(sites),))
        flat.append(np.repeat(np.arange(n) * n, np.diff(indptr)) + indices)
        values.append(u.ravel()[entry])
    return _fold(np.concatenate(flat), np.concatenate(values), np.empty((n, n), dtype=complex))


def bond_groups(pairs):
    """Split a layer's (gate, bond) pairs into balanced runs of <= GROUP_BONDS."""
    n, n_groups = len(pairs), -(-len(pairs) // GROUP_BONDS)
    return [pairs[n * g // n_groups : n * (g + 1) // n_groups] for g in range(n_groups)]


def _circuit_groups(circuit):
    """The bond_groups of every layer, in application order."""
    return [g for i in range(len(circuit.layers)) for g in bond_groups(circuit.layer(i))]


def layer_operators(circuit, m):
    """Step operators of a circuit's layers in sector m, in application order.

    The gates of a layer sit on disjoint bonds, so each run of at most
    GROUP_BONDS of them (bond_groups) is one sector_operators matrix, and
    a step (sector_step) is a few sparse products instead of one per bond.
    Any gate that is not MC raises SymmetryError.
    """
    return sector_operators(_circuit_groups(circuit), circuit.L, m)


def layer_columns(circuit, m):
    """Column form of layer_operators: per group of bonds, in application
    order, the (indptr, indices, values) whose row i lists column i of the
    group's step matrix (_group_values).  Any gate that is not MC raises
    SymmetryError."""
    return [_group_values(g, circuit.L, m, columns=True) for g in _circuit_groups(circuit)]


def sector_step(ops, x):
    """Apply layer_operators (or sector_operators) in order to the sector rows of x."""
    for op in ops:
        x = op @ x
    return x


def check_sector_column(oracle, circuit, col_in, col, states, what):
    """Compare one sector-space column with its full-space image.

    col_in (amplitudes on the sector rows `states`) is lifted to a 2^L
    vector and mapped by oracle(circuit, vector); col is the sector
    kernel's image of col_in on the same rows.  A mismatch above
    SECTOR_ORACLE_TOL, or weight outside the sector, raises SymmetryError
    carrying the larger of the two.
    """
    full = np.zeros(1 << circuit.L, dtype=complex)
    full[states] = col_in
    full = oracle(circuit, full)
    outside = np.abs(full)
    outside[states] = 0.0
    residual = max(float(np.abs(full[states] - col).max()), float(outside.max()))
    if residual > SECTOR_ORACLE_TOL:
        raise SymmetryError(
            f"{what} sector kernel disagrees with the full-space column "
            f"(residual {residual:.3e})",
            residual=residual,
        )


def _require_cell_invariant(circuit):
    """Refuse a circuit whose momentum blocks a representative push would
    get wrong: one that S^2 need not commute with, because it is an open
    chain or some layer holds gates that differ by more than
    SECTOR_ORACLE_TOL (the residual the SymmetryError carries)."""
    if circuit.boundary != "periodic":
        raise ParameterError("momentum blocks need a periodic circuit")
    residual = max(float(np.abs(g - layer[0]).max()) for layer in circuit.layers for g in layer)
    if residual > SECTOR_ORACLE_TOL:
        raise SymmetryError(
            f"momentum block needs equal gates within each layer (they differ by {residual:.3e})",
            residual=residual,
        )


def _expand(start, count):
    """The indices start[i], ..., start[i] + count[i] - 1 for each i in
    turn: the partners of np.repeat(items, count)."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


def _path_counts(groups, n):
    """Number of paths from each of the n sector rows through the groups:
    one per chain of pattern entries, counted back from the last group."""
    count = np.ones(n, dtype=np.int64)
    for indptr, indices, _ in reversed(groups):
        count = np.add.reduceat(count[indices], indptr[:-1])
    return count


def _push(groups, rows):
    """Images of the sector rows `rows` through the groups (layer_columns).

    Returns (source, row, amplitude) per path: the position in rows it
    started from, the row it ends on and its product of entries.  Each
    group splits a path into one per entry of its row (np.repeat), so the
    paths of one source stay together and in the same order, whatever
    other sources ride along.
    """
    source = np.arange(rows.size)
    amp = np.ones(rows.size, dtype=complex)
    for indptr, indices, values in groups:
        count = indptr[rows + 1] - indptr[rows]
        at = _expand(indptr[rows], count)
        rows, source, amp = indices[at], np.repeat(source, count), np.repeat(amp, count) * values[at]
    return source, rows, amp


def build_sector_block(circuit, basis, shift=0):
    """Sector block W^dag S^shift U W of the propagator U times the one-site
    shift S^shift (shift=1 gives the space-time block of an odd layer).

    Push and fold, inside the sector: each column's source state is pushed
    through the circuit, group of bonds by group (_push over
    layer_columns), and its images are folded onto the basis with
    np.bincount.  On a momentum basis only the orbit representative is
    pushed: U commutes with S^2, so column c of the block is
    sqrt(p_c) W^dag U |rep_c>, and an image at offset d in an orbit of
    period p_c' folds with weight sqrt(p_c / p_c') exp(i theta d).  That
    needs a ring with equal gates within each layer; another circuit is
    refused after the MC check (_require_cell_invariant).

    Passes take whole columns while their paths (_path_counts) stay
    within BUILD_PATHS, so every block entry comes from one pass and the
    block does not depend on the budget.  Non-MC gates are refused, and
    the image of column 0's source is checked against propagator_apply.
    """
    L = circuit.L
    if L > SECTOR_MAX_L:
        raise CapacityError(f"sector-dense work limited to L <= {SECTOR_MAX_L}")
    m, dim = basis.magnetization, basis.dim
    groups = layer_columns(circuit, m)
    if basis.momentum is not None:
        _require_cell_invariant(circuit)
    block = np.empty((dim, dim), dtype=complex)
    if not dim:
        return block
    states = sector_states(L, m)
    moved = np.searchsorted(states, translation_permutation(states, L, shift))
    column, weight = basis.column[moved], basis.amplitude[moved].conj()  # of S^shift |row>
    scale = np.sqrt(np.bincount(basis.column[basis.column >= 0], minlength=dim))  # sqrt p_c
    counts = _path_counts(groups, states.size)[basis.source]
    ends = np.cumsum(counts)
    lo = 0
    while lo < dim:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + BUILD_PATHS, "right")))
        source, rows, amp = _push(groups, basis.source[lo:hi])
        if not lo:
            col_in = np.zeros(states.size)
            col_in[basis.source[0]] = 1.0
            image = _fold(rows[:counts[0]], amp[:counts[0]], np.empty(states.size, dtype=complex))
            check_sector_column(propagator_apply, circuit, col_in, image, states, "propagator")
        to = column[rows]
        hit = to >= 0
        source, rows = source[hit], rows[hit]
        vals = amp[hit] * weight[rows] * scale[lo + source]
        _fold(to[hit] * (hi - lo) + source, vals, block[:, lo:hi])
        lo = hi
    return block


def permutation_block(basis, images):
    """Dense W^dag P W for the permutation P sending states[i] to images[i],
    which must permute the sector's states: each basis entry W[r, c] folds
    onto column c, in the row of the column that holds its image."""
    states = sector_states(basis.L, basis.magnetization)
    to = np.searchsorted(states, images)
    rows = np.flatnonzero((basis.column >= 0) & (basis.column[to] >= 0))
    flat = basis.column[to[rows]] * basis.dim + basis.column[rows]
    vals = basis.amplitude[to[rows]].conj() * basis.amplitude[rows]
    return _fold(flat, vals, np.empty((basis.dim, basis.dim), dtype=complex))


def build_propagator(circuit):
    """One-step propagator as sector blocks {m: block}; refuses L > FULL_DENSE_MAX_L first."""
    L = circuit.L
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"propagator blocks limited to L <= {FULL_DENSE_MAX_L}; "
                            "use propagator_apply or build_sector_block instead")
    return {m: build_sector_block(circuit, sector_basis(L, m)) for m in range(-L, L + 1, 2)}
