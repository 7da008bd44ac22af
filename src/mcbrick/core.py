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
it differs from by a 01 <-> 10 swap.  That sparsity pattern depends only
on (L, m, a, b); _bond_pattern computes it once per key (cached), and
sector_operators gathers a gate's entries into it as a CSR matrix, so a
step is one sparse product per bond on all columns at once (sector_step).
The pattern holds only those entries of a gate, so the kernel refuses any
gate that is not MC.  Each block or evolution is also compared, on one
column and one step, with the full-space propagator_apply
(check_sector_column).
"""

import functools

import numpy as np
from dataclasses import dataclass, field
from scipy import sparse

from .errors import CapacityError, ParameterError, SymmetryError
from .gates import MC_DEFECT_TOL, gate_matrix, mc_zero_pattern_defect

FULL_DENSE_MAX_L = 12   # full 2^L x 2^L dense operators
SECTOR_MAX_L = 14       # dense work inside a single symmetry sector
BASIS_MAX_L = 20        # bases themselves stay cheap a bit longer
SECTOR_ORACLE_TOL = 1e-12  # sector kernel against the full-space column


def _popcount(n):
    return np.bitwise_count(np.asarray(n, dtype=np.uint64)).astype(np.int64)


def magnetization_of(n, L):
    """Total sigma^z of computational basis state(s) n."""
    return 2 * _popcount(n) - L


def translate_index(n, L, sites=1):
    """Index of S^sites |n>, S shifting site j to site j+1 (cyclic)."""
    sites %= L
    mask = (1 << L) - 1
    n = int(n)
    return ((n >> sites) | (n << (L - sites))) & mask


def translation_permutation(L, sites=1):
    """perm with S^sites |n> = |perm[n]> for all computational states."""
    sites %= L
    ns = np.arange(1 << L, dtype=np.int64)
    return ((ns >> sites) | (ns << (L - sites))) & ((1 << L) - 1)


def translation_matrix(L, sites=1):
    """Sparse unitary of the cyclic shift by `sites`."""
    perm = translation_permutation(L, sites)
    dim = 1 << L
    return sparse.csr_array(
        (np.ones(dim), (perm, np.arange(dim))), shape=(dim, dim), dtype=complex
    )


@dataclass
class Operator:
    """Dense operator on L qubits with an optional asserted unitarity flag."""

    entries: np.ndarray
    label: str = ""
    unitary: bool = False

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ParameterError("operator entries must be a square matrix")

    @property
    def dim(self):
        return self.entries.shape[0]

    def unitarity_defect(self):
        g = self.entries.conj().T @ self.entries
        g[np.diag_indices_from(g)] -= 1.0
        return np.abs(g).max()


@dataclass
class SectorBasis:
    """Orthonormal basis of a magnetization (and optionally momentum) sector.

    `states` holds labels: plain basis indices for bitstring bases, or
    (representative, orbit period) pairs for momentum-symmetrized states.
    `vectors` is the sparse 2^L x dim matrix of basis columns.
    """

    L: int
    magnetization: int
    momentum: object  # int k index under the two-site shift, or None
    states: list
    vectors: object = field(repr=False)

    @property
    def dim(self):
        return self.vectors.shape[1]

    def gram_defect(self):
        g = (self.vectors.conj().T @ self.vectors).toarray()
        g[np.diag_indices_from(g)] -= 1.0
        return np.abs(g).max()


def sector_states(L, m):
    """Sorted computational indices of the magnetization-m sector."""
    ns = np.arange(1 << L, dtype=np.int64)
    return ns[_popcount(ns) == (L + m) // 2]


def sector_basis(L, m, k=None):
    """Basis of the magnetization-m sector, optionally momentum-resolved.

    Momentum resolution uses the two-site shift S^2 (the exact translation
    symmetry of a homogeneous periodic brickwork circuit); k indexes its
    eigenvalue exp(2 pi i k / (L/2)) and requires periodic boundaries.
    """
    if L % 2 or not 2 <= L <= BASIS_MAX_L:
        raise ParameterError(f"L must be even with 2 <= L <= {BASIS_MAX_L}, got {L}")
    if (L + m) % 2 or not 0 <= (L + m) // 2 <= L:
        raise ParameterError(f"magnetization {m} impossible for L={L}")
    states = sector_states(L, m)
    dim_full = 1 << L

    if k is None:
        cols = np.arange(len(states))
        vec = sparse.csr_array(
            (np.ones(len(states)), (states, cols)),
            shape=(dim_full, len(states)),
            dtype=complex,
        )
        return SectorBasis(L, m, None, list(map(int, states)), vec)

    n_cells = L // 2
    if not 0 <= k < n_cells:
        raise ParameterError(f"momentum index {k} outside 0..{n_cells - 1}")
    # orbits of the two-site shift; keep the minimal index as representative
    seen = set()
    labels, rows, cols, vals = [], [], [], []
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
            continue  # momentum incompatible with orbit period
        rep = min(orbit)
        amp = np.exp(-2j * np.pi * k / n_cells * np.arange(p)) / np.sqrt(p)
        rows.extend(orbit)
        cols.extend([col] * p)
        vals.extend(amp)
        labels.append((rep, p))
        col += 1
    vec = sparse.csr_array((vals, (rows, cols)), shape=(dim_full, col), dtype=complex)
    return SectorBasis(L, m, k, labels, vec)


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


def _act_on_axes(u4, tensor, ax_a, ax_b):
    # contract a 4x4 gate (viewed as rank-4) into two qubit axes of `tensor`
    res = np.tensordot(u4.reshape(2, 2, 2, 2), tensor, axes=([2, 3], [ax_a, ax_b]))
    return np.moveaxis(res, [0, 1], [ax_a, ax_b])


def apply_gate(target, gate, sites, L, boundary="open"):
    """Act with a two-qubit gate embedded at `sites` = (a, b), b next to a.

    State vectors (1d arrays) are mapped to G|psi>; dense operators (2d) are
    conjugated, G O Gdag. The action is matrix-free, cost O(2^L) per state.
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
    u = gate_matrix(gate)
    arr = np.asarray(target, dtype=complex)
    if arr.ndim == 1:
        if arr.size != 1 << L:
            raise ParameterError("state length does not match L")
        out = _act_on_axes(u, arr.reshape((2,) * L), a, b)
        return out.reshape(-1)
    if arr.ndim == 2:
        if arr.shape != (1 << L, 1 << L):
            raise ParameterError("operator shape does not match L")
        t = arr.reshape((2,) * (2 * L))
        t = _act_on_axes(u, t, a, b)
        t = _act_on_axes(u.conj(), t, L + a, L + b)
        return t.reshape(1 << L, 1 << L)
    raise ParameterError("target must be a vector or a square matrix")


def _left_multiply(u4, mat, a, b, L):
    # embed(gate) @ mat without forming the embedding
    t = mat.reshape((2,) * L + (mat.shape[1],))
    return _act_on_axes(u4, t, a, b).reshape(mat.shape)


def propagator_apply(circuit, psi):
    """One circuit step applied to a state vector, matrix-free."""
    out = np.asarray(psi, dtype=complex).reshape(-1)
    if out.size != 1 << circuit.L:
        raise ParameterError("state length does not match circuit.L")
    out = out.reshape((2,) * circuit.L)
    for u, (a, b) in circuit.layer_pairs():
        out = _act_on_axes(u, out, a, b)
    return out.reshape(-1)


def build_propagator(circuit):
    """Dense one-step propagator. Refuses L beyond the full-dense cap."""
    if circuit.L > FULL_DENSE_MAX_L:
        raise CapacityError(
            f"dense propagator limited to L <= {FULL_DENSE_MAX_L}; "
            "use propagator_apply or build_sector_block instead"
        )
    mat = np.eye(1 << circuit.L, dtype=complex)
    for u, (a, b) in circuit.layer_pairs():
        mat = _left_multiply(u, mat, a, b, circuit.L)
    return Operator(mat, label=f"brickwork L={circuit.L} {circuit.boundary}", unitary=True)


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


def magnetization_commutator_defect(entries, L):
    """max |[O, sum sigma^z]| entrywise, computed from the diagonal charge."""
    m = magnetization_of(np.arange(1 << L), L)
    return np.abs(entries * (m[None, :] - m[:, None])).max()


def _translation_commutator_defect(entries, L, sites):
    perm = translation_permutation(L, sites)
    # S O S^-1 has entries O[inv(i), inv(j)]; compare with O
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return np.abs(entries[np.ix_(inv, inv)] - entries).max()


def restrict(op, basis, tol=1e-10):
    """Block <b'|O|b> of a dense operator in a SectorBasis.

    Checks that O commutes with the sector's symmetries (total sigma^z, and
    the two-site shift when the basis is momentum-resolved) before projecting.
    """
    entries = op.entries if isinstance(op, Operator) else np.asarray(op, dtype=complex)
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
    w = basis.vectors
    block = w.conj().T @ (w.conj().T @ entries.conj().T).conj().T
    label = getattr(op, "label", "")
    return Operator(
        np.asarray(block),
        label=f"{label} | m={basis.magnetization}"
        + (f" k={basis.momentum}" if basis.momentum is not None else ""),
        unitary=getattr(op, "unitary", False),
    )


def commutator_defect(a, b, L):
    """max |[A, B]| entrywise.

    When both operators conserve magnetization the commutator is computed
    sector by sector, which is what makes L=12 checks affordable; otherwise
    falls back to the dense product.
    """
    a = a.entries if isinstance(a, Operator) else np.asarray(a)
    b = b.entries if isinstance(b, Operator) else np.asarray(b)
    blocked = (
        magnetization_commutator_defect(a, L) < 1e-8
        and magnetization_commutator_defect(b, L) < 1e-8
    )
    if not blocked:
        return float(np.abs(a @ b - b @ a).max())
    ns = np.arange(1 << L)
    pops = _popcount(ns)
    worst = 0.0
    for m in range(0, L + 1):
        idx = ns[pops == m]
        am = a[np.ix_(idx, idx)]
        bm = b[np.ix_(idx, idx)]
        worst = max(worst, np.abs(am @ bm - bm @ am).max())
    return float(worst)


@functools.lru_cache(maxsize=512)
def _bond_pattern(L, m, a, b):
    """CSR pattern of an MC gate on bond (a, b) inside magnetization sector m.

    Row i is the bitstring states[i] of sector_states(L, m); its bond class
    c = 2 bit_a + bit_b picks the gate row.  Every row holds the diagonal
    entry u[c, c]; a 01 or 10 row also holds u[c, c ^ 3] in the column of
    its partner, the row with the two bond bits swapped.  Returns indptr,
    indices and, per entry, the flat index into the 4x4 gate, all read-only
    since the cache hands the same arrays to every caller.
    """
    states = sector_states(L, m)
    n = states.size
    mask_a, mask_b = 1 << (L - 1 - a), 1 << (L - 1 - b)
    cls = 2 * ((states & mask_a) != 0) + ((states & mask_b) != 0)
    mixed = np.flatnonzero((cls == 1) | (cls == 2))
    partner = np.searchsorted(states, states[mixed] ^ (mask_a | mask_b))
    rows = np.concatenate([np.arange(n), mixed])
    cols = np.concatenate([np.arange(n), partner])
    entry = np.concatenate([5 * cls, 3 * cls[mixed] + 3])  # u[c, c], u[c, c ^ 3]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    pattern = (indptr, cols[order].astype(np.int32), entry[order].astype(np.int8))
    for arr in pattern:
        arr.setflags(write=False)
    return pattern


def sector_operators(pairs, L, m):
    """CSR matrices of (gate, bond) pairs inside magnetization sector m.

    Each is the gate's entries gathered into the cached _bond_pattern of
    its bond, so applying them in order (sector_step) is one step of the
    pairs on the sector rows.  The pattern holds only the MC entries of a
    gate, so a gate with weight off the MC pattern raises SymmetryError
    instead of being silently truncated.
    """
    ops = []
    for u, (a, b) in pairs:
        defect = mc_zero_pattern_defect(u)
        if defect > MC_DEFECT_TOL:
            raise SymmetryError(
                f"gate on bond {(a, b)} is not magnetization conserving "
                f"(defect {defect:.3e}); no sector kernel for it",
                residual=defect,
            )
        indptr, indices, entry = _bond_pattern(L, m, a, b)
        dim = indptr.size - 1
        ops.append(sparse.csr_array((u.ravel()[entry], indices, indptr), shape=(dim, dim)))
    return ops


def sector_step(ops, x):
    """Apply sector_operators in order to the sector rows of x (1d or 2d)."""
    for op in ops:
        x = op @ x
    return x


def check_sector_column(full, col, states, what):
    """Compare one sector-space column with its full-space image.

    full is the 2^L oracle vector, col the same column on the rows `states`.
    A mismatch above SECTOR_ORACLE_TOL, or weight outside the sector, raises
    SymmetryError carrying the larger of the two.
    """
    outside = np.abs(full)
    outside[states] = 0.0
    residual = max(float(np.abs(full[states] - col).max()), float(outside.max()))
    if residual > SECTOR_ORACLE_TOL:
        raise SymmetryError(
            f"{what} sector kernel disagrees with the full-space column "
            f"(residual {residual:.3e})",
            residual=residual,
        )


def build_sector_block(circuit, basis):
    """Sector block W^dag U W of the propagator, built inside the sector.

    The rows of the basis matrix W on the magnetization sector are evolved
    all at once by sector_step (one sparse product per bond on a dim_m x
    dim array, no 2^L vector per column), then projected back with the
    sparse W^dag.  Non-MC gates are refused, and column 0 is checked
    against propagator_apply.
    """
    if circuit.L > SECTOR_MAX_L:
        raise CapacityError(f"sector-dense work limited to L <= {SECTOR_MAX_L}")
    m = basis.magnetization
    states = sector_states(circuit.L, m)
    w = basis.vectors[states, :]
    x = sector_step(sector_operators(circuit.layer_pairs(), circuit.L, m), w.toarray())
    if basis.dim:
        v0 = basis.vectors[:, [0]].toarray().ravel()
        check_sector_column(propagator_apply(circuit, v0), x[:, 0], states, "propagator")
    return Operator(
        w.conj().T @ x,
        label=f"brickwork block m={basis.magnetization} k={basis.momentum}",
        unitary=True,
    )
