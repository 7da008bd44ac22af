"""Ruelle-Pollicott spectra: the one-step propagator on few-site operators.

Heisenberg evolution of a homogeneous brickwall circuit is restricted to
the space of operators supported on at most r consecutive sites, organized
into translation classes with momentum k (shifts act by two sites, one
unit cell).  Operators are expanded in normalized strings over
{1, z, +, -}; a class representative is a length-r string whose first
letter is not the identity, starting on an even or an odd site.  One
brickwall step moves each support edge out by two sites when the gate
straddling it acts first in the conjugation U^dag q U, by one otherwise,
so every matrix element

    [T(k)]_{q',q} = sum_{j in {-1,0,1}} e^{-ikj} <S^{2j} q' | Uq>

is exact inside the one-step light cone of q (r+2 to r+4 sites); shifts
beyond |j| = 1 vanish identically because a representative keeps a
non-identity letter pinned near its first site.  T(k) is the compression
of a unitary channel, so its spectral radius never exceeds 1; eigenvalues
strictly inside the unit circle are the Ruelle-Pollicott resonances, and
unit eigenvalues at k = 0 are densities of conserved charges.  Gate
charge (raising minus lowering letters) is conserved, so T is block
diagonal over operator charge; the columns of one block travel through
the light cone as one sparse matrix.

k is a free real parameter of the translation class, not a lattice
momentum of any finite ring.

scipy is imported inside truncated_propagator (after its capacity
refusals), _cone_operators and TruncatedPropagator.eig, the only users
of its sparse kron and nonsymmetric eigensolver, so importing this module
or refusing a support loads no scipy.
"""

import functools

import numpy as np
from dataclasses import dataclass, field
from itertools import product

from .charges import (
    LETTERS,
    SITE_OPS as _SITE_OPS,
    charge_kernels,
    charge_of_string,
)
from .errors import (
    CapacityError,
    CriticalManifoldError,
    ParameterError,
    RefusalError,
    SymmetryError,
)
from .gates import gate_matrix, haar_params_from_gate
from .rmatrix import haar_to_r

__all__ = [
    "LETTERS",
    "TruncatedPropagator",
    "charge_of_string",
    "truncated_propagator",
    "rp_spectrum",
    "unit_multiplicity",
    "conserved_density_vectors",
    "gap_scaling",
    "GapFit",
]

R_MAX = 6
BLOCK_DIM_MAX = 8192
MIXING_TOL = 1e-12
RADIUS_TOL = 1e-10
UNIT_TOL = 1e-8
CHARGE_OVERLAP_MIN = 0.99


def _all_strings(r):
    return ["".join(t) for t in product(LETTERS, repeat=r) if t[0] != "1"]


def _conjugation_superop(gate):
    """16x16 matrix of q -> g^dag q g in the normalized two-site string basis."""
    g = gate_matrix(gate)
    basis = [
        np.kron(_SITE_OPS[a], _SITE_OPS[b]) for a in LETTERS for b in LETTERS
    ]
    out = np.empty((16, 16), dtype=complex)
    for b_idx, pb in enumerate(basis):
        evolved = g.conj().T @ pb @ g
        for a_idx, pa in enumerate(basis):
            out[a_idx, b_idx] = np.trace(pa.conj().T @ evolved) / 4.0
    return out


@dataclass
class TruncatedPropagator:
    """Charge-blocked matrices of the r-local propagator at momentum k.

    labels[c] lists (parity, string) row/column labels of blocks[c]; all
    even-start representatives come first.  mixing_defect is the largest
    matrix element between different charge blocks (exactly conserved,
    so this is a numerical-noise figure).  spectral_radius is the largest
    eigenvalue modulus over all blocks.  Each block is eigensolved once,
    on first use, and every spectral reading shares that decomposition.
    """

    k: float
    r: int
    blocks: dict
    labels: dict
    mixing_defect: float
    spectral_radius: float = None
    _eig: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def eig(self, charge):
        """(eigenvalues, right eigenvectors) of one charge block."""
        if charge not in self._eig:
            import scipy.linalg

            self._eig[charge] = scipy.linalg.eig(self.blocks[charge])
        return self._eig[charge]


def _cone_operators(superop, pos, r):
    """Light cone (lo, hi) of a length-r string at window site `pos` (site
    0 even) and its sparse pair superoperators, layer two (odd bonds)
    first.  An edge moves out by two sites where its outermost letter
    meets a layer-two gate from outside (an even left edge, an odd right
    edge), by one otherwise."""
    import scipy.sparse

    end = pos + r - 1
    lo, hi = pos - (2 if pos % 2 == 0 else 1), end + (2 if end % 2 == 1 else 1)
    s, eye = scipy.sparse.csr_matrix(superop), scipy.sparse.identity
    bonds = [i for i in range(lo, hi) if i % 2 == 1] + [i for i in range(lo, hi) if i % 2 == 0]
    return lo, hi, [
        scipy.sparse.kron(eye(4 ** (i - lo)), scipy.sparse.kron(s, eye(4 ** (hi - i - 1))),
                          format="csr")
        for i in bonds
    ]


def truncated_propagator(gate, r, k):
    """Build T(k) on all charge blocks of the r-local string classes.

    Row placements for shifts j in {-1, 0, 1} span lattice sites -2 to
    r+2; elements with |j| > 1 vanish identically.  Each column is
    conjugated only inside its one-step light cone (r+3 sites for odd r,
    r+2 or r+4 for even r by column parity); gates outside it map identity
    to identity.  The columns of a charge block travel as one sparse
    matrix; row slots with a letter outside the cone are zero.  The radius
    check eigendecomposes every block once, right vectors included, and
    the result caches them for every later spectral reading.
    One BLAS thread on a 2-core Xeon: r=5 about 1.4 s (0.8 s of it the
    decompositions); r=R_MAX=6 about 34 s (21 s of it the decompositions)
    and 2.1 GB peak RSS, set by the build.
    """
    if r < 1:
        raise ParameterError(f"support must satisfy 1 <= r <= {R_MAX}, got {r}")
    if r > R_MAX:
        raise CapacityError(f"support must satisfy 1 <= r <= {R_MAX}, got {r}")
    strings = _all_strings(r)
    charges = sorted({charge_of_string(s) for s in strings})
    labels = {c: [(p, s) for p in ("even", "odd") for s in strings if charge_of_string(s) == c]
              for c in charges}
    if max(len(v) for v in labels.values()) > BLOCK_DIM_MAX:
        raise CapacityError(f"largest charge block exceeds {BLOCK_DIM_MAX}")
    import scipy.sparse

    # slot of every representative (its letters as base-4 digits, ascending)
    # and its charge; other charges' slots are watched for leakage
    digits = str.maketrans(LETTERS, "0123")
    reps = np.array([int(s.translate(digits), 4) for s in strings])
    rep_charge = np.array([charge_of_string(s) for s in strings])
    superop = _conjugation_superop(gate)
    blocks = {c: np.zeros((len(labels[c]), len(labels[c])), dtype=complex) for c in charges}
    mixing = 0.0

    for col_half, pos in ((0, 2), (1, 3)):
        lo, hi, ops = _cone_operators(superop, pos, r)
        for c in charges:
            own = reps[rep_charge == c]
            n = len(own)
            half = slice(col_half * n, (col_half + 1) * n)
            cols = scipy.sparse.csc_matrix(
                (np.ones(n, dtype=complex), own * 4 ** (hi - pos - r + 1), np.arange(n + 1)),
                shape=(4 ** (hi - lo + 1), n),
            )
            for op in ops:
                cols = op @ cols
            for j, (row_half, base) in product((-1, 0, 1), ((0, 2), (1, 3))):
                a = base + 2 * j
                if not lo <= a <= hi:
                    continue
                # slots reaching past the cone must end in identities there
                tail = hi - (a + r - 1)
                fits = reps % 4 ** max(-tail, 0) == 0
                slots = reps[fits]
                sl = cols[slots // 4 ** max(-tail, 0) * 4 ** max(tail, 0)].toarray()
                mine = rep_charge[fits] == c
                rows = row_half * n + np.searchsorted(own, slots[mine])
                blocks[c][rows, half] += np.exp(-1j * k * j) * sl[mine]
                if not mine.all():
                    mixing = max(mixing, float(np.abs(sl[~mine]).max()))

    if mixing > MIXING_TOL:
        raise SymmetryError("propagator mixes operator-charge blocks", residual=mixing)
    tp = TruncatedPropagator(k=float(k), r=r, blocks=blocks, labels=labels, mixing_defect=mixing)
    radius = max((np.abs(tp.eig(c)[0]).max() for c in charges if blocks[c].size), default=0.0)
    if radius > 1.0 + RADIUS_TOL:
        raise SymmetryError(
            "truncated propagator exceeds unit spectral radius",
            residual=float(radius - 1.0),
        )
    tp.spectral_radius = float(radius)
    return tp


def rp_spectrum(tp, eps_keep=0.25):
    """Leading spectrum of the truncated propagator, per charge block.

    Returns the (eigenvalue, charge block) pairs with |lambda| > 1 -
    eps_keep, 0 < eps_keep <= 1, in order of decreasing modulus.
    """
    if not 0.0 < eps_keep <= 1.0:
        raise ParameterError(f"eps_keep must lie in (0, 1], got {eps_keep}")
    modes = []
    for c, block in tp.blocks.items():
        if not block.size:
            continue
        vals = tp.eig(c)[0]
        modes += [(complex(vals[i]), c) for i in np.flatnonzero(np.abs(vals) > 1.0 - eps_keep)]
    modes.sort(key=lambda mode: -abs(mode[0]))
    return modes


def unit_multiplicity(tp):
    """Number of eigenvalues within UNIT_TOL of 1 across all blocks."""
    return sum(int(np.sum(np.abs(tp.eig(c)[0] - 1.0) < UNIT_TOL))
               for c, block in tp.blocks.items() if block.size)


# ----------------------------------------------------- conserved densities


def _fold_kernel(kernel, start_parity, r, index):
    """Map a w-site density at a given start parity to basis coefficients.

    w is read off the kernel (2^w x 2^w, w <= r).  The coefficient of a
    string S is tr(S^dag K) / 2^w, with S the kron of its letters'
    SITE_OPS; only charge-0 strings are read, and the all-identity string
    is skipped, since the kernels are traceless.  Strings whose leading
    letters are the identity are the same translation class seen from a
    shifted start; they fold onto the representative with the parity of
    their first non-identity site, so the windows a class meets at
    different offsets add up.
    """
    w = len(kernel).bit_length() - 1
    vec = np.zeros(len(index), dtype=complex)
    for letters in product(LETTERS, repeat=w):
        tail = "".join(letters).lstrip("1")
        if not tail or charge_of_string(tail):
            continue
        string = functools.reduce(np.kron, [_SITE_OPS[ch] for ch in letters])
        parity = "even" if (start_parity + w - len(tail)) % 2 == 0 else "odd"
        vec[index[(parity, tail + "1" * (r - len(tail)))]] += np.vdot(string, kernel) / (1 << w)
    return vec


def conserved_density_vectors(gate, r):
    """Charge-0 basis vectors of the densities conserved at k = 0.

    Magnetization always; for r >= 3 the first charge pair, folded from
    the three-site cell densities of charges.charge_kernels; for r >= 5
    the second pair, folded from its five-site ones.  A gate the R-matrix
    map refuses for an infinite rho or u, and an identity or swap-family
    gate, whose charge kernels are undefined, keep magnetization only; a
    critical gate raises.  Columns are normalized and ordered magnetization,
    Q1+, Q1-, Q2+, Q2-; rows match truncated_propagator labels.
    """
    zero = [s for s in _all_strings(r) if charge_of_string(s) == 0]
    labels = [("even", s) for s in zero] + [("odd", s) for s in zero]
    index = {lab: i for i, lab in enumerate(labels)}
    cols = []
    mag = np.zeros(len(labels), dtype=complex)
    mag[index[("even", "z" + "1" * (r - 1))]] = 1.0
    mag[index[("odd", "z" + "1" * (r - 1))]] = 1.0
    cols.append(mag)
    p = None
    if r >= 3:
        try:
            p = haar_to_r(haar_params_from_gate(gate).params)
        except CriticalManifoldError:
            raise
        except RefusalError:
            pass  # rho or u would be infinite: no charge columns
    if p is not None and not p.degenerate:  # no charge kernels at identity or swap points
        kernels = {sign: charge_kernels(p, sign) for sign in "+-"}
        for order in range(2 if r >= 5 else 1):
            cols.append(_fold_kernel(kernels["+"][order], 1, r, index))
            cols.append(_fold_kernel(kernels["-"][order], 0, r, index))
    mat = np.column_stack(cols)
    norms = np.linalg.norm(mat, axis=0)
    good = norms > 1e-10
    return {0: mat[:, good] / norms[good]}


# ------------------------------------------------------------- gap fits


@dataclass
class GapFit:
    """Decay of the leading non-conserved eigenvalue with support size."""

    model: str
    r_values: tuple
    gaps: dict
    lambda2: dict
    c: float = None
    rate: float = None
    intercept: float = None
    slope: float = None


def _lambda2(tp, conserved):
    """Largest-modulus eigenvalue outside the conserved eigenspace.

    conserved maps charge blocks to column stacks of conserved-density
    vectors (or is None); a unit eigenvalue is conserved when more than
    CHARGE_OVERLAP_MIN of its normalized eigenvector lies in their span.
    """
    proj = {c: np.linalg.qr(np.asarray(mat, dtype=complex))[0]
            for c, mat in (conserved or {}).items()}
    best = 0.0 + 0.0j
    for c, block in tp.blocks.items():
        if not block.size:
            continue
        vals, vr = tp.eig(c)
        for i, lam in enumerate(vals):
            if abs(lam - 1.0) < UNIT_TOL and c in proj:
                v = vr[:, i] / np.linalg.norm(vr[:, i])
                if np.linalg.norm(proj[c].conj().T @ v) > CHARGE_OVERLAP_MIN:
                    continue
            if abs(lam) > abs(best):
                best = lam
    return complex(best)


def gap_scaling(gate, k, r_list, tp=None):
    """Fit 1 - |lambda_2| against support size r.

    k = 0 uses the exponential model log(1-|lambda2|) = log c - rate * r;
    other k fit the gap linearly in r.  Conserved unit eigenvalues, whose
    eigenvectors lie in the span of conserved_density_vectors at each
    support, are excluded by the overlap rule in _lambda2.  Fits need at
    least two distinct supports and a nonzero gap everywhere, otherwise
    refused.

    tp, if given, is this gate's T(k) at one support; that support is then
    read from it, eigendecompositions included, instead of being built
    again.
    """
    r_values = tuple(sorted(set(int(r) for r in r_list)))
    if any(not 3 <= r <= R_MAX for r in r_values):
        raise ParameterError(f"supports must lie in 3..{R_MAX}, got {r_values}")
    if len(r_values) < 2:
        raise RefusalError("gap fit needs at least two distinct supports")
    if tp is not None and tp.k != float(k):
        raise ParameterError(f"supplied propagator is at k={tp.k}, the fit at k={k}")
    at_zero = abs(k) < 1e-12
    gaps, lam2 = {}, {}
    for r in r_values:
        t = tp if tp is not None and tp.r == r else truncated_propagator(gate, r, k)
        lam = _lambda2(t, conserved_density_vectors(gate, r) if at_zero else None)
        gap = 1.0 - abs(lam)
        if gap < 1e-12:
            raise RefusalError(
                f"no decaying mode at r={r}: every leading eigenvalue is conserved"
            )
        gaps[r] = float(gap)
        lam2[r] = lam
    rs = np.array(r_values, dtype=float)
    ys = np.array([gaps[r] for r in r_values])
    if at_zero:
        slope, intercept = np.polyfit(rs, np.log(ys), 1)
        return GapFit(
            model="exponential",
            r_values=r_values,
            gaps=gaps,
            lambda2=lam2,
            c=float(np.exp(intercept)),
            rate=float(-slope),
        )
    slope, intercept = np.polyfit(rs, ys, 1)
    return GapFit(
        model="linear",
        r_values=r_values,
        gaps=gaps,
        lambda2=lam2,
        intercept=float(intercept),
        slope=float(slope),
    )
