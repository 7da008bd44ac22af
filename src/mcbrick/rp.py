"""Ruelle-Pollicott spectra: the one-step propagator on few-site operators.

Heisenberg evolution of a homogeneous brickwall circuit is restricted to
the space of operators supported on at most r consecutive sites, organized
into translation classes with momentum k (shifts act by two sites, one
unit cell).  Operators are expanded in normalized strings over
{1, z, +, -}, each named by its base-4 code (STRING_OPS, this module's
own table; no other module names strings); a class representative is a
length-r string whose first letter is not the identity, starting on an
even or an odd site.  One brickwall step moves each support edge out by
two sites when the gate straddling it acts first in the conjugation
U^dag q U, by one otherwise, so every matrix element

    [T(k)]_{q',q} = sum_{j in {-1,0,1}} e^{-ikj} <S^{2j} q' | Uq>

is exact inside the one-step light cone of q (r+2 to r+4 sites); shifts
beyond |j| = 1 vanish identically because a representative keeps a
non-identity letter pinned near its first site.  T(k) is the compression
of a unitary channel, so its spectral radius never exceeds 1; eigenvalues
strictly inside the unit circle are the Ruelle-Pollicott resonances, and
unit eigenvalues at k = 0 are densities of conserved charges.  Gate
charge (raising minus lowering letters) is conserved, so T is block
diagonal over operator charge.  Strings travel as their codes, placed
in a lattice window as base-4 slot integers and pushed bond by bond
through the two-site superoperator (_push).

k is a free real parameter of the translation class, not a lattice
momentum of any finite ring.

This module is numpy only: rows meet columns in a numpy join on slots,
and the eigenvalue solves are numpy's, so an RP spectrum loads no scipy.
No eigenvector is solved: a gap fit drops the conserved unit eigenvalues
by counting the conserved densities, each checked to be a fixed point of
T(0) (_lambda2).
"""

import numpy as np
from dataclasses import dataclass

from .charges import charge_kernels
from .core import _expand
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
    "TruncatedPropagator",
    "truncated_propagator",
    "rp_spectrum",
    "check_eps_keep",
    "check_fit_supports",
    "unit_multiplicity",
    "conserved_density_vectors",
    "gap_scaling",
    "GapFit",
]

R_MAX = 6
MIXING_TOL = 1e-12
RADIUS_TOL = 1e-10
UNIT_TOL = 1e-8
ORDER_TOL = 1e-9  # moduli and real parts this close tie in rp_spectrum
JOIN_CHUNK = 2**19  # row-column products per join pass, about 55 bytes each while it runs
CONJUGATE_TOL = 1e-12  # |sin k| at or below this pairs each block -c with block c

# operator strings over {1, z, p, m}: p = sqrt2 sigma+, m = sqrt2 sigma-, each
# orthonormal under tr(a^dag b)/2 (bit 1 is sz = +1).  A w-site string is named
# by its base-4 code, site 0 the most significant digit; digit d is the letter
# "1zpm"[d], STRING_OPS[d] its matrix, DIGIT_CHARGE[d] its charge.
STRING_OPS = np.array([np.eye(2), np.diag([-1.0, 1.0]),
                       np.sqrt(2.0) * np.array([[0, 0], [1, 0]]),
                       np.sqrt(2.0) * np.array([[0, 1], [0, 0]])], dtype=complex)
DIGIT_CHARGE = np.array([0, 0, 1, -1])


def code_charge(codes, w):
    """Charge of each w-site string code."""
    return sum(DIGIT_CHARGE[codes >> 2 * i & 3] for i in range(w))


def string_codes(w, charge):
    """Ascending codes of the w-site strings of a charge, first letter not 1."""
    codes = np.arange(4 ** (w - 1), 4**w)
    return codes[code_charge(codes, w) == charge]


def string_weights(op):
    """tr(S^dag A) / 2^w for every w-site string code S, site by site."""
    w = len(op).bit_length() - 1
    pairs = np.arange(2 * w).reshape(2, w).T.ravel()  # (row bit, column bit) per site
    t = np.asarray(op).reshape((2,) * 2 * w).transpose(pairs).reshape((4,) * w)
    site = STRING_OPS.conj().reshape(4, 4) / 2
    for i in range(w):
        t = np.moveaxis(np.tensordot(site, t, axes=(1, i)), 0, i)
    return t.ravel()


def _conjugation_superop(gate):
    """16x16 matrix of q -> g^dag q g on the two-site string codes."""
    g = gate_matrix(gate)
    pairs = np.einsum("aij,bkl->abikjl", STRING_OPS, STRING_OPS).reshape(16, 4, 4)
    return np.column_stack([string_weights(g.conj().T @ e @ g) for e in pairs])


@dataclass
class TruncatedPropagator:
    """Charge-blocked matrices of the r-local propagator at momentum k.

    blocks[c] acts on the codes string_codes(r, c) starting on an even
    site, then the same codes starting on an odd site; eigenvalues[c] are
    its eigenvalues, solved once when the propagator is built.
    mixing_defect is the largest charge-changing entry of the two-site
    superoperator, a factor of every element between different charge
    blocks (charge is exactly conserved, so this is a numerical-noise
    figure).  spectral_radius is the largest eigenvalue modulus over all
    blocks.
    """

    k: float
    r: int
    blocks: dict
    eigenvalues: dict
    mixing_defect: float
    spectral_radius: float


def _push(superop, bonds, hi, ids, slots, n):
    """Unit strings (column ids < n; slots: letters as base-4 digits, site
    hi the last) pushed through the pair superoperator on each bond (i,
    i+1) in turn: split out the pair's two digits, repeat each entry once
    per exact nonzero of that pair's superoperator column, put the new
    digits back, and sum entries that land on one (column, slot).
    Returns the coalesced (ids, slots, values), sorted by slot.
    """
    pin, pout = np.nonzero(superop.T)  # the nonzeros grouped by input pair
    coef, count = superop[pout, pin], np.bincount(pin, minlength=16)
    start = np.cumsum(count) - count
    key, vals = np.asarray(slots) * n + ids, np.ones(len(ids), dtype=complex)
    for i in bonds:
        unit = n * 4 ** (hi - i - 1)
        pair = key // unit % 16
        cnt = count[pair]
        nth = _expand(start[pair], cnt)
        key = np.repeat(key - pair * unit, cnt) + pout[nth] * unit
        vals = np.repeat(vals, cnt) * coef[nth]
        key, at = np.unique(key, return_inverse=True)
        vals = np.bincount(at, vals.real) + 1j * np.bincount(at, vals.imag)
    return key % n, key // n, vals


def _charge_block(superop, r, c, k):
    """The charge-c block of T(k): pushed columns meet pulled rows on slots.

    Each column half is grouped by slot once; a row entry on a slot is
    repeated once per column entry there, and the products are summed
    onto row * n + column, in passes of at most about JOIN_CHUNK products
    (at r = 6 one placement can meet about 4 million).
    """
    hi = r + 5  # right of every row placement and of the bonds it is pulled through
    own = string_codes(r, c)
    n, ids = len(own), np.arange(len(own))
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    halves = []  # per column parity: its pushed entries, and each slot's run of them
    for pos in (2, 3):
        col, slot, val = _push(superop, range(pos - 1 + pos % 2, pos + r, 2), hi, ids,
                               own * 4 ** (hi - pos - r + 1), n)
        slots, start, count = np.unique(slot, return_index=True, return_counts=True)
        halves.append((col, val, slots, start, count))
    for a in range(6):
        row, slot, val = _push(superop.T, range(a - a % 2, a + r, 2), hi, ids,
                               own * 4 ** (hi - a - r + 1), n)
        phase = np.exp(-1j * k * ((a - 2 - a % 2) // 2))
        # odd-start columns reach no row placed left of site 2
        for col_half, (col, cval, slots, start, count) in enumerate(halves[: 1 + (a >= 2)]):
            at = np.minimum(np.searchsorted(slots, slot), slots.size - 1)
            hit = np.flatnonzero(slots[at] == slot)
            per = count[at[hit]]  # products of each matched row entry
            cuts = np.searchsorted(np.cumsum(per), np.arange(JOIN_CHUNK, per.sum(), JOIN_CHUNK))
            for part, cnt in zip(np.split(hit, cuts), np.split(per, cuts)):
                nth = _expand(start[at[part]], cnt)
                cell = np.repeat(row[part] * n, cnt) + col[nth]
                prod = np.repeat(val[part], cnt) * cval[nth]
                joined = (np.bincount(cell, prod.real, n * n)
                          + 1j * np.bincount(cell, prod.imag, n * n))
                block[a % 2 * n:(a % 2 + 1) * n, col_half * n:(col_half + 1) * n] += (
                    phase * joined.reshape(n, n))
    return block


def _conjugate_order(r, c):
    """Row of block c holding sigma(s) for each row s of block -c, where
    sigma swaps p and m (digits 2 and 3) and is Hermitian conjugation on
    strings."""
    own, other = string_codes(r, c), string_codes(r, -c)
    at = np.searchsorted(own, other ^ ((other >> 1) & (4**r - 1) // 3))
    return np.concatenate([at, at + len(own)])


def _realified(block, perm):
    """The block in the basis (s + sigma s)/sqrt2, i(s - sigma s)/sqrt2 over
    the pairs s < sigma s = perm[s], then each fixed s = sigma s alone.  For
    a block equal to its perm-permuted conjugate this matrix is real, up
    to rounding that is dropped, and has the block's eigenvalues."""
    idx = np.arange(len(perm))
    lo, fixed = idx[perm > idx], idx[perm == idx]
    hi, h = perm[lo], np.sqrt(0.5)
    z = np.hstack([(block[:, lo] + block[:, hi]) * h, (block[:, lo] - block[:, hi]) * (1j * h),
                   block[:, fixed]])
    return np.vstack([((z[lo] + z[hi]) * h).real, ((z[lo] - z[hi]) * h).imag, z[fixed].real])


def truncated_propagator(gate, r, k):
    """Build T(k) on all charge blocks of the r-local string classes.

    Row placements for shifts j in {-1, 0, 1} start on lattice sites 0 to
    5 (representatives start on site 2 if even, 3 if odd); elements with
    |j| > 1 vanish identically.  Elements meet in the middle: a block's
    columns go through the layer-two bonds their strings touch, its rows
    at each placement back through the layer-one bonds theirs touch (the
    transposed superoperator), and the two meet in a join on slots
    (_charge_block).  An element between charges needs a charge-changing
    superoperator entry, so the largest one is the mixing defect, refused
    before any push.  Each block's eigenvalues are solved once, without
    vectors, for the radius check and every later reading.

    Hermitian conjugation commutes with a step and swaps p and m (sigma),
    so T_{-c}(k)[sigma q', sigma q] = conj T_c(-k)[q', q].  Where e^{-ik} is
    real (k = 0 or pi mod 2 pi) only c >= 0 is built and solved: block -c
    is block c's sigma-permuted conjugate, with the conjugate eigenvalues,
    and the charge-0 block, its own partner, is solved in the real basis
    of _realified (it stays in the string basis in blocks).

    One BLAS thread on a 2-core Xeon, k = 0: r=5 about 0.3 s; r=R_MAX=6
    5-6 s (4 s of it the eigenvalue solves, 0.8-1.8 s the builds,
    depending on the gate) and 0.18 GB peak RSS.  At other k every block
    is built and solved: r=6 10.5-12 s and 0.2 GB.
    """
    if r < 1:
        raise ParameterError(f"support must satisfy 1 <= r <= {R_MAX}, got {r}")
    if r > R_MAX:
        raise CapacityError(f"support must satisfy 1 <= r <= {R_MAX}, got {r}")
    superop = _conjugation_superop(gate)
    pair_charge = code_charge(np.arange(16), 2)
    mixing = float(np.abs(superop[pair_charge[:, None] != pair_charge]).max())
    if mixing > MIXING_TOL:
        raise SymmetryError("propagator mixes operator-charge blocks", residual=mixing)

    paired = abs(np.sin(k)) <= CONJUGATE_TOL
    built = {c: _charge_block(superop, r, c, k) for c in range(0 if paired else -r, r + 1)}
    solved = {c: np.linalg.eigvals(b) for c, b in built.items() if c or not paired}
    if paired:
        solved[0] = np.linalg.eigvals(_realified(built[0], _conjugate_order(r, 0))).astype(complex)
        for c in range(1, r + 1):
            at = _conjugate_order(r, c)
            built[-c] = built[c][np.ix_(at, at)].conj()
            solved[-c] = solved[c].conj()
    blocks, eigenvalues = dict(sorted(built.items())), dict(sorted(solved.items()))
    radius = max(np.abs(vals).max() for vals in eigenvalues.values())
    if radius > 1.0 + RADIUS_TOL:
        raise SymmetryError("truncated propagator exceeds unit spectral radius",
                            residual=float(radius - 1.0))
    return TruncatedPropagator(float(k), r, blocks, eigenvalues, mixing, float(radius))


def check_eps_keep(eps_keep):
    """Refuse an rp_spectrum threshold outside (0, 1]."""
    if not 0.0 < eps_keep <= 1.0:
        raise ParameterError(f"eps_keep must lie in (0, 1], got {eps_keep}")


def rp_spectrum(tp, eps_keep=0.25):
    """Leading spectrum of the truncated propagator, per charge block.

    Returns the (eigenvalue, charge block) pairs with |lambda| > 1 -
    eps_keep, 0 < eps_keep <= 1, in order of decreasing modulus.  Moduli
    within ORDER_TOL of the largest of their run tie, so rounding cannot
    reorder them; tied modes go by charge block, then by phase angle:
    larger real part first (on the ORDER_TOL grid), then larger imaginary.
    """
    check_eps_keep(eps_keep)
    modes = []
    for c, vals in tp.eigenvalues.items():
        modes += [(complex(vals[i]), c) for i in np.flatnonzero(np.abs(vals) > 1.0 - eps_keep)]
    modes.sort(key=lambda mode: -abs(mode[0]))
    neg = -np.abs([lam for lam, _ in modes])
    out = []
    while len(out) < len(modes):
        tie = modes[len(out):np.searchsorted(neg, neg[len(out)] + ORDER_TOL, side="right")]
        out += sorted(tie, key=lambda m: (m[1], -round(m[0].real / ORDER_TOL), -m[0].imag))
    return out


def unit_multiplicity(tp):
    """Number of eigenvalues within UNIT_TOL of 1 across all blocks."""
    return sum(int(np.sum(np.abs(vals - 1.0) < UNIT_TOL)) for vals in tp.eigenvalues.values())


# ----------------------------------------------------- conserved densities


def _fold_kernel(kernel, start_parity, r):
    """Map a w-site density at a given start parity to basis coefficients.

    w is read off the kernel (2^w x 2^w, w <= r), and its string weights
    are the coefficients.  Only charge-0 codes are read, and the
    all-identity code is skipped, since the kernels are traceless.  A
    code of n < w digits has identity leading letters: it is the same
    translation class seen from a start w - n sites on, so it folds onto
    the representative of that start's parity, padded to r sites, and the
    windows a class meets at different offsets add up.
    """
    w = len(kernel).bit_length() - 1
    weights, codes = string_weights(kernel), np.arange(1, 4**w)
    codes = codes[code_charge(codes, w) == 0]
    n = np.searchsorted(4 ** np.arange(w + 1), codes, side="right")  # digits per code
    own = string_codes(r, 0)
    at = np.searchsorted(own, codes * 4 ** (r - n)) + (start_parity + w - n) % 2 * len(own)
    vec = np.zeros(2 * len(own), dtype=complex)
    np.add.at(vec, at, weights[codes])
    return vec


def conserved_density_vectors(gate, r):
    """Charge-0 basis vectors of the densities conserved at k = 0.

    Magnetization always; for r >= 3 the first charge pair, folded from
    the three-site cell densities of charges.charge_kernels; for r >= 5
    the second pair, folded from its five-site ones.  A gate the R-matrix
    map refuses for an infinite rho or u, and an identity or swap-family
    gate, whose charge kernels are undefined, keep magnetization only; a
    critical gate raises.  Columns are normalized and ordered magnetization,
    Q1+, Q1-, Q2+, Q2-; rows match truncated_propagator's charge-0 block.
    """
    # magnetization, z1..1, at both start parities
    cols = [(np.tile(string_codes(r, 0), 2) == 4 ** (r - 1)).astype(complex)]
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
            cols.append(_fold_kernel(kernels["+"][order], 1, r))
            cols.append(_fold_kernel(kernels["-"][order], 0, r))
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
    vectors (or is None).  Each column must be a fixed point of its
    block, max|T c - c| <= UNIT_TOL, and the rank(C) stored eigenvalues
    nearest 1 are the ones the columns span, each within UNIT_TOL of 1;
    otherwise SymmetryError.  Those are dropped, and the largest modulus
    among the eigenvalues left over all blocks is lambda2.
    """
    conserved = conserved or {}
    best = 0.0 + 0.0j
    for c, vals in tp.eigenvalues.items():
        if c in conserved:
            mat = conserved[c]
            fixed = float(np.abs(tp.blocks[c] @ mat - mat).max())
            if fixed > UNIT_TOL:
                raise SymmetryError("conserved density is not a fixed point of T(0)",
                                    residual=fixed)
            drop = np.argsort(np.abs(vals - 1.0))[:np.linalg.matrix_rank(mat)]
            off = float(np.abs(vals[drop] - 1.0).max(initial=0.0))
            if off > UNIT_TOL:
                raise SymmetryError("conserved densities outnumber the unit eigenvalues",
                                    residual=off)
            vals = np.delete(vals, drop)
        for lam in vals:
            if abs(lam) > abs(best):
                best = lam
    return complex(best)


def check_fit_supports(r_list):
    """Sorted distinct gap-fit supports; refuses any outside 3..R_MAX or fewer than two."""
    r_values = tuple(sorted(set(int(r) for r in r_list)))
    if any(not 3 <= r <= R_MAX for r in r_values):
        raise ParameterError(f"supports must lie in 3..{R_MAX}, got {r_values}")
    if len(r_values) < 2:
        raise RefusalError("gap fit needs at least two distinct supports")
    return r_values


def gap_scaling(gate, k, r_list, tp=None):
    """Fit 1 - |lambda_2| against support size r.

    k = 0 uses the exponential model log(1-|lambda2|) = log c - rate * r;
    other k fit the gap linearly in r.  The conserved unit eigenvalues,
    one per independent column of conserved_density_vectors at each
    support, are dropped by _lambda2.  Fits need at least two distinct
    supports and a nonzero gap everywhere, otherwise refused.

    tp, if given, is this gate's T(k) at one support; that support is then
    read from it, stored eigenvalues included, instead of being built
    again.
    """
    r_values = check_fit_supports(r_list)
    if tp is not None and tp.k != float(k):
        raise ParameterError(f"supplied propagator is at k={tp.k}, the fit at k={k}")
    at_zero = abs(k) < 1e-12
    gaps, lam2 = {}, {}
    for r in r_values:
        t = tp if tp is not None and tp.r == r else truncated_propagator(gate, r, k)
        lam = _lambda2(t, conserved_density_vectors(gate, r) if at_zero else None)
        gap = 1.0 - abs(lam)
        if gap < 1e-12:
            raise RefusalError(f"no decaying mode at r={r}: "
                               "every leading eigenvalue is conserved")
        gaps[r] = float(gap)
        lam2[r] = lam
    rs = np.array(r_values, dtype=float)
    ys = np.array([gaps[r] for r in r_values])
    fit = GapFit("exponential" if at_zero else "linear", r_values, gaps, lam2)
    if at_zero:
        slope, intercept = np.polyfit(rs, np.log(ys), 1)
        fit.c, fit.rate = float(np.exp(intercept)), float(-slope)
    else:
        fit.slope, fit.intercept = (float(v) for v in np.polyfit(rs, ys, 1))
    return fit
