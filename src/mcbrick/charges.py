"""Staggered transfer matrices and the conserved charges they generate.

The transfer matrix on L qubits is the auxiliary-space trace

    T(x; u) = tr_a [ R_0a(x+) R_1a(x-) R_2a(x+) ... R_{L-1,a}(x-) ],

with R = P Rc, x+- = x +- u/2, and the 0-based even sites carrying x+.  One
circuit step is U = T(-u/2; u)^{-1} T(u/2; u).  Charges are log-derivatives
Q_l^{+-}(u) = d^l/dx^l log T(x; u) at x = +-u/2; their densities live on
2l+1 adjacent sites.  Everything here works with the traceless part of the
charges: the scalar gauge e^{i beta x} inside Rc only shifts them by
multiples of the identity, which carries no information.

Every R conserves the magnetization of its site and the auxiliary qubit
(the six-vertex ice rule), so T, its x-derivatives and every charge are
block diagonal over the magnetization sectors of the chain.  They are
built, solved, checked and projected as sector blocks {m: block} on the
rows of core.sector_states, and every function here that takes an
operator (a charge or the propagator) takes it in that form; no 2^L x 2^L
array is formed.
"""

import functools
from itertools import product
from math import comb

import numpy as np
from dataclasses import dataclass

from .core import (
    FULL_DENSE_MAX_L,
    commutator_defect,
    embed_operator,
    sector_operators,
    sector_states,
)
from .errors import CapacityError, ParameterError
from .rmatrix import r_matrix_jet

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _site_r_tensors(p, x, L, order):
    """R = P Rc and its first `order` x-derivatives as (s_out, a_row, s_in,
    a_col) tensors, one list per site.  The sites alternate between two
    arguments, x + u/2 on the even sites and x - u/2 on the odd ones, so
    two r_matrix_jet calls serve the whole chain."""
    even, odd = (
        [(_SWAP @ r).reshape(2, 2, 2, 2) for r in r_matrix_jet(p, arg, order)]
        for arg in (x + 0.5 * p.u, x - 0.5 * p.u)
    )
    return [odd if i % 2 else even for i in range(L)]


def _prefix_count(n, k):
    """Number of n-bit prefixes of popcount k."""
    return comb(n, k) if k >= 0 else 0


def _transfer_family(p, x, L, order=0):
    """T(x;u) and its first `order` x-derivatives, as sector blocks.

    The sweep multiplies in R_0a, R_1a, ... one site at a time.  After i
    sites, part[d][a0, a][k] is the d-th derivative of the partial product
    from auxiliary state a0 to a, on the column prefixes (bits of sites
    0..i-1) of popcount k.  The ice rule s_out + a_row = s_in + a_col fixes
    the row prefixes' popcount to k + a - a0, so each piece is a dense
    block between two popcount classes and entries that cannot end in a
    sector are never stored.  Site i appends a bit s to the row and c to
    the column prefixes; ordering the prefixes that end in 0 first makes
    the new block a 2x2 grid of old blocks, each scaled by the one entry
    of R it can meet.  Derivatives follow the Leibniz rule
    (C R)^(d) = sum_j C(d,j) C^(d-j) R^(j).  The last site closes the
    trace (a = a0), and a permutation puts each sector in sector_states
    order.  Returns one dict {m: block} per derivative order.
    """
    if L % 2 or L < 2:
        raise ParameterError("transfer matrix needs even L >= 2")
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"transfer matrix limited to L <= {FULL_DENSE_MAX_L}")
    orders = range(order + 1)
    paths = [(0, 0), (0, 1), (1, 0), (1, 1)]
    part = [
        {(a0, a): {0: np.full((int(a == a0), 1), float(d == 0), dtype=complex)} for a0, a in paths}
        for d in orders
    ]
    empty = np.zeros(0, dtype=np.int64)
    labels = {0: np.zeros(1, dtype=np.int64)}  # prefix values per popcount, in block order
    for i, r in enumerate(_site_r_tensors(p, x, L, order)):
        keys = [(0, 0), (1, 1)] if i == L - 1 else paths
        new = [{key: {} for key in keys} for d in orders]
        for a0, a1 in keys:
            for k in range(i + 2):
                rows = (_prefix_count(i, k + a1 - a0), _prefix_count(i, k + a1 - a0 - 1))
                cols = (_prefix_count(i, k), _prefix_count(i, k - 1))
                blocks = [np.zeros((sum(rows), sum(cols)), dtype=complex) for d in orders]
                for s, c in paths:
                    a = c + a1 - s
                    if a not in (0, 1) or not rows[s] or not cols[c]:
                        continue
                    grid = np.s_[s * rows[0]:rows[0] + s * rows[1], c * cols[0]:cols[0] + c * cols[1]]
                    for d in orders:
                        blocks[d][grid] = sum(
                            comb(d, j) * r[j][s, a, c, a1] * part[d - j][a0, a][k - c]
                            for j in range(d + 1)
                        )
                for d in orders:
                    new[d][a0, a1][k] = blocks[d]
        part = new
        labels = {
            k: np.concatenate([labels.get(k, empty) * 2, labels.get(k - 1, empty) * 2 + 1])
            for k in range(i + 2)
        }
    outs = [{} for d in orders]
    for k in range(L + 1):
        order_k = np.ix_(*[np.argsort(labels[k])] * 2)
        for out, pd in zip(outs, part):
            out[2 * k - L] = (pd[0, 0][k] + pd[1, 1][k])[order_k]
    return outs


def _traceless(blocks, L):
    """Sector blocks minus their common identity share, trace / 2^L."""
    shift = sum(np.trace(b) for b in blocks.values()) / (1 << L)
    return {m: b - shift * np.eye(len(b)) for m, b in blocks.items()}


@dataclass(frozen=True)
class ChargeFamily:
    density_support: int  # 2 ell + 1 sites for the order-ell charge
    blocks: dict  # traceless charge, {m: block} over the magnetization sectors

    def conservation_defect(self, propagator):
        """max |[Q, U]| for U given as sector blocks {m: block}."""
        return commutator_defect(self.blocks, propagator)

    def hermitian_part_defect(self, propagator):
        """max |U^dag H U - H| for the Hermitian part H of Q, per sector of U."""
        worst = 0.0
        for m, q in self.blocks.items():
            h = 0.5 * (q + q.conj().T)
            u = propagator[m]
            worst = max(worst, float(np.abs(u.conj().T @ h @ u - h).max()))
        return worst


def _check_sign(sign):
    if sign not in ("+", "-"):
        raise ParameterError(f"sign must be '+' or '-', got {sign!r}")


def _check_q1_pre(p, sign, L):
    _check_sign(sign)
    if L % 2 or L < 6:
        raise ParameterError("first charges need even L >= 6")
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"charges limited to L <= {FULL_DENSE_MAX_L}")
    if p.degenerate:
        raise ParameterError(f"charges undefined for degenerate gate ({p.degenerate})")


def q1_kernels(p):
    """Three-site cell kernels of Q1+- from the order-1 jets of Rc.

    Cell of the + charge: d/dx [Rc_01(x+) Rc_12(x-)] U01^{-1} at x = u/2;
    cell of the - charge: U12 d/dx [Rc_01(x+) Rc_12(x-)] at x = -u/2.
    With x+- = x +- u/2 this needs Rc(u) = U and Rc' at u, 0 and -u, all
    from r_matrix_jet.  Both are returned traceless (the identity share of
    a density is gauge).
    """
    eye2 = np.eye(2, dtype=complex)
    ru, dru = r_matrix_jet(p, p.u, 1)
    _, dr0 = r_matrix_jet(p, 0.0, 1)
    _, drmu = r_matrix_jet(p, -p.u, 1)
    a = np.kron(ru, eye2)
    da = np.kron(dru, eye2)
    b0 = np.kron(eye2, dr0)
    k_plus = da @ a.conj().T + a @ b0 @ a.conj().T
    d = np.kron(eye2, ru)
    c0 = np.kron(dr0, eye2)
    dd = np.kron(eye2, drmu)
    k_minus = d @ c0 @ d.conj().T + d @ dd
    return tuple(k - np.trace(k) / 8 * np.eye(8) for k in (k_plus, k_minus))


def charge_q1(p, sign, L):
    """First charge from the analytic-derivative cell construction (periodic).

    The + density sits on windows (2m+1, 2m+2, 2m+3), the - density on
    (2m, 2m+1, 2m+2), m = 0..L/2-1, all mod L.
    """
    _check_q1_pre(p, sign, L)
    k_plus, k_minus = q1_kernels(p)
    return _q1_family(p, sign, L, k_plus if sign == "+" else k_minus)


def _q1_family(p, sign, L, kernel):
    """First charge from a three-site density summed over its windows,
    gathered into each sector with the core.sector_operators pattern."""
    start = 1 if sign == "+" else 0
    windows = [tuple((2 * j + start + t) % L for t in range(3)) for j in range(L // 2)]
    blocks = {}
    for m in range(-L, L + 1, 2):
        ops = sector_operators([[(kernel, w)] for w in windows], L, m)
        blocks[m] = sum(ops[1:], ops[0]).toarray()
    return ChargeFamily(3, _traceless(blocks, L))


# two-site blocks of the closed-form density, basis {|00>,|01>,|10>,|11>}
_H_XX = np.array(
    [[0, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 0], [0, 0, 0, 0]], dtype=complex
)
_H_DM = np.array(
    [[0, 0, 0, 0], [0, 0, -2j, 0], [0, 2j, 0, 0], [0, 0, 0, 0]], dtype=complex
)
_SZ = np.diag([-1.0, 1.0]).astype(complex)
_ID2 = np.eye(2, dtype=complex)


def _three_site(block, where):
    """Embed a two-site block or sz products into the 3-site window (0,1,2)."""
    k = np.kron
    if where == "01":
        return k(block, _ID2)
    if where == "12":
        return k(_ID2, block)
    if where == "02":  # acts on outer sites, identity in the middle
        return embed_operator(block, (0, 2), 3)
    raise ValueError(where)


def closed_form_kernel(p, sign):
    """Explicit three-site density of Q1+-; phase II is the u -> iu,
    rho -> i rho, xi -> -i xi continuation of the phase-I expression.

    Each trigonometric coefficient picks up one factor i under that
    continuation, turning the anti-Hermitian phase-I density into a
    Hermitian one; a compensating constant i (folded into the prefactor)
    restores entrywise agreement with the transfer-matrix log-derivative.
    Both constants were pinned once against the cell construction and do
    not depend on the gate parameters.
    """
    _check_sign(sign)
    s = -1.0 if sign == "+" else +1.0
    if p.phase == "I":
        cu, su, s2u = np.cos(p.u), np.sin(p.u), np.sin(2 * p.u)
        chr_, shr = np.cosh(p.rho), np.sinh(p.rho)
        pref = 1.0 / (2j * (np.cos(2 * p.u) - np.cosh(2 * p.rho)))
        cothr = chr_ / shr
    else:
        cu, su, s2u = np.cosh(p.u), 1j * np.sinh(p.u), 1j * np.sinh(2 * p.u)
        chr_, shr = np.cos(p.rho), 1j * np.sin(p.rho)
        pref = 1.0 / (2.0 * (np.cosh(2 * p.u) - np.cos(2 * p.rho)))
        cothr = chr_ / shr
    xu = p.xi * p.u
    th = p.theta
    k = np.zeros((8, 8), dtype=complex)
    k += (
        2.0
        * cu
        * shr
        * (
            np.cos(th + s * xu) * _three_site(_H_XX, "01")
            + np.cos(th - s * xu) * _three_site(_H_XX, "12")
            - np.sin(th + s * xu) * _three_site(_H_DM, "01")
            - np.sin(th - s * xu) * _three_site(_H_DM, "12")
            - (chr_ / cu)
            * (
                _three_site(np.kron(_SZ, _SZ), "01")
                + _three_site(np.kron(_SZ, _SZ), "12")
            )
        )
    )
    k -= (
        2.0
        * su
        * su
        * cothr
        * (
            np.cos(2 * th) * _three_site(_H_XX, "02")
            - np.sin(2 * th) * _three_site(_H_DM, "02")
            + _three_site(np.kron(_SZ, _SZ), "02")
        )
    )
    sz2 = np.kron(np.eye(4, dtype=complex), _SZ)  # sz on window site 2
    sz1 = np.kron(np.kron(_ID2, _SZ), _ID2)
    sz0 = np.kron(_SZ, np.eye(4, dtype=complex))
    k -= s * (
        2.0
        * su
        * chr_
        * (
            np.sin(th + s * xu) * _three_site(_H_XX, "01")
            + np.cos(th + s * xu) * _three_site(_H_DM, "01")
        )
        @ sz2
    )
    k -= s * s2u * (
        np.sin(2 * th) * _three_site(_H_XX, "02")
        + np.cos(2 * th) * _three_site(_H_DM, "02")
    ) @ sz1
    k -= s * (
        2.0
        * su
        * chr_
        * (
            np.sin(th - s * xu) * _three_site(_H_XX, "12")
            + np.cos(th - s * xu) * _three_site(_H_DM, "12")
        )
        @ sz0
    )
    # the density is written with its chain running opposite to this
    # package's leftmost-site-is-most-significant layout; reverse the window
    rev = [int(f"{i:03b}"[::-1], 2) for i in range(8)]
    return pref * k[np.ix_(rev, rev)]


def charge_q1_closed_form(p, sign, L):
    """First charge assembled from the explicit three-site density."""
    _check_q1_pre(p, sign, L)
    if abs(np.cos(2 * p.u) - np.cosh(2 * p.rho)) < 1e-14 and p.phase == "I":
        raise ParameterError("degenerate density: cos 2u = cosh 2 rho needs u = rho = 0")
    if p.phase == "II" and abs(np.cosh(2 * p.u) - np.cos(2 * p.rho)) < 1e-14:
        raise ParameterError("degenerate density: cosh 2u = cos 2 rho needs u = rho = 0")
    if p.phase == "I" and abs(p.rho) < 1e-14:
        raise ParameterError("closed form needs rho > 0 (coth rho appears)")
    if p.phase == "II" and abs(p.rho) < 1e-14:
        raise ParameterError("closed form needs rho != 0 (cot rho appears)")
    return _q1_family(p, sign, L, closed_form_kernel(p, sign))


def higher_charge(p, ell, sign, L):
    """Charge of order ell >= 1 from transfer-matrix log-derivatives.

    Uses G(x) = T^{-1} T' and, for ell = 2, Q2 = T^{-1} T'' - G^2.  T and
    its x-derivatives come from _transfer_family, whose site tensors are
    the analytic jets of Rc (r_matrix_jet), so no numerical
    differentiation enters anywhere.  Within the commuting family these
    equal d^ell/dx^ell log T exactly.  T and its derivatives are sector
    blocks, so each sector is one solve.  Orders above 2 are refused: their
    densities need rings past the transfer-matrix cap.
    """
    _check_sign(sign)
    if ell < 1:
        raise ParameterError("charge order must be >= 1")
    if ell > 2:
        raise CapacityError(
            f"orders above 2 need L >= 14, beyond the transfer-matrix cap L <= {FULL_DENSE_MAX_L}"
        )
    if L < 2 * (2 * ell + 1):
        raise ParameterError(f"L={L} too small for an order-{ell} density")
    if p.degenerate:
        raise ParameterError(f"charges undefined for degenerate gate ({p.degenerate})")
    x0 = 0.5 * p.u if sign == "+" else -0.5 * p.u
    t, *derivs = _transfer_family(p, x0, L, order=ell)
    blocks = {}
    for m, tm in t.items():
        sol = np.linalg.solve(tm, np.hstack([d[m] for d in derivs]))
        g = sol[:, : len(tm)]
        blocks[m] = g if ell == 1 else sol[:, len(tm):] - g @ g
    return ChargeFamily(2 * ell + 1, _traceless(blocks, L))


# operator strings over {1, z, p, m}: p = sqrt2 sigma+, m = sqrt2 sigma-, each
# orthonormal under tr(a^dag b)/2 (bit 1 is sz = +1); rp's operator basis.
# SITE_OPS holds the 2x2 matrix of each letter.
LETTERS = "1zpm"
SITE_OPS = {
    "1": np.eye(2, dtype=complex),
    "z": np.diag([-1.0, 1.0]).astype(complex),
    "p": np.sqrt(2.0) * np.array([[0, 0], [1, 0]], dtype=complex),
    "m": np.sqrt(2.0) * np.array([[0, 1], [0, 0]], dtype=complex),
}
_LETTER_CHARGE = {"1": 0, "z": 0, "p": 1, "m": -1}


def charge_of_string(label):
    """Raising minus lowering letter count."""
    return sum(_LETTER_CHARGE[ch] for ch in label)


def _packed(blocks, L):
    """Sector blocks {m: block}, raveled in ascending m into one array."""
    return np.concatenate([blocks[m].ravel() for m in range(-L, L + 1, 2)])


@functools.lru_cache(maxsize=4)
def _packed_layout(L):
    """Per basis state: its index in its sector, that block's offset inside
    _packed and its dimension."""
    pos, offset, dim = (np.empty(1 << L, dtype=np.int64) for _ in range(3))
    start = 0
    for m in range(-L, L + 1, 2):
        s = sector_states(L, m)
        pos[s], offset[s], dim[s] = np.arange(s.size), start, s.size
        start += s.size * s.size
    for arr in (pos, offset, dim):
        arr.setflags(write=False)  # shared by every caller through the cache
    return pos, offset, dim


def _string_gather(label, anchor, L):
    """Where a charge-0 string S sits in the packed blocks, and its entries.

    S has letter label[t] on site (anchor + t) mod L.  Returns the flat
    indices of the nonzero entries S[b ^ flip, b] inside _packed and their
    (real) values, so tr(S^dag Q)/2^L is values @ packed[flat] / 2^L.
    """
    b = np.arange(1 << L, dtype=np.int64)
    ok = np.ones(b.size, dtype=bool)
    val = np.ones(b.size)
    flip = 0
    for t, ch in enumerate(label):
        shift = L - 1 - (anchor + t) % L
        bit = (b >> shift) & 1
        if ch == "z":
            val *= 2 * bit - 1
        elif ch in "pm":
            ok &= bit == (ch == "m")
            flip |= 1 << shift
            val *= np.sqrt(2.0)
    b, val = b[ok], val[ok]
    pos, offset, dim = _packed_layout(L)
    return offset[b] + pos[b ^ flip] * dim[b] + pos[b], val


def string_coefficients(blocks, L, placed):
    """tr(S^dag Q) / 2^L for each charge-0 string (label, anchor) in `placed`.

    Q is given by its sector blocks {m: block} on L sites.
    """
    packed = _packed(blocks, L)
    out = np.empty(len(placed), dtype=complex)
    for i, (label, anchor) in enumerate(placed):
        flat, val = _string_gather(label, anchor, L)
        out[i] = val @ packed[flat] / (1 << L)
    return out


def pauli_string_window_projection(blocks, L, window):
    """sqrt of the weight of operator strings with cyclic support diameter
    <= window, in the normalized Hilbert-Schmidt norm, plus the residual.

    Strings are over {1, z, p, m}: they span the same space per site as
    the Paulis {1, x, y, z} and are orthonormal alike, so the weight is
    the same; a magnetization-conserving operator has weight only on the
    net-charge-0 strings, which act inside every sector, so the operator
    is given by its sector blocks {m: block}.  Strings are enumerated by
    their anchor site (first non-identity letter) and a pattern over the
    window; for window < L/2 + 1 this covers every short-diameter string
    exactly once.  Each string is one gather from the packed blocks.
    Returns (norm_within, residual).
    """
    if window >= L // 2 + 1:
        raise ParameterError("window too large for unique anchoring")
    packed = _packed(blocks, L)
    labels = [
        s for s in product(LETTERS, repeat=window)
        if s[0] != "1" and charge_of_string(s) == 0
    ]
    within_sq = 0.0
    # accumulate the reconstruction so the residual comes from an entrywise
    # difference, not from cancelling two large scalars
    recon = np.zeros_like(packed)
    for anchor in range(L):
        for label in labels:
            flat, val = _string_gather(label, anchor, L)
            coef = val @ packed[flat] / (1 << L)
            within_sq += abs(coef) ** 2
            recon[flat] += coef * val
    residual_sq = float(np.sum(np.abs(packed - recon) ** 2)) / (1 << L)
    return float(np.sqrt(within_sq)), float(np.sqrt(residual_sq))
