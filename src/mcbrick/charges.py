"""Local conserved charges of the staggered transfer matrix.

The transfer matrix on L qubits is the auxiliary-space trace

    T(x; u) = tr_a [ R_0a(x+) R_1a(x-) R_2a(x+) ... R_{L-1,a}(x-) ],

with R = P Rc, x+- = x +- u/2, and the 0-based even sites carrying x+.  One
circuit step is U = T(-u/2; u)^{-1} T(u/2; u).  Charges are log-derivatives
Q_l^{+-}(u) = d^l/dx^l log T(x; u) at x = +-u/2; their densities live on
2l+1 adjacent sites.  Everything here works with the traceless part of the
charges: the scalar gauge e^{i beta x} inside Rc only shifts them by
multiples of the identity, which carries no information.

No transfer matrix is formed.  At x0 = +-u/2 one parity of sites carries
Rc(0) = 1 and the other Rc(a), a = +-u, so T(x0) is a shift times one
layer of commuting Rc(a) gates, and each x-derivative inserts one jet of
Rc at one site.  Moved to the front through T^{-1}, the insertion of Rc'
at site k is a local term e_k, that of Rc'' a term f_k, and a double
insertion is T^{-1} d_k d_l T = e_k e_l with k the site met first going
round the ring.  Hence

    Q1 = sum_k e_k,    Q2 = sum_k (f_k - e_k^2) + sum_{k<l} [e_k, e_l],

in which only overlapping pairs survive.  On a five-site window whose
site 0 carries Rc(0) (windows start on odd sites for +, even ones for -),
with R = Rc(a), unitary at real a so that R^dag = R^{-1}, and X_(ij)
meaning X on window sites (i, j),

    e0 = R_(12)^dag Rc'(0)_(01) R_(12),   f0 the same with Rc''(0),
    e1 = (R^dag Rc'(a))_(12),             f1 = (R^dag Rc''(a))_(12),
    e2 = e0 moved by two sites,

so the cell density of Q1 is e0 + e1 on three sites and that of Q2 is
(f0 - e0^2) + (f1 - e1^2) + [e0, e1] + [e0 + e1, e2] on five
(charge_kernels).  A charge is its cell density summed over the L/2
windows.

Every R conserves the magnetization of its site and the auxiliary qubit
(the six-vertex ice rule), so every density and every charge is block
diagonal over the magnetization sectors of the chain.  Charges are
gathered, checked and projected as sector blocks {m: block} on the rows of
core.sector_states, and every function here that takes an operator (a
charge or the propagator) takes it in that form; no 2^L x 2^L array is
formed.  No operator string is coded or enumerated here either: the
window projection reads the weight of a window's strings from the
charge's partial trace onto that window (core.sector_partial_trace).
"""

import numpy as np
from dataclasses import dataclass

from .core import (
    FULL_DENSE_MAX_L,
    commutator_defect,
    embed_operator,
    sector_partial_trace,
    sector_window_sum,
)
from .errors import CapacityError, ParameterError
from .rmatrix import r_matrix_jet


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


def check_request(p, sign, L, ell):
    """Refuse, before any work, an order outside {1, 2}, a bad sign, an L too
    small, odd or above FULL_DENSE_MAX_L, or a degenerate gate."""
    if ell < 1:
        raise ParameterError("charge order must be >= 1")
    if ell > 2:
        raise CapacityError(f"charge densities are built up to order 2, got order {ell}")
    _check_sign(sign)
    if L < 2 * (2 * ell + 1):
        raise ParameterError(f"L={L} too small for an order-{ell} density")
    if L % 2:
        raise ParameterError(f"charges need even L, got L={L}")
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"charges limited to L <= {FULL_DENSE_MAX_L}")
    if p.degenerate:
        raise ParameterError(f"charges undefined for degenerate gate ({p.degenerate})")


def charge_kernels(p, sign):
    """Cell densities (Q1, Q2) of one sign: 8x8 on three window sites and
    32x32 on five, from the order-2 jets of Rc at 0 and a = +-u (module
    docstring).  Both are returned traceless (the identity share of a
    density is gauge)."""
    _check_sign(sign)
    eye2, eye4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    r, dr, ddr = r_matrix_jet(p, p.u if sign == "+" else -p.u, 2)
    _, dr0, ddr0 = r_matrix_jet(p, 0.0, 2)
    r12 = np.kron(eye2, r)
    e0, f0 = (r12.conj().T @ np.kron(d, eye2) @ r12 for d in (dr0, ddr0))
    e1, f1 = (np.kron(eye2, r.conj().T @ d) for d in (dr, ddr))
    k1 = e0 + e1
    cell = (f0 - e0 @ e0) + (f1 - e1 @ e1) + (e0 @ e1 - e1 @ e0)
    first, e2 = np.kron(k1, eye4), np.kron(eye4, e0)
    k2 = np.kron(cell, eye4) + (first @ e2 - e2 @ first)
    return tuple(k - np.trace(k) / len(k) * np.eye(len(k)) for k in (k1, k2))


def charge_q1(p, sign, L):
    """First charge from its three-site cell density (periodic).

    The + density sits on windows (2m+1, 2m+2, 2m+3), the - density on
    (2m, 2m+1, 2m+2), m = 0..L/2-1, all mod L.
    """
    return higher_charge(p, 1, sign, L)


def _cell_family(sign, L, kernel):
    """A charge from a w-site cell density (w read off the kernel) summed
    over its L/2 windows, the + ones starting on odd sites and the - ones
    on even sites, summed into each sector's dense block by
    core.sector_window_sum.  Both kernels (charge_kernels and
    closed_form_kernel) are traceless, so the charge is too."""
    w = len(kernel).bit_length() - 1
    start = 1 if sign == "+" else 0
    windows = [tuple((2 * j + start + t) % L for t in range(w)) for j in range(L // 2)]
    blocks = {m: sector_window_sum([(kernel, s) for s in windows], L, m)
              for m in range(-L, L + 1, 2)}
    return ChargeFamily(w, blocks)


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
    check_request(p, sign, L, 1)
    if abs(np.cos(2 * p.u) - np.cosh(2 * p.rho)) < 1e-14 and p.phase == "I":
        raise ParameterError("degenerate density: cos 2u = cosh 2 rho needs u = rho = 0")
    if p.phase == "II" and abs(np.cosh(2 * p.u) - np.cos(2 * p.rho)) < 1e-14:
        raise ParameterError("degenerate density: cosh 2u = cos 2 rho needs u = rho = 0")
    if p.phase == "I" and abs(p.rho) < 1e-14:
        raise ParameterError("closed form needs rho > 0 (coth rho appears)")
    if p.phase == "II" and abs(p.rho) < 1e-14:
        raise ParameterError("closed form needs rho != 0 (cot rho appears)")
    return _cell_family(sign, L, closed_form_kernel(p, sign))


def higher_charge(p, ell, sign, L):
    """Charge of order ell in {1, 2} from its (2 ell + 1)-site cell density.

    Both densities come from charge_kernels, whose insertion terms are the
    analytic jets of Rc (r_matrix_jet), so no numerical differentiation and
    no solve enters; they equal d^ell/dx^ell log T exactly.  Orders above
    2 are refused: their densities need third and higher jets and the
    products of three insertion terms, which are not built.
    """
    check_request(p, sign, L, ell)
    return _cell_family(sign, L, charge_kernels(p, sign)[ell - 1])


def pauli_string_window_projection(blocks, L, window):
    """sqrt of the weight of operator strings with cyclic support diameter
    <= window, in the normalized Hilbert-Schmidt norm, plus the residual.

    The strings may be Paulis or any other product basis orthonormal per
    site; the weight is the same.  A string is counted at its anchor, its
    first non-identity site; for window < L/2 + 1 each short-diameter
    string has exactly one.  At each anchor the partial trace R of the
    operator (given by its sector blocks {m: block}) onto the window
    starting there (core.sector_partial_trace) holds every string inside
    that window, and P = (R - 1 (x) tr_0(R)/2) / 2^(L-w) is the part on
    the strings whose first letter is not the identity, so the anchor adds
    tr(P^dag P) / 2^w to the squared weight.  The P are embedded back
    (core.sector_window_sum) and subtracted from the blocks, so the
    residual is an entrywise difference.
    Returns (norm_within, residual).
    """
    if window >= L // 2 + 1:
        raise ParameterError("window too large for unique anchoring")
    within_sq = 0.0
    parts = []
    for anchor in range(L):
        sites = tuple((anchor + t) % L for t in range(window))
        r = sector_partial_trace(blocks, sites, L).reshape((2, 1 << (window - 1)) * 2)
        r -= np.eye(2)[:, None, :, None] * np.trace(r, axis1=0, axis2=2)[:, None] / 2
        part = r.reshape(1 << window, -1) / (1 << (L - window))
        within_sq += float(np.sum(np.abs(part) ** 2)) / (1 << window)
        parts.append((part, sites))
    residual_sq = 0.0
    for m, b in blocks.items():
        recon = sector_window_sum(parts, L, m)
        recon -= b
        residual_sq += float(np.sum(np.abs(recon) ** 2))
    return float(np.sqrt(within_sq)), float(np.sqrt(residual_sq / (1 << L)))
