"""Staggered transfer matrices and the conserved charges they generate.

The transfer matrix on L qubits is the auxiliary-space trace

    T(x; u) = tr_a [ R_0a(x+) R_1a(x-) R_2a(x+) ... R_{L-1,a}(x-) ],

with R = P Rc, x+- = x +- u/2, and the 0-based even sites carrying x+.  One
circuit step is U = T(-u/2; u)^{-1} T(u/2; u).  Charges are log-derivatives
Q_l^{+-}(u) = d^l/dx^l log T(x; u) at x = +-u/2; their densities live on
2l+1 adjacent sites.  Everything here works with the traceless part of the
charges: the scalar gauge e^{i beta x} inside Rc only shifts them by
multiples of the identity, which carries no information.
"""

import numpy as np
from dataclasses import dataclass

from .core import (
    FULL_DENSE_MAX_L,
    Operator,
    commutator_defect,
    embed_operator,
)
from .errors import CapacityError, ParameterError
from .rmatrix import ab_values, r_matrix, r_matrix_derivative

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class TransferMatrixSpec:
    params: object  # RMatrixParams
    x: complex
    L: int

    def __post_init__(self):
        if self.L % 2 or self.L < 2:
            raise ParameterError("transfer matrix needs even L >= 2")
        if self.L > FULL_DENSE_MAX_L:
            raise CapacityError(f"dense transfer matrix limited to L <= {FULL_DENSE_MAX_L}")


def r_matrix_second_derivative(p, x):
    """Analytic d^2/dx^2 of the braid matrix; used for the l=2 charge."""
    a, b = ab_values(p, x)
    if p.phase == "I":
        z = x + 1j * p.rho
        sz, cz = np.sin(z), np.cos(z)
        da = 1j * np.sinh(p.rho) / sz**2
        db = -np.sinh(p.rho) * cz / sz**2
        dda = -2j * np.sinh(p.rho) * cz / sz**3
        ddb = np.sinh(p.rho) * (1.0 + cz * cz) / sz**3
    else:
        w = x + 1j * p.rho
        sw, cw = np.sinh(w), np.cosh(w)
        da = 1j * np.sin(p.rho) / sw**2
        db = -np.sin(p.rho) * cw / sw**2
        dda = -2j * np.sin(p.rho) * cw / sw**3
        ddb = np.sin(p.rho) * (cw * cw + 1.0) / sw**3
    ex_m = np.exp(-1j * p.xi * x)
    ex_p = np.exp(1j * p.xi * x)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0
    m[1, 1] = 1j * b * ex_m
    m[2, 2] = 1j * b * ex_p
    m[1, 2] = -a * np.exp(-1j * p.theta)
    m[2, 1] = -a * np.exp(1j * p.theta)
    dm = np.zeros((4, 4), dtype=complex)
    dm[1, 1] = 1j * (db - 1j * p.xi * b) * ex_m
    dm[2, 2] = 1j * (db + 1j * p.xi * b) * ex_p
    dm[1, 2] = -da * np.exp(-1j * p.theta)
    dm[2, 1] = -da * np.exp(1j * p.theta)
    ddm = np.zeros((4, 4), dtype=complex)
    ddm[1, 1] = 1j * (ddb - 2j * p.xi * db - p.xi**2 * b) * ex_m
    ddm[2, 2] = 1j * (ddb + 2j * p.xi * db - p.xi**2 * b) * ex_p
    ddm[1, 2] = -dda * np.exp(-1j * p.theta)
    ddm[2, 1] = -dda * np.exp(1j * p.theta)
    beta = p.beta
    return np.exp(1j * beta * x) * (-beta * beta * m + 2j * beta * dm + ddm)


def _site_r_tensors(p, x, L, order):
    """R = P Rc and its x-derivatives as (s_out, a_row, s_in, a_col) tensors,
    one per site, staggered x +- u/2."""
    derivs = [r_matrix, r_matrix_derivative, r_matrix_second_derivative]
    tensors = []
    for i in range(L):
        arg = x + 0.5 * p.u if i % 2 == 0 else x - 0.5 * p.u
        tensors.append(
            [(_SWAP @ derivs[d](p, arg)).reshape(2, 2, 2, 2) for d in range(order + 1)]
        )
    return tensors


def _transfer_family(p, x, L, order=0, block_cols=512):
    """T(x;u) and its first `order` x-derivatives, dense on 2^L.

    Ket columns are processed in blocks so the auxiliary-space contraction
    never holds more than a few hundred MB even at L = 12.
    """
    TransferMatrixSpec(p, x, L)  # validates L
    dim = 1 << L
    site_tensors = _site_r_tensors(p, x, L, order)
    outs = [np.empty((dim, dim), dtype=complex) for _ in range(order + 1)]
    block_cols = min(block_cols, dim)
    # d-th derivative of the running product C R obeys the Leibniz rule:
    # (C R)^(d) = sum_k C(d,k) C^(k) R^(d-k); only d <= 2 is ever needed.
    for col0 in range(0, dim, block_cols):
        cols = np.arange(col0, min(col0 + block_cols, dim))
        nb = len(cols)
        # C[d][a0, a, rows, cols]; the row register grows site by site
        eye_aux = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
        c = [np.broadcast_to(eye_aux, (2, 2, 1, nb)).copy()]
        c += [np.zeros((2, 2, 1, nb), dtype=complex) for _ in range(order)]
        for i in range(L):
            sbits = (cols >> (L - 1 - i)) & 1
            rg = [t[:, :, sbits, :] for t in site_tensors[i]]  # (s_out, a_row, nb, a_col)
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


def transfer_matrix(spec):
    """Dense T(x; u); spec.x may be complex."""
    (t,) = _transfer_family(spec.params, spec.x, spec.L, order=0)
    return Operator(t, label=f"T(x={spec.x}; u={spec.params.u}) L={spec.L}")


def propagator_from_transfer(p, L):
    """U = T(-u/2)^{-1} T(u/2); cross-check against the brickwork build."""
    (t_minus,) = _transfer_family(p, -0.5 * p.u, L, order=0)
    (t_plus,) = _transfer_family(p, 0.5 * p.u, L, order=0)
    return Operator(np.linalg.solve(t_minus, t_plus), label="transfer propagator")


def _traceless(mat):
    out = mat.copy()
    shift = np.trace(out) / out.shape[0]
    out[np.diag_indices_from(out)] -= shift
    return out


@dataclass(frozen=True)
class ChargeFamily:
    ell: int
    sign: str  # "+" or "-"
    u: float
    density_support: int  # 2 ell + 1 sites
    matrix: np.ndarray  # traceless dense charge on L sites
    kernel: object = None  # local density on the support window, when cell-built
    L: int = 0

    def hermitian_part(self):
        return 0.5 * (self.matrix + self.matrix.conj().T)

    def antihermitian_part(self):
        return (self.matrix - self.matrix.conj().T) / 2j

    def conservation_defect(self, propagator):
        return commutator_defect(self.matrix, propagator, self.L)


def _check_sign(sign):
    if sign not in ("+", "-"):
        raise ParameterError(f"sign must be '+' or '-', got {sign!r}")


def _check_q1_pre(p, sign, L):
    _check_sign(sign)
    if L % 2 or L < 6:
        raise ParameterError("first charges need even L >= 6")
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"dense charges limited to L <= {FULL_DENSE_MAX_L}")
    if p.degenerate:
        raise ParameterError(f"charges undefined for degenerate gate ({p.degenerate})")


def q1_kernels(p):
    """Three-site cell kernels of Q1+- from analytic Rc derivatives.

    Cell of the + charge: d/dx [Rc_01(x+) Rc_12(x-)] U01^{-1} at x = u/2;
    cell of the - charge: U12 d/dx [Rc_01(x+) Rc_12(x-)] at x = -u/2.
    Both are returned traceless (the identity share of a density is gauge).
    """
    eye2 = np.eye(2, dtype=complex)
    ru = r_matrix(p, p.u)
    dru = r_matrix_derivative(p, p.u)
    dr0 = r_matrix_derivative(p, 0.0)
    drmu = r_matrix_derivative(p, -p.u)
    a = np.kron(ru, eye2)
    da = np.kron(dru, eye2)
    b0 = np.kron(eye2, dr0)
    k_plus = da @ a.conj().T + a @ b0 @ a.conj().T
    d = np.kron(eye2, ru)
    c0 = np.kron(dr0, eye2)
    dd = np.kron(eye2, drmu)
    k_minus = d @ c0 @ d.conj().T + d @ dd
    return _traceless(k_plus), _traceless(k_minus)


def charge_q1(p, sign, L):
    """First charge from the analytic-derivative cell construction (periodic).

    The + density sits on windows (2m+1, 2m+2, 2m+3), the - density on
    (2m, 2m+1, 2m+2), m = 0..L/2-1, all mod L.
    """
    _check_q1_pre(p, sign, L)
    k_plus, k_minus = q1_kernels(p)
    return _q1_family(p, sign, L, k_plus if sign == "+" else k_minus)


def _q1_family(p, sign, L, kernel):
    """First charge from a three-site density summed over its windows."""
    start = 1 if sign == "+" else 0
    total = np.zeros((1 << L, 1 << L), dtype=complex)
    for m in range(L // 2):
        s = 2 * m + start
        total += embed_operator(kernel, (s % L, (s + 1) % L, (s + 2) % L), L)
    return ChargeFamily(1, sign, p.u, 3, _traceless(total), kernel=kernel, L=L)


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

    Uses G(x) = T^{-1} T' and, for ell = 2, Q2 = T^{-1} T'' - G^2, with all
    derivatives analytic (no numerical differentiation enters anywhere).
    Within the commuting family these equal d^ell/dx^ell log T exactly.
    """
    _check_sign(sign)
    if ell < 1:
        raise ParameterError("charge order must be >= 1")
    if ell > 2:
        raise CapacityError(
            "orders above 2 need L >= 14, beyond the dense transfer-matrix cap"
        )
    if L < 2 * (2 * ell + 1):
        raise ParameterError(f"L={L} too small for an order-{ell} density")
    if p.degenerate:
        raise ParameterError(f"charges undefined for degenerate gate ({p.degenerate})")
    x0 = 0.5 * p.u if sign == "+" else -0.5 * p.u
    if ell == 1:
        t, dt = _transfer_family(p, x0, L, order=1)
        g = np.linalg.solve(t, dt)
        return ChargeFamily(1, sign, p.u, 3, _traceless(g), L=L)
    t, dt, ddt = _transfer_family(p, x0, L, order=2)
    g = np.linalg.solve(t, dt)
    h = np.linalg.solve(t, ddt)
    del t, dt, ddt
    q2 = h - g @ g
    return ChargeFamily(2, sign, p.u, 5, _traceless(q2), L=L)


def pauli_string_window_projection(matrix, L, window):
    """sqrt of the weight of Pauli strings with cyclic support diameter
    <= window, in the normalized Hilbert-Schmidt norm, plus the residual.

    Strings are enumerated by their anchor site (first non-identity letter)
    and a pattern over the window; for window < L/2 + 1 this covers every
    short-diameter string exactly once.  Returns (norm_within, residual).
    """
    if window >= L // 2 + 1:
        raise ParameterError("window too large for unique anchoring")
    dim = 1 << L
    # single-qubit paulis as (xbit, phase table): P|b> = phase[b] |b ^ xbit>
    tables = {
        "i": (0, np.array([1.0, 1.0], dtype=complex)),
        "z": (0, np.array([-1.0, 1.0], dtype=complex)),
        "x": (1, np.array([1.0, 1.0], dtype=complex)),
        "y": (1, np.array([1j, -1j], dtype=complex)),  # y|0>=i|1>, y|1>=-i|0>
    }
    letters = "ixyz"
    within_sq = 0.0
    cols = np.arange(dim, dtype=np.int64)
    # accumulate the reconstruction so the residual comes from an entrywise
    # difference, not from cancelling two large scalars
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
                    site = (anchor + off) % L
                    shift = L - 1 - site
                    xbit, table = tables[let]
                    if xbit:
                        xmask |= 1 << shift
                    bits = (cols >> shift) & 1
                    if let in ("z", "y"):
                        phases = phases * table[bits]
                rows = cols ^ xmask
                coef = np.sum(np.conj(phases) * matrix[rows, cols]) / dim
                within_sq += abs(coef) ** 2
                recon[rows, cols] += coef * phases
    residual_sq = float(np.sum(np.abs(matrix - recon) ** 2).real) / dim
    return float(np.sqrt(within_sq)), float(np.sqrt(residual_sq))
