"""Dense 2^L reference builds, kept as oracles for the sector-blocked code.

These are the full-space constructions the package used before its charge
path moved to magnetization-sector blocks: the auxiliary-space einsum
contraction of the transfer matrix and its x-derivatives, the Pauli
x/y/z string enumeration of the window projection, and the dense ring
coefficient of a {1, z, p, m} string.  The x-derivatives of Rc come from
the hand-written closed forms of R' and R'' below, not from
rmatrix.r_matrix_jet.  They share no code with the sector path.

The per-state orbit walk of the momentum basis (loop_momentum_basis) is
the construction core.sector_basis used before its orbits became cached
array shifts.
"""

import numpy as np
from scipy import sparse

from mcbrick.core import sector_states
from mcbrick.rmatrix import ab_values, r_matrix

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


def loop_momentum_basis(L, m, k):
    """(labels, vectors) of the momentum-k basis, one S^2 orbit walk per state.

    Columns are ordered by orbit minimum, each orbit walked r, S^2 r, ...
    with amplitudes exp(-2 pi i k j / (L/2)) / sqrt(p); orbits whose period
    p is incompatible with k are dropped.
    """
    n_cells = L // 2
    seen = set()
    labels, rows, cols, vals = [], [], [], []
    col = 0
    for r in map(int, sector_states(L, m)):
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
        rows.extend(orbit)
        cols.extend([col] * p)
        vals.extend(amp)
        labels.append((min(orbit), p))
        col += 1
    vec = sparse.csr_array((vals, (rows, cols)), shape=(1 << L, col), dtype=complex)
    return labels, vec
