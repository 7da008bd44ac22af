"""Asymmetric six-vertex R matrix, Yang-Baxter checks, and the gate -> R map.

The braid-form matrix is

    Rc(x) = e^{i beta x} [P0 + i b(x) D(x) - a(x) O(theta)],

    P0 = diag(1, 0, 0, 1),   D(x) = diag(0, e^{-i xi x}, e^{i xi x}, 0),
    O(theta) = e^{-i theta} |01><10| + e^{i theta} |10><01|,

with (a, b) trigonometric in x in phase I and hyperbolic in phase II.  Both
satisfy |a|^2 + |b|^2 = 1 and a b* real for real arguments, which makes Rc(x)
unitary there; Rc(0) = 1 and Rc(-x) Rc(x) = 1 hold in both phases.  The
physical gate is Rc evaluated at the inhomogeneity x = u.

r_matrix is the closed form.  r_matrix_jet returns Rc and its first x-
derivatives: a and b are quotients f/g whose numerator and denominator
derivatives cycle (sin, cos, -sin, -cos or sinh, cosh), so their jets follow
from one quotient recurrence, and the Leibniz rule assembles the jet of Rc.
"""

from math import comb

import numpy as np
from dataclasses import dataclass

from .errors import CriticalManifoldError, ParameterError, RefusalError
from .gates import gate_from_haar

EPS_CRITICAL = 1e-9


@dataclass(frozen=True)
class RMatrixParams:
    beta: float
    xi: float
    theta: float
    rho: float  # >= 0 in phase I, signed in phase II
    u: float
    phase: str  # "I" or "II"
    degenerate: str = ""  # "", "identity", "swap-family"

    def __post_init__(self):
        if self.phase not in ("I", "II"):
            raise ParameterError(f"phase must be 'I' or 'II', got {self.phase!r}")
        if self.phase == "I" and self.rho < 0:
            raise ParameterError("rho must be >= 0 in phase I")


def ab_values(p, x):
    """(a, b) of the stored phase at spectral argument x (may be complex)."""
    if p.phase == "I":
        den = np.sin(x + 1j * p.rho)
        return np.sin(x) / den, np.sinh(p.rho) / den
    den = np.sinh(x + 1j * p.rho)
    return np.sinh(x) / den, np.sin(p.rho) / den


def r_matrix(p, x):
    """Braid-form matrix at spectral argument x (4x4 ndarray)."""
    if x == 0:
        return np.eye(4, dtype=complex)
    a, b = ab_values(p, x)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 1.0
    mat[1, 1] = 1j * b * np.exp(-1j * p.xi * x)
    mat[2, 2] = 1j * b * np.exp(1j * p.xi * x)
    mat[1, 2] = -a * np.exp(-1j * p.theta)
    mat[2, 1] = -a * np.exp(1j * p.theta)
    return np.exp(1j * p.beta * x) * mat


def _cyclic_jet(z, order, trig):
    """[f(z), f'(z), ..., f^(order)(z)] for f = sin (trig) or sinh."""
    s, c = (np.sin(z), np.cos(z)) if trig else (np.sinh(z), np.cosh(z))
    signs = (1, 1, -1, -1) if trig else (1, 1, 1, 1)
    return [signs[n % 4] * (c if n % 2 else s) for n in range(order + 1)]


def _quotient_jet(f, g):
    """Derivatives of q = f/g from those of f and g: f = q g term by term."""
    q = []
    for n in range(len(f)):
        q.append((f[n] - sum(comb(n, k) * q[k] * g[n - k] for k in range(n))) / g[0])
    return q


def r_matrix_jet(p, x, order):
    """[Rc(x), Rc'(x), ..., Rc^(order)(x)] at a real or complex x; the
    first term is r_matrix(p, x).  With M the bracket of the closed form,
    Rc^(n) = sum_k C(n, k) (i beta)^(n-k) e^{i beta x} M^(k)."""
    trig = p.phase == "I"
    g = _cyclic_jet(x + 1j * p.rho, order, trig)
    a = _quotient_jet(_cyclic_jet(x, order, trig), g)
    b = _quotient_jet([np.sinh(p.rho) if trig else np.sin(p.rho)] + [0.0] * order, g)
    phase = np.exp(1j * p.beta * x)
    scaled = [r_matrix(p, x)]  # e^{i beta x} M^(k)
    for k in range(1, order + 1):
        mat = np.zeros((4, 4), dtype=complex)
        for i, s in ((1, -1.0), (2, 1.0)):
            bd = sum(comb(k, j) * b[j] * (1j * s * p.xi) ** (k - j) for j in range(k + 1))
            mat[i, i] = 1j * bd * np.exp(1j * s * p.xi * x)
        mat[1, 2] = -a[k] * np.exp(-1j * p.theta)
        mat[2, 1] = -a[k] * np.exp(1j * p.theta)
        scaled.append(phase * mat)
    return scaled[:1] + [
        sum(comb(n, k) * (1j * p.beta) ** (n - k) * scaled[k] for k in range(n + 1))
        for n in range(1, order + 1)
    ]


def _on_01(r, x):
    """(R on qubits 0, 1) @ x for an 8 x 8 three-qubit matrix x."""
    return (r @ x.reshape(4, 16)).reshape(8, 8)


def _on_12(r, x):
    """(R on qubits 1, 2) @ x for an 8 x 8 three-qubit matrix x."""
    return (r @ x.reshape(2, 4, 8)).reshape(8, 8)


def check_yang_baxter(p, x, y):
    """Max-norm residual of the braid relation on three qubits.

    Both sides are products of 4 x 4 R matrices on qubit pairs, applied in
    turn to the 8 x 8 identity without forming the Kronecker embeddings.
    """
    eye = np.eye(8, dtype=complex)
    rx, ry, rxy = r_matrix(p, x), r_matrix(p, y), r_matrix(p, x + y)
    lhs = _on_01(rx, _on_12(rxy, _on_01(ry, eye)))
    rhs = _on_12(ry, _on_01(rxy, _on_12(rx, eye)))
    return float(np.abs(lhs - rhs).max())


def _reduce_gamma(delta, alpha, chi, theta_v):
    """Shift (theta, chi, alpha) by a common multiple of pi so that
    gamma = delta - alpha + pi lands in [-pi/2, pi/2); the gate is unchanged."""
    gamma = delta - alpha + np.pi
    k = np.floor((gamma + np.pi / 2) / np.pi)
    gamma -= k * np.pi
    if k % 2:
        chi += np.pi
        theta_v += np.pi
        alpha += np.pi
    two_pi = 2.0 * np.pi
    return gamma, alpha % two_pi, chi % two_pi, theta_v % two_pi


def _arccos_halves(one_minus, one_plus):
    """arccos(r) from (1 - r) and (1 + r) given to a common positive factor."""
    return 2.0 * np.arctan2(np.sqrt(max(one_minus, 0.0)), np.sqrt(max(one_plus, 0.0)))


def _arccosh_one_plus(delta):
    """arccosh(1 + delta), accurate for small delta >= 0."""
    delta = max(delta, 0.0)
    return np.log1p(delta + np.sqrt(delta) * np.sqrt(2.0 + delta))


def haar_to_r(p):
    """Map Hurwitz angles to R-matrix parameters (beta, xi, theta, rho, u).

    Phase I when cos(phi) < cos(gamma), phase II when cos(phi) > cos(gamma);
    gates within EPS_CRITICAL of the manifold cos(phi) = cos(gamma) are
    refused with a critical-manifold report, as are gates where the ratio
    that sets u rounds onto its value on the manifold (u = 0, which would
    give beta = inf).  Gates at the a = 0 origin (rho -> infinity) and gates
    with sin(phi) = 0 outside the swap family (u -> infinity) are refused
    with RefusalError.
    """
    gate = gate_from_haar(p)
    if np.abs(gate.matrix - np.eye(4)).max() < 1e-13:
        return RMatrixParams(0.0, 0.0, 0.0, 0.0, 0.0, "I", degenerate="identity")

    gamma, _, chi, theta_v = _reduce_gamma(p.delta_phase, p.alpha, p.chi, p.theta_v)
    cos_phi, sin_phi = np.cos(p.phi), np.sin(p.phi)
    cos_gamma, sin_gamma = np.cos(gamma), np.sin(gamma)

    report = {
        "gamma": float(gamma),
        "phi": float(p.phi),
        "cos_phi": float(cos_phi),
        "cos_gamma": float(cos_gamma),
    }
    if abs(cos_phi - cos_gamma) < EPS_CRITICAL:
        if sin_phi < 1e-12 and abs(sin_gamma) < 1e-12:
            # swap-type gates: a on the unit circle at gamma = 0, rho = 0,
            # where Rc no longer depends on u; any u > 0 represents them
            u = np.pi / 2
            return RMatrixParams(
                beta=float(p.delta_phase / u), xi=float((chi % (2 * np.pi) - np.pi / 2) / u),
                theta=float(theta_v % (2 * np.pi)), rho=0.0, u=float(u),
                phase="II", degenerate="swap-family",
            )
        raise CriticalManifoldError(
            "gate lies on the critical manifold cos(phi) = cos(gamma)", report=report
        )
    if cos_phi < 1e-300 and cos_gamma > EPS_CRITICAL:
        raise RefusalError("gate at the a=0 disk origin needs rho -> infinity")
    if sin_phi < 1e-12:
        # |a| = 1 off the swap family: the phase II map sends u -> infinity
        raise RefusalError(
            "gate with sin(phi) = 0 off the swap family has |a| = 1 and needs "
            "u -> infinity"
        )

    # 1 - ratio for the ratios that set u and rho, from the half-angle
    # products (sin a -+ sin b, cos b - cos a), so no precision is lost
    # when a ratio nears 1 close to the critical manifold
    if cos_phi < cos_gamma:  # phase I: trigonometric in u
        hp, hm = 0.5 * (p.phi + gamma), 0.5 * (p.phi - gamma)
        u = _arccos_halves(np.cos(hp) * np.sin(hm), np.sin(hp) * np.cos(hm))
        rho = _arccosh_one_plus(2.0 * np.sin(hp) * np.sin(hm) / cos_phi)
        xi_u = chi - np.pi / 2
        phase = "I"
    else:  # phase II: hyperbolic in u, rho carries the sign of sin(gamma)
        s = 1.0 if sin_gamma >= 0 else -1.0
        hp, hm = 0.5 * (abs(gamma) + p.phi), 0.5 * (abs(gamma) - p.phi)
        u = _arccosh_one_plus(2.0 * np.cos(hp) * np.sin(hm) / sin_phi)
        rho = s * _arccos_halves(np.sin(hp) * np.sin(hm), np.cos(hp) * np.cos(hm))
        xi_u = chi - s * np.pi / 2
        phase = "II"
    if u == 0.0:
        # the ratio that sets u is 1 to rounding, its value on the manifold
        raise CriticalManifoldError(
            "gate lies on the critical manifold to rounding (u = 0)", report=report
        )
    return RMatrixParams(
        beta=float(p.delta_phase / u),
        xi=float(xi_u / u),
        theta=float(theta_v % (2 * np.pi)),
        rho=float(rho),
        u=float(u),
        phase=phase,
    )


def map_report(p):
    """JSON-friendly record of the gate -> R map, including failures."""
    gamma, _, _, _ = _reduce_gamma(p.delta_phase, p.alpha, p.chi, p.theta_v)
    rec = {
        "haar": {
            "delta": p.delta_phase, "alpha": p.alpha, "phi": p.phi,
            "chi": p.chi, "theta": p.theta_v,
        },
        "gamma": float(gamma),
        "phi": float(p.phi),
    }
    try:
        rp = haar_to_r(p)
    except CriticalManifoldError as exc:
        rec.update(phase="critical", **exc.report)
        return rec
    rec.update(
        phase=rp.phase, beta=rp.beta, xi=rp.xi, theta=rp.theta, rho=rp.rho, u=rp.u,
    )
    if rp.degenerate:
        rec["degenerate"] = rp.degenerate
    rec["reconstruction_error"] = float(
        np.abs(r_matrix(rp, rp.u) - gate_from_haar(p).matrix).max()
    )
    return rec


@dataclass(frozen=True)
class PhaseClassification:
    label: str  # "I", "II", "critical"
    lhs: float  # value of the phase-I condition, > 1 in phase I
    singular: bool = False  # vanishing denominator, lhs reported as inf


def classify_phase_hamiltonian(p):
    """Phase label from the Hamiltonian parameters.

    The phase-I condition compares |sin(2 tau delta)| sqrt(1 + B^2/(J^2+D^2))
    against |sin(2 tau sqrt(J^2+D^2+B^2))|; at J=1 this is the standard form.
    When numerator and denominator vanish identically (tau = 0), the label is
    taken from the tau -> 0 limit of the same family.  A vanishing denominator
    alone means the gate's hopping rotation is trivial while the zz rotation
    is not: the condition holds with lhs = inf and the label is phase I.
    """
    jd = np.hypot(p.J, p.D)
    if jd == 0.0:
        raise ParameterError("classification needs J^2 + D^2 > 0")
    omega = np.hypot(jd, p.B)
    factor = np.sqrt(1.0 + (p.B / jd) ** 2)
    num = abs(np.sin(2.0 * p.tau * p.delta)) * factor
    den = abs(np.sin(2.0 * p.tau * omega))
    if den == 0.0 and num == 0.0:
        lhs = factor * abs(p.delta) / omega  # limit along the tau family
        singular = False
    elif den < 1e-300:
        return PhaseClassification("I", float("inf"), singular=True)
    else:
        lhs = num / den
        singular = False
    if lhs > 1.0 + EPS_CRITICAL:
        label = "I"
    elif lhs < 1.0 - EPS_CRITICAL:
        label = "II"
    else:
        label = "critical"
    return PhaseClassification(label, float(lhs), singular)
