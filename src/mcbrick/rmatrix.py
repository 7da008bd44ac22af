"""Asymmetric six-vertex R matrix, Yang-Baxter checks, and the gate -> R map.

The braid-form matrix is

    Rc(x) = e^{i beta x} [[1, 0, 0, 0],
                          [0, i b e^{-i xi x}, -a e^{-i theta}, 0],
                          [0, -a e^{i theta},  i b e^{i xi x},  0],
                          [0, 0, 0, 1]],

with (a, b) trigonometric in x in phase I and hyperbolic in phase II.  Both
satisfy |a|^2 + |b|^2 = 1 and a b* real for real arguments, which makes Rc(x)
unitary there; Rc(0) = 1 and Rc(-x) Rc(x) = 1 hold in both phases.  The
physical gate is Rc evaluated at the inhomogeneity x = u.
"""

import numpy as np
from dataclasses import dataclass

from .errors import CriticalManifoldError, ParameterError, RefusalError
from .gates import (
    HamiltonianGateParams,
    TwoQubitGate,
    gate_from_haar,
    mc_zero_pattern_defect,
)

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


def ab_derivatives(p, x):
    """Analytic d/dx of (a, b); elementary quotients in both phases."""
    if p.phase == "I":
        den = np.sin(x + 1j * p.rho) ** 2
        return 1j * np.sinh(p.rho) / den, -np.sinh(p.rho) * np.cos(x + 1j * p.rho) / den
    den = np.sinh(x + 1j * p.rho) ** 2
    return 1j * np.sin(p.rho) / den, -np.sin(p.rho) * np.cosh(x + 1j * p.rho) / den


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


def r_matrix_derivative(p, x):
    """Analytic d/dx of r_matrix; needed for the charge densities."""
    a, b = ab_values(p, x)
    da, db = ab_derivatives(p, x)
    ex_m = np.exp(-1j * p.xi * x)
    ex_p = np.exp(1j * p.xi * x)
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = 1j * (db - 1j * p.xi * b) * ex_m
    mat[2, 2] = 1j * (db + 1j * p.xi * b) * ex_p
    mat[1, 2] = -da * np.exp(-1j * p.theta)
    mat[2, 1] = -da * np.exp(1j * p.theta)
    phase = np.exp(1j * p.beta * x)
    return 1j * p.beta * r_matrix(p, x) + phase * mat


def gate_from_r(p):
    """The physical two-qubit gate Rc(u)."""
    return TwoQubitGate(r_matrix(p, p.u), provenance=f"r-matrix phase {p.phase}")


def check_yang_baxter(p, x, y):
    """Max-norm residual of the braid relation on three qubits."""
    eye2 = np.eye(2, dtype=complex)
    r12 = lambda z: np.kron(r_matrix(p, z), eye2)
    r23 = lambda z: np.kron(eye2, r_matrix(p, z))
    lhs = r12(x) @ r23(x + y) @ r12(y)
    rhs = r23(y) @ r12(x + y) @ r23(x)
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


def haar_to_r(p, eps_critical=EPS_CRITICAL):
    """Map Hurwitz angles to R-matrix parameters (beta, xi, theta, rho, u).

    Phase I when cos(phi) < cos(gamma), phase II when cos(phi) > cos(gamma);
    gates within eps_critical of the manifold cos(phi) = cos(gamma) are
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
    if abs(cos_phi - cos_gamma) < eps_critical:
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
    if cos_phi < 1e-300 and cos_gamma > eps_critical:
        raise RefusalError("gate at the a=0 disk origin needs rho -> infinity")
    if sin_phi < 1e-12:
        # |a| = 1 off the swap family: the phase II map sends u -> infinity
        raise RefusalError(
            "gate with sin(phi) = 0 off the swap family has |a| = 1 and needs "
            "u -> infinity"
        )

    if cos_phi < cos_gamma:  # phase I: trigonometric in u
        u = np.arccos(np.clip(sin_gamma / sin_phi, -1.0, 1.0))
        rho = np.arccosh(max(cos_gamma / cos_phi, 1.0))
        xi_u = chi - np.pi / 2
        phase = "I"
    else:  # phase II: hyperbolic in u, rho carries the sign of sin(gamma)
        s = 1.0 if sin_gamma >= 0 else -1.0
        u = np.arccosh(max(abs(sin_gamma) / sin_phi, 1.0))
        rho = s * np.arccos(np.clip(cos_gamma / cos_phi, -1.0, 1.0))
        xi_u = chi - s * np.pi / 2
        phase = "II"
    if u == 0.0:
        # |sin(gamma)| / sin(phi) rounded onto 1, its value on the manifold
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


def map_report(p, eps_critical=EPS_CRITICAL):
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
        rp = haar_to_r(p, eps_critical)
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


def classify_phase_hamiltonian(p, eps_critical=EPS_CRITICAL):
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
    if lhs > 1.0 + eps_critical:
        label = "I"
    elif lhs < 1.0 - eps_critical:
        label = "II"
    else:
        label = "critical"
    return PhaseClassification(label, float(lhs), singular)
