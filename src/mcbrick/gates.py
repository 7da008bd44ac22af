"""Magnetization-conserving two-qubit gates in two parametrizations.

A MC gate in the basis {|00>, |01>, |10>, |11>} is block diagonal: pure-phase
corners and a 2x2 unitary central block on span{|01>, |10>}.

Hamiltonian form: U = exp(-i tau h) with

    h = J (sx sx + sy sy) + delta sz sz + M (sz1 + sz2)
        + B (sz2 - sz1) + D (sx1 sy2 - sy1 sx2) + A 1.

Haar/Hurwitz form: corners e^{i delta}, central block

    V = e^{i alpha} [[sin(phi) e^{-i chi},  cos(phi) e^{-i theta}],
                     [cos(phi) e^{i theta}, -sin(phi) e^{i chi}]].
"""

import functools

import numpy as np
from dataclasses import dataclass, replace

from .errors import ParameterError, StructureError

TWO_PI = 2.0 * np.pi

# largest entry allowed where magnetization conservation requires a zero
MC_DEFECT_TOL = 1e-10


@dataclass(frozen=True)
class HamiltonianGateParams:
    tau: float
    delta: float
    B: float = 0.0
    D: float = 0.0
    M: float = 0.0
    A: float = 0.0
    J: float = 1.0

    def __post_init__(self):
        vals = [self.tau, self.delta, self.B, self.D, self.M, self.A, self.J]
        if not all(np.isfinite(v) for v in vals):
            raise ParameterError("gate parameters must be finite reals")


@dataclass(frozen=True)
class HaarGateParams:
    delta_phase: float
    alpha: float
    phi: float
    chi: float
    theta_v: float

    def __post_init__(self):
        if not all(
            np.isfinite(v)
            for v in (self.delta_phase, self.alpha, self.phi, self.chi, self.theta_v)
        ):
            raise ParameterError("gate parameters must be finite reals")
        # canonical angle ranges; phi is a polar angle and is not wrapped
        object.__setattr__(self, "delta_phase", float(self.delta_phase) % TWO_PI)
        object.__setattr__(self, "alpha", float(self.alpha) % TWO_PI)
        object.__setattr__(self, "chi", float(self.chi) % TWO_PI)
        object.__setattr__(self, "theta_v", float(self.theta_v) % TWO_PI)
        if not 0.0 <= self.phi <= np.pi / 2:
            raise ParameterError(f"phi must lie in [0, pi/2], got {self.phi}")


@dataclass(frozen=True)
class TwoQubitGate:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ParameterError("gate matrix must be 4x4")
        _require_mc_structure(m)
        if unitarity_defect(m) > 1e-10:
            raise ParameterError("gate matrix is not unitary")
        object.__setattr__(self, "matrix", m)


def gate_matrix(gate):
    """The 4x4 complex matrix of a TwoQubitGate or of a raw array."""
    m = np.asarray(getattr(gate, "matrix", gate), dtype=complex)
    if m.shape != (4, 4):
        raise ParameterError("two-qubit gate must be a 4x4 matrix")
    return m


@functools.lru_cache(maxsize=8)
def _mc_zero_mask(dim):
    # entries of a 2^w x 2^w operator whose row and column words differ in
    # popcount; magnetization conservation forces them to zero
    pops = np.bitwise_count(np.arange(dim))
    mask = pops[:, None] != pops[None, :]
    mask.setflags(write=False)  # shared by every caller through the cache
    return mask


def mc_zero_pattern_defect(matrix):
    """Largest entry that magnetization conservation requires to vanish,
    for a gate or any other operator on w qubits (2^w x 2^w)."""
    m = np.asarray(matrix)
    return float(np.abs(m[_mc_zero_mask(m.shape[0])]).max())


def _require_mc_structure(m):
    """The matrix m, once no entry MC requires to vanish exceeds MC_DEFECT_TOL."""
    defect = mc_zero_pattern_defect(m)
    if defect > MC_DEFECT_TOL:
        raise StructureError(f"matrix is not magnetization conserving (defect {defect:.3e})")
    return m


def unitarity_defect(a):
    """max |A^dag A - 1| entrywise."""
    g = a.conj().T @ a
    g[np.diag_indices_from(g)] -= 1.0
    return np.abs(g).max()


def gate_from_hamiltonian(p):
    """Closed-form exp(-i tau h); the central block is a 2-level rotation.

    On span{|01>, |10>} the generator is (A - delta) 1 + v . sigma with
    v = 2 (J, D, B), so the block exponential needs no iterative solver.
    """
    w = 2.0 * np.sqrt(p.J * p.J + p.D * p.D + p.B * p.B)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = np.exp(-1j * p.tau * (p.A + p.delta - 2.0 * p.M))
    mat[3, 3] = np.exp(-1j * p.tau * (p.A + p.delta + 2.0 * p.M))
    block_phase = np.exp(-1j * p.tau * (p.A - p.delta))
    cos_t = np.cos(p.tau * w)
    sinc_t = p.tau * np.sinc(p.tau * w / np.pi)  # sin(tau w)/w, finite at w=0
    mat[1, 1] = block_phase * (cos_t - 2j * p.B * sinc_t)
    mat[2, 2] = block_phase * (cos_t + 2j * p.B * sinc_t)
    mat[1, 2] = block_phase * (-1j * sinc_t * 2.0 * (p.J - 1j * p.D))
    mat[2, 1] = block_phase * (-1j * sinc_t * 2.0 * (p.J + 1j * p.D))
    return TwoQubitGate(mat)


def haar_matrix(p):
    """Exact 4x4 matrix of the Hurwitz form (equal corner phases), not validated."""
    mat = np.zeros((4, 4), dtype=complex)
    corner = np.exp(1j * p.delta_phase)
    mat[0, 0] = corner
    mat[3, 3] = corner
    ea = np.exp(1j * p.alpha)
    s, c = np.sin(p.phi), np.cos(p.phi)
    mat[1, 1] = ea * s * np.exp(-1j * p.chi)
    mat[1, 2] = ea * c * np.exp(-1j * p.theta_v)
    mat[2, 1] = ea * c * np.exp(1j * p.theta_v)
    mat[2, 2] = -ea * s * np.exp(1j * p.chi)
    return mat


def gate_from_haar(p):
    """The Hurwitz form as a validated TwoQubitGate."""
    return TwoQubitGate(haar_matrix(p))


def magnetization_phase_gate(mu):
    """diag(e^{i mu}, 1, 1, e^{-i mu}) = exp(-i mu (sz1 + sz2)/2)."""
    return np.diag([np.exp(1j * mu), 1.0, 1.0, np.exp(-1j * mu)]).astype(complex)


@dataclass(frozen=True)
class HaarExtraction:
    """Hurwitz angles of a gate plus the factored magnetization phase mu.

    The input gate equals magnetization_phase_gate(mu) @ gate_from_haar(params).
    mu is zero whenever the two corner phases already agree.
    """

    params: HaarGateParams
    mu: float


_DEGENERATE_EPS = 1e-12


def haar_params_from_gate(g):
    """Invert the Hurwitz parametrization.

    Unequal corner phases (an M field) are factored out first and reported as
    mu. At the degenerate edges the undefined angle is set to zero: theta_v
    when cos(phi) = 0, chi when sin(phi) = 0.
    """
    m = _require_mc_structure(gate_matrix(g))
    d1 = np.angle(m[0, 0])
    d2 = np.angle(m[3, 3])
    mu = 0.5 * (d1 - d2)
    delta = 0.5 * (d1 + d2)
    v = m[1:3, 1:3]
    det_v = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    alpha = 0.5 * np.angle(-det_v)
    w = np.exp(-1j * alpha) * v  # [[sin e^{-i chi}, cos e^{-i theta}], [..]]
    sin_phi = abs(w[0, 0])
    cos_phi = abs(w[0, 1])
    phi = np.arctan2(sin_phi, cos_phi)
    chi = -np.angle(w[0, 0]) if sin_phi > _DEGENERATE_EPS else 0.0
    theta_v = np.angle(w[1, 0]) if cos_phi > _DEGENERATE_EPS else 0.0
    return HaarExtraction(HaarGateParams(delta, alpha, phi, chi, theta_v), float(mu))


def hamiltonian_params_from_gate(g):
    """Invert gate_from_hamiltonian in the J=1 gauge.

    The duration only ever multiplies the couplings, so the gate fixes them
    up to one scale; the hopping is pinned to J=1 as in the generator's
    definition. Gates whose central block has no hopping part (J sin(tau w)
    of zero) do not admit this gauge and are rejected.
    """
    m = _require_mc_structure(gate_matrix(g))
    v = m[1:3, 1:3]
    det_v = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    phi0 = 0.5 * np.angle(det_v)
    w = np.exp(-1j * phi0) * v  # SU(2): cos(psi) 1 - i sin(psi) n.sigma
    cos_psi = 0.5 * (w[0, 0] + w[1, 1]).real
    # sin(psi) n_j = (i/2) tr(w sigma_j) in the central two-level space
    p_x = 0.5 * (1j * (w[0, 1] + w[1, 0])).real
    p_y = 0.5 * (w[1, 0] - w[0, 1]).real
    p_z = 0.5 * (1j * (w[0, 0] - w[1, 1])).real
    sin_psi = np.sqrt(p_x * p_x + p_y * p_y + p_z * p_z)
    psi = np.arctan2(sin_psi, cos_psi)
    if sin_psi < 1e-14 or abs(p_x) < 1e-14 * max(sin_psi, 1.0):
        raise ParameterError(
            "central block has no hopping rotation; J=1 gauge is undefined"
        )
    nx, ny, nz = p_x / sin_psi, p_y / sin_psi, p_z / sin_psi
    tau = 0.5 * psi * nx  # tau * 2J = psi * n_x with J = 1
    d_dm = ny / nx
    b_field = nz / nx
    a00 = np.angle(m[0, 0])
    a33 = np.angle(m[3, 3])
    two_tau_delta = phi0 - 0.5 * (a00 + a33)
    delta = two_tau_delta / (2.0 * tau)
    a_coef = (-phi0 / tau - 0.5 * (a00 + a33) / tau) / 2.0
    m_field = (a00 - a33) / (4.0 * tau)
    return HamiltonianGateParams(
        tau=float(tau), delta=float(delta), B=float(b_field), D=float(d_dm),
        M=float(m_field), A=float(a_coef), J=1.0,
    )


def sample_haar(rng_seed, n=None):
    """Haar angles: sin^2(phi) uniform on [0,1), the four phases on [0,2pi).

    Pass n to draw a deterministic stream of gates from one seed.
    """
    rng = np.random.default_rng(rng_seed)
    count = 1 if n is None else int(n)
    out = []
    for _ in range(count):
        phi = np.arcsin(np.sqrt(rng.random()))
        chi, alpha, theta_v, delta = rng.random(4) * TWO_PI
        out.append(HaarGateParams(delta, alpha, phi, chi, theta_v))
    return out[0] if n is None else out


def random_mc_gate(rng_seed):
    """Convenience: one Haar-random MC gate."""
    return gate_from_haar(sample_haar(rng_seed))


def gate_sqrt(p):
    """MC square root: halve the duration in the Hamiltonian form."""
    return gate_from_hamiltonian(replace(p, tau=0.5 * p.tau))
