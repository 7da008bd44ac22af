"""Antiunitary time reversal for brickwork circuits of MC gates.

Every magnetization-conserving two-qubit gate is antiunitarily equivalent
to its adjoint.  With theta the central-block angle the Haar-form
extraction returns (the phase of the lower off-diagonal entry once the
block determinant phase is removed), the diagonal rotation

    W(theta) = diag(1, e^{-i theta}, e^{+i theta}, 1)

satisfies W conj(g) W^dag = g^dag, so T1 = W(theta) K reverses the gate,
where K is complex conjugation in the computational basis.  For theta = 0
this is plain conjugation.

A full brickwork period resists a direct global statement because the two
layers do not commute, but symmetrizing the period into the three-layer
form sqrt(odd) . even . sqrt(odd) (a similarity transform, so the
spectrum is unchanged) restores it: a product of single-site z rotations
whose accumulated angles drop by the local bond angle theta_j across each
bond (j, j+1) yields an antiunitary T with T U~ T^{-1} = U~^dag on open
chains.  On a ring the site angles must close around the loop, which
requires the bond angle sum to vanish mod pi; a shift by pi only flips
the overall sign of the rotation product, so pi, not 2 pi, is the true
period of the obstruction.  Generic rings fail the condition and the
measured defect is raised through TimeReversalRefusal.

The time-reversal functions (closure_defect, global_time_reversal,
time_reversal_report) take the brickwork period, a two-layer
BrickworkCircuit, and symmetrize it themselves with equivalent_circuit.

Both the period and its symmetrized twin conserve total S^z, and W is
diagonal, so time_reversal_report checks the reversal and the spectral
match one magnetization sector at a time and never forms a 2^L x 2^L
matrix.  A match in every sector implies a match of the full eigenvalue
multisets, and the residual of T U~ T^{-1} - U~^dag, being block
diagonal, has its largest entry in one of the sector blocks.  Momentum
blocks do not apply: the site angles of W break the two-site shift.

The same single-bond z rotation removes the antisymmetric (DM) part of a
gate generator: rotating by half of atan2(-D, J) maps the couplings
(J, D) to (sqrt(J^2 + D^2), 0) and leaves the other terms alone.
"""

import numpy as np
from dataclasses import dataclass, replace

from .core import (
    FULL_DENSE_MAX_L,
    BrickworkCircuit,
    build_sector_block,
    sector_basis,
    sector_states,
    unitary_phases,
)
from .errors import CapacityError, ParameterError, TimeReversalRefusal
from .gates import (
    TwoQubitGate,
    gate_sqrt,
    haar_params_from_gate,
    hamiltonian_params_from_gate,
)

__all__ = [
    "AntiUnitary",
    "single_gate_time_reversal",
    "reversal_residual",
    "dm_rotation_angle",
    "dm_rotation_gate",
    "rotate_out_dm",
    "equivalent_circuit",
    "closure_defect",
    "global_time_reversal",
    "spectral_match_error",
    "time_reversal_report",
]


@dataclass
class AntiUnitary:
    """T = W K with W a diagonal unitary, stored as its diagonal."""

    diag: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=complex).reshape(-1)

    @property
    def dim(self):
        return self.diag.size

    def matrix(self):
        """Dense unitary part W."""
        return np.diag(self.diag)

    def apply(self, state):
        """T|psi> = W conj(|psi>)."""
        return self.diag * np.conj(np.asarray(state, dtype=complex).reshape(-1))

    def conjugate_operator(self, op):
        """T A T^{-1} = W conj(A) W^dag."""
        a = np.asarray(op.entries if hasattr(op, "entries") else op, dtype=complex)
        return self.diag[:, None] * a.conj() * self.diag.conj()[None, :]

    def involution_defect(self):
        """max |T^2 - 1| = max |W conj(W) - 1|; zero for pure phases."""
        return np.abs(self.diag * self.diag.conj() - 1.0).max()


def _w_pair(theta):
    return np.array([1.0, np.exp(-1j * theta), np.exp(1j * theta), 1.0])


def single_gate_time_reversal(gate):
    """Antiunitary T1 with T1 g T1^{-1} = g^dag for one MC gate."""
    theta = haar_params_from_gate(gate).params.theta_v
    return AntiUnitary(_w_pair(theta), label=f"W(theta={theta:.6g}) K")


def reversal_residual(tr, op):
    """max-entry size of T A T^{-1} - A^dag."""
    a = np.asarray(op.entries if hasattr(op, "entries") else op, dtype=complex)
    return float(np.abs(tr.conjugate_operator(a) - a.conj().T).max())


def dm_rotation_angle(params):
    """Half-angle of the z rotation that cancels the DM coupling."""
    return 0.5 * np.arctan2(-params.D, params.J)


def dm_rotation_gate(params):
    """The two-qubit z rotation W implementing rotate_out_dm by conjugation."""
    return TwoQubitGate(
        np.diag(_w_pair(dm_rotation_angle(params))), provenance="dm-rotation"
    )


def rotate_out_dm(params):
    """Generator parameters after rotating the DM term away.

    W g(params) W^dag equals the gate generated by the returned parameters,
    which have D = 0 and the hopping promoted to sqrt(J^2 + D^2).
    """
    return replace(params, J=float(np.hypot(params.J, params.D)), D=0.0)


def equivalent_circuit(circuit):
    """Symmetrize one period into sqrt(odd) . even . sqrt(odd).

    The result is sqrt(O) U sqrt(O)^{-1}, a similarity transform of the
    period U = E O, so eigenphases are preserved.  Odd gates must admit
    the Hamiltonian form (a nonzero hopping rotation) for their MC square
    roots to be defined.  Only a two-layer period can be symmetrized.
    """
    if len(circuit.layers) != 2:
        raise ParameterError(
            f"expected a two-layer brickwork period, got {len(circuit.layers)} layers"
        )
    gates_odd, gates_even = circuit.layers
    halves = [gate_sqrt(hamiltonian_params_from_gate(g)) for g in gates_odd]
    return BrickworkCircuit(circuit.L, (halves, gates_even, halves), circuit.boundary)


def _bond_angles(circuit):
    """Central-block angle of the gate on each bond (j, j+1) of the
    symmetrized period; the first gate met on a bond sets its angle."""
    theta = {}
    for gate, (a, _b) in equivalent_circuit(circuit).layer_pairs():
        if a not in theta:
            theta[a] = haar_params_from_gate(gate).params.theta_v
    return np.array([theta[a] for a in sorted(theta)])


def _loop_defect(thetas, boundary):
    # reduced total bond angle on rings; open chains have no loop to close
    if boundary != "periodic":
        return 0.0
    total = float(thetas.sum())
    return (total + np.pi / 2) % np.pi - np.pi / 2


def closure_defect(circuit):
    """Loop defect of the site angles, reduced mod pi into [-pi/2, pi/2).

    Zero for open chains by construction.  On a ring the telescoped bond
    angles must return to the start; the defect is the reduced total bond
    angle, and time reversal exists only when it vanishes.
    """
    return _loop_defect(_bond_angles(circuit), circuit.boundary)


def global_time_reversal(circuit, tol=1e-9):
    """Antiunitary T with T U~ T^{-1} = U~^dag for the symmetrized period.

    Takes the brickwork period U and reverses U~ = equivalent_circuit(U).
    Site j carries the accumulated angle a_j = -sum_{k<j} theta_k with
    a_0 = 0 (the overall rotation phase is immaterial, so the first site
    is gauge-fixed to zero), and W acts as exp(i sum_j a_j sz_j).  For a
    periodic circuit the construction exists only when closure_defect
    vanishes; otherwise TimeReversalRefusal carries the measured defect.
    """
    thetas = _bond_angles(circuit)
    defect = _loop_defect(thetas, circuit.boundary)
    if abs(defect) > tol:
        raise TimeReversalRefusal(
            f"bond angles do not close around the ring "
            f"(defect {defect:.6g} mod pi)",
            angle_defect=defect,
        )
    L = circuit.L
    a_site = np.concatenate([[0.0], np.cumsum(-thetas[: L - 1])])
    n = np.arange(1 << L)
    z = 2 * ((n[:, None] >> (L - 1 - np.arange(L))[None, :]) & 1) - 1
    return AntiUnitary(np.exp(1j * (z @ a_site)), label=f"global W K, L={L}")


def spectral_match_error(u, v):
    """Largest distance between the eigenvalue multisets of two unitaries.

    The eigenvalues are exp(i phi) with phi from core.unitary_phases (one
    Hermitian eigensolve each; a matrix that is not unitary raises
    SymmetryError).  Sorted-eigenphase comparison first; if that misaligns
    (phases piling near the branch cut), fall back to an optimal
    assignment.
    """
    a = u.entries if hasattr(u, "entries") else u
    b = v.entries if hasattr(v, "entries") else v
    ea = np.exp(1j * np.sort(unitary_phases(a)))
    eb = np.exp(1j * np.sort(unitary_phases(b)))
    err = float(np.abs(ea - eb).max())
    if err < 1e-8:
        return err
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(ea[:, None] - eb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(min(err, cost[rows, cols].max()))


def time_reversal_report(circuit):
    """Summary of the global time-reversal test for one circuit.

    Raises TimeReversalRefusal for rings with nonzero defect, then
    CapacityError beyond the full-dense L cap.  Works sector by sector:
    for each magnetization m it builds the blocks of the period and of
    its symmetrized twin, and reports the largest reversal residual (W's
    diagonal restricted to the sector's states) and the largest
    eigenvalue mismatch over the sectors.
    """
    tr = global_time_reversal(circuit)
    L = circuit.L
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"time-reversal report limited to L <= {FULL_DENSE_MAX_L}")
    sym = equivalent_circuit(circuit)
    residuals, mismatches = [], []
    for m in range(-L, L + 1, 2):
        basis = sector_basis(L, m)
        u = build_sector_block(circuit, basis).entries
        ut = build_sector_block(sym, basis).entries
        tr_m = AntiUnitary(tr.diag[sector_states(L, m)])
        residuals.append(reversal_residual(tr_m, ut))
        mismatches.append(spectral_match_error(u, ut))
    return {
        "boundary": circuit.boundary,
        "L": L,
        # np.max keeps a NaN that the builtin max would drop
        "residual_TR": float(np.max(residuals)),
        "spectral_match_error": float(np.max(mismatches)),
        "angle_defect": closure_defect(circuit),
    }
