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
chains.  T is given by its site angles a_j, T = exp(i sum_j a_j sz_j) K
(global_time_reversal returns the L angles).  On a ring the site angles
must close around the loop, which requires the bond angle sum to vanish
mod pi; a shift by pi only flips the overall sign of the rotation
product, so pi, not 2 pi, is the true period of the obstruction.  Generic rings fail the condition and the
measured defect is raised through TimeReversalRefusal.

The time-reversal functions (closure_defect, global_time_reversal,
time_reversal_report) take the brickwork period, a two-layer
BrickworkCircuit.  The bond angles are read from the period's own gates,
which fix the twin's angles mod pi (_bond_angles); only
time_reversal_report builds the twin, once, with equivalent_circuit.

Both the period and its symmetrized twin conserve total S^z, and W is
diagonal, so time_reversal_report checks the reversal and the spectral
match one magnetization sector at a time, with W's diagonal formed from
the angles on that sector's states; no 2^L object is formed.  A match in
every sector implies a match of the full eigenvalue multisets, and the
residual of T U~ T^{-1} - U~^dag, being block diagonal, has its largest
entry in one of the sector blocks.  Momentum blocks do not apply: the
site angles of W break the two-site shift.
"""

import numpy as np

from .core import (
    FULL_DENSE_MAX_L,
    BrickworkCircuit,
    build_sector_block,
    sector_basis,
    sector_states,
    site_spins,
    unitary_phases,
)
from .errors import CapacityError, ParameterError, TimeReversalRefusal
from .gates import gate_sqrt, haar_params_from_gate

__all__ = [
    "reversal_residual",
    "equivalent_circuit",
    "closure_defect",
    "global_time_reversal",
    "site_phases",
    "spectral_match_error",
    "time_reversal_report",
]

CLOSURE_TOL = 1e-9  # largest |closure_defect| for which a ring's T is built


def reversal_residual(w, op):
    """max-entry size of T A T^{-1} - A^dag for T = diag(w) K.

    T A T^{-1} = W conj(A) W^dag, with w the diagonal of W.
    """
    a = np.asarray(op, dtype=complex)
    return float(np.abs(w[:, None] * a.conj() * w.conj()[None, :] - a.conj().T).max())


def site_phases(angles, states, L):
    """Diagonal of W = exp(i sum_j a_j sz_j) on an int array of states."""
    return np.exp(1j * (site_spins(states, L) @ angles))


def _period_layers(circuit):
    if len(circuit.layers) != 2:
        raise ParameterError(
            f"expected a two-layer brickwork period, got {len(circuit.layers)} layers"
        )
    return circuit.layers


def equivalent_circuit(circuit):
    """Symmetrize one period into sqrt(odd) . even . sqrt(odd).

    The result is sqrt(O) U sqrt(O)^{-1}, a similarity transform of the
    period U = E O, so eigenphases are preserved.  Each odd gate is
    halved by gates.gate_sqrt.  Only a two-layer period can be symmetrized.
    """
    gates_odd, gates_even = _period_layers(circuit)
    halves = [gate_sqrt(g) for g in gates_odd]
    return BrickworkCircuit(circuit.L, (halves, gates_even, halves), circuit.boundary)


def _bond_angles(circuit):
    """Central-block angle of the gate on each bond (j, j+1) of the period.

    T reverses the symmetrized twin, whose odd bonds carry the roots
    gate_sqrt(g), yet the angles are read from the period's own gates.
    Once its determinant phase is removed, a central block's lower
    off-diagonal entry is -i (p_x + i p_y) up to a sign, and the root's
    is a positive multiple of its gate's: the root keeps the axis p.  So
    theta(sqrt g) = theta(g) mod pi.  A shift of one bond angle by pi
    shifts every site angle past it by -pi, which multiplies W by a
    global sign (each e^{-i pi sz} is -1); T A T^{-1} = W conj(A) W^dag
    does not change, and the loop defect is already taken mod pi.
    """
    _period_layers(circuit)
    theta = {a: haar_params_from_gate(g).params.theta_v for g, (a, _b) in circuit.layer_pairs()}
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


def global_time_reversal(circuit):
    """Site angles a_j of the antiunitary T with T U~ T^{-1} = U~^dag.

    Takes the brickwork period U and reverses its symmetrized twin U~ =
    equivalent_circuit(U) with T = exp(i sum_j a_j sz_j) K.  Site j
    carries the accumulated angle a_j = -sum_{k<j} theta_k with a_0 = 0
    (the overall rotation phase is immaterial, so the first site is
    gauge-fixed to zero); the L angles are returned, and site_phases
    forms W's diagonal on any set of states.  For a periodic circuit the
    construction exists only when closure_defect vanishes within
    CLOSURE_TOL; otherwise TimeReversalRefusal carries the measured defect.
    """
    thetas = _bond_angles(circuit)
    defect = _loop_defect(thetas, circuit.boundary)
    if abs(defect) > CLOSURE_TOL:
        raise TimeReversalRefusal(
            f"bond angles do not close around the ring "
            f"(defect {defect:.6g} mod pi)",
            angle_defect=defect,
        )
    return np.concatenate([[0.0], np.cumsum(-thetas[: circuit.L - 1])])


def spectral_match_error(u, v):
    """Bottleneck distance between the eigenvalue multisets of two unitaries.

    The eigenvalues are exp(i phi) with phi from core.unitary_phases (one
    Hermitian eigensolve each; a matrix that is not unitary raises
    SymmetryError).  The distance is the smallest, over all pairings of
    the two multisets, of the largest |e^{i phi_a} - e^{i phi_b}| in the
    pairing.  The chord grows with the arc, and on a circle some best
    pairing keeps the cyclic order: it is a rotation of the two sorted
    orders, so the n rotations are compared (n^2 distances).
    """
    ea = np.exp(1j * np.sort(unitary_phases(u)))
    eb = np.exp(1j * np.sort(unitary_phases(v)))
    if ea.size != eb.size:
        raise ParameterError(f"spectra of sizes {ea.size} and {eb.size} cannot be matched")
    return min(float(np.abs(ea - np.roll(eb, s)).max()) for s in range(eb.size))


def time_reversal_report(circuit):
    """Summary of the global time-reversal test for one circuit.

    Raises TimeReversalRefusal for rings with nonzero defect, then
    CapacityError beyond FULL_DENSE_MAX_L, before any block.  For each m,
    the blocks of the period and of its symmetrized twin are built on one
    sector basis and compared before the next m; the largest reversal
    residual and eigenvalue mismatch over the sectors are reported.
    """
    angles = global_time_reversal(circuit)
    L = circuit.L
    if L > FULL_DENSE_MAX_L:
        raise CapacityError(f"propagator blocks limited to L <= {FULL_DENSE_MAX_L}")
    twin = equivalent_circuit(circuit)
    residuals, mismatches = [], []
    for m in range(-L, L + 1, 2):
        basis = sector_basis(L, m)
        u, ut = build_sector_block(circuit, basis), build_sector_block(twin, basis)
        w = site_phases(angles, sector_states(L, m), L)
        residuals.append(reversal_residual(w, ut))
        mismatches.append(spectral_match_error(u, ut))
    return {
        "boundary": circuit.boundary,
        "L": L,
        # np.max keeps a NaN that the builtin max would drop
        "residual_TR": float(np.max(residuals)),
        "spectral_match_error": float(np.max(mismatches)),
        "angle_defect": closure_defect(circuit),
    }
