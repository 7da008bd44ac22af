"""Symmetry-resolved eigenphase statistics of brickwork propagators.

Eigenphases of a Floquet unitary are uniformly dense on the circle, so no
unfolding beyond a global rescaling is ever needed: the circular gaps of
the sorted phases, scaled to unit mean, are the spacings.  Statistics are
meaningful only after every commuting symmetry has been resolved;
magnetization and (for rings) two-site momentum come from SectorBasis,
and homogeneous rings additionally carry a space-time symmetry.  For the
latter we take K = S (odd layer), with S the one-site shift.  K commutes
with the period U and obeys K^2 = S^2 U, where S^2 is the scalar
exp(i theta2) on an (m, k) block.  So the K eigenvalues alone refine each
block: every K phase fixes one U eigenphase and the square-root branch it
sits on, which splits the block into two halves.  This concrete operator
is one choice of the construction.  On homogeneous rings its block is
the odd layer's own sector block, each image folded one site over.

Homogeneous circuits whose gate has equal corner phases (<00|g|00> =
<11|g|11>, which includes every gate drawn from the Haar family) carry
one more unitary Z2: the global spin flip composed with the site
reflection j -> L-1-j.  It maps magnetization m to -m and momentum k to
-k, so it acts within a sector only at m = 0 (and, on rings, at
self-conjugate k); there it must be split as well, or its two parities
sit on top of each other and fake extra degeneracies.  resolved_spectra
applies every refinement that is detected to hold.

Every block is unitary, so its eigenphases come from core.unitary_phases:
one Hermitian eigensolve of the block's Cayley transform, not the general
nonsymmetric solver.  The n^3 unitarity checks on U and K and the K^2
residual run before it.

Reference points: uncorrelated phases give mean gap ratio 2 ln 2 - 1, the
orthogonal class (circuits with an antiunitary symmetry, e.g. open
boundaries) about 0.53, the unitary class about 0.60; the R_TILDE_*
constants hold these three references.
"""

import numpy as np
from dataclasses import dataclass

from .core import (
    BLOCK_UNITARITY_TOL,
    BrickworkCircuit,
    build_propagator,
    build_sector_block,
    permutation_block,
    sector_basis,
    sector_states,
    unitary_phases,
)
from .errors import ParameterError, SymmetryError
from .gates import TwoQubitGate, magnetization_phase_gate, random_mc_gate, unitarity_defect

__all__ = [
    "R_TILDE_POISSON",
    "R_TILDE_COE",
    "R_TILDE_CUE",
    "SpectrumResult",
    "spacing_ratios",
    "scaled_spacings",
    "pooled_r_tilde",
    "is_homogeneous",
    "sector_spectrum",
    "flip_reflection_permutation",
    "resolved_spectra",
    "full_spectrum",
    "phase_modded_overlap",
    "random_hopping_gate",
    "chaotic_gate_pair",
]

R_TILDE_POISSON = 2.0 * np.log(2.0) - 1.0
R_TILDE_COE = 0.5307
R_TILDE_CUE = 0.5996

# largest commutator defect with U (and between the flip and K) under which a
# detected symmetry is split off
REFINEMENT_TOL = 1e-9
# largest entrywise difference between two gates of a circuit that is homogeneous
HOMOGENEITY_TOL = 1e-12


def scaled_spacings(phases):
    """Circular gaps of sorted phases, scaled to unit mean."""
    ph = np.sort(np.asarray(phases, dtype=float) % (2 * np.pi))
    if ph.size < 2:
        return np.zeros(0)
    gaps = np.diff(ph, append=ph[0] + 2 * np.pi)
    return gaps * (ph.size / (2 * np.pi))


def spacing_ratios(phases):
    """min/max ratios of consecutive circular gaps (equal gaps count as 1)."""
    s = scaled_spacings(phases)
    if s.size < 2:
        return np.zeros(0)
    a, b = s, np.roll(s, -1)
    mn = np.minimum(a, b)
    mx = np.maximum(a, b)
    return np.where(mx > 0, mn / np.where(mx > 0, mx, 1.0), 1.0)


@dataclass
class SpectrumResult:
    """Eigenphases of one resolved block, with their gap-ratio mean."""

    m: object
    k: object = None
    spacetime_block: object = None
    flip_parity: object = None
    eigenphases: np.ndarray = None
    r_tilde: float = np.nan

    @property
    def dim(self):
        return self.eigenphases.size

    def sector_key(self):
        key = "all" if self.m is None else f"m{self.m:+d}"
        if self.k is not None:
            key += f".k{self.k}"
        if self.flip_parity is not None:
            key += ".f+" if self.flip_parity > 0 else ".f-"
        if self.spacetime_block is not None:
            key += f".st{self.spacetime_block}"
        return key


def _result_from_phases(phases, m, k=None, st=None, fp=None):
    ph = np.sort(np.asarray(phases, dtype=float) % (2 * np.pi))
    ratios = spacing_ratios(ph)
    return SpectrumResult(
        m=m,
        k=k,
        spacetime_block=st,
        flip_parity=fp,
        eigenphases=ph,
        r_tilde=float(ratios.mean()) if ratios.size else np.nan,
    )


def pooled_r_tilde(results):
    """Gap-ratio mean pooled over several resolved blocks.

    Blocks with fewer than two phases carry no ratio; if no block has one,
    there is nothing to pool and ParameterError is raised.
    """
    ratios = [spacing_ratios(r.eigenphases) for r in results]
    if not sum(r.size for r in ratios):
        raise ParameterError("no block has two or more eigenphases; no gap ratio to pool")
    return float(np.concatenate(ratios).mean())


def is_homogeneous(circuit):
    mats = [u for layer in circuit.layers for u in layer]
    return all(np.abs(m - mats[0]).max() <= HOMOGENEITY_TOL for m in mats[1:])


def _unitary(block, what):
    """The block itself, once max|B^dag B - 1| is within BLOCK_UNITARITY_TOL."""
    defect = unitarity_defect(block)
    if defect > BLOCK_UNITARITY_TOL:
        raise SymmetryError(
            f"{what} block is not unitary (defect {defect:.3e}); "
            "the circuit does not respect the requested resolution",
            residual=float(defect),
        )
    return block


def _sector_block(circuit, m, k):
    """Basis and checked propagator block of one (m, k) sector; None when empty.

    k needs a periodic circuit; core.build_sector_block builds the block
    (refusing L > SECTOR_MAX_L), and it must be unitary.
    """
    if k is not None and circuit.boundary != "periodic":
        raise ParameterError("momentum resolution requires a periodic circuit")
    basis = sector_basis(circuit.L, m, k)
    if basis.dim == 0:
        return basis, None
    return basis, _unitary(build_sector_block(circuit, basis), "sector")


def sector_spectrum(circuit, m, k=None):
    """Eigenphases of the propagator restricted to one symmetry block.

    k resolves two-site momentum (rings only).  resolved_spectra applies
    the further refinements (space-time branch, flip-reflection parity).
    """
    _, ub = _sector_block(circuit, m, k)
    phases = np.zeros(0) if ub is None else unitary_phases(ub)
    return _result_from_phases(phases, m, k)


def _k_block(circuit, basis):
    """Restriction of K = S * (odd layer) to a sector basis; it must be unitary.

    On a homogeneous ring the odd layer O keeps m and commutes with S^2, so
    it keeps the (m, k) sector, and core.build_sector_block of O alone
    with shift=1 folds each image of O after moving it one site: no
    product of two dense blocks is formed.
    """
    odd = BrickworkCircuit(circuit.L, circuit.layers[:1], circuit.boundary)
    return _unitary(build_sector_block(odd, basis, shift=1), "space-time")


def _branch_phases(ub, kb, theta2):
    """Propagator eigenphases with K-branch parities, from K eigenvalues.

    K^2 = S^2 U and S^2 is the scalar exp(i theta2) on an (m, k) block, so
    each K phase kappa gives the U eigenphase phi = 2 kappa - theta2 and
    the branch p in kappa = theta2/2 + phi/2 + pi * p.  The identity is
    checked on the block itself: max|K^2 - exp(i theta2) U| must stay
    within BLOCK_UNITARITY_TOL, which proves U = exp(-i theta2) K^2 there.
    """
    if not ub.size:
        return np.zeros(0), np.zeros(0, dtype=int)
    residual = np.abs(kb @ kb - np.exp(1j * theta2) * ub).max()
    if residual > BLOCK_UNITARITY_TOL:
        raise SymmetryError(
            f"space-time block does not square to the propagator (residual {residual:.3e})",
            residual=float(residual),
        )
    kappa = unitary_phases(kb)
    phi = (2 * kappa - theta2) % (2 * np.pi)
    parities = np.rint((kappa - 0.5 * theta2 - 0.5 * phi) / np.pi).astype(int) % 2
    return phi, parities


def flip_reflection_permutation(states, L):
    """Images of an int array of states under spin flip * site reflection.

    The reflection is j -> L-1-j.  An involution: bit-reverse the L-bit
    word (site 0 is the most significant bit, so reversal is the
    reflection) and complement it.
    """
    n = np.asarray(states, dtype=np.int64)
    rev = np.zeros_like(n)
    for _ in range(L):
        rev = (rev << 1) | (n & 1)
        n = n >> 1
    return rev ^ ((1 << L) - 1)


def _flip_reflection_block(basis):
    """Restriction of flip * reflection to a sector basis, or None.

    The operation sends m to -m and k to -k, so it closes on a sector only
    at m = 0 and, on rings, at self-conjugate k (2k = 0 mod L/2); elsewhere
    the restriction is not unitary and None is returned before any work.
    On a sector it closes on, the map permutes the states, so its block is
    their permutation_block; a block that fails the unitarity check still
    gives None.
    """
    k = basis.momentum
    if basis.magnetization != 0 or (k is not None and (2 * k) % (basis.L // 2)):
        return None
    states = sector_states(basis.L, 0)
    xp = permutation_block(basis, flip_reflection_permutation(states, basis.L))
    if unitarity_defect(xp) > BLOCK_UNITARITY_TOL:
        return None
    return xp


def resolved_spectra(circuit, m, k=None):
    """Fully resolved eigenphase blocks of one magnetization (and k) sector.

    Applies every refinement that is detected to hold on the block: the
    space-time branch split (homogeneous rings, k given) and the
    flip-reflection parity split (m = 0 blocks the operation closes on and
    commutes with).  When both are present they commute whenever S^2 is
    real on the block (theta2 = 0 or pi); for theta2 = pi the flip
    exchanges the two K branches instead, which already makes the branches
    clean, so the parity split is skipped there.  Returns a list of
    SpectrumResult covering the sector.
    """
    basis, ub = _sector_block(circuit, m, k)
    if ub is None:
        return []

    xp = _flip_reflection_block(basis)
    if xp is not None and np.abs(xp @ ub - ub @ xp).max() > REFINEMENT_TOL:
        xp = None

    ring = circuit.boundary == "periodic" and is_homogeneous(circuit)
    kb = _k_block(circuit, basis) if (ring and k is not None) else None

    if xp is not None and kb is not None and np.abs(xp @ kb - kb @ xp).max() > REFINEMENT_TOL:
        xp = None  # the flip exchanges the K branches
    theta2 = 0.0 if k is None else 2 * np.pi * basis.momentum / (circuit.L // 2)
    out = []
    for sign, wsub in [(None, None)] if xp is None else _parity_vectors(xp):
        u_s = ub if wsub is None else wsub.conj().T @ ub @ wsub
        if kb is None:
            out.append(_result_from_phases(unitary_phases(u_s), m, k, fp=sign))
            continue
        k_s = kb if wsub is None else wsub.conj().T @ kb @ wsub
        phi, par = _branch_phases(u_s, k_s, theta2)
        out.extend(_result_from_phases(phi[par == p], m, k, st=p, fp=sign) for p in (0, 1))
    return out


def _parity_vectors(xp):
    """Orthonormal eigenvector blocks of a Hermitian involution, by sign."""
    w, v = np.linalg.eigh(0.5 * (xp + xp.conj().T))
    if np.abs(np.abs(w) - 1.0).max() > 1e-9:
        raise SymmetryError(
            "flip-reflection block is not an involution",
            residual=float(np.abs(np.abs(w) - 1.0).max()),
        )
    return [(+1, v[:, w > 0]), (-1, v[:, w < 0])]


def full_spectrum(circuit):
    """Eigenphases of the whole propagator, its sector blocks pooled (negative control)."""
    blocks = build_propagator(circuit).values()
    phases = np.concatenate([unitary_phases(_unitary(b, "full")) for b in blocks])
    return _result_from_phases(phases, None)


CHAOS_HOP_WINDOW = (0.55, 0.75)
CHAOS_OVERLAP_MAX = 0.8


def phase_modded_overlap(ga, gb):
    """Largest |tr(gb ga^dag)|/4 over the magnetization-phase orbit of ga.

    A value near 1 means gb = exp(-i mu (sz1+sz2)/2) ga up to small terms.
    Such phases commute through a magnetization-conserving brickwall, so a
    two-gate circuit built from the pair is effectively homogeneous, hence
    integrable, and its level statistics collapse back to Poisson.  Two-gate
    ensembles must screen pairs on this number to stay honestly chaotic.
    """
    w = np.diag(gb.matrix @ ga.matrix.conj().T)
    mu = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    f = np.exp(1j * mu) * w[0] + (w[1] + w[2]) + np.exp(-1j * mu) * w[3]
    return float(np.abs(f).max()) / 4.0


def random_hopping_gate(rng):
    """Haar gate with a random corner-phase twist and mid-range hopping.

    Conditions the hopping weight |<01|g|10>|^2 on CHAOS_HOP_WINDOW.  Gates
    near the window are the fastest scramblers at accessible sizes: weak
    hopping stalls transport, strong hopping approaches the (integrable)
    swap.
    """
    lo, hi = CHAOS_HOP_WINDOW
    while True:
        g = random_mc_gate(int(rng.integers(2**63)))
        mat = magnetization_phase_gate(rng.uniform(0.0, 2.0 * np.pi)) @ g.matrix
        if lo <= abs(mat[1, 2]) ** 2 <= hi:
            return TwoQubitGate(mat)


def chaotic_gate_pair(seed):
    """Independent gate pair for a two-gate brickwall, screened for chaos.

    Both gates are hopping-conditioned draws from one generator; pairs that
    are equal up to magnetization phases (phase_modded_overlap above
    CHAOS_OVERLAP_MAX) are rejected and redrawn, see phase_modded_overlap.
    """
    rng = np.random.default_rng(seed)
    while True:
        ga = random_hopping_gate(rng)
        gb = random_hopping_gate(rng)
        if phase_modded_overlap(ga, gb) <= CHAOS_OVERLAP_MAX:
            return ga, gb
