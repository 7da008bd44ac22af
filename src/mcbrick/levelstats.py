"""Symmetry-resolved eigenphase statistics of brickwork propagators.

Eigenphases of a Floquet unitary are uniformly dense on the circle, so no
unfolding beyond a global rescaling is ever needed: the circular gaps of
the sorted phases, scaled to unit mean, are the spacings.  Statistics are
meaningful only after every commuting symmetry has been resolved;
magnetization and (for rings) two-site momentum come from SectorBasis,
and homogeneous rings additionally carry a space-time symmetry.  For the
latter we take K = S (odd layer), with S the one-site shift.  K commutes
with the period U and obeys K^2 = S^2 U, so K eigenvectors refine each
(m, k) block into two halves labeled by which of the two square-root
branches the K phase sits on.  This concrete operator is one choice of
the construction and is flagged as such in result metadata.

Homogeneous circuits whose gate has equal corner phases (<00|g|00> =
<11|g|11>, which includes every gate drawn from the Haar family) carry
one more unitary Z2: the global spin flip composed with the site
reflection j -> L-1-j.  It maps magnetization m to -m and momentum k to
-k, so it acts within a sector only at m = 0 (and, on rings, at
self-conjugate k); there it must be split as well, or its two parities
sit on top of each other and fake extra degeneracies.  resolved_spectra
applies every refinement that is detected to hold.

Reference points: uncorrelated phases give mean gap ratio 2 ln 2 - 1, the
orthogonal class (circuits with an antiunitary symmetry, e.g. open
boundaries) about 0.53, the unitary class about 0.60.  Matching reference
samplers and the three surmise curves are provided for calibration.
"""

import numpy as np
from dataclasses import dataclass, field

from .core import (
    Operator,
    build_propagator,
    build_sector_block,
    check_sector_column,
    sector_basis,
    sector_operators,
    sector_states,
    sector_step,
    translation_permutation,
)
from .errors import CapacityError, ParameterError, SymmetryError
from .gates import TwoQubitGate, magnetization_phase_gate, random_mc_gate

__all__ = [
    "R_TILDE_POISSON",
    "R_TILDE_COE",
    "R_TILDE_CUE",
    "SpectrumResult",
    "SpacingHistogram",
    "spacing_ratios",
    "scaled_spacings",
    "pooled_r_tilde",
    "is_homogeneous",
    "sector_spectrum",
    "flip_reflection_permutation",
    "resolved_spectra",
    "full_spectrum",
    "reference_curve",
    "spacing_histogram",
    "sample_poisson_phases",
    "sample_cue_phases",
    "sample_coe_phases",
    "pooled_ratios",
    "pooled_spacings",
    "phase_modded_overlap",
    "random_hopping_gate",
    "chaotic_gate_pair",
]

R_TILDE_POISSON = 2.0 * np.log(2.0) - 1.0
R_TILDE_COE = 0.5307
R_TILDE_CUE = 0.5996

SECTOR_DIM_MAX = 5000
BLOCK_UNITARITY_TOL = 1e-10

_SPACETIME_NOTE = "K = shift * odd layer, K^2 = S^2 U; one concrete choice"


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
    """Eigenphases of one resolved block, with spacings and gap-ratio mean."""

    L: int
    boundary: str
    m: object
    k: object = None
    spacetime_block: object = None
    flip_parity: object = None
    eigenphases: np.ndarray = None
    spacings: np.ndarray = None
    r_tilde: float = np.nan
    metadata: dict = field(default_factory=dict)

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


def _result_from_phases(phases, L, boundary, m, k=None, st=None, fp=None, metadata=None):
    ph = np.sort(np.asarray(phases, dtype=float) % (2 * np.pi))
    ratios = spacing_ratios(ph)
    return SpectrumResult(
        L=L,
        boundary=boundary,
        m=m,
        k=k,
        spacetime_block=st,
        flip_parity=fp,
        eigenphases=ph,
        spacings=scaled_spacings(ph),
        r_tilde=float(ratios.mean()) if ratios.size else np.nan,
        metadata=metadata or {},
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


def is_homogeneous(circuit, tol=1e-12):
    mats = [u for layer in circuit.layers for u in layer]
    return all(np.abs(m - mats[0]).max() <= tol for m in mats[1:])


def _checked_phases(block, what):
    defect = block.unitarity_defect()
    if defect > BLOCK_UNITARITY_TOL:
        raise SymmetryError(
            f"{what} block is not unitary (defect {defect:.3e}); "
            "the circuit does not respect the requested resolution",
            residual=float(defect),
        )
    return np.angle(np.linalg.eigvals(block.entries)) % (2 * np.pi)


def sector_spectrum(circuit, m, k=None):
    """Eigenphases of the propagator restricted to one symmetry block.

    k resolves two-site momentum (rings only).  resolved_spectra applies
    the further refinements (space-time branch, flip-reflection parity).
    """
    if k is not None and circuit.boundary != "periodic":
        raise ParameterError("momentum resolution requires a periodic circuit")
    basis = sector_basis(circuit.L, m, k)
    if basis.dim > SECTOR_DIM_MAX:
        raise CapacityError(
            f"sector dimension {basis.dim} exceeds dense limit {SECTOR_DIM_MAX}"
        )
    if basis.dim == 0:
        return _result_from_phases(np.zeros(0), circuit.L, circuit.boundary, m, k)
    block = build_sector_block(circuit, basis)
    phases = _checked_phases(block, "sector")
    return _result_from_phases(phases, circuit.L, circuit.boundary, m, k)


def _apply_k(circuit, vec):
    """K|v> = S (odd layer) |v>, matrix-free; the odd layer is layers[0]."""
    from .core import apply_gate

    out = vec
    for g, bond in circuit.layer(0):
        out = apply_gate(out, g, bond, circuit.L, circuit.boundary)
    perm = translation_permutation(circuit.L, 1)
    shifted = np.empty_like(out)
    shifted[perm] = out
    return shifted


def _k_block(circuit, basis):
    """Restriction of K = S * (odd layer) to a sector basis.

    The odd layer acts inside the magnetization sector on all basis columns
    at once (core.sector_step).  The shift S only relabels sector rows,
    row i going to the row of S|states[i]>, so it is applied to the sparse
    W^dag instead of moving the dense array.  Column 0 is checked against
    the full-space _apply_k, and the block must be unitary.
    """
    L, m = circuit.L, basis.magnetization
    states = sector_states(L, m)
    w = basis.vectors[states, :]
    x = sector_step(sector_operators(circuit.layer(0), L, m), w.toarray())
    shifted = np.searchsorted(states, translation_permutation(L, 1)[states])
    if basis.dim:
        col = np.empty(len(states), dtype=complex)
        col[shifted] = x[:, 0]
        v0 = basis.vectors[:, [0]].toarray().ravel()
        check_sector_column(_apply_k(circuit, v0), col, states, "space-time")
    kb = Operator(w[shifted, :].conj().T @ x, label="K block", unitary=True)
    defect = kb.unitarity_defect()
    if defect > BLOCK_UNITARITY_TOL:
        raise SymmetryError(
            f"space-time block is not unitary (defect {defect:.3e})",
            residual=float(defect),
        )
    return kb


def _branch_phases(ub_entries, kb_entries, theta2):
    """Propagator eigenphases with K-branch parities, from block matrices.

    K^2 = S^2 U and S^2 is the scalar exp(i theta2) on an (m, k) block, so
    each U eigenphase phi lifts to kappa = theta2/2 + phi/2 + pi * p.
    """
    vals, vecs = np.linalg.eig(kb_entries)
    phi = np.angle(np.einsum("ij,ij->j", vecs.conj(), ub_entries @ vecs)) % (2 * np.pi)
    kappa = np.angle(vals) % (2 * np.pi)
    branch = (kappa - 0.5 * theta2 - 0.5 * phi) / np.pi
    parities = np.rint(branch).astype(int) % 2
    # the branch offsets must sit on integers, else the labels are meaningless
    drift = np.abs(branch - np.rint(branch)).max() if branch.size else 0.0
    if drift > 1e-6:
        raise SymmetryError(
            f"space-time branch labels drift off integers ({drift:.3e})",
            residual=float(drift),
        )
    return phi, parities


def flip_reflection_permutation(L):
    """Basis-index map of the global spin flip * site reflection j -> L-1-j.

    An involution: bit-reverse the L-bit word (site 0 is the most
    significant bit, so reversal is the reflection) and complement it.
    """
    n = np.arange(1 << L)
    rev = np.zeros_like(n)
    for _ in range(L):
        rev = (rev << 1) | (n & 1)
        n >>= 1
    return rev ^ ((1 << L) - 1)


def _flip_reflection_block(basis, tol=BLOCK_UNITARITY_TOL):
    """Restriction of flip * reflection to a sector basis, or None.

    The operation sends m to -m and k to -k, so it closes on a sector only
    at m = 0 (and self-conjugate k on rings); elsewhere the restriction is
    not unitary and None is returned.
    """
    perm = flip_reflection_permutation(basis.L)
    w = basis.vectors
    xp = (w.conj().T @ w[perm, :]).toarray()
    defect = np.abs(xp.conj().T @ xp - np.eye(basis.dim)).max()
    if defect > tol:
        return None
    return xp


def resolved_spectra(circuit, m, k=None, tol=1e-9):
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
    if k is not None and circuit.boundary != "periodic":
        raise ParameterError("momentum resolution requires a periodic circuit")
    basis = sector_basis(circuit.L, m, k)
    if basis.dim > SECTOR_DIM_MAX:
        raise CapacityError(
            f"sector dimension {basis.dim} exceeds dense limit {SECTOR_DIM_MAX}"
        )
    if basis.dim == 0:
        return []
    ub = build_sector_block(circuit, basis)
    if ub.unitarity_defect() > BLOCK_UNITARITY_TOL:
        raise SymmetryError(
            "sector block is not unitary; the circuit does not respect "
            "the requested resolution",
            residual=float(ub.unitarity_defect()),
        )

    xp = _flip_reflection_block(basis)
    if xp is not None and np.abs(xp @ ub.entries - ub.entries @ xp).max() > tol:
        xp = None

    ring = circuit.boundary == "periodic" and is_homogeneous(circuit)
    kb = _k_block(circuit, basis) if (ring and k is not None) else None

    meta = {"resolved": ["magnetization"]}
    if k is not None:
        meta["resolved"].append("momentum")
    if kb is not None:
        meta["resolved"].append("spacetime-branch")
        meta["spacetime_construction"] = _SPACETIME_NOTE
    if xp is not None:
        meta["resolved"].append("flip-reflection-parity")

    def result(phases, st=None, fp=None):
        return _result_from_phases(
            phases, circuit.L, circuit.boundary, m, k, st=st, fp=fp,
            metadata=dict(meta),
        )

    if kb is None and xp is None:
        return [result(_checked_phases(ub, "sector"))]

    theta2 = 0.0 if k is None else 2 * np.pi * basis.momentum / (circuit.L // 2)
    if kb is None:
        return [result(np.angle(np.linalg.eigvals(wsub.conj().T @ ub.entries @ wsub))
                       % (2 * np.pi), fp=sign)
                for sign, wsub in _parity_vectors(xp)]
    if xp is None or np.abs(xp @ kb.entries - kb.entries @ xp).max() > tol:
        # either no flip parity here, or it exchanges the K branches
        phi, par = _branch_phases(ub.entries, kb.entries, theta2)
        return [result(phi[par == p], st=p) for p in (0, 1)]
    out = []
    for sign, wsub in _parity_vectors(xp):
        ub_s = wsub.conj().T @ ub.entries @ wsub
        kb_s = wsub.conj().T @ kb.entries @ wsub
        phi, par = _branch_phases(ub_s, kb_s, theta2)
        out.extend(result(phi[par == p], st=p, fp=sign) for p in (0, 1))
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
    """Eigenphases of the whole propagator, no resolution (negative control)."""
    op = build_propagator(circuit)
    phases = _checked_phases(op, "full")
    return _result_from_phases(phases, circuit.L, circuit.boundary, None, None)


def reference_curve(name, s):
    """Spacing density of the named reference on the grid s."""
    s = np.asarray(s, dtype=float)
    if name == "poisson":
        return np.exp(-s)
    if name == "coe":
        return 0.5 * np.pi * s * np.exp(-0.25 * np.pi * s * s)
    if name == "cue":
        return (32.0 / np.pi**2) * s * s * np.exp(-4.0 * s * s / np.pi)
    raise ParameterError(f"unknown reference {name!r}")


@dataclass
class SpacingHistogram:
    bin_edges: np.ndarray
    density: np.ndarray
    references: dict
    tv_distance: dict
    few_phases: bool = False

    def closest_reference(self):
        return min(self.tv_distance, key=self.tv_distance.get)


def spacing_histogram(result, bins=32, s_max=5.0):
    """Normalized spacing histogram with the three reference curves.

    Spacings can come from a SpectrumResult or a raw array.  Fewer than
    200 phases sets few_phases instead of failing.  tv_distance holds the
    total-variation distance to each reference on the same grid.
    """
    s = result.spacings if isinstance(result, SpectrumResult) else np.asarray(result)
    few = s.size < 200
    density, edges = np.histogram(s, bins=bins, range=(0.0, s_max), density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    widths = np.diff(edges)
    refs = {n: reference_curve(n, centers) for n in ("poisson", "coe", "cue")}
    tv = {
        n: float(0.5 * np.sum(np.abs(density - c) * widths)) for n, c in refs.items()
    }
    return SpacingHistogram(edges, density, refs, tv, few_phases=few)


def sample_poisson_phases(n, seed=0):
    """i.i.d. uniform phases: the uncorrelated reference."""
    return np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=n)


def sample_cue_phases(dim, n_matrices, seed=0):
    """Eigenphases of Haar unitaries (unitary class reference).

    One sorted array per matrix: spacings and ratios carry the level
    correlations, so they must be computed per spectrum and only then
    pooled; see pooled_ratios / pooled_spacings.
    """
    from scipy.stats import unitary_group

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_matrices):
        u = unitary_group.rvs(dim, random_state=rng)
        out.append(np.sort(np.angle(np.linalg.eigvals(u)) % (2 * np.pi)))
    return out


def sample_coe_phases(dim, n_matrices, seed=0):
    """Eigenphases of symmetric unitaries V V^T (orthogonal class).

    Same per-matrix layout as sample_cue_phases.
    """
    from scipy.stats import unitary_group

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_matrices):
        v = unitary_group.rvs(dim, random_state=rng)
        out.append(np.sort(np.angle(np.linalg.eigvals(v @ v.T)) % (2 * np.pi)))
    return out


def pooled_ratios(phase_sets):
    """Gap ratios computed per spectrum, then pooled."""
    return np.concatenate([spacing_ratios(p) for p in phase_sets])


def pooled_spacings(phase_sets):
    """Unit-mean spacings computed per spectrum, then pooled."""
    return np.concatenate([scaled_spacings(p) for p in phase_sets])


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


def random_hopping_gate(rng, hop_window=CHAOS_HOP_WINDOW):
    """Haar gate with a random corner-phase twist and mid-range hopping.

    Conditions the hopping weight |<01|g|10>|^2 on hop_window.  Gates near
    the window are the fastest scramblers at accessible sizes: weak hopping
    stalls transport, strong hopping approaches the (integrable) swap.
    """
    lo, hi = hop_window
    while True:
        g = random_mc_gate(int(rng.integers(2**63)))
        mat = magnetization_phase_gate(rng.uniform(0.0, 2.0 * np.pi)) @ g.matrix
        if lo <= abs(mat[1, 2]) ** 2 <= hi:
            return TwoQubitGate(mat, provenance="hopping-conditioned")


def chaotic_gate_pair(seed, hop_window=CHAOS_HOP_WINDOW, max_overlap=CHAOS_OVERLAP_MAX):
    """Independent gate pair for a two-gate brickwall, screened for chaos.

    Both gates are hopping-conditioned draws from one generator; pairs that
    are equal up to magnetization phases (phase_modded_overlap above
    max_overlap) are rejected and redrawn, see phase_modded_overlap.
    """
    rng = np.random.default_rng(seed)
    while True:
        ga = random_hopping_gate(rng, hop_window)
        gb = random_hopping_gate(rng, hop_window)
        if phase_modded_overlap(ga, gb) <= max_overlap:
            return ga, gb
