"""Bipartition purity entanglement and its distribution over all cuts.

E = -log2 Tr rho_A^2 counts the effective number of entangled spins across a
cut; averaging over every unordered bipartition gives a multipartite
indicator whose variance is sensitive to the entanglement-sharing structure.

A rotation or reflection of the ring maps a cut to a cut of equal purity in
any state that it leaves unchanged.  So when one rotation and one reflection
each change the amplitudes by at most 1e-12 in the 2-norm, as for every ring
ground state, the statistics evaluate one cut per dihedral orbit of unordered
cuts and weight it by the orbit size (121 cuts instead of 2047 at N = 12).
Any other state takes every cut, each with weight 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import PureState
from .ring import _dihedral_orbits

#: A state is treated as dihedral-invariant when one rotation and one
#: reflection each move its amplitudes by at most this, in the 2-norm.
_INVARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class EntanglementStats:
    """Purity-entanglement statistics over all unordered bipartitions."""

    mean: float
    variance: float
    n_bipartitions: int

    def __post_init__(self):
        if self.variance < -1e-12:
            raise ValueError("variance cannot be negative")


def _normalize_subset(subset, n_sites: int) -> tuple:
    sites = tuple(sorted(set(int(s) for s in subset)))
    if any(s < 0 or s >= n_sites for s in sites):
        raise ValueError("subset contains sites outside the ring")
    if len(sites) == 0 or len(sites) == n_sites:
        raise ValueError("bipartition requires a nonempty proper subset")
    return sites


def bipartition_entanglement(gs: PureState, subset) -> float:
    """E = -log2 Tr rho_A^2 for the cut (subset, complement).

    The purity is computed from the Gram matrix of the reshaped amplitude
    tensor on the smaller side of the cut, so no 2^N x 2^N object is formed.
    """
    return _cut_entanglement(gs.as_tensor(), _normalize_subset(subset, gs.n_sites))


def _cut_entanglement(tensor: np.ndarray, sites: tuple) -> float:
    """E for the cut (sites, complement) of an amplitude tensor with one
    axis per site; ``sites`` must be sorted, distinct and a proper subset."""
    complement = tuple(s for s in range(tensor.ndim) if s not in sites)
    side = sites if len(sites) <= len(complement) else complement
    other = complement if side is sites else sites
    m = tensor.transpose(side + other).reshape(2 ** len(side), -1)
    gram = m @ m.conj().T
    purity = float(np.sum(np.abs(gram) ** 2))
    purity = min(max(purity, 2.0 ** (-len(side))), 1.0)
    return max(-math.log2(purity), 0.0)


def bipartitions(n_sites: int):
    """All unordered bipartitions as subsets containing site 0.

    Excluding complements halves the count; purity is complement-symmetric
    for pure global states, so nothing is lost.  Yields 2^(N-1) - 1 subsets.
    """
    rest = list(range(1, n_sites))
    for mask in range(2 ** (n_sites - 1) - 1):
        yield (0,) + tuple(rest[i] for i in range(n_sites - 1) if mask >> i & 1)


def _dihedral_invariant(tensor: np.ndarray) -> bool:
    """Whether one rotation and one reflection of the ring, which generate
    its dihedral group, each leave the amplitude tensor unchanged."""
    return all(np.linalg.norm(image - tensor) <= _INVARIANCE_TOL
               for image in (np.moveaxis(tensor, 0, -1), tensor.T))


@functools.lru_cache(maxsize=None)
def _cut_table(n_sites: int, invariant: bool) -> tuple[tuple, np.ndarray]:
    """Cuts to evaluate and the number of unordered cuts each stands for.

    Without invariance that is every cut of ``bipartitions``, weight 1.
    With it, a cut mask m (bit N-1-s for site s) and its complement share
    the key min(label[m], label[m ^ full]) of their dihedral orbits; each
    key keeps its first cut and counts its cuts.  The weights always sum to
    2^(N-1) - 1.
    """
    cuts = tuple(bipartitions(n_sites))
    if invariant:
        _, labels = _dihedral_orbits(n_sites)
        masks = np.array([sum(1 << (n_sites - 1 - s) for s in cut) for cut in cuts])
        keys = np.minimum(labels[masks], labels[masks ^ (2 ** n_sites - 1)])
        _, first, weights = np.unique(keys, return_index=True, return_counts=True)
        cuts = tuple(cuts[k] for k in first)
    else:
        weights = np.ones(len(cuts), dtype=int)
    # Every caller shares the cached table, so none may write to it.
    weights.setflags(write=False)
    return cuts, weights


def entanglement_stats(gs: PureState) -> EntanglementStats:
    """Mean and population variance of E over all unordered bipartitions,
    from one cut per orbit of cuts when the state is dihedral-invariant."""
    tensor = gs.as_tensor()
    cuts, weights = _cut_table(gs.n_sites, _dihedral_invariant(tensor))
    values = np.array([_cut_entanglement(tensor, cut) for cut in cuts])
    mean = np.average(values, weights=weights)
    return EntanglementStats(
        mean=float(mean),
        variance=float(np.average((values - mean) ** 2, weights=weights)),
        n_bipartitions=int(weights.sum()),
    )
