"""Bipartition purity entanglement and its distribution over all cuts.

E = -log2 Tr rho_A^2 counts the effective number of entangled spins across a
cut; averaging over every unordered bipartition gives a multipartite
indicator whose variance is sensitive to the entanglement-sharing structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import PureState


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


def entanglement_stats(gs: PureState) -> EntanglementStats:
    """Mean and population variance of E over all unordered bipartitions."""
    tensor = gs.as_tensor()
    values = np.array([_cut_entanglement(tensor, cut)
                       for cut in bipartitions(gs.n_sites)])
    return EntanglementStats(
        mean=float(values.mean()),
        variance=float(values.var()),
        n_bipartitions=values.size,
    )
