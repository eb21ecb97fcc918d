"""Bipartition purity entanglement and its distribution over all cuts.

E = -log2 Tr rho_A^2 counts the effective number of entangled spins across a
cut; averaging over every unordered bipartition gives a multipartite
indicator whose variance is sensitive to the entanglement-sharing structure.

The statistics take each cut from the reduced state of its smaller side and
build those states by a depth-first descent.  Its roots are the sides of
floor(N/2) sites: at even N those that hold site 0 (the others are their
complements), at odd N all of them.  Each root costs one Gram product
m m^dagger of the reshaped amplitude tensor; every smaller side is its
parent's reduced state with one site traced out, a reshape and a sum of two
slices.  The descent holds one reduced state per level, at most floor(N/2).

A rotation or reflection of the ring maps a cut to a cut of equal purity in
any state that it leaves unchanged.  So when one rotation and one reflection
each change the amplitudes by at most 1e-12 in the 2-norm, as for every ring
ground state, the descent takes one root per dihedral orbit of roots,
visits one cut per dihedral orbit of unordered cuts and weights it by the
orbit size (121 cuts from 50 Gram products instead of 2047 at N = 12).  Any
other state visits every cut, each with weight 1 (2047 cuts from 462 Gram
products at N = 12).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import PureState, _gram
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


def _entanglement(rho: np.ndarray) -> float:
    """E = -log2 Tr rho^2 of a reduced state, the purity clipped to its
    range [1/d, 1]."""
    purity = min(max(np.vdot(rho, rho).real, 1.0 / rho.shape[0]), 1.0)
    return max(-math.log2(purity), 0.0)


def bipartition_entanglement(gs: PureState, subset) -> float:
    """E = -log2 Tr rho_A^2 for the cut (subset, complement).

    The purity is computed from the Gram matrix of the reshaped amplitude
    tensor on the smaller side of the cut, so no 2^N x 2^N object is formed.
    """
    n = gs.n_sites
    sites = _normalize_subset(subset, n)
    if 2 * len(sites) > n:
        sites = tuple(s for s in range(n) if s not in sites)
    return _entanglement(_gram(gs.as_tensor(), sites))


def _trace_site(rho: np.ndarray, j: int) -> np.ndarray:
    """A reduced state on k sites with its j-th site traced out: a reshape
    and a sum of two slices."""
    a = 2 ** j
    b = rho.shape[0] // (2 * a)
    r = rho.reshape(a, 2, b, a, 2, b)
    return (r[:, 0, :, :, 0] + r[:, 1, :, :, 1]).reshape(a * b, a * b)


def _dihedral_invariant(tensor: np.ndarray) -> bool:
    """Whether one rotation and one reflection of the ring, which generate
    its dihedral group, each leave the amplitude tensor unchanged."""
    return all(np.linalg.norm(image - tensor) <= _INVARIANCE_TOL
               for image in (np.moveaxis(tensor, 0, -1), tensor.T))


@functools.lru_cache(maxsize=None)
def _cut_table(n_sites: int, invariant: bool) -> tuple[tuple, tuple, tuple]:
    """Keys, weights and descent roots for the cuts of an N-site ring.

    A side is a site mask (bit N-1-s for site s).  ``keys[side]`` names the
    cut the side makes: the mask of its side that holds site 0, or with
    invariance min(label[side], label[complement]) of its dihedral orbits.
    ``weights[key]`` counts the unordered cuts with that key, so the weights
    of the distinct keys sum to 2^(N-1) - 1.  The roots are the sides of
    floor(N/2) sites (at even N those holding site 0) as (mask, sorted site
    tuple) pairs; with invariance, one per dihedral orbit of sides.
    Complements are not merged there: at even N a half side and its
    complement share a key but have different subsets, and keeping only one
    of them per key can leave cuts unreached (an orbit of 12 cuts at N = 12).
    """
    n, full = n_sites, 2 ** n_sites - 1
    sides = np.arange(2 ** n)
    if invariant:
        _, labels = _dihedral_orbits(n)
        keys = np.minimum(labels, labels[sides ^ full])
    else:
        keys = np.where(sides >> (n - 1) & 1, sides, sides ^ full)
    # The cuts, once each: masks that hold site 0 and are not the full ring.
    weights = np.bincount(keys[2 ** (n - 1):full], minlength=keys.max() + 1)
    popcount = sum((sides >> k) & 1 for k in range(n))
    roots = sides[popcount == n // 2]
    if n % 2 == 0:
        roots = roots[roots >> (n - 1) & 1 == 1]
    if invariant:
        roots = roots[np.unique(labels[roots], return_index=True)[1]]
    roots = tuple((root, tuple(s for s in range(n) if root >> (n - 1 - s) & 1))
                  for root in roots.tolist())
    # Every caller shares the cached table, so it is made of tuples.
    return tuple(keys.tolist()), tuple(weights.tolist()), roots


def entanglement_stats(gs: PureState) -> EntanglementStats:
    """Mean and population variance of E over all unordered bipartitions.

    Each cut key of ``_cut_table`` is visited once, from the reduced state of
    its smaller side: a root's Gram product or a one-site partial trace of
    the side above it in the descent.
    """
    n = gs.n_sites
    if n < 2:
        raise ValueError("a one-site state has no bipartition")
    tensor = gs.as_tensor()
    keys, weights, roots = _cut_table(n, _dihedral_invariant(tensor))
    seen, values, counts = set(), [], []

    def visit(rho, sites, mask):
        key = keys[mask]
        if key not in seen:
            seen.add(key)
            values.append(_entanglement(rho))
            counts.append(weights[key])
        if len(sites) > 1:
            descend(rho, sites, mask)

    def descend(rho, sites, mask):
        for j, s in enumerate(sites):
            child = mask ^ (1 << (n - 1 - s))
            if keys[child] in seen:
                # Its key was visited, and with it every smaller side of
                # the same site set or of one of its dihedral images.
                continue
            visit(_trace_site(rho, j), sites[:j] + sites[j + 1:], child)

    for mask, sites in roots:
        visit(_gram(tensor, sites), sites, mask)
    values, counts = np.array(values), np.array(counts)
    mean = np.average(values, weights=counts)
    return EntanglementStats(
        mean=float(mean),
        variance=float(np.average((values - mean) ** 2, weights=counts)),
        n_bipartitions=int(counts.sum()),
    )
