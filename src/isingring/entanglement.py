"""Bipartition purity entanglement and its distribution over all cuts.

E = -log2 Tr rho_A^2 counts the effective number of entangled spins across a
cut; averaging over every unordered bipartition gives a multipartite
indicator whose variance is sensitive to the entanglement-sharing structure.

The statistics take each cut from the reduced state of its smaller side and
build those states by a depth-first descent from the half sides, of
floor(N/2) sites: at even N those that hold site 0 (the others are their
complements), at odd N all of them.  The Gram products of the reshaped
amplitude tensor are taken on sides one site larger, of floor(N/2) + 1
sites, picked so that each half side is one site short of one of them; a
half side is then its root's reduced state with one site traced out, a
reshape and a sum of two slices, and so is every smaller side, from its
parent.  A root costs twice a half side's Gram product but stands for up to
floor(N/2) + 1 of them: at N = 12, 110 roots instead of 462 products.

Every reduced state rho is carried as one real matrix, T = Re rho + Im rho.
Re rho is symmetric and Im rho antisymmetric, so sum T_ij^2 = Tr rho^2, and
a partial trace of T is the T of the child.  With the reshaped tensor
m = A + iB, T = [A | B] [A - B | A + B]^T, one real product with half the
real multiply-adds of m m^dagger: 115M against 231M for the roots at
N = 12.  A real state, such as a ring ground state, has T = rho = m m^T.
The descent depends on N and the symmetry alone, so it is planned once per
ring size and replayed holding one reduced state per level, floor(N/2) + 1
levels, in buffers allocated once per call; one batched log turns the
purities into E.

A rotation or reflection of the ring maps a cut to a cut of equal purity in
any state that it leaves unchanged.  So when one rotation and one reflection
each change the amplitudes by at most 1e-12 in the 2-norm, as for every ring
ground state, the descent needs one half side per dihedral orbit, visits
one cut per dihedral orbit of unordered cuts and weights it by the orbit
size (121 cuts from 9 Gram products instead of 2047 at N = 12).  Any other
state visits every cut, each with weight 1 (2047 cuts from 110 Gram
products at N = 12).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .density import PureState
from .errors import _check_integer
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
    sites = tuple(sorted(set(_check_integer("site", s) for s in subset)))
    if any(s < 0 or s >= n_sites for s in sites):
        raise ValueError("subset contains sites outside the ring")
    if len(sites) == 0 or len(sites) == n_sites:
        raise ValueError("bipartition requires a nonempty proper subset")
    return sites


def _folded_gram(tensor: np.ndarray, side: tuple) -> np.ndarray:
    """T = Re rho + Im rho of the reduced state rho on the sites ``side``
    (in that register order): with the reshaped tensor m = A + iB,
    T = A(A - B)^T + B(A + B)^T, one real product; a real m gives m m^T."""
    other = tuple(s for s in range(tensor.ndim) if s not in side)
    m = tensor.transpose(side + other).reshape(2 ** len(side), -1)
    if not np.iscomplexobj(m):
        return m @ m.T
    a, b = m.real, m.imag
    return np.concatenate([a, b], axis=1) @ np.concatenate([a - b, a + b], axis=1).T


def _entanglement(purities, dims) -> np.ndarray:
    """E = -log2 Tr rho^2 from purities clipped to their range [1/d, 1]."""
    return -np.log2(np.clip(purities, 1.0 / np.asarray(dims), 1.0))


def bipartition_entanglement(gs: PureState, subset) -> float:
    """E = -log2 Tr rho_A^2 for the cut (subset, complement).

    The purity is computed from the folded Gram matrix of the reshaped
    tensor on the smaller side of the cut: no 2^N x 2^N object is formed.
    """
    n = gs.n_sites
    sites = _normalize_subset(subset, n)
    if 2 * len(sites) > n:
        sites = tuple(s for s in range(n) if s not in sites)
    rho = _folded_gram(gs.as_tensor(), sites)
    return float(_entanglement(np.vdot(rho, rho), len(rho)))


def _trace_site(rho: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """A reduced state on k sites with its j-th site traced out, a reshape
    and a sum of two slices, written into ``out`` of the child's shape."""
    a = 2 ** j
    b = rho.shape[0] // (2 * a)
    r = rho.reshape(a, 2, b, a, 2, b)
    np.add(r[:, 0, :, :, 0], r[:, 1, :, :, 1], out=out.reshape(a, b, a, b))
    return out


def _dihedral_invariant(tensor: np.ndarray) -> bool:
    """Whether one rotation and one reflection of the ring, which generate
    its dihedral group, each leave the amplitude tensor unchanged."""
    return all(np.linalg.norm(image - tensor) <= _INVARIANCE_TOL
               for image in (np.moveaxis(tensor, 0, -1), tensor.T))


def _cover(n: int, labels: np.ndarray, popcount: np.ndarray,
           halves: np.ndarray) -> list[tuple[int, tuple, list]]:
    """Greedy max-coverage of the half sides by sides one site larger.

    ``halves`` holds one side per needed label.  A side R of floor(N/2) + 1
    sites covers the labels of the half sides R minus one site, each once.
    Each pass picks the candidate covering the most labels not yet covered,
    the first on a tie, so the cover depends on N and ``labels`` alone.
    Returns (mask, sorted sites, positions j of the sites whose removal
    gives a newly covered half side) per root, in the order picked.
    """
    sides = np.arange(2 ** n)
    slot = np.full(labels.max() + 1, -1)
    slot[labels[halves]] = np.arange(halves.size)
    # One candidate per label: a dihedral image covers the same labels.
    candidates = sides[popcount == n // 2 + 1]
    candidates = candidates[np.unique(labels[candidates], return_index=True)[1]]
    bits = 1 << np.arange(n - 1, -1, -1)
    sites = np.nonzero(candidates[:, None] & bits)[1].reshape(candidates.size, -1)
    covers = slot[labels[candidates[:, None] ^ bits[sites]]]
    for j in range(1, covers.shape[1]):
        # A label met twice in one candidate is covered, and handed down, once.
        covers[(covers[:, :j] == covers[:, j:j + 1]).any(axis=1), j] = -1
    # Slot -1, the last entry, stands for a half side no one needs.
    open_ = np.ones(halves.size + 1, dtype=bool)
    open_[-1] = False
    roots = []
    while open_.any():
        best = int(np.argmax(open_[covers].sum(axis=1)))
        handed = np.flatnonzero(open_[covers[best]])
        open_[covers[best, handed]] = False
        roots.append((int(candidates[best]), tuple(sites[best].tolist()),
                      handed.tolist()))
    return roots


@functools.lru_cache(maxsize=None)
def _cut_table(n_sites: int, invariant: bool) -> tuple[tuple, np.ndarray]:
    """The descent plan for the cuts of an N-site ring, and its weights.

    A side is a site mask (bit N-1-s for site s).  The planning names the
    cut a side makes by its key, min(labels[side], labels[complement]),
    with the dihedral orbit labels of ``_dihedral_orbits`` under invariance
    and ``labels[side] = side`` otherwise, and weights each key by the
    number of unordered cuts that have it, so the weights of the distinct
    keys sum to 2^(N-1) - 1.  Only the plan and the weights it visits are
    kept.

    The descent needs the half sides, of floor(N/2) sites: at even N those
    holding site 0 (the others are their complements), at odd N all of
    them; with invariance, one per dihedral orbit of sides.  Complements are
    not merged there: at even N a half side and its complement share a key
    but have different subsets, and keeping only one of them per key can
    leave cuts unreached (an orbit of 12 cuts at N = 12).  The Gram roots
    are sides of floor(N/2) + 1 sites, chosen by ``_cover`` so that every
    needed half side is one site short of a root or of a dihedral image of
    one: 110 roots for 462 half sides at N = 12, and 13 for 50 with
    invariance.  Each root hands each half side it covers to the descent
    through one partial trace; the descent then takes, depth first, every
    side one site smaller whose key it has not met, and skips the rest with
    their subtrees.  The order depends on (N, invariant) alone, so the
    descent is stored as a plan: per root its sorted sites and steps
    (parent level, traced site j, weight), the root at level 0 and a step's
    child at parent level + 1, so floor(N/2) + 1 levels in all.  A step of
    weight 0 is a half side whose key an earlier side took, kept for the
    sides below it; one with none below is dropped, and so is a root left
    with no step (9 of the 13 remain at N = 12).  ``counts`` holds the
    weights of the steps that have one, in plan order.
    """
    n, full = n_sites, 2 ** n_sites - 1
    sides = np.arange(2 ** n)
    popcount = sum((sides >> k) & 1 for k in range(n))
    labels = _dihedral_orbits(n)[0] if invariant else sides
    keys = np.minimum(labels, labels[sides ^ full])
    # The cuts, once each: masks that hold site 0 and are not the full ring.
    weights = np.bincount(keys[2 ** (n - 1):full], minlength=keys.max() + 1)
    halves = sides[popcount == n // 2]
    if n % 2 == 0:
        halves = halves[halves >> (n - 1) & 1 == 1]
    halves = halves[np.unique(labels[halves], return_index=True)[1]]
    roots = _cover(n, labels, popcount, halves)
    keys, weights = keys.tolist(), weights.tolist()
    seen, plan = set(), []
    for mask, sites, handed in roots:
        steps = []
        for j in handed:
            half = mask ^ (1 << (n - 1 - sites[j]))
            weight = 0 if keys[half] in seen else weights[keys[half]]
            seen.add(keys[half])
            steps.append((0, j, weight))
            # Depth first, on a stack of (level, sites, side, next site).
            stack = [(1, sites[:j] + sites[j + 1:], half, 0)]
            while stack:
                level, rest, side, i = stack.pop()
                child = side ^ (1 << (n - 1 - rest[i]))
                if i + 1 < len(rest):
                    stack.append((level, rest, side, i + 1))
                if child and keys[child] not in seen:
                    # Else it is the empty side, or its key was met, and with
                    # it every smaller side of the same site set or of one of
                    # its dihedral images.
                    seen.add(keys[child])
                    steps.append((level, i, weights[keys[child]]))
                    stack.append((level + 1, rest[:i] + rest[i + 1:], child, 0))
            if steps[-1] == (0, j, 0):
                steps.pop()
        if steps:
            plan.append((sites, tuple(steps)))
    # Every caller shares the cached table, so it is made of tuples and a
    # read-only array; the keys and weights are dropped once planned.
    counts = np.array([w for _, steps in plan for _, _, w in steps if w])
    counts.setflags(write=False)
    return tuple(plan), counts


def entanglement_stats(gs: PureState) -> EntanglementStats:
    """Mean and population variance of E over all unordered bipartitions.

    Each cut key of ``_cut_table`` is taken once, from the reduced state of
    its smaller side, by the plan stored there: per root one folded Gram
    product, then one partial trace per step, into the buffer of its level.
    """
    n = gs.n_sites
    if n < 2:
        raise ValueError("a one-site state has no bipartition")
    tensor = gs.as_tensor()
    plan, counts = _cut_table(n, _dihedral_invariant(tensor))
    levels = [None] + [np.empty((2 ** k, 2 ** k)) for k in range(n // 2, 0, -1)]
    purities, dims = [], []
    for sites, steps in plan:
        levels[0] = _folded_gram(tensor, sites)
        for parent, j, weight in steps:
            rho = _trace_site(levels[parent], j, levels[parent + 1])
            if weight:
                purities.append(np.vdot(rho, rho))
                dims.append(len(rho))
    values = _entanglement(purities, dims)
    mean = np.average(values, weights=counts)
    return EntanglementStats(
        mean=float(mean),
        variance=float(np.average((values - mean) ** 2, weights=counts)),
        n_bipartitions=int(counts.sum()),
    )
