"""Transverse-field Ising ring: model, exact ground state, reference states.

The model is ``H = -J sum_n sx_n sx_{n+1} + B sum_n sz_n`` with cyclic
boundaries (site N+1 = site 1) and ``J >= 0``.  The exact ground state is
found in its symmetric sector: for ``J >= 0`` every off-diagonal element of H
in the sigma^z basis is ``-J <= 0``, so by Perron-Frobenius the lowest state
of each parity sector of ``prod_n sz_n`` is nondegenerate with positive
amplitudes, hence invariant under the rotations and reflections of the ring.
Only the block of H spanned by the dihedral orbit states of configurations is
diagonalized (224 orbits instead of 4096 states at N = 12).

``ground_state`` returns its state as a ``_GroundState``, a ``PureState``
that global discord may certify; no state built any other way is one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import PureState
from .errors import CapacityError, EigensolverError, _check_integer

#: Largest ring accepted.  Ground states are stored as full 2**N amplitude
#: vectors and every measure works on them, so the measures, not the
#: symmetric-sector solve, set this limit.
MAX_SITES = 12

#: The odd-parity sector wins only if its energy is lower by more than this,
#: so a degenerate doublet (e.g. at B = 0) resolves to the even-parity state.
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class RingConfig:
    """Problem definition: ring size and dimensionless couplings."""

    n_sites: int
    coupling_j: float = 1.0
    field_b: float = 0.0

    def __post_init__(self):
        if _check_integer("n_sites", self.n_sites) < 2:
            raise ValueError("ring needs at least 2 sites")
        if self.n_sites > MAX_SITES:
            raise CapacityError(
                f"n_sites={self.n_sites} exceeds capacity {MAX_SITES}"
            )
        if not (math.isfinite(self.coupling_j) and math.isfinite(self.field_b)):
            raise ValueError("coupling_j and field_b must be finite")
        if self.coupling_j < 0:
            raise ValueError(
                "coupling_j must be non-negative (ferromagnetic or zero)"
            )
        if self.field_b < 0:
            raise ValueError("field_b must be non-negative")


@functools.lru_cache(maxsize=None)
def _dihedral_orbits(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Configuration tables of one ring size (depend on N only).

    Bit ``n`` of a configuration index (most significant first) encodes site
    ``n``, with bit 0 meaning spin-up.  Under the rotations and reflections
    of the ring, ``reps[labels[x]]`` is the smallest index among all
    rotations of ``x`` and of its mirror image, and ``reps`` is sorted, so
    comparing labels compares representatives.  ``popcount[x]`` counts the
    down spins of ``x``.  ``x ^ flips[b]`` is ``x`` with the two spins of
    bond ``b`` flipped; for N = 2 both bonds flip the same pair, so that
    coupling enters with weight 2J.
    """
    n = n_sites
    idx = np.arange(2 ** n)
    reversed_idx = sum(((idx >> k) & 1) << (n - 1 - k) for k in range(n))
    rep = idx.copy()
    for word in (idx, reversed_idx):
        for k in range(n):
            np.minimum(rep, ((word << k) | (word >> (n - k))) & (2 ** n - 1), out=rep)
    reps, labels = np.unique(rep, return_inverse=True)
    popcount = sum((idx >> k) & 1 for k in range(n))
    flips = np.array([(1 << (n - 1 - s)) | (1 << (n - 1 - (s + 1) % n)) for s in range(n)])
    # Every caller shares the cached tables, so none may write to them.
    for table in (reps, labels, popcount, flips):
        table.setflags(write=False)
    return reps, labels, popcount, flips


@functools.lru_cache(maxsize=None)
def _symmetric_basis(n_sites: int) -> tuple[np.ndarray, tuple]:
    """Orbit-state tables of one ring size (depend on N only).

    ``norm[x]`` is the amplitude of ``x`` in the normalized state of its
    orbit.  ``sectors`` holds, even parity first, the orbit indices, the
    bond-flip block and the summed sigma^z of each parity's orbit states.
    """
    reps, labels, popcount, flips = _dihedral_orbits(n_sites)
    norm = 1.0 / np.sqrt(np.bincount(labels))[labels]
    partners = np.arange(2 ** n_sites)[None, :] ^ flips[:, None]
    # <O|sum_b X_b X_{b+1}|P> accumulated over every configuration and bond.
    hop = np.zeros((reps.size, reps.size))
    np.add.at(hop, (np.broadcast_to(labels, partners.shape), labels[partners]),
              norm[None, :] * norm[partners])
    sz_total = n_sites - 2 * popcount[reps]
    sectors = []
    for parity in (0, 1):
        orbits = np.flatnonzero(popcount[reps] % 2 == parity)
        sectors.append((orbits, hop[np.ix_(orbits, orbits)], sz_total[orbits]))
    # Every caller shares the cached tables, so none may write to them.
    for table in (norm, *(a for sec in sectors for a in sec)):
        table.setflags(write=False)
    return norm, tuple(sectors)


def parity_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of the parity operator ``prod_n sigma^z_n``."""
    return np.where(_dihedral_orbits(n_sites)[2] % 2 == 0, 1.0, -1.0)


def parity_expectation(state: PureState) -> float:
    """Expectation of ``prod_n sigma^z_n`` in the given state."""
    return float(parity_diagonal(state.n_sites) @ np.abs(state.amplitudes) ** 2)


class _GroundState(PureState):
    """A state that ``ground_state`` returned: the marker by which global
    discord recognizes ring ground states, so amplitudes alone never do."""


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """The real ``vec`` with its largest-magnitude entry made positive."""
    return -vec if vec[np.argmax(np.abs(vec))] < 0.0 else vec


def ground_state(config: RingConfig) -> tuple[PureState, float]:
    """Lowest eigenvector of the ring Hamiltonian and its energy.

    Each parity sector's symmetric block is diagonalized; the odd sector wins
    only if it is lower by more than ``DEGENERACY_TOL``, so a degenerate
    ground doublet (e.g. at B = 0) resolves to the state with parity +1 under
    ``prod_n sigma^z_n``.  The amplitudes are real (float64), with the sign
    fixed so the largest-magnitude one is positive.  The state is a
    ``_GroundState``.
    """
    n = config.n_sites
    reps, labels, popcount, flips = _dihedral_orbits(n)
    norm, sectors = _symmetric_basis(n)
    j, b = config.coupling_j, config.field_b
    best = None
    for orbits, hop, sz_total in sectors:
        evals, evecs = np.linalg.eigh(np.diag(b * sz_total) - j * hop)
        if best is None or evals[0] < best[0] - DEGENERACY_TOL:
            best = (float(evals[0]), orbits, evecs[:, 0])
    energy, orbits, coef = best
    coef_all = np.zeros(reps.size)
    coef_all[orbits] = coef
    vec = coef_all[labels] * norm
    # sum_n sx_n sx_{n+1} applied to vec, one bond flip at a time
    idx = np.arange(vec.size)
    bond_hop = sum(vec[idx ^ flip] for flip in flips)
    ham_vec = b * (n - 2 * popcount) * vec - j * bond_hop
    residual = float(np.linalg.norm(ham_vec - energy * vec))
    if residual > 1e-8 * max(1.0, abs(energy)):
        raise EigensolverError("ground-state eigenpair failed residual check", residual)
    return _GroundState(_fix_sign(vec), n), energy


def _reference_size(n_sites) -> int:
    """The site count of a reference state; ValueError unless an integer >= 1."""
    n = _check_integer("n_sites", n_sites)
    if n < 1:
        raise ValueError(f"n_sites must be an integer >= 1, got {n}")
    return n


def ghz_state(n_sites: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) in the sigma^z basis."""
    v = np.zeros(2 ** _reference_size(n_sites), dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return PureState(v, n_sites)


def product_state_down(n_sites: int) -> PureState:
    """All spins down: the fully separable B >> J ground state."""
    v = np.zeros(2 ** _reference_size(n_sites), dtype=complex)
    v[-1] = 1.0
    return PureState(v, n_sites)
