import math

import numpy as np
import pytest

import oracles
from isingring import entanglement
from isingring.density import PureState
from isingring.entanglement import (
    bipartition_entanglement,
    bipartitions,
    entanglement_stats,
)
from isingring.ring import RingConfig, ghz_state, ground_state, product_state_down


def test_ghz_anchor():
    for n in (3, 4, 5, 6):
        stats = entanglement_stats(ghz_state(n))
        assert abs(stats.mean - 1.0) < 1e-10
        assert abs(stats.variance) < 1e-10
        assert stats.n_bipartitions == 2 ** (n - 1) - 1


def test_product_state_anchor():
    stats = entanglement_stats(product_state_down(5))
    assert stats.mean < 1e-12 and stats.variance < 1e-12


def test_bipartition_enumeration():
    subsets = list(bipartitions(4))
    assert len(subsets) == 7
    assert all(0 in s for s in subsets)
    assert len(set(subsets)) == len(subsets)
    assert all(0 < len(s) < 4 for s in subsets)


def test_matches_direct_purity(rng):
    psi = oracles.random_pure(rng, 5)
    state = PureState(psi, 5)
    for subset in [(0,), (1, 3), (0, 2, 4), (1, 2, 3, 4)]:
        rho_mat = np.outer(psi, psi.conj())
        red = oracles.partial_trace_dense(rho_mat, 5, subset)
        expected = -math.log2(float(np.trace(red @ red).real))
        got = bipartition_entanglement(state, subset)
        assert abs(got - expected) < 1e-10, subset


def test_complement_symmetry_and_bound(rng):
    gs, _ = ground_state(RingConfig(n_sites=7, coupling_j=1.0, field_b=0.95))
    for _ in range(25):
        size = int(rng.integers(1, 7))
        subset = tuple(rng.choice(7, size=size, replace=False))
        complement = tuple(s for s in range(7) if s not in subset)
        e1 = bipartition_entanglement(gs, subset)
        e2 = bipartition_entanglement(gs, complement)
        assert abs(e1 - e2) < 1e-10
        assert -1e-12 <= e1 <= min(len(subset), 7 - len(subset)) + 1e-12


def test_subset_validation():
    gs = ghz_state(4)
    with pytest.raises(ValueError):
        bipartition_entanglement(gs, ())
    with pytest.raises(ValueError):
        bipartition_entanglement(gs, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        bipartition_entanglement(gs, (0, 7))
    # duplicate sites collapse to a set: (0, 0) is the singleton {0}
    assert bipartition_entanglement(gs, (0, 0)) == bipartition_entanglement(gs, (0,))


def test_population_variance_definition():
    gs, _ = ground_state(RingConfig(n_sites=5, coupling_j=1.0, field_b=1.0))
    stats = entanglement_stats(gs)
    values = np.array([bipartition_entanglement(gs, cut) for cut in bipartitions(5)])
    assert stats.n_bipartitions == values.size == 15
    assert abs(stats.mean - values.mean()) < 1e-14
    assert abs(stats.variance - ((values - values.mean()) ** 2).mean()) < 1e-14


def test_limits_are_uncorrelated():
    weak, _ = ground_state(RingConfig(n_sites=5, coupling_j=1.0, field_b=1e-3))
    stats = entanglement_stats(weak)
    assert abs(stats.mean - 1.0) < 1e-3 and stats.variance < 1e-3
    strong, _ = ground_state(RingConfig(n_sites=5, coupling_j=1.0, field_b=50.0))
    stats = entanglement_stats(strong)
    assert stats.mean < 1e-2 and stats.variance < 1e-2


RATIOS = (0.0, 0.01, 0.05, 0.5, 1.0, 1.3, 6.0)


def _plain_stats(state):
    """Mean and variance from a plain loop over every cut."""
    values = np.array([bipartition_entanglement(state, cut)
                       for cut in bipartitions(state.n_sites)])
    return values.mean(), values.var()


def _dense_stats(state):
    """Mean and variance from the oracle's dense partial traces."""
    n, psi = state.n_sites, state.amplitudes
    rho_mat = np.outer(psi, psi.conj())
    values = []
    for cut in bipartitions(n):
        red = oracles.partial_trace_dense(rho_mat, n, cut)
        values.append(-math.log2(float(np.trace(red @ red).real)))
    return np.mean(values), np.var(values)


def test_orbit_statistics_match_every_cut():
    """Ring ground states, GHZ and the product state are dihedral-invariant,
    so they take one cut per orbit; the weighted statistics equal the plain
    loop over all cuts, and for N <= 8 the dense oracle's."""
    for n in range(2, 13):
        states = [ground_state(RingConfig(n, 1.0, b))[0] for b in RATIOS]
        states += [ghz_state(n), product_state_down(n)]
        for state in states:
            stats = entanglement_stats(state)
            refs = [_plain_stats(state)] + ([_dense_stats(state)] if n <= 8 else [])
            for mean, var in refs:
                assert abs(stats.mean - mean) < 1e-13, n
                assert abs(stats.variance - var) < 1e-13, n
            assert stats.n_bipartitions == 2 ** (n - 1) - 1


def _cut_orbit_count(n):
    """Orbits of unordered cuts under rotations, reflections and
    complement, by brute force over the cuts as site sets."""
    seen = set()
    for cut in bipartitions(n):
        images = []
        for side in (set(cut), set(range(n)) - set(cut)):
            for shift in range(n):
                for sign in (1, -1):
                    images.append(tuple(sorted((sign * s + shift) % n for s in side)))
        seen.add(min(images))
    return len(seen)


def _counting_cuts(monkeypatch):
    calls = []
    kernel = entanglement._cut_entanglement

    def counted(tensor, sites):
        calls.append(sites)
        return kernel(tensor, sites)

    monkeypatch.setattr(entanglement, "_cut_entanglement", counted)
    return calls


def test_states_without_dihedral_symmetry_take_every_cut(rng, monkeypatch):
    """A random state, a chiral state (rotation-symmetrized, not mirror
    symmetric) and a ground state with one amplitude moved by 1e-9 each
    evaluate all 2^(N-1) - 1 cuts and reproduce the plain loop exactly."""
    seed = oracles.random_pure(rng, 6).reshape((2,) * 6)
    tensor = sum(seed.transpose(np.roll(range(6), k)) for k in range(6))
    tensor /= np.linalg.norm(tensor)
    chiral = tensor.ravel()
    assert np.linalg.norm(np.moveaxis(tensor, 0, -1) - tensor) < 1e-14
    assert np.linalg.norm(tensor.T - tensor) > 1e-3
    moved = ground_state(RingConfig(8, 1.0, 1.0))[0].amplitudes.copy()
    moved[37] += 1e-9
    states = [PureState(oracles.random_pure(rng, 7), 7), PureState(chiral, 6),
              PureState(moved / np.linalg.norm(moved), 8)]
    for state in states:
        mean, var = _plain_stats(state)
        calls = _counting_cuts(monkeypatch)
        stats = entanglement_stats(state)
        monkeypatch.undo()
        assert len(calls) == stats.n_bipartitions == 2 ** (state.n_sites - 1) - 1
        assert (stats.mean, stats.variance) == (mean, var)


def test_ground_states_take_one_cut_per_orbit(monkeypatch):
    for n, orbits in ((10, 43), (11, 62), (12, 121)):
        assert _cut_orbit_count(n) == orbits
        gs, _ = ground_state(RingConfig(n, 1.0, 0.9))
        calls = _counting_cuts(monkeypatch)
        stats = entanglement_stats(gs)
        monkeypatch.undo()
        assert len(calls) == orbits and stats.n_bipartitions == 2 ** (n - 1) - 1
