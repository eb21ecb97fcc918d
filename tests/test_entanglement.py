import math

import numpy as np
import pytest

import oracles
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
