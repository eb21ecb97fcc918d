import math

import numpy as np
import pytest

import oracles
from isingring import entanglement
from isingring.density import PureState
from isingring.entanglement import bipartition_entanglement, entanglement_stats
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
    subsets = oracles.bipartitions(4)
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
    values = np.array([bipartition_entanglement(gs, cut)
                       for cut in oracles.bipartitions(5)])
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
                       for cut in oracles.bipartitions(state.n_sites)])
    return values.mean(), values.var()


def _dense_values(state):
    """E of every cut from the oracle's dense partial traces."""
    n, psi = state.n_sites, state.amplitudes
    rho_mat = np.outer(psi, psi.conj())
    values = []
    for cut in oracles.bipartitions(n):
        red = oracles.partial_trace_dense(rho_mat, n, cut)
        values.append(-math.log2(float(np.trace(red @ red).real)))
    return values


def _dense_stats(state):
    """Mean and variance from the oracle's dense partial traces."""
    values = _dense_values(state)
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
    for cut in oracles.bipartitions(n):
        images = []
        for side in (set(cut), set(range(n)) - set(cut)):
            for shift in range(n):
                for sign in (1, -1):
                    images.append(tuple(sorted((sign * s + shift) % n for s in side)))
        seen.add(min(images))
    return len(seen)


def _half_side_orbit_count(n):
    """Orbits of the floor(N/2)-site sides under rotations and reflections
    alone, by brute force over the sides holding site 0 (every orbit has
    one)."""
    seen = set()
    for cut in oracles.bipartitions(n):
        if len(cut) == n // 2:
            seen.add(min(tuple(sorted((sign * s + shift) % n for s in cut))
                         for shift in range(n) for sign in (1, -1)))
    return len(seen)


def _root_count(n):
    """Sides of floor(N/2) sites: those holding site 0 at even N, all at odd N."""
    return math.comb(n - 1, n // 2 - 1) if n % 2 == 0 else math.comb(n, n // 2)


def _counting(monkeypatch):
    """Wrap the Gram product, the purity kernel and the one-site partial
    trace: the first list gets the side of every Gram product (the
    descent's roots), the second the E of every cut key visited, the third
    the size of every reduced state a site is traced out of."""
    roots, values, traces = [], [], []
    gram, kernel, trace = (entanglement._gram, entanglement._entanglement,
                           entanglement._trace_site)

    def counted_gram(tensor, side):
        roots.append(side)
        return gram(tensor, side)

    def counted_kernel(rho):
        values.append(kernel(rho))
        return values[-1]

    def counted_trace(rho, j):
        traces.append(rho.shape[0])
        return trace(rho, j)

    monkeypatch.setattr(entanglement, "_gram", counted_gram)
    monkeypatch.setattr(entanglement, "_entanglement", counted_kernel)
    monkeypatch.setattr(entanglement, "_trace_site", counted_trace)
    return roots, values, traces


def _dihedral_symmetrized(rng, n):
    """A random state summed over every rotation and reflection of the ring."""
    tensor = oracles.random_pure(rng, n).reshape((2,) * n)
    images = []
    for image in (tensor, tensor.T):
        for _ in range(n):
            images.append(image)
            image = np.moveaxis(image, 0, -1)
    total = sum(images).ravel()
    return PureState(total / np.linalg.norm(total), n)


def test_one_site_state_has_no_bipartition():
    state = PureState(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError, match="no bipartition"):
        entanglement_stats(state)
    with pytest.raises(ValueError, match="bipartition"):
        bipartition_entanglement(state, (0,))


def test_states_without_dihedral_symmetry_take_every_cut(rng, monkeypatch):
    """A chiral state (rotation-symmetrized, not mirror symmetric), a ground
    state with one amplitude moved by 1e-9 and random states each visit all
    2^(N-1) - 1 cuts, from one Gram product per side of floor(N/2) sites
    (those holding site 0 at even N), and reproduce the plain loop within
    1e-13."""
    seed = oracles.random_pure(rng, 6).reshape((2,) * 6)
    tensor = sum(seed.transpose(np.roll(range(6), k)) for k in range(6))
    tensor /= np.linalg.norm(tensor)
    chiral = tensor.ravel()
    assert np.linalg.norm(np.moveaxis(tensor, 0, -1) - tensor) < 1e-14
    assert np.linalg.norm(tensor.T - tensor) > 1e-3
    moved = ground_state(RingConfig(8, 1.0, 1.0))[0].amplitudes.copy()
    moved[37] += 1e-9
    states = [PureState(chiral, 6), PureState(moved / np.linalg.norm(moved), 8)]
    states += [PureState(oracles.random_pure(rng, n), n) for n in (7, 10, 11, 12)]
    for state in states:
        n = state.n_sites
        mean, var = _plain_stats(state)
        roots, values, _ = _counting(monkeypatch)
        stats = entanglement_stats(state)
        monkeypatch.undo()
        assert len(roots) == len(set(roots)) == _root_count(n), n
        assert all(len(root) == n // 2 for root in roots)
        assert len(values) == stats.n_bipartitions == 2 ** (n - 1) - 1
        assert abs(stats.mean - mean) < 1e-13 and abs(stats.variance - var) < 1e-13
    assert [_root_count(n) for n in (6, 7, 8, 10, 11, 12)] == [
        10, 35, 35, 126, 462, 462]


def test_ground_states_take_one_cut_per_orbit(monkeypatch):
    """A ring ground state visits one cut key per orbit of cuts (43 / 62 /
    121 at N = 10 / 11 / 12), from one Gram product per dihedral orbit of
    the floor(N/2)-site sides (16 / 26 / 50)."""
    for n, orbits, n_roots in ((10, 43, 16), (11, 62, 26), (12, 121, 50)):
        assert _cut_orbit_count(n) == orbits
        assert _half_side_orbit_count(n) == n_roots
        gs, _ = ground_state(RingConfig(n, 1.0, 0.9))
        roots, values, _ = _counting(monkeypatch)
        stats = entanglement_stats(gs)
        monkeypatch.undo()
        assert len(roots) == len(set(roots)) == n_roots
        assert len(values) == orbits and stats.n_bipartitions == 2 ** (n - 1) - 1


def test_every_visited_cut_matches_the_dense_oracle(rng, monkeypatch):
    """Without symmetry each cut is visited once, so the E values the
    descent takes are, as a multiset, the dense oracle's E of every cut."""
    for n in range(2, 9):
        state = PureState(oracles.random_pure(rng, n), n)
        dense = _dense_values(state)
        _, values, _ = _counting(monkeypatch)
        entanglement_stats(state)
        monkeypatch.undo()
        assert len(values) == len(dense)
        assert np.max(np.abs(np.sort(values) - np.sort(dense))) < 1e-13, n


def test_roots_cover_every_cut_at_every_size(rng, monkeypatch):
    """Random states and random states made invariant under the whole
    dihedral group, at N = 2..12.  Each root must be a side of floor(N/2)
    sites, one per side holding site 0 at even N, every side at odd N, one
    per dihedral orbit of sides for invariant states.  Roots picked by the
    complement-merged cut key are too few (35 of 50 at N = 12), and which of
    a half side and its complement is kept decides whether every cut is
    reached: keeping the last one misses an orbit of 12 cuts at N = 12.
    Dropping the odd-N roots without site 0 misses cuts at every odd N."""
    for n in range(2, 13):
        symmetric = _dihedral_symmetrized(rng, n)
        assert entanglement._dihedral_invariant(symmetric.as_tensor())
        free = PureState(oracles.random_pure(rng, n), n)
        for state, n_roots in ((free, _root_count(n)),
                               (symmetric, _half_side_orbit_count(n))):
            mean, var = _plain_stats(state)
            roots, _, _ = _counting(monkeypatch)
            stats = entanglement_stats(state)
            monkeypatch.undo()
            assert len(roots) == n_roots, n
            assert stats.n_bipartitions == 2 ** (n - 1) - 1, n
            assert abs(stats.mean - mean) < 1e-13, n
            assert abs(stats.variance - var) < 1e-13, n


def test_descent_skips_the_subtrees_of_visited_cuts(rng, monkeypatch):
    """Every one-site partial trace gives a cut key not visited before: a
    child whose key was seen is skipped with its whole subtree.  So one call
    takes (cut keys visited) - (distinct root keys) traces, on ring ground
    states (one key per orbit) and on a random state (one per cut)."""
    states = [ground_state(RingConfig(n, 1.0, 0.9))[0] for n in (10, 11, 12)]
    states.append(PureState(oracles.random_pure(rng, 12), 12))
    for state in states:
        n = state.n_sites
        keys, _, roots = entanglement._cut_table(
            n, entanglement._dihedral_invariant(state.as_tensor()))
        root_keys = {keys[mask] for mask, _ in roots}
        _, values, traces = _counting(monkeypatch)
        entanglement_stats(state)
        monkeypatch.undo()
        assert len(traces) == len(values) - len(root_keys), (n, len(traces))
