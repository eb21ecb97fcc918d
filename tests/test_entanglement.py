import gc
import math

import numpy as np
import pytest

import oracles
from isingring import entanglement
from isingring.density import PureState, _gram
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


def test_stats_reject_a_negative_variance():
    with pytest.raises(ValueError, match="variance cannot be negative"):
        entanglement.EntanglementStats(mean=0.5, variance=-1e-9, n_bipartitions=3)
    entanglement.EntanglementStats(mean=0.5, variance=-1e-13, n_bipartitions=3)


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


def _images(n, side):
    """Every rotation and reflection of a site set, as sorted tuples."""
    return [tuple(sorted((sign * s + shift) % n for s in side))
            for shift in range(n) for sign in (1, -1)]


def _cut_class(n, side, invariant):
    """The cut a side makes: its dihedral orbit of unordered cuts under
    invariance, the cut itself otherwise, named by a sorted site tuple."""
    pair = (tuple(sorted(side)), tuple(s for s in range(n) if s not in side))
    if invariant:
        return min(image for part in pair for image in _images(n, part))
    return min(pair)


def _cut_orbit_count(n):
    """Orbits of unordered cuts under rotations, reflections and
    complement, by brute force over the cuts as site sets."""
    return len({_cut_class(n, cut, True) for cut in oracles.bipartitions(n)})


def _half_side_orbit_count(n):
    """Orbits of the floor(N/2)-site sides under rotations and reflections
    alone, by brute force over the sides holding site 0 (every orbit has
    one)."""
    return len({min(_images(n, cut)) for cut in oracles.bipartitions(n)
                if len(cut) == n // 2})


def _half_side_count(n):
    """Half sides a state without symmetry needs: the sides of floor(N/2)
    sites, those holding site 0 at even N, all at odd N."""
    return math.comb(n - 1, n // 2 - 1) if n % 2 == 0 else math.comb(n, n // 2)


def _replay(plan):
    """The sides a plan of ``_cut_table`` visits, rebuilt from its site
    positions alone: per root its sites and, per step, the parent level,
    the child's sites and the weight."""
    for sites, steps in plan:
        held, visited = [tuple(sites)], []
        for parent, j, weight in steps:
            child = held[parent][:j] + held[parent][j + 1:]
            held[parent + 1:] = [child]
            visited.append((parent, child, weight))
        yield sites, visited


def _counting(monkeypatch):
    """Wrap the folded Gram product, the purity kernel and the one-site
    partial trace: the first list gets the side of every Gram product (the
    descent's roots), the second the E of every cut key visited, the third
    the size of every reduced state a site is traced out of."""
    roots, values, traces = [], [], []
    gram, kernel, trace = (entanglement._folded_gram, entanglement._entanglement,
                           entanglement._trace_site)

    def counted_gram(tensor, side):
        roots.append(side)
        return gram(tensor, side)

    def counted_kernel(purities, dims):
        result = kernel(purities, dims)
        values.extend(np.atleast_1d(result).tolist())
        return result

    def counted_trace(rho, j, out):
        traces.append(rho.shape[0])
        return trace(rho, j, out)

    monkeypatch.setattr(entanglement, "_folded_gram", counted_gram)
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
    2^(N-1) - 1 cuts, from distinct Gram roots of floor(N/2) + 1 sites
    (110 at N = 11 and 12, against 462 half sides), and reproduce the plain
    loop within 1e-13."""
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
    n_roots = {6: 4, 7: 14, 8: 14, 10: 32, 11: 110, 12: 110}
    for state in states:
        n = state.n_sites
        mean, var = _plain_stats(state)
        roots, values, _ = _counting(monkeypatch)
        stats = entanglement_stats(state)
        monkeypatch.undo()
        assert len(roots) == len(set(roots)) == n_roots[n], n
        assert all(len(root) == n // 2 + 1 for root in roots)
        assert len(values) == stats.n_bipartitions == 2 ** (n - 1) - 1
        assert abs(stats.mean - mean) < 1e-13 and abs(stats.variance - var) < 1e-13
    assert [_half_side_count(n) for n in (6, 7, 8, 10, 11, 12)] == [
        10, 35, 35, 126, 462, 462]


def test_ground_states_take_one_cut_per_orbit(monkeypatch):
    """A ring ground state visits one cut key per orbit of cuts (43 / 62 /
    121 at N = 10 / 11 / 12).  Its descent needs one half side per dihedral
    orbit of the floor(N/2)-site sides (16 / 26 / 50), and takes them from
    5 / 6 / 9 Gram roots of floor(N/2) + 1 sites."""
    for n, orbits, halves, n_roots in ((10, 43, 16, 5), (11, 62, 26, 6),
                                       (12, 121, 50, 9)):
        assert _cut_orbit_count(n) == orbits
        assert _half_side_orbit_count(n) == halves
        gs, _ = ground_state(RingConfig(n, 1.0, 0.9))
        roots, values, _ = _counting(monkeypatch)
        stats = entanglement_stats(gs)
        monkeypatch.undo()
        assert len(roots) == len(set(roots)) == n_roots
        assert all(len(root) == n // 2 + 1 for root in roots)
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
    dihedral group, at N = 2..12, reproduce the plain loop from one Gram
    product per root of the plan, each a side of floor(N/2) + 1 sites.
    The half sides are not merged with their complements: which of the
    two a root hands down decides whether every cut is reached, and
    keeping one per cut key misses an orbit of 12 cuts at N = 12.
    Dropping the odd-N half sides without site 0 misses cuts at every odd
    N."""
    for n in range(2, 13):
        symmetric = _dihedral_symmetrized(rng, n)
        assert entanglement._dihedral_invariant(symmetric.as_tensor())
        free = PureState(oracles.random_pure(rng, n), n)
        for state, invariant in ((free, False), (symmetric, True)):
            plan, _ = entanglement._cut_table(n, invariant)
            mean, var = _plain_stats(state)
            roots, _, _ = _counting(monkeypatch)
            stats = entanglement_stats(state)
            monkeypatch.undo()
            assert roots == [sites for sites, _ in plan], n
            assert all(len(root) == n // 2 + 1 for root in roots), n
            assert stats.n_bipartitions == 2 ** (n - 1) - 1, n
            assert abs(stats.mean - mean) < 1e-13, n
            assert abs(stats.variance - var) < 1e-13, n


@pytest.mark.parametrize("n", range(2, 13))
def test_the_cover_hands_every_half_side_down_once(n):
    """The plan, replayed on site sets and checked against brute-force cut
    orbits.  Each root is a distinct side of floor(N/2) + 1 sites.  Each
    half side the descent needs (at even N those holding site 0; with
    invariance one per dihedral orbit) is handed down by one root at most,
    and without invariance by exactly one; one left out has its cut taken
    by another side.  Every cut, or orbit of cuts, is weighted exactly once,
    by the number of cuts it stands for, in the order of ``counts``."""
    h = n // 2
    needed = [side for side in oracles.bipartitions(n) if len(side) == h]
    needed += [] if n % 2 == 0 else [
        tuple(s for s in range(n) if s not in side)
        for side in oracles.bipartitions(n) if len(side) == n - h]
    for invariant in (False, True):
        def side_class(side):
            return min(_images(n, side)) if invariant else side

        classes = {}
        for cut in oracles.bipartitions(n):
            key = _cut_class(n, cut, invariant)
            classes[key] = classes.get(key, 0) + 1
        plan, counts = entanglement._cut_table(n, invariant)
        roots = [sites for sites, _ in plan]
        assert len(set(roots)) == len(roots), (n, invariant)
        handed, weighted = [], []
        for sites, visited in _replay(plan):
            assert len(sites) == h + 1 and list(sites) == sorted(set(sites))
            assert all(0 <= s < n for s in sites)
            for parent, side, weight in visited:
                if parent == 0:
                    handed.append(side_class(side))
                if weight:
                    weighted.append((_cut_class(n, side, invariant), weight))
        wanted = {side_class(side) for side in needed}
        assert len(handed) == len(set(handed)) and set(handed) <= wanted
        taken = {cut for cut, _ in weighted}
        for side in wanted - set(handed):
            assert invariant and _cut_class(n, side, True) in taken, (n, side)
        assert sorted(cut for cut, _ in weighted) == sorted(classes), (n, invariant)
        assert all(weight == classes[cut] for cut, weight in weighted)
        assert counts.tolist() == [weight for _, weight in weighted]
        assert not counts.flags.writeable


def test_gram_cost_is_at_most_half_of_one_product_per_half_side(rng, monkeypatch):
    """A deterministic cost guard, in real multiply-adds.  For a side of r
    sites, the complex product m m^dagger takes 4 * 4^r 2^(N-r) and the
    folded product [A | B] [A - B | A + B]^T of a complex state half that.
    On random complex states at N = 11 and 12 the folded roots cost at most
    a quarter of one complex product per half side (115M against 121M at
    N = 12), so at most half of one folded product per half side, and the
    descent takes one partial trace per cut key visited."""
    for n in (11, 12):
        h = n // 2
        state = PureState(oracles.random_pure(rng, n), n)
        roots, values, traces = _counting(monkeypatch)
        entanglement_stats(state)
        monkeypatch.undo()
        folded = sum(2 * 4 ** len(root) * 2 ** (n - len(root)) for root in roots)
        complex_product = 4 * 4 ** h * 2 ** (n - h)
        assert 4 * folded <= _half_side_count(n) * complex_product, n
        assert len(traces) == len(values) == 2 ** (n - 1) - 1, n
    assert folded == 110 * 2 * 4 ** 7 * 2 ** 5 < 116e6


def test_folded_gram_is_the_real_plus_imaginary_part(rng):
    """On random complex and real states at N = 2..8 and sides of shuffled
    sites, the folded Gram product is float64 and equals Re rho + Im rho of
    the complex Gram product within 1e-15, and the sum of its squared
    entries is Tr rho^2 within 1e-15.  A complex state with zero imaginary
    part gives the statistics of its real copy within 1e-15, and the purity
    kernel clips each purity to [1/d, 1]."""
    for n in range(2, 9):
        real = rng.normal(size=2 ** n)
        real /= np.linalg.norm(real)
        for psi in (oracles.random_pure(rng, n), real):
            tensor = PureState(psi, n).as_tensor()
            for size in range(1, n + 1):
                side = tuple(int(s) for s in rng.permutation(n)[:size])
                rho = _gram(tensor, side)
                folded = entanglement._folded_gram(tensor, side)
                assert folded.dtype == np.float64
                assert np.max(np.abs(folded - (rho.real + rho.imag))) <= 1e-15
                assert abs(np.sum(folded ** 2) - np.vdot(rho, rho).real) <= 1e-15
        as_real = entanglement_stats(PureState(real, n))
        as_complex = entanglement_stats(PureState(real + 0j, n))
        assert abs(as_complex.mean - as_real.mean) <= 1e-15, n
        assert abs(as_complex.variance - as_real.variance) <= 1e-15, n
    clipped = entanglement._entanglement([1.0 + 1e-15, 0.25 - 1e-15, 0.5], [2, 4, 8])
    assert clipped.tolist() == [0.0, 2.0, 1.0]


def test_descent_skips_the_subtrees_of_visited_cuts(rng, monkeypatch):
    """Every one-site partial trace gives a cut key not visited before,
    except a half side handed down with weight 0, whose key another side
    took but below which lie sides not reached otherwise: a child whose key
    was seen is skipped with its whole subtree.  So one call takes (cut
    keys visited) + (steps of weight 0) traces, on ring ground states (one
    key per orbit) and on a random state (one per cut, no step of weight
    0)."""
    states = [ground_state(RingConfig(n, 1.0, 0.9))[0] for n in (10, 11, 12)]
    states.append(PureState(oracles.random_pure(rng, 12), 12))
    zeros = []
    for state in states:
        plan, _ = entanglement._cut_table(
            state.n_sites, entanglement._dihedral_invariant(state.as_tensor()))
        zeros.append(sum(weight == 0 for _, steps in plan for _, _, weight in steps))
        _, values, traces = _counting(monkeypatch)
        entanglement_stats(state)
        monkeypatch.undo()
        assert len(traces) == len(values) + zeros[-1], (state.n_sites, len(traces))
    assert zeros == [2, 0, 2, 0]


def test_plan_build_leaves_no_reference_cycle():
    """A fresh plan build frees its keys, weights and seen set on return:
    with the cyclic collector off, nothing is left for it to find."""
    gc.collect()
    gc.disable()
    try:
        for n in (6, 10, 12):
            for invariant in (False, True):
                entanglement._cut_table.__wrapped__(n, invariant)
                assert gc.collect() == 0, (n, invariant)
    finally:
        gc.enable()
