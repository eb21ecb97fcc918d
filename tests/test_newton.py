import numpy as np
import pytest

import isingring.newton as newton
from isingring import RingConfig, discord, ground_state, reduced_two_spin


def test_stencil_is_built_once_per_dimension_and_read_only():
    newton._stencil.cache_clear()
    for d in (2, 4, 2, 4, 2):
        offsets, upper = newton._stencil(d)
    info = newton._stencil.cache_info()
    assert (info.misses, info.hits) == (2, 3)
    for d in (2, 4):
        offsets, upper = newton._stencil(d)
        assert offsets.shape == (2 * d * d + 1, d)
        assert np.array_equal(offsets[0], np.zeros(d))
        assert np.array_equal(offsets[1:d + 1], newton._FD_STEP * np.eye(d))
        assert [tuple(u) for u in upper] == [tuple(u) for u in np.triu_indices(d, 1)]
        for table in (offsets, *upper):
            with pytest.raises(ValueError):
                table[0] = 1
    # a discord's polish reads the cached d = 2 table
    gs, _ = ground_state(RingConfig(n_sites=6, coupling_j=1.0, field_b=0.7))
    discord(reduced_two_spin(gs, 0, 1))
    assert newton._stencil.cache_info().misses == 2


def _cost_family():
    """Per search: a periodic bowl in d = 3 angles around its own centre,
    the last one tilted so steeply in its first angle that it never stops."""
    centres = np.array([[0.3, -1.2, 2.0], [1.1, 0.4, -0.7], [-0.5, 2.2, 0.9]])
    weights = np.array([[1.0, 0.3, 2.0], [0.05, 1.5, 0.7], [1.0, 1.0, 1.0]])
    tilts = np.array([0.0, 0.0, 10.0])

    def cost(rows, live):
        bowl = weights[live, None] * (1.0 - np.cos(rows - centres[live, None]))
        return bowl.sum(axis=-1) - tilts[live, None] * rows[..., 0]
    return cost


def test_lockstep_searches_match_their_solo_runs():
    """Three searches in lockstep stop after different numbers of steps,
    one on the step cap; each gives its solo run's minimum bit for bit, and
    each cost call scores only the searches still running."""
    rng = np.random.default_rng(3)
    candidates = rng.uniform(-3.0, 3.0, (3, 5, 3))
    cost, seen = _cost_family(), []

    def watched(rows, live):
        seen.append(tuple(live))
        return cost(rows, live)

    values, converged = newton._polish(watched, candidates)
    assert converged.tolist() == [True, True, False]
    lengths = []
    for s in range(3):
        solo_calls = []

        def solo(rows, live, s=s):
            solo_calls.append(1)
            return cost(rows, np.array([s]))

        value, ok = newton._polish(solo, candidates[s:s + 1])
        assert value[0].hex() == values[s].hex() and ok[0] == converged[s], s
        lengths.append(len(solo_calls))
    assert len(seen) == max(lengths) == 1 + 2 * newton._POLISH_MAX_ITER
    assert [sum(s in live for live in seen) for s in range(3)] == lengths
    assert lengths[0] != lengths[1]
