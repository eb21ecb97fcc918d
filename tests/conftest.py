import numpy as np
import pytest

import oracles
from isingring.global_discord import _BudgetTracker, _objective_factory, _search


@pytest.fixture(scope="session")
def chain14_pair():
    """Exact N=14 nearest-neighbour reduced state at J=0.5, B=1 (lam=0.5).

    Computed with an independent sparse kron Hamiltonian and Lanczos solver;
    serves as the finite-size reference for the thermodynamic-limit
    correlators.
    """
    vec, energy = oracles.sparse_ground(14, j=0.5, b=1.0)
    return oracles.reduced_pair(vec, 14, 0, 1), energy


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def search():
    """The multi-start search alone, which ring ground states skip when
    their certificate holds: ``search(gs, opt)``."""
    def run(gs, opt):
        return _search(_BudgetTracker(opt.max_evals), _objective_factory(gs)[1],
                       gs.n_sites, opt)
    return run
