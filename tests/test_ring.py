import math

import numpy as np
import pytest

import oracles
from isingring.errors import CapacityError
from isingring.ring import (
    MAX_SITES,
    RingConfig,
    ghz_state,
    ground_state,
    parity_diagonal,
    parity_expectation,
    product_state_down,
)


def test_config_validation():
    with pytest.raises(ValueError):
        RingConfig(n_sites=1)
    with pytest.raises(CapacityError):
        RingConfig(n_sites=MAX_SITES + 1)
    with pytest.raises(ValueError):
        RingConfig(n_sites=4, field_b=-0.5)
    with pytest.raises(ValueError):
        RingConfig(n_sites=4, coupling_j=-1.0, field_b=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            RingConfig(n_sites=4, coupling_j=1.0, field_b=bad)
        with pytest.raises(ValueError):
            RingConfig(n_sites=4, coupling_j=bad, field_b=1.0)
    RingConfig(n_sites=4, coupling_j=0.0, field_b=0.5)


def _oracle_parity(n):
    pop = np.array([bin(i).count("1") for i in range(2 ** n)])
    return np.where(pop % 2 == 0, 1.0, -1.0)


def test_ground_state_matches_dense_oracle():
    """Energy against the full dense spectrum; state against the nondegenerate
    lowest state of the oracle's block with the parity ground_state chose.
    N = 2 covers the bond that the cyclic sum visits twice."""
    for n in range(2, 11):
        par = _oracle_parity(n)
        for b in (0.0, 1e-3, 0.5, 1.0, 2.0):
            ham = oracles.sparse_tfim(n, 1.0, b).toarray().real
            gs, energy = ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=b))
            assert abs(energy - np.linalg.eigvalsh(ham)[0]) < 1e-10, (n, b)
            parity = parity_expectation(gs)
            assert abs(abs(parity) - 1.0) < 1e-12, (n, b)
            sector = np.flatnonzero(par == np.sign(parity))
            evals, evecs = np.linalg.eigh(ham[np.ix_(sector, sector)])
            overlap = abs(np.vdot(evecs[:, 0], gs.amplitudes[sector]))
            assert overlap >= 1.0 - 1e-10, (n, b)
            if b == 0.5:
                assert abs(parity - (-1.0) ** n) < 1e-12, (n, b)
            if b == 0.0:
                assert abs(parity - 1.0) < 1e-12, n


def test_zero_coupling_ground_state_is_all_down():
    for n in (2, 3, 4, 7):
        gs, energy = ground_state(RingConfig(n_sites=n, coupling_j=0.0, field_b=0.3))
        assert abs(energy + 0.3 * n) < 1e-12
        assert abs(np.vdot(product_state_down(n).amplitudes, gs.amplitudes)) > 1.0 - 1e-12


def test_ground_state_matches_sparse_oracle(rng):
    for n in (2, 3, 5, 8, 10):
        j, b = 1.0, rng.uniform(0.1, 2.5)
        gs, energy = ground_state(RingConfig(n_sites=n, coupling_j=j, field_b=b))
        _, e_ref = oracles.sparse_ground(n, j, b)
        assert abs(energy - e_ref) < 1e-9, f"N={n}"
        assert abs(np.linalg.norm(gs.amplitudes) - 1.0) < 1e-12


def test_degenerate_ground_resolved_to_even_parity_cat():
    for n in (3, 4, 6):
        gs, energy = ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=0.0))
        assert abs(energy + n) < 1e-12
        assert parity_expectation(gs) > 1.0 - 1e-10
        # The even combination of the two fully x-polarized states.
        plus = np.full(2 ** n, 2.0 ** (-n / 2.0))
        signs = parity_diagonal(n) * plus  # |----...> has alternating signs
        cat = (plus + signs) / math.sqrt(2.0)
        cat /= np.linalg.norm(cat)
        overlap = abs(np.vdot(cat, gs.amplitudes))
        assert overlap > 1.0 - 1e-10


def test_ground_state_phase_fix_deterministic():
    cfg = RingConfig(n_sites=5, coupling_j=1.0, field_b=0.8)
    a = ground_state(cfg)[0].amplitudes
    b = ground_state(cfg)[0].amplitudes
    assert np.array_equal(a, b)
    k = int(np.argmax(np.abs(a)))
    assert abs(a[k].imag) < 1e-14 and a[k].real > 0.0


def test_free_fermion_energy_matches_dense_even_sizes():
    for n in (4, 6, 8, MAX_SITES):
        for ratio in (0.5, 1.0, 2.0):
            cfg = RingConfig(n_sites=n, coupling_j=1.0, field_b=ratio)
            gs, dense_energy = ground_state(cfg)
            if parity_expectation(gs) > 1.0 - 1e-8:
                analytic = oracles.free_fermion_energy(n, 1.0, ratio)
                assert abs(analytic - dense_energy) < 1e-10, (n, ratio)


def test_reference_states():
    g = ghz_state(4)
    assert abs(np.linalg.norm(g.amplitudes) - 1.0) < 1e-14
    assert abs(g.amplitudes[0] - 1.0 / math.sqrt(2.0)) < 1e-14
    assert abs(g.amplitudes[-1] - 1.0 / math.sqrt(2.0)) < 1e-14
    p = product_state_down(3)
    assert p.amplitudes[-1] == 1.0 and np.count_nonzero(p.amplitudes) == 1


def test_large_field_ground_state_is_polarized():
    gs, _ = ground_state(RingConfig(n_sites=5, coupling_j=1.0, field_b=50.0))
    overlap = abs(np.vdot(product_state_down(5).amplitudes, gs.amplitudes))
    assert overlap > 1.0 - 1e-3
