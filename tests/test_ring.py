import math

import numpy as np
import pytest

import oracles
from isingring.cli import main
from isingring.density import PureState, reduced_state
from isingring.entanglement import entanglement_stats
from isingring.errors import CapacityError, EigensolverError
from isingring.ring import (
    DEGENERACY_TOL,
    MAX_SITES,
    RingConfig,
    _dihedral_orbits,
    _fix_sign,
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


def test_orbit_blocks_match_configuration_space():
    """Each parity block read off the orbit representatives is Q^T X Q, with
    X = sum_b X_b X_{b+1} over configurations and Q[x, labels[x]] =
    1/sqrt(|O|) the orbit states; so are the summed sigma^z.  The blocks are
    exactly symmetric, and at N = 2 the doubled bond enters with weight 2."""
    for n in range(2, 13):
        labels, _, _, _, sectors = _dihedral_orbits(n)
        sizes = np.bincount(labels)
        q = np.zeros((2 ** n, sizes.size))
        q[np.arange(2 ** n), labels] = 1.0 / np.sqrt(sizes[labels])
        bonds = q.T @ (-oracles.sparse_tfim(n, 1.0, 0.0).real @ q)
        field = q.T @ (oracles.sparse_tfim(n, 0.0, 1.0).real @ q)
        assert sorted(np.concatenate([sec[0] for sec in sectors])) == list(range(sizes.size))
        for orbits, hop, sz_total in sectors:
            block = np.ix_(orbits, orbits)
            assert np.array_equal(hop, hop.T), n
            assert np.abs(hop - bonds[block]).max() <= 1e-14, n
            assert np.abs(np.diag(sz_total) - field[block]).max() <= 1e-14, n
    (even, hop_even, _), (odd, hop_odd, _) = _dihedral_orbits(2)[4]
    assert even.tolist() == [0, 2] and odd.tolist() == [1]
    assert hop_even.tolist() == [[0.0, 2.0], [2.0, 0.0]] and hop_odd.tolist() == [[2.0]]


def test_orbit_tables_are_built_once_per_ring_size_and_read_only():
    """A second ground state at the same N builds nothing, no caller can
    write into the shared tables, and a rebuilt cache gives the same bits."""
    cfg = RingConfig(n_sites=5, coupling_j=1.0, field_b=0.9)
    _dihedral_orbits.cache_clear()
    first, energy = ground_state(cfg)
    ground_state(cfg)
    info = _dihedral_orbits.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    labels, sizes, popcount, flips, sectors = _dihedral_orbits(5)
    for table in (labels, sizes, popcount, flips, *(a for sec in sectors for a in sec)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
    _dihedral_orbits.cache_clear()
    rebuilt, rebuilt_energy = ground_state(cfg)
    assert np.array_equal(rebuilt.amplitudes, first.amplitudes)
    assert rebuilt_energy.hex() == energy.hex()


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


def test_ground_state_amplitudes_are_real():
    """Ground states carry float64 amplitudes, largest entry positive;
    PureState keeps complex input complex, and the real state and its
    complex copy give the same reduced states and entanglement statistics."""
    for n, ratio in ((2, 0.0), (5, 0.8), (8, 1.0), (9, 0.0), (12, 1.3)):
        gs = ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=ratio))[0]
        amps = gs.amplitudes
        assert amps.dtype == np.float64
        assert amps[np.argmax(np.abs(amps))] > 0.0
        assert np.array_equal(_fix_sign(-amps), amps)
        copy = PureState(amps.astype(complex), n)
        assert copy.amplitudes.dtype == np.complex128
        assert PureState(amps, n).amplitudes.dtype == np.float64
        for keep in ((0,), (0, 1), (1, 0, n - 1)[:n]):
            real, cplx = reduced_state(gs, keep).matrix, reduced_state(copy, keep).matrix
            assert np.abs(real - cplx).max() <= 1e-15, (n, ratio, keep)
        real, cplx = entanglement_stats(gs), entanglement_stats(copy)
        assert abs(real.mean - cplx.mean) <= 1e-15, (n, ratio)
        assert abs(real.variance - cplx.variance) <= 1e-15, (n, ratio)


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


def test_residual_check_rejects_a_perturbed_eigenvector(monkeypatch, capsys):
    """An eigenvector that misses H v = E v by more than 1e-8 |E| raises
    EigensolverError with its residual norm, and the CLI exits 3."""
    real_eigh = np.linalg.eigh

    def perturbed_eigh(matrix):
        evals, evecs = real_eigh(matrix)
        evecs = evecs.copy()
        evecs[0, 0] += 1e-3
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
    with pytest.raises(EigensolverError, match="residual norm") as caught:
        ground_state(RingConfig(n_sites=4, coupling_j=1.0, field_b=0.7))
    assert caught.value.residual > 1e-8
    assert main(["ground-state", "--n", "4", "--b", "0.7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "residual check" in captured.err


def _two_block_ground_state(config):
    """Both parity blocks solved with ``eigh``, the odd one winning only if
    lower by more than DEGENERACY_TOL, embedded as ``ground_state`` does."""
    labels, sizes, _, _, sectors = _dihedral_orbits(config.n_sites)
    j, b = config.coupling_j, config.field_b
    best = None
    for orbits, hop, sz_total in sectors:
        evals, evecs = np.linalg.eigh(np.diag(b * sz_total) - j * hop)
        if best is None or evals[0] < best[0] - DEGENERACY_TOL:
            best = (float(evals[0]), orbits, evecs[:, 0])
    energy, orbits, coef = best
    coef_all = np.zeros(sizes.size)
    coef_all[orbits] = coef / np.sqrt(sizes[orbits])
    return _fix_sign(coef_all[labels]), energy


#: N = 2..12 x B/J x J; at J = 0 the ratio is B itself.
PANEL = [RingConfig(n, j, ratio * j if j else ratio)
         for n in range(2, MAX_SITES + 1) for j in (0.0, 0.5, 1.0)
         for ratio in (0.0, 1e-12, 1e-6, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 50.0)]


def _assert_panel_matches_two_blocks():
    for cfg in PANEL:
        gs, energy = ground_state(cfg)
        amps, ref_energy = _two_block_ground_state(cfg)
        assert energy.hex() == ref_energy.hex(), cfg
        assert np.array_equal(gs.amplitudes, amps), cfg


def test_one_block_solve_is_bit_identical_to_solving_both():
    """Solving one parity block and ruling the other out with a shifted
    Cholesky test picks the same sector, and so the same bits, as solving
    both and comparing, on every ring size, across the near-degenerate small
    fields, the critical region and the polarized limit."""
    _assert_panel_matches_two_blocks()


def test_cholesky_failure_falls_back_to_solving_both_blocks(monkeypatch):
    """If every shifted factorization fails, the second block is solved and
    the two-block comparison decides, with the same bits."""

    def failing_cholesky(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    _assert_panel_matches_two_blocks()


@pytest.mark.parametrize("n, ratio, solves, parity", [
    (12, 1.0, 1, 1.0), (11, 0.0, 1, 1.0), (11, 0.93, 1, -1.0), (11, 0.05, 1, 1.0),
    (11, 0.13, 2, 1.0), (11, 0.14, 1, -1.0)])
def test_one_eigh_per_call_unless_odd_ring_at_small_field(monkeypatch, n, ratio, solves, parity):
    """One ``eigh`` per call, except at odd N in the band of small B/J just
    above (B/J)**N = DEGENERACY_TOL (0.123-0.136 at N = 11), where the solve
    starts from the odd sector but the even one wins by the tolerance."""
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(matrix):
        calls.append(matrix.shape)
        return real_eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    gs, _ = ground_state(RingConfig(n, 1.0, ratio))
    assert len(calls) == solves, calls
    assert abs(parity_expectation(gs) - parity) < 1e-12
