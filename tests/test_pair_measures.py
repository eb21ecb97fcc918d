import math
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import oracles
from isingring.errors import ConvergenceWarning, NonXStateWarning, QuadratureError
from isingring.pair_measures import (
    CorrelatorSet,
    XState,
    amid,
    discord,
    is_x_pattern,
    mid,
    pair_mutual_information,
    reduced_two_spin,
    toeplitz_correlators,
    x_state_from_correlators,
)
from isingring.ring import RingConfig, ground_state

BELL_RHO = np.zeros((4, 4), dtype=complex)
BELL_RHO[0, 0] = BELL_RHO[3, 3] = BELL_RHO[0, 3] = BELL_RHO[3, 0] = 0.5


def werner(p: float) -> np.ndarray:
    return p * BELL_RHO + (1.0 - p) * np.eye(4) / 4.0


def test_x_pattern_detection(rng):
    assert is_x_pattern(oracles.random_x_matrix(rng))
    dense = oracles.random_density(rng, 2)
    assert not is_x_pattern(dense)
    with pytest.raises(ValueError):
        XState(dense, (0, 1))
    with pytest.raises(ValueError):
        XState(np.eye(2) / 2.0, (0,))


def test_reduced_two_spin_is_x_state():
    for n, b in [(3, 0.4), (5, 1.0), (8, 2.0)]:
        gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=b))
        pair = reduced_two_spin(gs, 0, 1)
        assert isinstance(pair, XState)
        assert pair.site_labels == (0, 1)
    with pytest.raises(ValueError):
        reduced_two_spin(gs, 2, 2)


def test_pair_mutual_information_matches_general_form(rng):
    mat = oracles.random_x_matrix(rng)
    assert abs(pair_mutual_information(mat) - oracles.pair_information(mat)) < 1e-10


def test_anchors_bell_product_and_zero_field():
    assert abs(discord(BELL_RHO) - 1.0) < 1e-8
    assert abs(mid(BELL_RHO) - 1.0) < 1e-10
    assert abs(amid(BELL_RHO) - 1.0) < 1e-8

    product = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])).astype(complex)
    assert discord(product) < 1e-8
    assert mid(product) < 1e-10
    assert amid(product) < 1e-8

    gs, _ = ground_state(RingConfig(n_sites=5, coupling_j=1.0, field_b=0.0))
    pair = reduced_two_spin(gs, 0, 1)
    assert discord(pair) < 1e-8
    assert abs(mid(pair) - 1.0) < 1e-8
    assert amid(pair) < 1e-6


def test_werner_discord_closed_form():
    """D(p) = (1-p)/4 log(1-p) + (1+3p)/4 log(1+3p) - (1+p)/2 log(1+p),
    the known projective-measurement result for Werner states."""
    for p in (0.3, 0.5, 0.8):
        got = discord(werner(p), direction="b->a")
        expected = (
            0.25 * (1 - p) * math.log2(1 - p)
            + 0.25 * (1 + 3 * p) * math.log2(1 + 3 * p)
            - 0.5 * (1 + p) * math.log2(1 + p)
        )
        assert abs(got - expected) < 1e-7, p
        assert abs(discord(werner(p), direction="a->b") - got) < 1e-9
        assert abs(discord(werner(p), direction="sym") - got) < 1e-9
    assert abs(discord(werner(0.5)) - 0.2624834) < 1e-6


def test_discord_directions_and_errors(rng):
    mat = oracles.random_x_matrix(rng)
    d_ab = discord(mat, direction="a->b")
    d_ba = discord(mat, direction="b->a")
    assert abs(discord(mat, direction="sym") - max(d_ab, d_ba)) < 1e-12
    with pytest.raises(ValueError):
        discord(mat, direction="up")
    with pytest.raises(ValueError):
        discord(np.eye(2) / 2.0)


def test_non_x_state_falls_back_with_warning(rng):
    dense = oracles.random_density(rng, 2)
    with pytest.warns(NonXStateWarning):
        value = discord(dense, direction="b->a")
    assert 0.0 <= value <= 1.0 + 1e-9


def test_discord_matches_brute_force_scan_on_non_x_states(rng):
    # The 147th Ginibre draw of rng 99: a polish from the best point of a
    # 16 x 16 angle grid ended in a worse basin, 2.7e-3 above the "b->a" scan.
    rng99 = np.random.default_rng(99)
    hard = [oracles.random_density(rng99, 2) for _ in range(147)][-1]
    for rho in [oracles.random_density(rng, 2) for _ in range(3)] + [hard]:
        for direction, measured in (("b->a", 1), ("a->b", 0)):
            with pytest.warns(NonXStateWarning):
                got = discord(rho, direction=direction)
            expected = oracles.discord_scan(rho, measured)
            assert got <= expected + 1e-10, (direction, got, expected)
            assert abs(got - expected) < 1e-6, (direction, got, expected)


def test_discord_polish_converges_from_a_zero_angle_probe():
    """The 23rd Ginibre draw after 150 X states of rng 42: the "a->b" polish
    starts on a probe with a zero angle.  A simplex stepping 2.5e-4 rad there
    runs out of its 600 evaluations 0.0126 bit above the scan; the restart
    with a 0.05 rad simplex converges onto the scan, with no
    ConvergenceWarning."""
    rng42 = np.random.default_rng(42)
    for _ in range(150):
        oracles.random_x_matrix(rng42)
    rho = [oracles.random_density(rng42, 2) for _ in range(23)][-1]
    expected = oracles.discord_scan(rho, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        one_sided, symmetric = discord(rho, direction="a->b"), discord(rho)
    assert {w.category for w in caught} == {NonXStateWarning}
    assert abs(one_sided - expected) < 1e-6, (one_sided, expected)
    expected = max(expected, oracles.discord_scan(rho, 1))
    assert abs(symmetric - expected) < 1e-6, (symmetric, expected)


def test_discord_warns_when_its_polish_does_not_converge(monkeypatch):
    def stalled(fun, x0, **kwargs):
        return OptimizeResult(x=x0, fun=fun(x0), success=False)

    monkeypatch.setattr("isingring.pair_measures.minimize", stalled)
    with pytest.warns(ConvergenceWarning):
        value = discord(BELL_RHO)
    assert abs(value - 1.0) < 1e-12


def test_mid_matches_projector_dephasing_on_non_x_states(rng):
    """MID against the explicit projector sum in the marginal eigenbases."""
    for _ in range(3):
        rho = oracles.random_density(rng, 2)
        angles = []
        for site in (0, 1):
            _, vecs = np.linalg.eigh(oracles.partial_trace_dense(rho, 2, [site]))
            v = vecs[:, 1]
            angles.append((2.0 * np.arctan2(abs(v[1]), abs(v[0])),
                           np.angle(v[1]) - np.angle(v[0])))
        expected = (oracles.pair_information(rho)
                    - oracles.pair_information(oracles.dephase_matrix(rho, angles)))
        assert abs(mid(rho) - expected) < 1e-10


_NON_HERMITIAN = np.eye(4) / 4.0
_NON_HERMITIAN[0, 1] = 0.1


@pytest.mark.parametrize("measure", [discord, mid, amid, pair_mutual_information])
@pytest.mark.parametrize("bad", [
    pytest.param(np.eye(4), id="trace-4"),
    pytest.param(np.diag([0.7, 0.5, -0.1, -0.1]), id="negative-eigenvalues"),
    pytest.param(_NON_HERMITIAN, id="non-hermitian"),
])
def test_pair_measures_reject_invalid_raw_arrays(measure, bad):
    with pytest.raises(ValueError):
        measure(bad)


def test_amid_matches_brute_force_scan(rng):
    """AMID against a theta/phi scan of both bases, the best pair re-evaluated
    by projector-sum dephasing, on X, locally rotated X, Ginibre and pure
    states."""
    def local_unitary():
        a, b = oracles.random_pure(rng, 1)
        return np.array([[a, -b.conjugate()], [b, a.conjugate()]])

    states = []
    for _ in range(2):
        x = oracles.random_x_matrix(rng)
        u = np.kron(local_unitary(), local_unitary())
        psi = oracles.random_pure(rng, 2)
        states += [x, u @ x @ u.conj().T, oracles.random_density(rng, 2),
                   np.outer(psi, psi.conj())]
    for k, rho in enumerate(states):
        got, expected = amid(rho), oracles.amid_scan(rho)
        assert got <= expected + 1e-10, (k, got, expected)
        assert abs(got - expected) < 1e-6, (k, got, expected)


def test_amid_warns_when_its_polish_does_not_converge(monkeypatch):
    def stalled(fun, x0, **kwargs):
        return OptimizeResult(x=x0, fun=fun(x0), success=False)

    monkeypatch.setattr("isingring.pair_measures.minimize", stalled)
    with pytest.warns(ConvergenceWarning):
        value = amid(BELL_RHO)
    # the sigma^z probe pair already attains the optimum for a Bell state
    assert abs(value - 1.0) < 1e-12


def test_hierarchy_on_random_x_states(rng):
    for k in range(25):
        mat = oracles.random_x_matrix(rng)
        d = discord(mat, direction="sym")
        a = amid(mat, seed=k)
        m = mid(mat)
        assert d <= a + 1e-6, (k, d, a)
        assert a <= m + 1e-6, (k, a, m)


def test_amid_deterministic_and_zero_for_classical(rng):
    mat = oracles.random_x_matrix(rng)
    assert amid(mat, seed=5) == amid(mat, seed=5)
    classical = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
    assert amid(classical) < 1e-9


def test_translation_and_reflection_symmetry_of_pair_measures():
    gs, _ = ground_state(RingConfig(n_sites=6, coupling_j=1.0, field_b=0.9))
    pairs = [(0, 1), (2, 3), (5, 0)]
    values = [discord(reduced_two_spin(gs, i, j)) for i, j in pairs]
    assert max(values) - min(values) < 1e-9
    # separation s and N - s are the same geometry on a ring
    d2 = discord(reduced_two_spin(gs, 0, 2))
    d4 = discord(reduced_two_spin(gs, 0, 4))
    assert abs(d2 - d4) < 1e-9


def test_pair_discord_decays_with_separation():
    gs, _ = ground_state(RingConfig(n_sites=8, coupling_j=1.0, field_b=1.0))
    d = [discord(reduced_two_spin(gs, 0, s)) for s in (1, 2, 3)]
    assert d[0] > d[1] > d[2] >= 0.0


def test_toeplitz_critical_point_and_limits():
    corr = toeplitz_correlators(1.0, 1)
    assert abs(corr.chi_xx - 2.0 / math.pi) < 1e-10
    assert corr.quad_error <= 1e-10
    # Deep paramagnet: x correlations vanish, magnetization saturates, and
    # the zz correlator factorizes (connected part -> 0).
    weak = toeplitz_correlators(1e-4, 1)
    assert abs(weak.mz - 1.0) < 1e-3
    assert abs(weak.chi_xx) < 1e-3
    assert abs(weak.chi_zz - weak.mz ** 2) < 1e-6
    # Deep ferromagnet: chi_xx approaches the squared order parameter.
    strong = toeplitz_correlators(25.0, 1)
    assert strong.chi_xx > 0.99
    # chi_xx decays with separation on the paramagnetic side.
    c1 = toeplitz_correlators(0.5, 1).chi_xx
    c2 = toeplitz_correlators(0.5, 2).chi_xx
    assert c1 > c2 > 0.0


def test_toeplitz_input_validation():
    with pytest.raises(ValueError):
        toeplitz_correlators(0.0, 1)
    with pytest.raises(ValueError):
        toeplitz_correlators(-1.0, 1)
    with pytest.raises(ValueError):
        toeplitz_correlators(math.inf, 1)
    with pytest.raises(ValueError):
        toeplitz_correlators(1.0, 0)
    err = QuadratureError("too rough", achieved=3.2e-9)
    assert err.achieved == 3.2e-9
    with pytest.raises(ValueError):
        CorrelatorSet(1.5, 0.0, 0.0, 0.0, 1, 1.0, 0.0)


def test_correlator_state_matches_finite_chain(chain14_pair):
    exact, _ = chain14_pair
    corr = toeplitz_correlators(0.5, 1)
    rebuilt = x_state_from_correlators(corr)
    assert np.max(np.abs(rebuilt.matrix - exact)) < 5e-2
    # the N=14 point is already deep in the convergent regime
    assert np.max(np.abs(rebuilt.matrix - exact)) < 1e-3


def test_correlator_state_is_valid_x_state():
    for lam in (0.25, 0.8, 1.0, 1.7, 5.0):
        state = x_state_from_correlators(toeplitz_correlators(lam, 1))
        assert isinstance(state, XState)
