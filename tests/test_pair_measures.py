import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
import isingring.newton as newton
import isingring.pair_measures as pair_measures
from isingring.density import DensityMatrix, PureState, reduced_state
from isingring.errors import ConvergenceWarning, NonXStateWarning, QuadratureError
from isingring.pair_measures import (
    CorrelatorSet,
    XState,
    amid,
    discord,
    is_x_pattern,
    mid,
    one_sided_discords,
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


def test_reduced_two_spin_validates_once_with_the_same_errors(monkeypatch):
    """One eigvalsh per pair state (the DensityMatrix checks ran twice, once
    more inside XState), the same matrix as ``reduced_state``, and the same
    errors for bad sites and for pairs off the X pattern."""
    gs, _ = ground_state(RingConfig(n_sites=5, coupling_j=1.0, field_b=0.8))
    calls, real = [], np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", counted)
        pair = reduced_two_spin(gs, 0, 2)
    assert len(calls) == 1
    assert isinstance(pair, XState) and pair.site_labels == (0, 2)
    assert np.array_equal(pair.matrix, reduced_state(gs, (0, 2)).matrix)
    for sites, message in (((2, 2), "nonempty set of distinct sites"),
                           ((0, 5), r"sites \(0, 5\) outside ring of 5"),
                           ((-1, 0), r"sites \(-1, 0\) outside ring of 5"),
                           ((0, 1.0), "site must be an integer, got 1.0")):
        with pytest.raises(ValueError, match=message):
            reduced_two_spin(gs, *sites)
    psi = oracles.random_pure(np.random.default_rng(4), 3)
    with pytest.raises(ValueError, match="violates the X sparsity pattern"):
        reduced_two_spin(PureState(psi, 3), 0, 1)


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
        d_a, got = one_sided_discords(werner(p))
        expected = (
            0.25 * (1 - p) * math.log2(1 - p)
            + 0.25 * (1 + 3 * p) * math.log2(1 + 3 * p)
            - 0.5 * (1 + p) * math.log2(1 + p)
        )
        assert abs(got - expected) < 1e-7, p
        assert abs(d_a - got) < 1e-9
        assert abs(discord(werner(p)) - got) < 1e-9
    assert abs(discord(werner(0.5)) - 0.2624834) < 1e-6


def test_discord_directions_and_errors(rng):
    """Both directions come from ``one_sided_discords``; ``discord`` is the
    symmetrized one alone and takes no direction."""
    mat = oracles.random_x_matrix(rng)
    d_ab, d_ba = one_sided_discords(mat)
    assert discord(mat) == max(d_ab, d_ba)
    with pytest.raises(TypeError):
        discord(mat, direction="sym")
    with pytest.raises(ValueError):
        discord(np.eye(2) / 2.0)


def test_non_x_state_falls_back_with_warning(rng):
    """The warning names the caller's line, from either entry point."""
    dense = oracles.random_density(rng, 2)
    with pytest.warns(NonXStateWarning) as caught:
        value = discord(dense)
    with pytest.warns(NonXStateWarning) as more:
        assert max(one_sided_discords(dense)) == value
    assert [w.filename for w in [*caught, *more]] == [__file__] * 2
    assert 0.0 <= value <= 1.0 + 1e-9


def test_discord_matches_brute_force_scan_on_non_x_states(rng):
    # The 147th Ginibre draw of rng 99: a polish from the best point of a
    # 16 x 16 angle grid ended in a worse basin, 2.7e-3 above the "b->a" scan.
    rng99 = np.random.default_rng(99)
    hard = [oracles.random_density(rng99, 2) for _ in range(147)][-1]
    for rho in [oracles.random_density(rng, 2) for _ in range(3)] + [hard]:
        with pytest.warns(NonXStateWarning):
            d_a, d_b = one_sided_discords(rho)
        for direction, measured, got in (("b->a", 1, d_b), ("a->b", 0, d_a)):
            expected = oracles.discord_scan(rho, measured)
            assert got <= expected + 1e-10, (direction, got, expected)
            assert abs(got - expected) < 1e-6, (direction, got, expected)


def test_discord_polish_converges_from_a_zero_angle_probe():
    """The 23rd Ginibre draw after 150 X states of rng 42: the "a->b" polish
    starts on a probe with a zero angle, where phi is flat.  A Nelder-Mead
    simplex stepping 2.5e-4 rad there stalled 0.0126 bit above the scan; the
    Newton polish converges onto the scan, with no ConvergenceWarning."""
    rng42 = np.random.default_rng(42)
    for _ in range(150):
        oracles.random_x_matrix(rng42)
    rho = [oracles.random_density(rng42, 2) for _ in range(23)][-1]
    expected = oracles.discord_scan(rho, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        one_sided, symmetric = one_sided_discords(rho)[0], discord(rho)
    assert {w.category for w in caught} == {NonXStateWarning}
    assert abs(one_sided - expected) < 1e-6, (one_sided, expected)
    expected = max(expected, oracles.discord_scan(rho, 1))
    assert abs(symmetric - expected) < 1e-6, (symmetric, expected)


def test_discord_warns_when_its_polish_does_not_converge(monkeypatch):
    """One warning, naming the caller's line, from either entry point."""
    monkeypatch.setattr(newton, "_POLISH_MAX_ITER", 0)
    with pytest.warns(ConvergenceWarning) as caught:
        value = discord(BELL_RHO)
    assert abs(value - 1.0) < 1e-12
    with pytest.warns(ConvergenceWarning) as more:
        assert max(one_sided_discords(BELL_RHO)) == value
    assert [w.filename for w in [*caught, *more]] == [__file__] * 2


def test_ring_pair_polish_confirms_its_probe_in_few_kernel_calls(monkeypatch):
    """On ring pairs (X states) the best probe is the minimum, so a whole
    symmetrized discord, both one-sided discords and each AMID make at most
    4 kernel calls: the probes, then one Newton step's stencil and line
    search (Nelder-Mead spent ~100-300 evaluations), both sides of a discord
    in the same calls.  The one-sided values still match the scan."""
    calls = []
    for name in ("_conditional_entropy", "_dephased_information"):
        def counted(*args, _kernel=getattr(pair_measures, name)):
            calls.append(name)
            return _kernel(*args)
        monkeypatch.setattr(pair_measures, name, counted)

    def kernel_calls(measure, *args, **kwargs):
        calls.clear()
        value = measure(*args, **kwargs)
        return value, len(calls)

    for n in (6, 8):
        for ratio in (0.05, 0.5, 1.0, 2.0, 6.0):
            gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=ratio))
            for sep in range(1, n // 2 + 1):
                rho = reduced_two_spin(gs, 0, sep)
                _, count = kernel_calls(discord, rho)
                assert 1 <= count <= 4, (n, ratio, sep, "sym", count)
                sides, count = kernel_calls(one_sided_discords, rho)
                assert 1 <= count <= 4, (n, ratio, sep, "one-sided", count)
                for measured, got in enumerate(sides):
                    expected = oracles.discord_scan(rho.matrix, measured)
                    assert abs(got - expected) < 1e-6, (n, ratio, sep, got, expected)
                _, count = kernel_calls(amid, rho)
                assert 1 <= count <= 4, (n, ratio, sep, "amid", count)


def _two_qubit_panel():
    """926 two-qubit states: 300 random X states and their swaps, 150
    Ginibre states and the 147th Ginibre draw of rng 99, the pairs (0, s) of
    ring ground states at N = 2..12 and four fields, Toeplitz states, the
    Bell and Werner states, an X state with maximally mixed marginals and
    product states."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    rng = np.random.default_rng(2024)
    states = []
    for _ in range(300):
        x = oracles.random_x_matrix(rng)
        states += [x, swap @ x @ swap]
    states += [oracles.random_density(rng, 2) for _ in range(150)]
    rng99 = np.random.default_rng(99)
    states.append([oracles.random_density(rng99, 2) for _ in range(147)][-1])
    for n in range(2, 13):
        for ratio in (0.05, 0.7, 1.0, 2.5):
            gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=ratio))
            states += [reduced_two_spin(gs, 0, s).matrix for s in range(1, n // 2 + 1)]
    states += [x_state_from_correlators(toeplitz_correlators(lam, s)).matrix
               for lam in (0.3, 0.6, 1.0, 1.6) for s in (1, 2, 3)]
    states += [BELL_RHO] + [werner(p) for p in np.linspace(0.0, 1.0, 9)]
    states.append(np.diag([0.1, 0.4, 0.4, 0.1]).astype(complex))
    states += [np.kron(oracles.random_density(rng, 1), oracles.random_density(rng, 1))
               for _ in range(8)]
    return states


def test_symmetric_discord_is_the_larger_one_sided_discord_bit_for_bit():
    """On 926 states, discord(rho) is the larger of one_sided_discords(rho)
    bit for bit; ``test_pinned_discord_and_amid_values`` pins both sides
    as one search of a single side gave them."""
    states = _two_qubit_panel()
    assert len(states) >= 900
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonXStateWarning)
        for k, rho in enumerate(states):
            d_a, d_b = one_sided_discords(rho)
            assert discord(rho).hex() == max(d_b, d_a).hex(), k


def test_pinned_discord_and_amid_values():
    """Discord (sym, a->b, b->a) and AMID as hex on six states, so that a
    kernel or search change that moves their last bits shows.  The 28th
    Ginibre draw of rng 5 moves by 4 ulp when a side's entropy takes its
    Bloch length from ``norm(axis=-1)`` instead of the 1-D norm.  The ring
    entries also move with the last bits of the ground-state amplitudes."""
    rng5, rng99 = np.random.default_rng(5), np.random.default_rng(99)
    states = {"ginibre5.28": [oracles.random_density(rng5, 2) for _ in range(28)][-1],
              "ginibre99.147": [oracles.random_density(rng99, 2) for _ in range(147)][-1],
              "toeplitz0.6.2": x_state_from_correlators(toeplitz_correlators(0.6, 2))}
    for n, ratio, sep in ((6, 1.0, 1), (8, 0.5, 4), (12, 1.0, 2)):
        gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=ratio))
        states[f"ring{n}.{ratio}.{sep}"] = reduced_two_spin(gs, 0, sep)
    pinned = {
        "ring6.1.0.1": ("0x1.020d87e2a16a8p-3", "0x1.020d87e2a16a0p-3",
                        "0x1.020d87e2a16a8p-3", "0x1.b6b89c8ee4674p-3"),
        "ring8.0.5.4": ("0x1.0d1e1d21ca2bcp-4",) * 3 + ("0x1.c1ffc69963b50p-4",),
        "ring12.1.0.2": ("0x1.4f8db5afc08c8p-4", "0x1.4f8db5afc08bcp-4",
                         "0x1.4f8db5afc08c8p-4", "0x1.13957d02d0e68p-3"),
        "toeplitz0.6.2": ("0x1.44b97ad1879d0p-6",) * 3 + ("0x1.ea6c24d72d9c0p-6",),
        "ginibre99.147": ("0x1.14175d0be49f0p-4", "0x1.14175d0be49f0p-4",
                          "0x1.0d50094451f98p-4", "0x1.31ecb2e063cf0p-4"),
        "ginibre5.28": ("0x1.0faf4b3cfd2fcp-3", "0x1.0faf4b3cfd2fcp-3",
                        "0x1.0e3b94ced5f00p-3", "0x1.105a1242e8ed0p-3"),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonXStateWarning)
        got = {label: (discord(rho).hex(), *(d.hex() for d in one_sided_discords(rho)),
                       amid(rho).hex()) for label, rho in states.items()}
    assert got == pinned


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


def test_pair_measures_reject_a_one_qubit_state():
    with pytest.raises(ValueError, match="defined for two-qubit states"):
        discord(DensityMatrix(np.eye(2) / 2.0, (0,)))


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
    """One warning, naming the caller's line, as ``discord``'s does."""
    monkeypatch.setattr(newton, "_POLISH_MAX_ITER", 0)
    with pytest.warns(ConvergenceWarning) as caught:
        value = amid(BELL_RHO)
    assert [w.filename for w in caught] == [__file__]
    # the sigma^z probe pair already attains the optimum for a Bell state
    assert abs(value - 1.0) < 1e-12


def test_hierarchy_on_random_x_states(rng):
    for k in range(25):
        mat = oracles.random_x_matrix(rng)
        d = discord(mat)
        a = amid(mat, seed=k)
        m = mid(mat)
        assert d <= a + 1e-6, (k, d, a)
        assert a <= m + 1e-6, (k, a, m)


def test_amid_deterministic_and_zero_for_classical(rng):
    mat = oracles.random_x_matrix(rng)
    assert amid(mat, seed=5) == amid(mat, seed=5)
    classical = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
    assert amid(classical) < 1e-9


#: AMID, as hex, of the 379th Ginibre state drawn from rng 20240817, by
#: n_starts, at seeds 0-3, as computed when every call built its generator.
#: Its best candidate depends on the random draws (seeds 1 and 2 at
#: n_starts >= 8), so the table pins their values and order.
_AMID_HEX = {
    1: ["0x1.eceef668cad60p-5"] * 4,
    4: ["0x1.eceef668cad60p-5"] * 4,
    8: ["0x1.eceef668cad60p-5", "0x1.eceef668cad20p-5",
        "0x1.eceef668cad40p-5", "0x1.eceef668cad60p-5"],
    12: ["0x1.eceef668cad60p-5", "0x1.eceef668cad20p-5",
         "0x1.eceef668cad40p-5", "0x1.eceef668cad60p-5"],
}


def test_amid_random_candidates_are_unchanged():
    draws = np.random.default_rng(20240817)
    rho = [oracles.random_density(draws, 2) for _ in range(379)][-1]
    got = {n: [amid(rho, n_starts=n, seed=seed).hex() for seed in range(4)]
           for n in _AMID_HEX}
    assert got == _AMID_HEX


def test_amid_rejects_a_bad_seed_even_without_random_candidates():
    """n_starts <= 4 draws nothing, yet a bad seed fails as on a call that
    draws: numpy's ValueError for a negative one, TypeError for a float."""
    for n_starts in (1, 4, 8):
        with pytest.raises(ValueError, match="non-negative"):
            amid(BELL_RHO, n_starts=n_starts, seed=-1)
        with pytest.raises(TypeError):
            amid(BELL_RHO, n_starts=n_starts, seed=1.5)


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


def _superfactorial_ratio(s: int) -> float:
    """2^{2s(s-1)} H(s)^4 / H(2s) with H(n) = prod_{k=1}^{n-1} k^{n-k}, exact."""
    def h(n):
        return math.prod(k ** (n - k) for k in range(1, n))
    return float(Fraction(2 ** (2 * s * (s - 1)) * h(s) ** 4, h(2 * s)))


def test_toeplitz_closed_forms_at_criticality(monkeypatch):
    # Pfeuty, Ann. Phys. 57, 79 (1970): at lam = 1, G_k = (2/pi)(-1)^k/(2k+1),
    # chi_xx = (2/pi)^s 2^{2s(s-1)} H(s)^4/H(2s), chi_yy = -chi_xx/(4s^2 - 1),
    # chi_zz = (4/pi^2) 4s^2/(4s^2 - 1) and mz = 2/pi.
    values, _ = pair_measures._g_moments(1.0, 8)
    for k, value in zip(range(-8, 9), values):
        assert abs(value - (2.0 / math.pi) * (-1) ** k / (2 * k + 1)) < 1e-14
    counts = []
    kernel = pair_measures._g_moments

    def counting(lam, s):
        moments, errors = kernel(lam, s)
        counts.append(len(moments))
        return moments, errors

    monkeypatch.setattr(pair_measures, "_g_moments", counting)
    for s in range(1, 9):
        counts.clear()
        corr = toeplitz_correlators(1.0, s)
        assert counts == [2 * s + 1]  # one kernel call, moments G_-s..G_s
        chi_xx = (2.0 / math.pi) ** s * _superfactorial_ratio(s)
        assert abs(corr.chi_xx - chi_xx) < 1e-14
        assert abs(corr.chi_yy + chi_xx / (4 * s * s - 1)) < 1e-14
        assert abs(corr.chi_zz - 4.0 / math.pi ** 2 * 4 * s * s / (4 * s * s - 1)) < 1e-14
        assert abs(corr.mz - 2.0 / math.pi) < 1e-14


# (chi_xx, chi_yy, chi_zz, mz) next to lam = 1, from the same moments
# integrated with mpmath at 50 digits (in phi and in t = pi - phi, which agree
# to 2e-43), then 50-digit Toeplitz determinants.  The lam = 1 +- 1e-10 and
# 1 +- 1e-11 rows lie where an adaptive QUADPACK rule flags roundoff or
# misses the kink at t = 0 by up to 1e-10.
NEAR_CRITICAL = {
    (1 - 1e-5, 1): (6.3657968933776601e-1, -2.122424292916692e-1, 5.4044499093235723e-1, 6.3665985520493883e-1),
    (1 - 1e-5, 4): (4.5554221269705436e-1, -7.2369092872113091e-3, 4.1176945549633245e-1, 6.3665985520493883e-1),
    (1 - 1e-5, 8): (3.8326070615331852e-1, -1.5053587848622013e-3, 4.0692525797333019e-1, 6.3665985520493883e-1),
    (1 + 1e-5, 1): (6.3665985483594458e-1, -2.1217075205712584e-1, 5.403143015522828e-1, 6.3657968970676395e-1),
    (1 + 1e-5, 4): (4.557519750072586e-1, -7.2280778047413091e-3, 4.1166619678049992e-1, 6.3657968970676395e-1),
    (1 + 1e-5, 8): (3.8359427303576799e-1, -1.5019156325040841e-3, 4.0682291635096861e-1, 6.3657968970676395e-1),
    (1 - 1e-7, 1): (6.366192249529319e-1, -2.1220709576247087e-1, 5.4038054839341275e-1, 6.3662031978220421e-1),
    (1 - 1e-7, 4): (4.5564562606950101e-1, -7.2325577057763913e-3, 4.1171853149098196e-1, 6.3662031978220421e-1),
    (1 - 1e-7, 8): (3.8342511648125704e-1, -1.5036627432664035e-3, 4.0687478555027333e-1, 6.3662031978220421e-1),
    (1 + 1e-7, 1): (6.3662031978215322e-1, -2.1220608581588588e-1, 5.4037874379156495e-1, 6.3661922495298289e-1),
    (1 + 1e-7, 4): (4.5564856302556886e-1, -7.2324294227152441e-3, 4.1171711969769258e-1, 6.3661922495298289e-1),
    (1 + 1e-7, 8): (3.8342986474915879e-1, -1.503611692930187e-3, 4.0687338738916728e-1, 6.3661922495298289e-1),
    (1 - 1e-9, 1): (6.3661976542756422e-1, -2.1220659730479773e-1, 5.4037965760401728e-1, 6.3661977930759846e-1),
    (1 - 1e-9, 4): (4.5564707566619052e-1, -7.2324944055046429e-3, 4.1171783454925829e-1, 6.3661977930759846e-1),
    (1 - 1e-9, 8): (3.8342745981102764e-1, -1.5036375564451931e-3, 4.0687409533415277e-1, 6.3661977930759846e-1),
    (1 + 1e-9, 1): (6.3661977930759919e-1, -2.1220658427358914e-1, 5.4037963458091774e-1, 6.3661976542756349e-1),
    (1 + 1e-9, 4): (4.5564711342908184e-1, -7.2324927229916233e-3, 4.1171781663926362e-1, 6.3661976542756349e-1),
    (1 + 1e-9, 8): (3.8342752141969904e-1, -1.5036368797536866e-3, 4.0687407760509242e-1, 6.3661976542756349e-1),
    (1 - 2.0 ** -52, 1): (6.3661977236757872e-1, -2.1220659078919631e-1, 5.4037964609247251e-1, 6.3661977236758397e-1),
    (1 - 2.0 ** -52, 4): (4.556470945476279e-1, -7.2324935642485121e-3, 4.1171782559426481e-1, 6.3661977236758397e-1),
    (1 - 2.0 ** -52, 8): (3.8342749061534968e-1, -1.5036372180995943e-3, 4.068740864696264e-1, 6.3661977236758397e-1),
    (1 + 2.0 ** -52, 1): (6.3661977236758397e-1, -2.1220659078919125e-1, 5.4037964609246372e-1, 6.3661977236757872e-1),
    (1 + 2.0 ** -52, 4): (4.5564709454764249e-1, -7.2324935642478433e-3, 4.1171782559425803e-1, 6.3661977236757872e-1),
    (1 + 2.0 ** -52, 8): (3.8342749061537379e-1, -1.5036372180993213e-3, 4.068740864696197e-1, 6.3661977236757872e-1),
    (1 - 1e-10, 1): (6.366197716002860e-1, -2.122065915140478e-1, 5.403796473680502e-1, 6.366197731348767e-1),
    (1 - 1e-10, 4): (4.556470924496573e-1, -7.232493658365893e-3, 4.1171782658456274e-1, 6.366197731348767e-1),
    (1 - 1e-10, 8): (3.834274871817782e-1, -1.5036372560887385e-3, 4.0687408744976233e-1, 6.366197731348767e-1),
    (1 + 1e-10, 1): (6.366197731348767e-1, -2.1220659006433976e-1, 5.403796448168860e-1, 6.366197716002860e-1),
    (1 + 1e-10, 4): (4.556470966456131e-1, -7.232493470130462e-3, 4.117178246039601e-1, 6.366197716002860e-1),
    (1 + 1e-10, 8): (3.8342749404894527e-1, -1.5036371801101771e-3, 4.068740854894838e-1, 6.366197716002860e-1),
    (1 - 1e-11, 1): (6.366197722835224e-1, -2.1220659086900853e-1, 5.403796462324690e-1, 6.366197724516403e-1),
    (1 - 1e-11, 4): (4.556470943168541e-1, -7.232493574659155e-3, 4.117178257027717e-1, 6.366197724516403e-1),
    (1 - 1e-11, 8): (3.8342749023668843e-1, -1.5036372223138563e-3, 4.068740865770056e-1, 6.366197724516403e-1),
    (1 + 1e-11, 1): (6.366197724516403e-1, -2.1220659070937903e-1, 5.403796459524672e-1, 6.366197722835224e-1),
    (1 + 1e-11, 4): (4.556470947784163e-1, -7.2324935538372005e-3, 4.1171782548575114e-1, 6.366197722835224e-1),
    (1 + 1e-11, 8): (3.8342749099403506e-1, -1.5036372138850593e-3, 4.068740863622405e-1, 6.366197722835224e-1),
}


def test_toeplitz_near_criticality_matches_reference():
    for (lam, s), expected in NEAR_CRITICAL.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corr = toeplitz_correlators(lam, s)
        assert not caught, (lam, s)
        got = (corr.chi_xx, corr.chi_yy, corr.chi_zz, corr.mz)
        assert np.max(np.abs(np.subtract(got, expected))) < 1e-12, (lam, s)


def test_toeplitz_estimate_above_tolerance_is_one_error(monkeypatch):
    # 4- and 6-node rules: the estimate bounds each moment's true error at
    # lam = 1 and lies far above QUAD_ABS_TOL
    rules = (pair_measures._gauss_legendre(4), pair_measures._gauss_legendre(6))
    monkeypatch.setattr(pair_measures, "_RULES", rules)
    values, errors = pair_measures._g_moments(1.0, 8)
    exact = [(2.0 / math.pi) * (-1) ** k / (2 * k + 1) for k in range(-8, 9)]
    assert np.all(np.abs(values - exact) <= errors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(QuadratureError, match="above tolerance") as info:
            toeplitz_correlators(1.0, 8)
    assert not caught
    assert info.value.achieved == errors.sum() > pair_measures.QUAD_ABS_TOL


def test_panel_edges_equal_np_unique_bit_for_bit():
    """The sorted, deduplicated edges are np.unique's array of the same raw
    edges: the uniform grid and the geometric grading."""
    for lam in np.geomspace(1e-4, 1e4, 23):
        width = abs(1.0 - lam) / math.sqrt(lam)
        for s in (1, 3, 8, 15, 30):
            raw = [np.linspace(0.0, math.pi, math.ceil(math.pi * (s + 1) / 12.0) + 1)]
            if 0.0 < width < math.pi:
                raw.append(width * 4.0 ** np.arange(math.ceil(math.log(math.pi / width, 4))))
            expected = np.unique(np.concatenate(raw))
            got = pair_measures._panel_edges(float(lam), s)
            assert got.dtype == expected.dtype, (lam, s)
            assert got.tobytes() == expected.tobytes(), (lam, s)


def test_gauss_legendre_rule_integrates_polynomials_exactly():
    for n in (2, 20, 30):
        x, w = pair_measures._gauss_legendre(n)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        np.testing.assert_allclose(x, np.polynomial.legendre.leggauss(n)[0],
                                   rtol=0, atol=1e-15)
        # exact up to degree 2n - 1 (leggauss's own weights miss by 5e-15)
        for j in range(n):
            assert abs(w @ x ** (2 * j) - 2.0 / (2 * j + 1)) < 2e-15
            assert abs(w @ x ** (2 * j + 1)) < 2e-15


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
