import importlib
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from isingring.density import (PureState, _angles, _unit, reduced_state, rotation_matrix,
                               von_neumann_entropy)
from isingring.global_discord import (
    _CENTRES,
    GDResult,
    OptimizerConfig,
    _certificate_rows,
    _objective_factory,
    _outcome_amplitudes,
    _tilt_rows,
    gd_objective,
    global_discord,
)
from isingring.ring import RingConfig, ghz_state, ground_state, product_state_down

gd_module = importlib.import_module("isingring.global_discord")

#: B/J where the all-sigma^x and all-sigma^z objectives cross, to 3 decimals.
CROSSOVER = {3: 1.089, 4: 1.329, 5: 1.392, 6: 1.402, 7: 1.398, 8: 1.389,
             9: 1.379, 10: 1.371, 11: 1.364, 12: 1.359}


def ring(n, ratio):
    return ground_state(RingConfig(n_sites=n, coupling_j=1.0, field_b=ratio))[0]


def reference_global_discord_n2(psi: np.ndarray) -> float:
    """Brute-force infimum of the reference objective for two qubits:
    dense 4-angle grid scan followed by simplex polish from the best seeds."""
    thetas = np.linspace(0.0, math.pi, 7)
    phis = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    scored = []
    for t1 in thetas:
        for p1 in phis:
            for t2 in thetas:
                for p2 in phis:
                    x = (t1, p1, t2, p2)
                    scored.append((oracles.reference_objective(psi, 2, x), x))
    scored.sort(key=lambda sv: sv[0])
    best = scored[0][0]
    for _, x0 in scored[:4]:
        res = minimize(
            lambda x: oracles.reference_objective(psi, 2, x),
            np.asarray(x0),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-10, "maxfev": 2000},
        )
        best = min(best, float(res.fun))
    return max(best, 0.0)


def row_rdag(ang):
    """R_j^dagger of every site of the (rows, N, 2) angle rows, as the
    objective builds them."""
    return rotation_matrix(ang[..., 0], ang[..., 1]).conj().swapaxes(-1, -2)


def outcome_probs(psi, ang):
    return np.abs(_outcome_amplitudes(psi, row_rdag(ang))) ** 2


def test_measured_spectrum_anchors():
    lam = outcome_probs(ghz_state(4).as_tensor(), np.zeros((1, 4, 2)))[0]
    lam = np.sort(lam)[::-1]
    assert abs(lam[0] - 0.5) < 1e-14 and abs(lam[1] - 0.5) < 1e-14
    assert lam[2] < 1e-14
    lam = outcome_probs(product_state_down(3).as_tensor(), np.zeros((1, 3, 2)))[0]
    assert abs(lam[-1] - 1.0) < 1e-14


def test_measured_spectrum_matches_explicit_projectors(rng):
    """The cascade against explicit Kronecker-product projectors, on random
    complex states and real ring ground states, for 1, 2 and 26 rows of
    random angles and for both certificate centres.  On the all-z rows the
    probabilities are the squared amplitudes exactly, and a real state's
    outcome amplitudes in both centres are real: the certificate's cached
    real stack gives their real parts, bit for bit."""
    centres = np.array([[centre] for centre in _CENTRES.values()])
    for n in range(2, 11):
        states = (oracles.random_pure(rng, n), ring(n, 0.9).amplitudes)
        for psi in states:
            for rows in (1, 2, 26):
                ang = np.stack([rng.uniform(0.0, math.pi, size=(rows, n)),
                                rng.uniform(0.0, 2.0 * math.pi, size=(rows, n))], axis=-1)
                ang = np.concatenate([ang, np.tile(centres, (1, n, 1))])
                amps = _outcome_amplitudes(psi, row_rdag(ang))
                lam = np.abs(amps) ** 2
                for row, pairs in zip(lam, ang):
                    expected = oracles.product_probabilities(psi, pairs)
                    assert np.abs(row - expected).max() <= 1e-14, (n, rows)
                # the z centre, second to last, rotates nothing
                assert np.array_equal(lam[-2], np.abs(psi) ** 2), n
                if not np.iscomplexobj(psi):
                    assert not amps[-2:].imag.any(), n
                    real = _outcome_amplitudes(psi, _certificate_rows(n)[1])
                    assert real.dtype == np.float64, n
                    assert np.array_equal(real, amps[-2:].real), n


def test_gd_result_validation():
    with pytest.raises(ValueError):
        GDResult(
            value=-0.5, argmin_angles=np.zeros((2, 2)), n_restarts=1,
            converged=True, n_evals=10,
        )
    # rounding below zero, and a negative zero, read as +0.0
    for value in (-1e-12, -0.0):
        res = GDResult(value=value, argmin_angles=np.zeros((2, 2)),
                       n_restarts=1, converged=True, n_evals=10)
        assert math.copysign(1.0, res.value) == 1.0 and res.value == 0.0, value


def test_objective_matches_reference_definition(rng):
    """Ring ground states are real with <sigma^x> = <sigma^y> = 0 on every
    site; random complex states exercise every Bloch component."""
    for n in (2, 3, 4):
        gs, _ = ground_state(
            RingConfig(n_sites=n, coupling_j=1.0, field_b=rng.uniform(0.3, 1.5))
        )
        for state in (gs, PureState(oracles.random_pure(rng, n), n)):
            for _ in range(5):
                pairs = np.stack(
                    [rng.uniform(0, math.pi, n), rng.uniform(0, 2 * math.pi, n)],
                    axis=1,
                )
                fast = gd_objective(state, pairs)
                ref = oracles.reference_objective(state.amplitudes, n, pairs.ravel())
                assert abs(fast - ref) < 1e-9


def test_fast_objective_equals_full_matrix_bracket(rng):
    for n in (2, 3, 4):
        gs, _ = ground_state(
            RingConfig(n_sites=n, coupling_j=1.0, field_b=0.8)
        )
        rho = np.outer(gs.amplitudes, gs.amplitudes.conj())
        for _ in range(5):
            pairs = np.stack(
                [
                    rng.uniform(0, math.pi, n),
                    rng.uniform(0, 2 * math.pi, n),
                ],
                axis=1,
            )
            full = oracles.full_matrix_objective(rho, n, pairs)
            assert abs(gd_objective(gs, pairs) - full) < 1e-9


def test_objective_scores_a_batch_exactly_as_row_by_row(rng):
    """The certificate scores both centres in one call, so a row's value
    must not depend on the batch it comes in: bit for bit, not within
    rounding."""
    for n in (3, 5):
        objective = _objective_factory(PureState(oracles.random_pure(rng, n), n))[1]
        rows = rng.uniform(0.0, math.pi, size=(6, n, 2))
        one_by_one = [objective(row[None])[0] for row in rows]
        assert objective(rows).tolist() == one_by_one


def test_ghz_and_product_anchors():
    for n in (3, 4, 5):
        res = global_discord(ghz_state(n), OptimizerConfig(seed=0))
        assert abs(res.value - 1.0) < 1e-6, n
        assert res.converged
    res = global_discord(product_state_down(4), OptimizerConfig(seed=0))
    assert res.value < 1e-8
    assert res.converged


def test_two_qubit_global_discord_equals_entanglement_entropy():
    """For pure bipartite states the infimum equals the entanglement entropy;
    this pins the normalization and the optimizer in one shot."""
    for b in (0.5, 1.0, 2.0):
        gs, _ = ground_state(RingConfig(n_sites=2, coupling_j=1.0, field_b=b))
        expected = von_neumann_entropy(reduced_state(gs, (0,)))
        res = global_discord(gs, OptimizerConfig(seed=1))
        assert abs(res.value - expected) < 1e-7, b


def test_two_qubit_matches_brute_force_reference():
    gs, _ = ground_state(RingConfig(n_sites=2, coupling_j=1.0, field_b=0.9))
    res = global_discord(gs, OptimizerConfig(seed=0))
    ref = reference_global_discord_n2(gs.amplitudes)
    assert abs(res.value - ref) < 1e-5


def test_value_never_exceeds_probe_objectives():
    gs, _ = ground_state(RingConfig(n_sites=5, coupling_j=1.0, field_b=0.9))
    res = global_discord(gs, OptimizerConfig(seed=0))
    all_z = np.zeros((5, 2))
    all_x = np.zeros((5, 2))
    all_x[:, 0] = math.pi / 2.0
    assert res.value <= gd_objective(gs, all_z) + 1e-12
    assert res.value <= gd_objective(gs, all_x) + 1e-12


def test_uniform_mode_agrees_with_free_mode(search):
    gs = ring(3, 0.7)
    free = search(gs, OptimizerConfig(seed=0))
    uniform = search(gs, OptimizerConfig(seed=0, uniform_angles=True))
    assert abs(free.value - uniform.value) < 1e-6
    assert uniform.converged


def test_restart_doubling_stability(search):
    gs = ring(4, 0.9)
    few = search(gs, OptimizerConfig(seed=0, restarts=8))
    many = search(gs, OptimizerConfig(seed=0, restarts=16))
    assert abs(few.value - many.value) < 1e-6


def test_determinism_same_seed(search):
    gs = ring(4, 1.1)
    a = search(gs, OptimizerConfig(seed=3))
    b = search(gs, OptimizerConfig(seed=3))
    assert a.value == b.value and a.n_evals == b.n_evals


def test_budget_exhaustion_reports_not_converged(search):
    res = search(ring(4, 1.0), OptimizerConfig(seed=0, max_evals=60))
    assert not res.converged
    assert res.n_evals <= 60
    assert math.isfinite(res.value) and res.value >= 0.0


def test_certificate_budget_below_its_two_rows_reports_not_converged():
    """The certificate scores two rows, so max_evals = 1 is the only budget
    below it: it fits the z row alone and reports that row's value, f_z."""
    gs = ring(4, 1.0)
    assert global_discord(gs, OptimizerConfig(max_evals=2)).converged
    res = global_discord(gs, OptimizerConfig(max_evals=1))
    assert not res.converged and res.n_restarts == 0 and res.n_evals == 1
    assert res.basis is None and res.hessian_margin is None
    assert res.value == gd_objective(gs, np.zeros((4, 2)))


#: (N, B/J, max_evals): value, n_evals, basis and converged under budgets at
#: and next to the certificate's two rows, as scoring the two centre rows in
#: separate calls gave them.
BUDGET_PINS = {
    (4, 0.5, 1): (2.757490566815693, 1, None, False),
    (4, 0.5, 2): (1.3286919909624437, 2, "x", True),
    (4, 0.5, 3): (1.3286919909624437, 2, "x", True),
    (6, 2.0, 1): (0.7921183793106663, 1, None, False),
    (6, 2.0, 2): (0.7921183793106663, 2, "z", True),
    (6, 2.0, 3): (0.7921183793106663, 2, "z", True),
    (8, 1.0, 1): (4.255499619828898, 1, None, False),
    (8, 1.0, 2): (2.6897328781849783, 2, "x", True),
    (8, 1.0, 3): (2.6897328781849783, 2, "x", True),
}


@pytest.mark.parametrize("n, ratio, max_evals", sorted(BUDGET_PINS))
def test_budgets_below_the_certificate_keep_their_results(n, ratio, max_evals):
    """One call scores both centres: max_evals = 1 still fits only the z row
    (f_z), and 2 fits both, keeps the lower and certifies it; a larger
    budget scores nothing more."""
    value, n_evals, basis, converged = BUDGET_PINS[n, ratio, max_evals]
    res = global_discord(ring(n, ratio), OptimizerConfig(max_evals=max_evals))
    assert abs(res.value - value) <= 1e-14
    assert (res.n_evals, res.basis, res.converged) == (n_evals, basis, converged)


def test_ghz8_fallback_search_keeps_its_path():
    """The default search on GHZ at N = 8 scores 36,093 rows (pins the
    search path, not its time)."""
    res = global_discord(ghz_state(8))
    assert res.n_evals == 36093 and abs(res.value - 1.0) <= 1e-15


def test_certified_path_takes_every_ring_ground_state():
    """Two evaluations, no search, on both branches and on both sides of
    the crossover; a silent fall back to the search fails n_restarts.  The
    margin is finite on the sigma^x branch for B > 0 and None where every
    tilt mode moves weight onto a zero outcome: the sigma^z branch, and
    sigma^x at B = 0, where the state is GHZ-like in that basis.  N = 2 at
    B = 0 is the one ring ground state that takes the search: there the
    Bell pair's minimum is flat along equal tilts, so it is not strict.  At
    B/J = 0.01 some sigma^x amplitudes fall below 1e-12 (N = 10..12), yet
    the margin stays finite."""
    for n in range(2, 13):
        ratios = [0.0, 0.01, 0.5, 1.0, 6.0]
        if n in CROSSOVER:
            ratios += [CROSSOVER[n] - 0.01, CROSSOVER[n] + 0.01]
        for ratio in ratios:
            res = global_discord(ring(n, ratio))
            assert res.converged, (n, ratio)
            if n == 2 and ratio == 0.0:
                assert res.basis is None and res.n_restarts > 0
                assert res.value.hex() == "0x1.fffffffffffffp-1"
                continue
            assert res.n_restarts == 0 and res.n_evals == 2, (n, ratio, res.n_evals)
            below = n > 2 and ratio < CROSSOVER[n]
            assert res.basis == ("x" if below else "z"), (n, ratio)
            if below and ratio > 0.0:
                assert res.hessian_margin >= 1e-6, (n, ratio)
            else:
                assert res.hessian_margin is None, (n, ratio)


def symmetric_state(rng, n, parity):
    """A random real state invariant under the rotations and reflections of
    the ring, with parity ``parity`` under prod_n sigma^z_n."""
    psi = rng.standard_normal((2,) * n)
    images = [np.moveaxis(psi, range(n), [(i + s) % n for i in range(n)])
              for s in range(n)]
    v = sum(t + t.transpose(range(n - 1, -1, -1)) for t in images).ravel()
    v *= (-1.0) ** np.array([bin(i).count("1") for i in range(2 ** n)]) == parity
    return PureState(v / np.linalg.norm(v), n)


def test_other_states_fall_back_to_the_search(rng):
    psi = oracles.random_pure(rng, 3)
    res = global_discord(PureState(psi, 3), OptimizerConfig(seed=0, restarts=4))
    assert res.n_restarts == 4 and res.basis is None and res.hessian_margin is None
    # a state with ring symmetry whose objective is 0 in every basis: the
    # search stops at its first zero probe, within the 13 x 8 coarse scan
    for n in (3, 4, 5):
        res = global_discord(product_state_down(n), OptimizerConfig(seed=0))
        assert res.value == 0.0 and res.converged, n
        assert res.n_evals <= 104, (n, res.n_evals)
        assert res.basis is None and res.hessian_margin is None
    res = global_discord(ghz_state(4), OptimizerConfig(seed=0, restarts=4))
    assert res.n_restarts == 4 and abs(res.value - 1.0) < 1e-6


def test_only_states_from_ground_state_take_the_certified_path():
    """The certificate is tried on what ``ground_state`` returned, at any J,
    and on nothing else; it takes every one of them here but the N = 2
    Bell pair at B = 0, whose minimum is not strict.  A copy rebuilt from a
    ground state's amplitudes, excited eigenstates, GHZ, the product state
    and random ring-symmetric states all take the search; the copies land
    within 1e-9 of the certified value (the largest gap seen is 2.8e-15)."""
    opt = OptimizerConfig(seed=0, restarts=4)
    for n in range(2, 9):
        for b in (0.0, 0.5, 1.3, 6.0):
            gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=2.0, field_b=2.0 * b))
            cert = global_discord(gs, opt)
            if n == 2 and b == 0.0:
                assert cert.basis is None and cert.n_restarts == 4
                continue
            assert cert.basis is not None and cert.n_restarts == 0, (n, b)
            if n <= 5 and b > 0.0:
                copy = global_discord(PureState(gs.amplitudes, n), opt)
                assert copy.basis is None and copy.n_restarts > 0, (n, b)
                assert abs(copy.value - cert.value) <= 1e-9, (n, b)
    evecs = np.linalg.eigh(oracles.sparse_tfim(4, 1.0, 0.5).toarray())[1]
    others = [PureState(evecs[:, k], 4) for k in (1, 2, 15)] + [ghz_state(4)]
    rng = np.random.default_rng(3)
    others += [symmetric_state(rng, n, p) for n in (3, 4) for p in (1, -1)]
    for state in others:
        res = global_discord(state, opt)
        assert res.basis is None and res.hessian_margin is None
        assert res.n_restarts > 0 and res.converged
    # the certificate would score two bases first: one evaluation means that
    # the search's first row, a zero, ended the call
    res = global_discord(product_state_down(4), opt)
    assert res.basis is None and res.n_evals == 1 and res.value == 0.0


def test_zero_coupling_fails_the_certificate_then_stops_at_the_first_row():
    """At J = 0 the ground state is all spins down and the objective is 0 in
    every basis: every site is pure, so the certificate fails after its two
    evaluations, and the search stops, converged, at its first row.  A
    budget of one evaluation reports not converged, as on every other ring
    ground state."""
    for n in (2, 3, 4, 7):
        gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=0.0, field_b=0.3))
        res = global_discord(gs)
        assert res.converged and res.n_evals == 3, (n, res.n_evals)
        assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0
        assert res.basis is None and res.hessian_margin is None
        res = global_discord(gs, OptimizerConfig(max_evals=1))
        assert not res.converged and res.n_evals == 1, n


def test_ring_symmetry_alone_does_not_take_the_certified_path():
    """A uniform sigma^x or sigma^z basis can be a strict local minimum of a
    ring-symmetric state that is not a ring ground state while a tilted
    basis lies lower, so such states go to the search."""
    rng = np.random.default_rng(0)
    gaps = []
    for parity in (1, -1, 1, -1):
        gs = symmetric_state(rng, 4, parity)
        res = global_discord(gs, OptimizerConfig(seed=0, restarts=4))
        assert res.basis is None and res.n_restarts == 4 and res.converged
        uniform = min(gd_objective(gs, np.tile(ang, (4, 1)))
                      for ang in ([0.0, 0.0], [math.pi / 2, 0.0]))
        gaps.append(uniform - res.value)
    assert min(gaps) >= -1e-12 and max(gaps) > 0.5, gaps


#: Best known minima (free, shared angles) of the rng-7 fallback panel, to
#: 10 decimals: the lowest of every search run on it, up to 64 restarts on
#: a budget of 2,000,000 evaluations.
BEST_KNOWN_GD = {
    "random3.0": (0.5970445190, 0.7677428812),
    "random3.1": (0.5043583865, 0.7433866683),
    "random3.2": (1.3573637553, 1.7355384765),
    "sym3+1": (1.2460543229, 1.2460543229),
    "sym3-1": (1.1681784205, 1.1681784205),
    "ghz3": (1.0, 1.0),
    "product3": (0.0, 0.0),
    "random4.0": (2.1709197251, 2.7356640591),
    "random4.1": (2.4161943576, 2.7313315577),
    "random4.2": (2.3189975134, 2.8394240280),
    "sym4+1": (1.2295958664, 1.2295958664),
    "sym4-1": (1.3844643409, 1.3844643409),
    "ghz4": (1.0, 1.0),
    "product4": (0.0, 0.0),
    "random5.0": (3.4868208385, 3.9547138305),
    "random5.1": (3.3827318060, 3.8358488028),
    "random5.2": (3.4472263184, 4.0004151267),
    "sym5+1": (0.9139802212, 0.9139802212),
    "sym5-1": (3.1525709681, 3.1525709681),
    "ghz5": (1.0, 1.0),
    "product5": (0.0, 0.0),
}


def test_fallback_search_reaches_the_best_known_minima():
    """Per N = 3, 4, 5, drawn from rng 7: three random complex states, two
    ring-symmetric states (parity +1, -1), GHZ and the product state, none
    a ring ground state.  With 4 restarts, in free and shared mode, the
    search lands within 1e-9 of the best known minimum, and its argmin
    gives its value back under the reference objective.  One Nelder-Mead
    simplex per start, the search this replaced, stopped up to 0.061 bit
    high here (random5.1, free: 3.4441)."""
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        panel = {f"random{n}.{i}": PureState(oracles.random_pure(rng, n), n)
                 for i in range(3)}
        panel.update({f"sym{n}{p:+d}": symmetric_state(rng, n, p) for p in (1, -1)})
        panel.update({f"ghz{n}": ghz_state(n), f"product{n}": product_state_down(n)})
        for label, state in panel.items():
            for uniform, best in zip((False, True), BEST_KNOWN_GD[label]):
                res = global_discord(state, OptimizerConfig(
                    seed=0, restarts=4, uniform_angles=uniform))
                assert res.basis is None and res.converged, (label, uniform)
                assert res.value <= best + 1e-9, (label, uniform, res.value, best)
                ref = oracles.reference_objective(state.amplitudes, n,
                                                  res.argmin_angles.ravel())
                assert abs(ref - res.value) <= 1e-9, (label, uniform, ref, res.value)


def test_hessian_margin_matches_richardson_oracle_rows():
    """Site 0's rows of the tilt Hessian of the reference objective, by
    central differences at h = 1e-2 and 5e-3 and Richardson extrapolation,
    give the closed-form margin within 1e-8 relative: the smallest
    eigenvalue of the a-a and b-b circulants these rows define.  Their a-b
    coupling vanishes, as the certificate assumes.  On the sigma^z branch
    every tilt mode moves weight onto a zero outcome, so the margin is
    None there.  On random real states the same extrapolation gives both
    of ``_tilt_rows``' rows within 1e-5 of their largest entry (the 5e-3
    rows alone miss by up to 2.7e-4)."""
    for n in (3, 4, 5):
        phases = np.cos(2.0 * math.pi * np.outer(range(n), range(n)) / n)
        # (a_0, a_j) and (b_0, b_j) for every j, then one a-b coupling
        entries = [(d, 2 * j + d) for d in (0, 1) for j in range(n)] + [(0, 3)]
        for ratio in (0.5, CROSSOVER[n] - 0.015, 3.0):
            gs = ring(n, ratio)
            res = global_discord(gs)
            if res.basis == "z":
                assert res.hessian_margin is None, (n, ratio)
                continue
            coarse, fine = (oracles.tilt_hessian_entries(gs.amplitudes, n, res.basis, h, entries)
                            for h in (1e-2, 5e-3))
            values = (4.0 * fine - coarse) / 3.0
            assert abs(values[-1]) <= 1e-9, (n, ratio)
            lam = (values[:-1].reshape(2, n) @ phases).min()
            assert abs(res.hessian_margin - lam) <= 1e-8 * abs(lam), (n, ratio)
    # The rows themselves, b-b too, which no margin above reaches, on random
    # real states: both local terms count there, and no row is a circulant.
    rng = np.random.default_rng(5)
    for n in (3, 4):
        psi = rng.standard_normal(2 ** n)
        psi /= np.linalg.norm(psi)
        entries = [(d, 2 * j + d) for d in (0, 1) for j in range(n)]
        _, rdag, _, _, flips, signs = _certificate_rows(n)
        for k, basis in enumerate(_CENTRES):
            phi = _outcome_amplitudes(psi, rdag[k:k + 1])[0]
            coarse, fine = (oracles.tilt_hessian_entries(psi, n, basis, h, entries)
                            for h in (1e-2, 5e-3))
            expected = ((4.0 * fine - coarse) / 3.0).reshape(2, n)
            rows = _tilt_rows(phi, flips, signs)[0]
            assert np.abs(rows - expected).max() <= 1e-5 * np.abs(expected).max(), (n, basis)


#: hessian_margin on the sigma^x branch at B/J = STENCIL_RATIOS, N = 3..12,
#: to 12 digits, from the finite-difference certificate this closed form
#: replaced (step 1e-3); None where the basis is sigma^z.
STENCIL_RATIOS = (0.05, 0.2, 0.5, 1.0, 1.2)
STENCIL_MARGINS = {
    3: (4.75030116798, 2.52522843036, 0.976174761469, 0.160299360452, None),
    4: (4.87274446137, 2.81036219574, 1.28228057639, 0.218327029122, 0.0919083822382),
    5: (4.87758756251, 2.85440758074, 1.40102873947, 0.242094603919, 0.0931892478739),
    6: (4.87776403046, 2.86116771686, 1.45003195262, 0.254210331452, 0.0902312029538),
    7: (4.87777192881, 2.86234601266, 1.47129794015, 0.261249306188, 0.0863816804753),
    8: (4.87777224767, 2.86254555726, 1.48071731521, 0.265710062397, 0.082636757881),
    9: (4.87777226477, 2.86258211202, 1.48498627883, 0.268718943985, 0.0792977878916),
    10: (4.87777226366, 2.86258860038, 1.48694339175, 0.270846284067, 0.0764295613465),
    11: (4.87777226432, 2.86258982074, 1.48785271437, 0.272406800228, 0.0740118952791),
    12: (4.87777226177, 2.8625900429, 1.48827828195, 0.273585941457, 0.0719958022088),
}


def test_exact_margins_match_the_stencil_margins():
    """The exact sigma^x margins are the stencil's within 5e-5 relative: the
    stencil's O(h^2) bias, largest (3.9e-5) at B/J = 0.05, where some
    outcome amplitudes are near zero, 3.4e-6 at 0.2 and below 6e-7 above."""
    for n, margins in STENCIL_MARGINS.items():
        for ratio, pinned in zip(STENCIL_RATIOS, margins):
            res = global_discord(ring(n, ratio))
            assert res.basis == ("z" if pinned is None else "x"), (n, ratio)
            if pinned is not None:
                assert abs(res.hessian_margin - pinned) <= 5e-5 * pinned, (n, ratio)


def test_certificate_rows_are_built_once_per_ring_size_and_read_only():
    """A second certificate at the same N builds nothing, no caller can
    write into the shared tables, each result owns its argmin, and a
    rebuilt cache gives the same bits."""
    gs = ring(5, 0.9)
    _certificate_rows.cache_clear()
    first = global_discord(gs)
    second = global_discord(gs)
    info = _certificate_rows.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    for table in _certificate_rows(5):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
    kept = second.argmin_angles.copy()
    first.argmin_angles[:] = -1.0
    second.argmin_angles[:] = -1.0
    third = global_discord(gs)
    assert np.array_equal(third.argmin_angles, kept)
    assert third.argmin_angles.flags.writeable
    _certificate_rows.cache_clear()
    rebuilt = global_discord(gs)
    for res in (third, rebuilt):
        assert res.basis == "x" and res.n_evals == 2
    assert rebuilt.value.hex() == third.value.hex()
    assert rebuilt.hessian_margin.hex() == third.hessian_margin.hex()
    assert np.array_equal(rebuilt.argmin_angles, kept)


def test_certified_calls_score_their_own_centres(monkeypatch):
    """The cached real R^dagger stack and unit axes are the objective's, bit
    for bit, and ``score`` gives the objective's values from the centres'
    outcome amplitudes, also cut to one row.  A certified call makes one
    ``_outcome_amplitudes`` call, real in and out, on both centres, and
    computes no rotation matrix and no unit axis; ``_tilt_rows`` reads the
    row that was scored, and the value is that row's score."""
    for n in (3, 5, 12):
        centres, rdag, units, *_ = _certificate_rows(n)
        assert rdag.dtype == np.float64 and np.array_equal(rdag, row_rdag(centres).real)
        assert np.array_equal(units, _unit(centres))
        score, objective = _objective_factory(ring(n, 0.9))
        outcomes = _outcome_amplitudes(ring(n, 0.9).amplitudes, rdag)
        for cut in (1, 2):
            taken = score(outcomes[:cut], units[:cut])
            assert taken.tolist() == objective(centres[:cut]).tolist(), (n, cut)
    calls = []
    for name in ("rotation_matrix", "_unit"):
        real = getattr(gd_module, name)
        monkeypatch.setattr(gd_module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    cascade, tilt = gd_module._outcome_amplitudes, gd_module._tilt_rows

    def counting_cascade(amps, rdag):
        out = cascade(amps, rdag)
        calls.append(("cascade", rdag.shape, rdag.dtype, out.dtype, out))
        return out

    def counting_tilt(phi, flips, signs):
        calls.append(("tilt", phi))
        return tilt(phi, flips, signs)

    monkeypatch.setattr(gd_module, "_outcome_amplitudes", counting_cascade)
    monkeypatch.setattr(gd_module, "_tilt_rows", counting_tilt)
    for ratio in (0.9, 3.0):
        gs = ring(5, ratio)
        res = global_discord(gs)
        k = 1 if ratio < 1 else 0
        assert res.basis == list(_CENTRES)[k] and res.n_evals == 2, ratio
        assert [c[0] for c in calls] == ["cascade", "tilt"], ratio
        (_, shape, rdag_type, out_type, out), (_, phi) = calls
        assert shape == (2, 5, 2, 2) and rdag_type == out_type == np.float64, ratio
        assert phi is not None and np.shares_memory(phi, out) and np.array_equal(phi, out[k])
        units = _certificate_rows(5)[2]
        assert res.value == _objective_factory(gs)[0](phi[None], units[k:k + 1])[0]
        calls.clear()


@pytest.mark.parametrize("n", range(2, 13))
def test_certificate_rows_match_the_tilt_chart(n):
    """Both centres are the oracle's chart normalize(n0 + a e1 + b e2) at
    zero tilt, and the moves the certificate builds from ``flips`` and
    ``signs`` are the chart's: tilting site j by t along a moves the outcome
    amplitudes phi to phi + t g_j - t^2 phi / 8, and along b to
    phi - i t k_j - t^2 phi / 8, with g_j(s) = sigma_j(s) phi(s xor e_j) / 2
    and k_j(s) = phi(s xor e_j) / 2.  In the sigma^x basis e1 = z is -x
    in the frame of phi, so there t flips sign, which no second derivative
    sees.  Checked on the outcome probabilities by central differences of
    step 1e-4."""
    h = 1e-4
    _, rdag, units, _, flips, signs = _certificate_rows(n)
    psi = ring(n, 0.9).amplitudes
    for k, basis in enumerate(_CENTRES):
        zero = np.zeros(n)
        assert np.abs(units[k] - oracles.tilted_axes(basis, zero, zero)).max() <= 1e-15
        phi = _outcome_amplitudes(psi, rdag[k:k + 1])[0]
        moves = {0: signs * phi[flips], 1: 0.5 * phi[flips]}
        for d, move in moves.items():
            tilts = np.zeros((2, n, 2, n))
            tilts[0, :, d], tilts[1, :, d] = h * np.eye(n), -h * np.eye(n)
            axes = [oracles.tilted_axes(basis, *tilt) for tilt in tilts.reshape(-1, 2, n)]
            plus, minus = outcome_probs(psi, _angles(np.array(axes))).reshape(2, n, -1)
            slope = (1.0 if basis == "z" else -1.0) * 2.0 * phi * move if d == 0 else 0.0
            curvature = 2.0 * move ** 2 - 0.5 * phi ** 2
            assert np.abs((plus - minus) / (2.0 * h) - slope).max() <= 1e-8, (n, basis, d)
            assert np.abs((plus + minus - 2.0 * phi ** 2) / h ** 2 - curvature).max() <= 1e-6, \
                (n, basis, d)


def test_search_never_beats_the_certified_value(search):
    for n in range(3, 8):
        for ratio in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.2,
                      CROSSOVER[n] - 0.01, CROSSOVER[n] + 0.01, 2.5, 6.0):
            gs = ring(n, ratio)
            cert = global_discord(gs)
            found = search(gs, OptimizerConfig(seed=0, restarts=4, uniform_angles=True))
            assert found.value >= cert.value - 1e-12, (n, ratio)
    for n in (3, 4, 5):
        for ratio in (0.3, CROSSOVER[n] + 0.01, 3.0):
            gs = ring(n, ratio)
            found = search(gs, OptimizerConfig(seed=0, restarts=4))
            assert found.value >= global_discord(gs).value - 1e-12, (n, ratio)


@pytest.mark.parametrize("kwargs", [
    {"restarts": 0}, {"restarts": -3}, {"max_evals": 0},
])
def test_optimizer_config_rejects_empty_budgets(kwargs):
    with pytest.raises(ValueError):
        OptimizerConfig(**kwargs)


def test_restart_count_default():
    cfg = OptimizerConfig()
    assert cfg.n_restarts(3) == 16
    assert cfg.n_restarts(8) == 32
    assert OptimizerConfig(restarts=5).n_restarts(8) == 5


def test_search_rejects_a_bad_seed_even_without_random_starts():
    """restarts <= 3 draws no random start, and the certified path never
    reads the seed, yet a negative seed fails: at the config, so neither
    path can receive one."""
    for restarts in (1, 3, None):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            OptimizerConfig(restarts=restarts, max_evals=500, seed=-1)
