import math

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from isingring.density import PureState, reduced_state, von_neumann_entropy
from isingring.global_discord import (
    GDResult,
    OptimizerConfig,
    _objective_factory,
    _outcome_probs,
    gd_objective,
    global_discord,
)
from isingring.ring import RingConfig, ghz_state, ground_state, product_state_down

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


def test_measured_spectrum_anchors():
    lam = _outcome_probs(ghz_state(4).as_tensor(), np.zeros((1, 4, 2)))[0]
    lam = np.sort(lam)[::-1]
    assert abs(lam[0] - 0.5) < 1e-14 and abs(lam[1] - 0.5) < 1e-14
    assert lam[2] < 1e-14
    lam = _outcome_probs(product_state_down(3).as_tensor(), np.zeros((1, 3, 2)))[0]
    assert abs(lam[-1] - 1.0) < 1e-14


def test_measured_spectrum_matches_explicit_projectors(rng):
    # N = 5 puts a rotated site at every position of the (2^j, 2, rest) cascade
    for n in (3, 5):
        psi = oracles.random_pure(rng, n)
        pairs = rng.uniform(0.0, math.pi, size=(n, 2))
        lam = _outcome_probs(psi.reshape((2,) * n), pairs[None])[0]
        projectors = oracles.product_projectors(pairs)
        expected = np.array([(psi.conj() @ p @ psi).real for p in projectors])
        assert np.allclose(lam, expected, atol=1e-12)


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
    """The certificate scores its stencil in one call, so a row's value must
    not depend on the batch it comes in: bit for bit, not within rounding."""
    for n in (3, 5):
        objective = _objective_factory(PureState(oracles.random_pure(rng, n), n))
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


def test_certificate_budget_below_its_stencil_reports_not_converged():
    """N = 4 needs 6 + 4 * 2 = 14 evaluations to certify."""
    gs = ring(4, 1.0)
    assert global_discord(gs, OptimizerConfig(max_evals=14)).converged
    res = global_discord(gs, OptimizerConfig(max_evals=13))
    assert not res.converged and res.n_restarts == 0
    assert res.n_evals <= 13
    assert res.basis is None and res.hessian_margin is None
    assert abs(res.value - gd_objective(gs, np.tile([math.pi / 2.0, 0.0], (4, 1)))) < 1e-12


def test_certified_path_takes_every_ring_ground_state():
    """O(N) evaluations, no search, on both branches and on both sides of
    the crossover; a silent fall back to the search fails n_restarts."""
    for n in range(2, 13):
        ratios = [0.0, 0.5, 1.0, 6.0]
        if n in CROSSOVER:
            ratios += [CROSSOVER[n] - 0.01, CROSSOVER[n] + 0.01]
        for ratio in ratios:
            res = global_discord(ring(n, ratio))
            assert res.converged and res.n_restarts == 0, (n, ratio)
            assert res.n_evals == 6 + 4 * (n // 2), (n, ratio, res.n_evals)
            assert res.hessian_margin >= 1e-6
            # N = 2 has no crossover: at B = 0 the two bases tie, z is kept
            below = n > 2 and ratio < CROSSOVER[n]
            assert res.basis == ("x" if below else "z"), (n, ratio)


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
    and on nothing else.  A copy rebuilt from a ground state's amplitudes,
    excited eigenstates, GHZ, the product state and random ring-symmetric
    states all take the search; the copies land within 1e-9 of the
    certified value (the largest gap seen is 2.8e-15)."""
    opt = OptimizerConfig(seed=0, restarts=4)
    for n in range(2, 9):
        for b in (0.0, 0.5, 1.3, 6.0):
            gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=2.0, field_b=2.0 * b))
            cert = global_discord(gs, opt)
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
    every basis: the certificate's margin is 0, so it fails after its
    6 + 4 (N // 2) evaluations, and the search stops, converged, at its
    first row.  A budget below the certificate's stencil reports not
    converged, as on every other ring ground state."""
    for n in (2, 3, 4, 7):
        gs, _ = ground_state(RingConfig(n_sites=n, coupling_j=0.0, field_b=0.3))
        stencil = 6 + 4 * (n // 2)
        res = global_discord(gs)
        assert res.converged and res.n_evals == stencil + 1, (n, res.n_evals)
        assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0
        assert res.basis is None and res.hessian_margin is None
        res = global_discord(gs, OptimizerConfig(max_evals=stencil - 1))
        assert not res.converged and res.n_evals == stencil - 1, n


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


def test_hessian_margin_matches_full_oracle_hessian():
    """The two scalar circulants give the smallest eigenvalue of the full
    2N x 2N tilt Hessian of the reference objective, whose e1-e2 couplings
    vanish, as the certificate assumes: 0.0 on the sigma^x branch, and on
    the sigma^z branch up to 2.3e-9, the objective's rounding divided by
    the stencil's 4 h^2."""
    for n in (3, 4, 5):
        for ratio in (0.5, CROSSOVER[n] - 0.015, 3.0):
            gs = ring(n, ratio)
            res = global_discord(gs)
            hess = oracles.tilt_hessian(gs.amplitudes, n, res.basis)
            assert np.abs(hess[0::2, 1::2]).max() <= 1e-8, (n, ratio)
            lam = np.linalg.eigvalsh(hess)[0]
            assert abs(res.hessian_margin - lam) <= 1e-4 * abs(lam), (n, ratio)


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
