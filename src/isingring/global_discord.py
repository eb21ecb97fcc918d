"""Global quantum discord of the ring ground state.

The relative-entropy objective (Rulli-Sarandy, PRA 84, 042109, 2011)
collapses, for a pure global state, to the Shannon entropy of the measured
spectrum, from a cascade of one 2 x 2 rotation per site in O(2^N * N), minus
one local term per site from its Bloch vector.  The tests check it against
the definition, evaluated with explicit projector sums.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .density import (PureState, _entropy_bits, _h2, _unit, as_angles,
                      reduced_state, rotation_matrix)

DEFAULT_MAX_EVALS = 50_000


@dataclass(frozen=True)
class GDResult:
    """Result of a global-discord minimization."""

    value: float
    argmin_angles: np.ndarray
    n_restarts: int
    converged: bool
    n_evals: int

    def __post_init__(self):
        object.__setattr__(
            self, "argmin_angles", np.asarray(self.argmin_angles, dtype=float)
        )
        if self.value < -1e-9:
            raise ValueError("global discord cannot be negative")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start global-discord search.

    ``restarts=None`` selects max(16, 4N).  ``uniform_angles`` restricts the
    search to a single angle pair shared by every site, which the
    translation invariance of the ring ground state motivates; the
    unconstrained search remains the default.
    """

    restarts: int | None = None
    max_evals: int = DEFAULT_MAX_EVALS
    seed: int = 0
    uniform_angles: bool = False
    xatol: float = 1e-9
    fatol: float = 1e-9

    def __post_init__(self):
        if self.restarts is not None and self.restarts < 1:
            raise ValueError(f"restarts must be None or >= 1, got {self.restarts}")
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {self.max_evals}")

    def n_restarts(self, n_sites: int) -> int:
        if self.restarts is not None:
            return self.restarts
        return max(16, 4 * n_sites)


def _outcome_probs(amps: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Probabilities of all 2^N outcomes of the product measurement.

    Applies each site's R_j^dagger to the middle axis of the amplitudes viewed
    as (2^j, 2, rest): O(2^N * N), not a 2^N x 2^N transform; no checks.
    """
    for j, (theta, phi) in enumerate(ang):
        amps = rotation_matrix(theta, phi).conj().T @ amps.reshape(2 ** j, 2, -1)
    return np.abs(amps.ravel()) ** 2


def _objective_factory(gs: PureState):
    """Closure evaluating the pure-state objective on a ``(n_sites, 2)`` array.

    Site j, with Bloch vector r_j, measured along n_j has the local term
    h((1 + n_j.r_j) / 2) - h((1 + |r_j|) / 2); the r_j are computed once.
    Angles come from the optimizer already shaped, so nothing is validated.
    """
    rho1 = np.array([reduced_state(gs, (j,)).matrix for j in range(gs.n_sites)])
    bloch = np.stack([2.0 * rho1[:, 1, 0].real, 2.0 * rho1[:, 1, 0].imag,
                      (rho1[:, 0, 0] - rho1[:, 1, 1]).real], axis=1)
    base = _h2(0.5 + 0.5 * np.linalg.norm(bloch, axis=1))
    amps = gs.amplitudes

    def objective(ang: np.ndarray) -> float:
        local = _h2(0.5 + 0.5 * np.sum(_unit(ang) * bloch, axis=1)) - base
        return _entropy_bits(_outcome_probs(amps, ang)) - float(np.sum(local))

    return objective


def gd_objective(gs: PureState, angles) -> float:
    """Relative-entropy bracket for a pure global state at fixed angles.

    Equals H(lambda) - sum_j [S(Pi_j(rho_j)) - S(rho_j)] where lambda is the
    measured spectrum; the global entropy term vanishes for pure states.
    """
    return _objective_factory(gs)(as_angles(angles, gs.n_sites))


class _BudgetTracker:
    """Wraps the objective, counting evaluations and keeping the best probe."""

    def __init__(self, objective, max_evals: int):
        self._objective = objective
        self.max_evals = max_evals
        self.n_evals = 0
        self.best_value = math.inf
        self.best_angles = None

    @property
    def exhausted(self) -> bool:
        return self.n_evals >= self.max_evals

    def remaining(self) -> int:
        return max(self.max_evals - self.n_evals, 0)

    def __call__(self, ang: np.ndarray) -> float:
        if self.exhausted:
            raise _BudgetExhausted
        self.n_evals += 1
        value = self._objective(ang)
        if value < self.best_value:
            self.best_value = value
            self.best_angles = ang.copy()
        return value


class _BudgetExhausted(Exception):
    pass


def _run_nelder_mead(tracker, pack, x0: np.ndarray, maxfev: int, xatol, fatol):
    def flat_objective(x):
        return tracker(pack(x))

    budget = min(maxfev, tracker.remaining())
    if budget < 2 * (x0.size + 1):
        return False
    try:
        res = minimize(
            flat_objective,
            x0,
            method="Nelder-Mead",
            options={
                "xatol": xatol,
                "fatol": fatol,
                "maxfev": budget,
                "maxiter": 10 * budget,
            },
        )
        return bool(res.success)
    except _BudgetExhausted:
        return False


def global_discord(gs: PureState, opt: OptimizerConfig | None = None) -> GDResult:
    """Minimize the objective over all multi-local projective bases.

    Multi-start Nelder-Mead over the 2N angles, seeded with the all-z and
    all-x bases, the best point of a coarse uniform-angle scan, and random
    draws; deterministic for a fixed seed.  The returned value is the lowest
    objective value probed anywhere during the search.
    """
    if opt is None:
        opt = OptimizerConfig()
    n = gs.n_sites
    k = 1 if opt.uniform_angles else n
    rng = np.random.default_rng(opt.seed)
    tracker = _BudgetTracker(_objective_factory(gs), opt.max_evals)

    def pack(x):
        return np.tile(x.reshape(k, 2), (n // k, 1))

    # coarse scan over one shared (theta, phi); the tracker keeps its best
    # point, and the budget (>= 1) always allows the first probe
    with contextlib.suppress(_BudgetExhausted):
        for theta, phi in itertools.product(np.linspace(0.0, math.pi, 13),
                                            np.linspace(0.0, math.pi, 8)):
            tracker(np.tile([theta, phi], (n, 1)))
    starts = [np.zeros(2 * k), np.tile([math.pi / 2.0, 0.0], k),
              tracker.best_angles[:k].ravel()]
    while len(starts) < opt.n_restarts(n):
        starts.append(np.column_stack([
            rng.uniform(0.0, math.pi, k),
            rng.uniform(0.0, 2.0 * math.pi, k),
        ]).ravel())

    budget_each = max((tracker.remaining() * 3 // 4) // len(starts), 100)
    for x0 in starts:
        _run_nelder_mead(tracker, pack, x0, budget_each, opt.xatol, opt.fatol)
        if tracker.exhausted:
            break

    # final polish from the incumbent with the leftover budget; the search
    # counts as converged when this last simplex contracts below tolerance
    polished_ok = False
    if not tracker.exhausted:
        polished_ok = _run_nelder_mead(
            tracker, pack, tracker.best_angles[:k].ravel(),
            tracker.remaining(), opt.xatol, opt.fatol,
        )

    return GDResult(
        value=float(tracker.best_value),
        argmin_angles=tracker.best_angles,
        n_restarts=len(starts),
        converged=polished_ok and not tracker.exhausted,
        n_evals=tracker.n_evals,
    )
