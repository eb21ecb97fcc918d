"""Global quantum discord of the ring ground state.

The relative-entropy objective collapses, for a pure global state, to the
Shannon entropy of the rotated-amplitude spectrum minus the single-site
dephasing corrections.  Each evaluation then costs O(2^N * N) instead of a
2^N x 2^N matrix diagonalization.  The tests check it against the
definition, evaluated with explicit projector sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .density import (
    PureState,
    _entropy_bits,
    as_angles,
    binary_entropy,
    reduced_state,
    rotation_matrix,
)

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

    Applies the inverse single-site rotations axis by axis, so the cost is
    O(2^N * N) rather than a full 2^N x 2^N similarity transform; no checks.
    """
    for j in range(ang.shape[0]):
        rot = rotation_matrix(ang[j, 0], ang[j, 1])
        amps = np.moveaxis(np.tensordot(rot.conj(), amps, axes=([0], [j])), 0, j)
    return np.abs(amps.ravel()) ** 2


def _dephased_site_entropy(rho1: np.ndarray, theta: float, phi: float) -> float:
    """S(Pi_j(rho_j)) after dephasing in the (theta, phi) basis."""
    v = rotation_matrix(theta, phi)[:, 0]
    return binary_entropy(float(np.real(v.conj() @ rho1 @ v)))


def _objective_factory(gs: PureState):
    """Closure evaluating the pure-state objective on a ``(n_sites, 2)`` array.

    Marginals and their entropies are angle independent; caching them leaves
    only the rotation cascade and N scalar entropies per evaluation.  Angles
    come from the optimizer already shaped, so nothing is validated here.
    """
    marginals = [reduced_state(gs, (j,)).matrix for j in range(gs.n_sites)]
    base = [_entropy_bits(np.linalg.eigvalsh(m)) for m in marginals]
    amps = gs.as_tensor()

    def objective(ang: np.ndarray) -> float:
        total = _entropy_bits(_outcome_probs(amps, ang))
        for j in range(gs.n_sites):
            total -= (
                _dephased_site_entropy(marginals[j], ang[j, 0], ang[j, 1])
                - base[j]
            )
        return total

    return objective


def gd_objective(gs: PureState, angles) -> float:
    """Relative-entropy bracket for a pure global state at fixed angles.

    Equals H(lambda) - sum_j [S(Pi_j(rho_j)) - S(rho_j)] where lambda is the
    measured spectrum; the global entropy term vanishes for pure states.
    """
    ang = as_angles(angles, gs.n_sites)
    return _objective_factory(gs)(ang)


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


def _uniform_grid_starts(tracker, n_sites: int, n_theta: int = 13,
                         n_phi: int = 8):
    """Coarse scan over shared (theta, phi); returns the best tiled angles."""
    best_val, best = math.inf, None
    for theta in np.linspace(0.0, math.pi, n_theta):
        for phi in np.linspace(0.0, math.pi, n_phi):
            ang = np.tile([theta, phi], (n_sites, 1))
            try:
                val = tracker(ang)
            except _BudgetExhausted:
                return best
            if val < best_val:
                best_val, best = val, ang
    return best


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
    rng = np.random.default_rng(opt.seed)
    tracker = _BudgetTracker(_objective_factory(gs), opt.max_evals)

    uniform_best = _uniform_grid_starts(tracker, n)
    half = math.pi / 2.0
    n_restart = opt.n_restarts(n)

    if opt.uniform_angles:
        def pack(x):
            return np.tile(x, (n, 1))

        starts = [np.array([0.0, 0.0]), np.array([half, 0.0])]
        if uniform_best is not None:
            starts.append(uniform_best[0].copy())
        while len(starts) < n_restart:
            starts.append(np.array([
                rng.uniform(0.0, math.pi),
                rng.uniform(0.0, 2.0 * math.pi),
            ]))
    else:
        def pack(x):
            return x.reshape(n, 2)

        starts = [
            np.tile([0.0, 0.0], (n, 1)).ravel(),
            np.tile([half, 0.0], (n, 1)).ravel(),
        ]
        if uniform_best is not None:
            starts.append(uniform_best.ravel().copy())
        while len(starts) < n_restart:
            starts.append(np.column_stack([
                rng.uniform(0.0, math.pi, n),
                rng.uniform(0.0, 2.0 * math.pi, n),
            ]).ravel())

    budget_each = max((tracker.remaining() * 3 // 4) // max(len(starts), 1), 100)
    for x0 in starts:
        _run_nelder_mead(tracker, pack, x0, budget_each, opt.xatol, opt.fatol)
        if tracker.exhausted:
            break

    # final polish from the incumbent with the leftover budget; the search
    # counts as converged when this last simplex contracts below tolerance
    polished_ok = False
    if not tracker.exhausted and tracker.best_angles is not None:
        incumbent = (
            tracker.best_angles[0] if opt.uniform_angles
            else tracker.best_angles.ravel()
        )
        polished_ok = _run_nelder_mead(
            tracker, pack, incumbent.copy(),
            tracker.remaining(), opt.xatol, opt.fatol,
        )

    return GDResult(
        value=float(tracker.best_value),
        argmin_angles=tracker.best_angles,
        n_restarts=len(starts),
        converged=polished_ok and not tracker.exhausted,
        n_evals=tracker.n_evals,
    )
