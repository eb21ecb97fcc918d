"""Global quantum discord of the ring ground state.

The relative-entropy objective (Rulli-Sarandy, PRA 84, 042109, 2011)
collapses, for a pure global state, to the Shannon entropy of the measured
spectrum, from a cascade of one 2 x 2 rotation per site in O(2^N * N), minus
one local term per site from its Bloch vector.  The tests check it against
the definition, evaluated with explicit projector sums.

A ring ground state is first tried on a certified path: the better of the
all-sigma^x and all-sigma^z bases, accepted when a finite-difference
gradient and Hessian show a strict local minimum there.  The certificate is
local; that this minimum is also the global one rests on the tests, where
no search over ring ground states beats it.  Other states with the ring's
symmetry need not share this (the tests hold ones whose minimum lies in a
tilted basis), so every state that is not a ring ground state, and every
failed certificate, goes to the multi-start search.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .density import (PureState, _angles, _entropy_bits, _h2, _unit,
                      as_angles, reduced_state, rotation_matrix)
from .ring import ground_state_ratio

DEFAULT_MAX_EVALS = 50_000

#: Nelder-Mead stopping tolerance of the search, on the angles and on the
#: objective alike.
_NM_TOL = 1e-9

#: A search probe at or below this value is a global minimum, since the
#: objective is >= 0 in every basis.
_ZERO_TOL = 1e-12

#: Central-difference step of the certificate in tilt coordinates, and the
#: bounds it must meet: |grad| <= _GRAD_TOL and lambda_min >= _MARGIN_TOL.
_STEP = 1e-3
_GRAD_TOL = 1e-6
_MARGIN_TOL = 1e-6

#: Candidate bases as rows (n0, e1, e2): the measured axis shared by every
#: site and the two tilt directions spanning its orthogonal complement.  On
#: a tie the first, z, is kept.
_FRAMES = {
    "z": np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    "x": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
}


@dataclass(frozen=True)
class GDResult:
    """Result of a global-discord minimization.

    ``basis`` ("x" or "z") and ``hessian_margin`` are set when the certified
    path returned the result; ``n_restarts`` is then 0.
    """

    value: float
    argmin_angles: np.ndarray
    n_restarts: int
    converged: bool
    n_evals: int
    basis: str | None = None
    hessian_margin: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "argmin_angles", np.asarray(self.argmin_angles, dtype=float)
        )
        if self.value < -1e-9:
            raise ValueError("global discord cannot be negative")
        # rounding below zero, as on the product state, reads as 0
        if self.value < 0.0:
            object.__setattr__(self, "value", 0.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start global-discord search.

    ``restarts=None`` selects max(16, 4N).  ``uniform_angles`` restricts the
    search to a single angle pair shared by every site, which the
    translation invariance of the ring ground state motivates; the
    unconstrained search remains the default.  Only ``max_evals`` bounds the
    certified path too; the other knobs steer the search alone.
    """

    restarts: int | None = None
    max_evals: int = DEFAULT_MAX_EVALS
    seed: int = 0
    uniform_angles: bool = False

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
        return float(_entropy_bits(_outcome_probs(amps, ang)) - np.sum(local))

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


class _ZeroReached(Exception):
    """A probe reached the objective's lower bound 0: no basis does better."""


def _run_nelder_mead(tracker, probe, x0: np.ndarray, maxfev: int):
    budget = min(maxfev, tracker.remaining())
    if budget < 2 * (x0.size + 1):
        return False
    try:
        res = minimize(
            probe,
            x0,
            method="Nelder-Mead",
            options={
                "xatol": _NM_TOL,
                "fatol": _NM_TOL,
                "maxfev": budget,
                "maxiter": 10 * budget,
            },
        )
        return bool(res.success)
    except _BudgetExhausted:
        return False


def _certify(tracker: _BudgetTracker, n: int) -> GDResult | None:
    """The better uniform basis, if it is a strict local minimum; else None.

    Each site's axis is tilted as n_j = normalize(n0 + a_j e1 + b_j e2), a
    chart with no pole at either candidate.  A ring ground state is
    invariant under the rotations and reflections of the ring, so every site
    has the same gradient, and the 2N x 2N Hessian is block-circulant with
    symmetric 2 x 2 blocks C_j = C_{N-j}; so only site 0 against sites
    0..N//2 is differenced, and the spectrum is that of sum_j C_j cos(k j),
    k = 2 pi m / N.  Central differences with step ``_STEP`` cost
    10 + 12 (N // 2) evaluations.  Where an outcome has probability zero
    (sigma^z on a parity eigenstate) the objective grows like t^2 log(1/t)
    and the margin measures the stencil, not a finite curvature.  Raises
    ``_BudgetExhausted`` when the budget runs out.
    """
    def probe(frame, tilt):
        v = frame[0] + tilt @ frame[1:]
        return tracker(_angles(v / np.linalg.norm(v, axis=1, keepdims=True)))

    values = {b: probe(f, np.zeros((n, 2))) for b, f in _FRAMES.items()}
    basis = min(values, key=values.get)
    frame, f0, h = _FRAMES[basis], values[basis], _STEP

    def moved(*steps):
        tilt = np.zeros((n, 2))
        for site, axis, step in steps:
            tilt[site, axis] += step
        return probe(frame, tilt)

    plus = [moved((0, d, h)) for d in (0, 1)]
    minus = [moved((0, d, -h)) for d in (0, 1)]
    grad = math.sqrt(n) * math.hypot(plus[0] - minus[0], plus[1] - minus[1]) / (2 * h)
    rows = np.zeros((n // 2 + 1, 2, 2))
    for d in (0, 1):
        rows[0, d, d] = (plus[d] + minus[d] - 2.0 * f0) / h ** 2
    for j in range(n // 2 + 1):
        for d, e in ((0, 1), (0, 0), (1, 1)):
            if j == 0 and d == e:
                continue
            rows[j, d, e] = rows[j, e, d] = sum(
                s * t * moved((0, d, s * h), (j, e, t * h))
                for s in (1, -1) for t in (1, -1)) / (4 * h * h)
    sites = np.arange(n)
    blocks = rows[np.minimum(sites, n - sites)]
    phases = np.cos(2.0 * math.pi * np.outer(sites, sites) / n)
    margin = float(np.linalg.eigvalsh(np.einsum("mj,jde->mde", phases, blocks)).min())
    if not (grad <= _GRAD_TOL and margin >= _MARGIN_TOL):
        return None
    return GDResult(value=float(f0), argmin_angles=_angles(np.tile(frame[0], (n, 1))),
                    n_restarts=0, converged=True, n_evals=tracker.n_evals,
                    basis=basis, hessian_margin=margin)


def global_discord(gs: PureState, opt: OptimizerConfig | None = None) -> GDResult:
    """Minimize the objective over all multi-local projective bases.

    A ring ground state (``ring.ground_state_ratio``) first takes the
    certified path (``_certify``):
    it is converged when, at the better of the all-sigma^x and all-sigma^z
    bases, the finite-difference gradient has norm <= ``_GRAD_TOL`` (1e-6)
    and the smallest Hessian eigenvalue, ``hessian_margin``, is >=
    ``_MARGIN_TOL`` (1e-6), both with step ``_STEP`` (1e-3).  That shows a
    strict local minimum; the tests show that no search beats it on ring
    ground states.  A failed certificate, or any other state, falls back to
    the multi-start search, which shares the evaluation budget ``max_evals``.
    """
    if opt is None:
        opt = OptimizerConfig()
    tracker = _BudgetTracker(_objective_factory(gs), opt.max_evals)
    if ground_state_ratio(gs) is not None:
        try:
            result = _certify(tracker, gs.n_sites)
        except _BudgetExhausted:
            return GDResult(value=float(tracker.best_value),
                            argmin_angles=tracker.best_angles, n_restarts=0,
                            converged=False, n_evals=tracker.n_evals)
        if result is not None:
            return result
    return _search(tracker, gs.n_sites, opt)


def _search(tracker: _BudgetTracker, n: int, opt: OptimizerConfig) -> GDResult:
    """Multi-start Nelder-Mead over the 2N angles (or one shared pair).

    Seeded with the all-z and all-x bases, the best point of a coarse
    uniform-angle scan, and random draws; deterministic for a fixed seed.
    The returned value is the lowest objective value probed anywhere, by the
    search or before it on the same tracker.  The objective is >= 0 in every
    basis, so the search stops, converged, at the first probe <=
    ``_ZERO_TOL``.
    """
    k = 1 if opt.uniform_angles else n
    rng = np.random.default_rng(opt.seed)

    def probe(x):
        value = tracker(np.tile(x.reshape(k, 2), (n // k, 1)))
        if value <= _ZERO_TOL:
            raise _ZeroReached
        return value

    starts = []
    try:
        # coarse scan over one shared (theta, phi); the tracker keeps its
        # best point, and the budget (>= 1) always allows the first probe
        with contextlib.suppress(_BudgetExhausted):
            for theta, phi in itertools.product(np.linspace(0.0, math.pi, 13),
                                                np.linspace(0.0, math.pi, 8)):
                probe(np.tile([theta, phi], k))
        starts = [np.zeros(2 * k), np.tile([math.pi / 2.0, 0.0], k),
                  tracker.best_angles[:k].ravel()]
        while len(starts) < opt.n_restarts(n):
            starts.append(np.column_stack([
                rng.uniform(0.0, math.pi, k),
                rng.uniform(0.0, 2.0 * math.pi, k),
            ]).ravel())

        budget_each = max((tracker.remaining() * 3 // 4) // len(starts), 100)
        for x0 in starts:
            _run_nelder_mead(tracker, probe, x0, budget_each)
            if tracker.exhausted:
                break

        # polish the incumbent with the leftover budget; the search counts
        # as converged when this last simplex contracts below tolerance
        polished_ok = False
        if not tracker.exhausted:
            polished_ok = _run_nelder_mead(
                tracker, probe, tracker.best_angles[:k].ravel(), tracker.remaining()
            )
        converged = polished_ok and not tracker.exhausted
    except _ZeroReached:
        converged = True

    return GDResult(
        value=float(tracker.best_value),
        argmin_angles=tracker.best_angles,
        n_restarts=len(starts),
        converged=converged,
        n_evals=tracker.n_evals,
    )
