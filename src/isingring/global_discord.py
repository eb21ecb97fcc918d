"""Global quantum discord of the ring ground state.

The relative-entropy objective (Rulli-Sarandy, PRA 84, 042109, 2011)
collapses, for a pure global state, to the Shannon entropy of the measured
spectrum, from a cascade of one 2 x 2 rotation per site in O(2^N * N), minus
one local term per site from its Bloch vector.  The tests check it against
the definition, evaluated with explicit projector sums.

A state that ``ring.ground_state`` returned is first tried on a certified
path: the better of the all-sigma^x and all-sigma^z bases, accepted when a
finite-difference gradient and a Hessian of two scalar circulants (O(N)
evaluations) show a strict local minimum there.  The certificate is local;
that this minimum is also the global one rests on the tests, where no
search over ring ground states beats it.  Other states with the ring's
symmetry need not share this (the tests hold ones whose minimum lies in a
tilted basis), so every other state, a copy of a ground state's amplitudes
included, and every failed certificate, goes to the multi-start search:
one Newton polish (:mod:`newton`) per start, on an objective that scores a
whole batch of angle rows per call.  The budget ``max_evals`` counts
objective rows.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import (PureState, _angles, _entropy_bits, _gram, _h2, _unit,
                      as_angles, rotation_matrix)
from .newton import _polish
from .ring import _GroundState

DEFAULT_MAX_EVALS = 50_000

#: A scored row at or below this value is a global minimum, since the
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
        # rounding below zero, as on the product state, and -0.0 read as 0.0
        if self.value <= 0.0:
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
    """Probabilities of all 2^N outcomes of the product measurement, one row
    per basis of the (rows, N, 2) angles.

    Applies each site's R_j^dagger to the middle axis of the amplitudes
    viewed as (rows, 2^j, 2, rest): O(2^N * N) per row, not a 2^N x 2^N
    transform; no checks.
    """
    rdag = rotation_matrix(ang[..., 0], ang[..., 1]).conj().swapaxes(-1, -2)
    out = amps.reshape(1, -1)  # the first site's product broadcasts it to every row
    for j in range(ang.shape[1]):
        out = rdag[:, j, None] @ out.reshape(len(out), 2 ** j, 2, -1)
    return np.abs(out.reshape(len(ang), -1)) ** 2


def _objective_factory(gs: PureState):
    """Closure evaluating the pure-state objective on angle rows of shape
    ``(rows, n_sites, 2)``, one value per row.

    Site j, with Bloch vector r_j, measured along n_j has the local term
    h((1 + n_j.r_j) / 2) - h((1 + |r_j|) / 2); the r_j are computed once.
    Angles come from the optimizer already shaped, so nothing is validated.
    """
    tensor = gs.as_tensor()
    rho1 = np.array([_gram(tensor, (j,)) for j in range(gs.n_sites)])
    bloch = np.stack([2.0 * rho1[:, 1, 0].real, 2.0 * rho1[:, 1, 0].imag,
                      (rho1[:, 0, 0] - rho1[:, 1, 1]).real], axis=1)
    base = _h2(0.5 + 0.5 * np.linalg.norm(bloch, axis=1))
    amps = gs.amplitudes

    def objective(ang: np.ndarray) -> np.ndarray:
        local = _h2(0.5 + 0.5 * np.sum(_unit(ang) * bloch, axis=-1)) - base
        return (_entropy_bits(_outcome_probs(amps, ang), axis=-1)
                - np.sum(local, axis=-1))

    return objective


def gd_objective(gs: PureState, angles) -> float:
    """Relative-entropy bracket for a pure global state at fixed angles.

    Equals H(lambda) - sum_j [S(Pi_j(rho_j)) - S(rho_j)] where lambda is the
    measured spectrum; the global entropy term vanishes for pure states.
    """
    return float(_objective_factory(gs)(as_angles(angles, gs.n_sites)[None])[0])


class _BudgetTracker:
    """Wraps the objective, counting scored rows and keeping the best row."""

    def __init__(self, objective, max_evals: int):
        self._objective = objective
        self.max_evals = max_evals
        self.n_evals = 0
        self.best_value = math.inf
        self.best_angles = None

    def __call__(self, rows: np.ndarray, zero_tol: float = -math.inf,
                 stop: int | None = None) -> np.ndarray:
        """Values of the (rows, N, 2) angle rows that fit before ``max_evals``
        and ``stop``, counted up to the first <= ``zero_tol``.  Keeps the best
        row, then raises ``_ZeroReached`` or ``_BudgetExhausted`` if it
        stopped short of the last row."""
        end = self.max_evals if stop is None else min(stop, self.max_evals)
        fit = rows[:max(end - self.n_evals, 0)]
        if not len(fit):
            raise _BudgetExhausted
        values = self._objective(fit)
        zeros = np.flatnonzero(values <= zero_tol)
        counted = int(zeros[0]) + 1 if zeros.size else len(fit)
        self.n_evals += counted
        k = int(np.argmin(values[:counted]))
        if values[k] < self.best_value:
            self.best_value, self.best_angles = float(values[k]), fit[k].copy()
        if zeros.size:
            raise _ZeroReached
        if len(fit) < len(rows):
            raise _BudgetExhausted
        return values


class _BudgetExhausted(Exception):
    pass


class _ZeroReached(Exception):
    """A row reached the objective's lower bound 0: no basis does better."""


def _certify(tracker: _BudgetTracker, n: int) -> GDResult | None:
    """The better uniform basis, if it is a strict local minimum; else None.

    Each site's axis is tilted as n_j = normalize(n0 + a_j e1 + b_j e2), a
    chart with no pole at either candidate.  Only ring ground states get
    here.  The ring's symmetry gives every site the same gradient and makes
    a coupling depend on |i - j| mod N; reality (e2 is sigma^y) and parity
    (n and -n give one basis) make the objective even in all b_j, and in
    all a_j, together.  So the a-b couplings vanish and the Hessian is two
    circulants with spectra sum_j C_{d,j} cos(2 pi m j / N).  Each coupling
    C_{d,j} = C_{d,N-j} of site 0 takes two probes,
    [f(h e_0d + h e_jd) - f(h e_0d - h e_jd)] / (2 h^2): 6 + 4 (N // 2)
    evaluations in all, scored in three calls: one per basis, then the
    rest.  The gradient's four probes spot-check the evenness.  Where an
    outcome has probability zero (sigma^z on a parity eigenstate) the
    objective grows like t^2 log(1/t) and the margin measures the stencil,
    not a finite curvature.  Raises ``_BudgetExhausted`` when the budget
    runs out.
    """
    def probe(frame, tilts):
        v = frame[0] + tilts @ frame[1:]
        return tracker(_angles(v / np.linalg.norm(v, axis=-1, keepdims=True)))

    values = {b: probe(f, np.zeros((1, n, 2)))[0] for b, f in _FRAMES.items()}
    basis = min(values, key=values.get)
    frame, f0, h = _FRAMES[basis], values[basis], _STEP

    def tilt(d, *steps):
        t = np.zeros((n, 2))
        for site, step in steps:
            t[site, d] += step
        return t

    # the gradient's four probes, then the couplings' two per (d, j), in one call
    stencil = [tilt(d, (0, step)) for step in (h, -h) for d in (0, 1)]
    stencil += [tilt(d, (0, h), (j, step)) for d in (0, 1)
                for j in range(1, n // 2 + 1) for step in (h, -h)]
    values = probe(frame, np.array(stencil))
    plus, minus = values[:4].reshape(2, 2)
    pairs = values[4:].reshape(2, n // 2, 2)
    grad = math.sqrt(n) * math.hypot(plus[0] - minus[0], plus[1] - minus[1]) / (2 * h)
    rows = np.column_stack([(plus + minus - 2.0 * f0) / h ** 2,
                            (pairs[..., 0] - pairs[..., 1]) / (2 * h * h)])
    sites = np.arange(n)
    phases = np.cos(2.0 * math.pi * np.outer(sites, sites) / n)
    margin = float((rows[:, np.minimum(sites, n - sites)] @ phases).min())
    if not (grad <= _GRAD_TOL and margin >= _MARGIN_TOL):
        return None
    return GDResult(value=float(f0), argmin_angles=_angles(np.tile(frame[0], (n, 1))),
                    n_restarts=0, converged=True, n_evals=tracker.n_evals,
                    basis=basis, hessian_margin=margin)


def global_discord(gs: PureState, opt: OptimizerConfig | None = None) -> GDResult:
    """Minimize the objective over all multi-local projective bases.

    A state that ``ring.ground_state`` returned (a ``ring._GroundState``)
    first takes the certified path (``_certify``): it is converged when, at
    the better of the all-sigma^x and all-sigma^z bases, the
    finite-difference gradient has norm <= ``_GRAD_TOL`` (1e-6) and the
    smallest tilt-Hessian eigenvalue, ``hessian_margin``, is >=
    ``_MARGIN_TOL`` (1e-6), both with step ``_STEP`` (1e-3).  That shows a
    strict local minimum; the tests show that no search beats it on ring
    ground states.  A failed certificate (at J = 0 the objective is flat and
    the margin 0), or any other state, falls back to the multi-start search,
    which shares the evaluation budget ``max_evals``.
    """
    if opt is None:
        opt = OptimizerConfig()
    tracker = _BudgetTracker(_objective_factory(gs), opt.max_evals)
    if isinstance(gs, _GroundState):
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
    """Multi-start Newton polish over the 2N angles (or one shared pair).

    The starts are the all-z and all-x bases, the best point of a coarse
    uniform-angle scan, and random draws; deterministic for a fixed seed.
    Each start gets one polish on at most its share of the budget, then the
    incumbent is polished with what is left; the search counts as converged
    when that last polish does.  The returned value is the lowest objective
    value scored anywhere, by the search or before it on the same tracker.
    The objective is >= 0 in every basis, so the search stops, converged,
    at the first row <= ``_ZERO_TOL``.
    """
    k = 1 if opt.uniform_angles else n
    rng = np.random.default_rng(opt.seed)

    def polish(x0: np.ndarray, stop: int) -> bool:
        """One polish from ``x0`` that ends before evaluation ``stop``; True
        when it converged."""
        def cost(x):
            return tracker(np.tile(x.reshape(-1, k, 2), (1, n // k, 1)),
                           _ZERO_TOL, stop)

        with contextlib.suppress(_BudgetExhausted):
            return _polish(cost, x0[None])[1]
        return False

    starts = []
    try:
        # coarse scan over one shared (theta, phi); the tracker keeps its
        # best point, and the budget (>= 1) always allows the first row
        grid = np.array(list(itertools.product(np.linspace(0.0, math.pi, 13),
                                               np.linspace(0.0, math.pi, 8))))
        with contextlib.suppress(_BudgetExhausted):
            tracker(np.tile(grid[:, None], (1, n, 1)), _ZERO_TOL)
        starts = [np.zeros(2 * k), np.tile([math.pi / 2.0, 0.0], k),
                  tracker.best_angles[:k].ravel()]
        while len(starts) < opt.n_restarts(n):
            starts.append(np.column_stack([
                rng.uniform(0.0, math.pi, k),
                rng.uniform(0.0, 2.0 * math.pi, k),
            ]).ravel())

        share = (tracker.max_evals - tracker.n_evals) * 3 // 4 // len(starts)
        for x0 in starts:
            polish(x0, tracker.n_evals + max(share, 100))
        converged = polish(tracker.best_angles[:k].ravel(), tracker.max_evals)
    except _ZeroReached:
        converged = True

    return GDResult(value=float(tracker.best_value),
                    argmin_angles=tracker.best_angles, n_restarts=len(starts),
                    converged=converged, n_evals=tracker.n_evals)
