"""Global quantum discord of the ring ground state.

The relative-entropy objective (Rulli-Sarandy, PRA 84, 042109, 2011)
collapses, for a pure global state, to the Shannon entropy of the measured
spectrum, from a cascade of one 2 x 2 rotation per site in O(2^N * N), minus
one local term per site from its Bloch vector.  The tests check it against
the definition, evaluated with explicit projector sums.

A state that ``ring.ground_state`` returned is first tried on a certified
path: the better of the all-sigma^x and all-sigma^z bases, accepted when a
finite-difference gradient and a Hessian of two scalar circulants (O(N)
evaluations) show a strict local minimum there.  Its angle rows, with
their rotation matrices and unit axes, and its circulant tables depend on
N only and are built once per ring size, so a certified objective call
computes no trigonometry.  The certificate is local; that this minimum is
also the global one rests on the tests, where no search over ring ground
states beats it.  Other states with the ring's symmetry need not share
this (the tests hold ones whose minimum lies in a tilted basis), so every
other state, a copy of a ground state's amplitudes included, and every
failed certificate, goes to the multi-start search: one Newton polish
(:mod:`newton`) per start, on an objective that scores a whole batch of
angle rows per call and computes their rotation matrices and unit axes
itself.  The budget ``max_evals`` counts objective rows.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import (PureState, _angles, _entropy_bits, _gram, _h2, _unit,
                      as_angles, rotation_matrix)
from .errors import _check_integer
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
    certified path too; the other knobs steer the search alone, and ``seed``
    also seeds AMID's random candidates in sweeps and the CLI.  Every knob
    is checked here, whether or not a run reads it: ``restarts`` (unless
    None) and ``max_evals`` must be integers >= 1, ``seed`` an integer
    >= 0 and ``uniform_angles`` True or False, else ValueError.  Numpy
    integers and bools are stored as Python ints and bools, so the config
    writes to JSON.

    More restarts are not always better: they split one budget, about
    three quarters of it shared among the starts.  Under the default
    budget, ``restarts=64`` leaves each start about two Newton steps at
    N = 5 in free mode, and the three random N = 5 states of the rng-7
    fallback panel in the tests end 0.027, 0.068 and 0.042 bit above their
    best-known minima (``restarts=4`` reaches them).
    """

    restarts: int | None = None
    max_evals: int = DEFAULT_MAX_EVALS
    seed: int = 0
    uniform_angles: bool = False

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_evals", 1), ("seed", 0)):
            value = getattr(self, name)
            if name == "restarts" and value is None:
                continue
            value = _check_integer(name, value)
            if value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value}")
            # a numpy integer is stored as an int, so the config writes to JSON
            object.__setattr__(self, name, value)
        flag = self.uniform_angles
        if not isinstance(flag, (bool, np.bool_)):
            raise ValueError(f"uniform_angles must be True or False, got {flag!r}")
        object.__setattr__(self, "uniform_angles", bool(flag))

    def n_restarts(self, n_sites: int) -> int:
        if self.restarts is not None:
            return self.restarts
        return max(16, 4 * n_sites)


def _row_bases(ang: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_j^dagger, as (rows, N, 2, 2), and the unit axis n_j, as (rows, N,
    3), of every site of the (rows, N, 2) angle rows."""
    rdag = rotation_matrix(ang[..., 0], ang[..., 1]).conj().swapaxes(-1, -2)
    return rdag, _unit(ang)


def _outcome_probs(amps: np.ndarray, rdag: np.ndarray) -> np.ndarray:
    """Probabilities of all 2^N outcomes of the product measurement, one row
    per basis of the (rows, N, 2, 2) stack of R_j^dagger (``_row_bases``).

    Each site in turn leads the amplitudes viewed as (rows, 2, 2^(N-1)),
    takes its R_j^dagger in one (2 x 2) @ (2 x 2^(N-1)) product per row, and
    then moves to the last axis in one transpose-copy; after N sites the
    outcomes are back in order.  O(2^N * N) per row in N products, not a
    2^N x 2^N transform; at most two rows x 2^N arrays are alive; no checks.
    """
    out = amps.reshape(1, 2, -1)  # the first site's product broadcasts it to every row
    for j in range(rdag.shape[1]):
        out = rdag[:, j] @ out
        out = out.swapaxes(1, 2).reshape(len(rdag), 2, -1)
    return np.abs(out.reshape(len(rdag), -1)) ** 2


def _objective_factory(gs: PureState):
    """Closure evaluating the pure-state objective on angle rows of shape
    ``(rows, n_sites, 2)``, one value per row.

    Site j, with Bloch vector r_j, measured along n_j has the local term
    h((1 + n_j.r_j) / 2) - h((1 + |r_j|) / 2); the r_j are computed once.
    ``bases``, when given, is ``_row_bases(ang)`` computed beforehand, as
    the certificate's cached rows carry it.  Angles come from the optimizer
    already shaped, so nothing is validated.
    """
    tensor = gs.as_tensor()
    rho1 = np.array([_gram(tensor, (j,)) for j in range(gs.n_sites)])
    bloch = np.stack([2.0 * rho1[:, 1, 0].real, 2.0 * rho1[:, 1, 0].imag,
                      (rho1[:, 0, 0] - rho1[:, 1, 1]).real], axis=1)
    base = _h2(0.5 + 0.5 * np.linalg.norm(bloch, axis=1))
    amps = gs.amplitudes

    def objective(ang: np.ndarray, bases: tuple | None = None) -> np.ndarray:
        rdag, units = _row_bases(ang) if bases is None else bases
        local = _h2(0.5 + 0.5 * np.sum(units * bloch, axis=-1)) - base
        return (_entropy_bits(_outcome_probs(amps, rdag), axis=-1)
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
                 stop: int | None = None, bases: tuple | None = None) -> np.ndarray:
        """Values of the (rows, N, 2) angle rows that fit before ``max_evals``
        and ``stop``, counted up to the first <= ``zero_tol``.  ``bases``,
        when given, is the rows' ``_row_bases``, cut to the same rows.  Keeps
        the best row, then raises ``_ZeroReached`` or ``_BudgetExhausted``
        if it stopped short of the last row."""
        end = self.max_evals if stop is None else min(stop, self.max_evals)
        fit = rows[:max(end - self.n_evals, 0)]
        if not len(fit):
            raise _BudgetExhausted
        if bases is not None:
            bases = tuple(table[:len(fit)] for table in bases)
        values = self._objective(fit, bases)
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


@functools.lru_cache(maxsize=None)
def _certificate_rows(n: int) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray, tuple]:
    """Angle rows and circulant tables of the certificate (depend on N only).

    ``centres[k]`` is the uniform row of the k-th basis of ``_FRAMES``, and
    ``stencils[k]`` its probes: the gradient's four, site 0 at +h then -h
    along tilt direction d = 0, 1, then the couplings' two per (d, j), site 0
    at +h and site j at +h then -h along d, j = 1..N // 2.
    ``rows[:, index] @ phases`` is the circulant spectrum of the coupling
    rows.  ``bases`` holds the ``_row_bases`` of the centres, then a tuple
    of those of each basis's stencil, for the objective to take.
    """
    centres = _angles(np.array([np.tile(f[0], (n, 1)) for f in _FRAMES.values()]))

    def tilt(d, *steps):
        t = np.zeros((n, 2))
        for site, step in steps:
            t[site, d] += step
        return t

    h = _STEP
    steps = [tilt(d, (0, step)) for step in (h, -h) for d in (0, 1)]
    steps += [tilt(d, (0, h), (j, step)) for d in (0, 1)
              for j in range(1, n // 2 + 1) for step in (h, -h)]
    steps = np.array(steps)
    axes = (f[0] + steps @ f[1:] for f in _FRAMES.values())
    stencils = tuple(_angles(v / np.linalg.norm(v, axis=-1, keepdims=True)) for v in axes)
    sites = np.arange(n)
    index = np.minimum(sites, n - sites)
    phases = np.cos(2.0 * math.pi * np.outer(sites, sites) / n)
    bases = _row_bases(centres), tuple(_row_bases(rows) for rows in stencils)
    # Every certificate of this ring size shares the cached rows, so none may
    # write to them.
    for table in (centres, *stencils, index, phases, *bases[0],
                  *(table for pair in bases[1] for table in pair)):
        table.setflags(write=False)
    return centres, stencils, index, phases, bases


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
    evaluations in all, scored in two calls: both bases' centres, then the
    rest.  These rows depend on N only and are built once per ring size
    (``_certificate_rows``), with their rotation matrices and unit axes.
    The gradient's four probes spot-check the
    evenness.  Where an outcome has probability zero (sigma^z on a parity
    eigenstate) the objective grows like t^2 log(1/t) and the margin
    measures the stencil, not a finite curvature.  Raises
    ``_BudgetExhausted`` when the budget runs out.
    """
    centres, stencils, index, phases, bases = _certificate_rows(n)
    centre_bases, stencil_bases = bases
    values = dict(zip(_FRAMES, tracker(centres, bases=centre_bases)))
    basis = min(values, key=values.get)
    k, f0, h = list(_FRAMES).index(basis), values[basis], _STEP
    values = tracker(stencils[k], bases=stencil_bases[k])
    plus, minus = values[:4].reshape(2, 2)
    pairs = values[4:].reshape(2, n // 2, 2)
    grad = math.sqrt(n) * math.hypot(plus[0] - minus[0], plus[1] - minus[1]) / (2 * h)
    rows = np.column_stack([(plus + minus - 2.0 * f0) / h ** 2,
                            (pairs[..., 0] - pairs[..., 1]) / (2 * h * h)])
    margin = float((rows[:, index] @ phases).min())
    if not (grad <= _GRAD_TOL and margin >= _MARGIN_TOL):
        return None
    return GDResult(value=float(f0), argmin_angles=centres[k].copy(),
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

    def polish(x0: np.ndarray, stop: int) -> bool:
        """One polish from ``x0`` that ends before evaluation ``stop``; True
        when it converged."""
        def cost(x, live):
            return tracker(np.tile(x[0].reshape(-1, k, 2), (1, n // k, 1)),
                           _ZERO_TOL, stop)[None]

        with contextlib.suppress(_BudgetExhausted):
            return bool(_polish(cost, x0[None, None])[1][0])
        return False

    starts = []
    try:
        # coarse scan over one shared (theta, phi); the tracker keeps its
        # best point, and the budget (>= 1) always allows the first row
        grid = np.array(list(itertools.product(np.linspace(0.0, math.pi, 13),
                                               np.linspace(0.0, math.pi, 8))))
        with contextlib.suppress(_BudgetExhausted):
            tracker(np.tile(grid[:, None], (1, n, 1)), _ZERO_TOL)
        starts = [np.tile(_angles(frame[0]), k) for frame in _FRAMES.values()]
        starts.append(tracker.best_angles[:k].ravel())
        if len(starts) < opt.n_restarts(n):
            # only random starts load numpy.random
            rng = np.random.default_rng(opt.seed)
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
