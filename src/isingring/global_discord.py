"""Global quantum discord of the ring ground state.

The relative-entropy objective (Rulli-Sarandy, PRA 84, 042109, 2011)
collapses, for a pure global state, to the Shannon entropy of the measured
spectrum, from a cascade of one 2 x 2 rotation per site in O(2^N * N), minus
one local term per site from its Bloch vector.  The tests check it against
the definition, evaluated with explicit projector sums.

A state that ``ring.ground_state`` returned is first tried on a certified
path: the better of the all-sigma^x and all-sigma^z bases (two scored rows),
accepted when the exact gradient and tilt Hessian there show a strict local
minimum.  That it is also the global one rests on the tests, where no
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
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import (_MINUS_LN2, PureState, _angles, _entropy_bits, _gram, _h2,
                      _unit, as_angles, rotation_matrix)
from .errors import _check_integer
from .newton import _polish
from .ring import _GroundState

DEFAULT_MAX_EVALS = 50_000

#: A scored row at or below this value is a global minimum, since the
#: objective is >= 0 in every basis.
_ZERO_TOL = 1e-12

#: Bounds the certificate must meet: |grad| <= _GRAD_TOL and lambda_min >=
#: _MARGIN_TOL; outcomes of probability <= _ZERO_PROB are zero outcomes, and
#: a tilt mode with first-order weight > _STRICT_TOL on them is strict.
_GRAD_TOL = 1e-6
_MARGIN_TOL = 1e-6
_ZERO_PROB = 1e-24
_STRICT_TOL = 1e-12

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

    ``basis`` ("x" or "z") is set when the certified path returned the
    result, and ``n_restarts`` is then 0.  ``hessian_margin`` is then the
    least exact tilt-Hessian eigenvalue over modes that move no weight onto
    a zero outcome, or None if all do (the sigma^z branch; sigma^x at B = 0).
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


def _outcome_amplitudes(amps: np.ndarray, rdag: np.ndarray) -> np.ndarray:
    """Amplitudes of all 2^N outcomes of the product measurement, one row
    per basis of the (rows, N, 2, 2) stack of R_j^dagger (``_row_bases``);
    their squared moduli are the outcome probabilities.

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
    return out.reshape(len(rdag), -1)


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
        return (_entropy_bits(np.abs(_outcome_amplitudes(amps, rdag)) ** 2, axis=-1)
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
def _certificate_rows(n: int) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The certificate's tables, which depend on N only: the uniform rows
    ``centres`` of the bases of ``_FRAMES``, their ``_row_bases``, the
    ``phases`` taking circulant rows to spectra, and, per site j and outcome
    s, ``flips[j, s]`` = s xor e_j and ``signs[j, s]`` = sigma_j(s) / 2."""
    centres = _angles(np.array([np.tile(f[0], (n, 1)) for f in _FRAMES.values()]))
    sites = np.arange(n)
    phases = np.cos(2.0 * math.pi * np.outer(sites, sites) / n)
    bits = 1 << (n - 1 - sites)[:, None]
    flips = np.arange(2 ** n) ^ bits
    signs = np.where(np.arange(2 ** n) & bits, -0.5, 0.5)
    bases = _row_bases(centres)
    # every certificate of this ring size shares them, so none may write
    for table in (centres, *bases, phases, flips, signs):
        table.setflags(write=False)
    return centres, bases, phases, flips, signs


def _tilt_rows(phi: np.ndarray, flips: np.ndarray, signs: np.ndarray):
    """Site 0's rows of the a-a and b-b tilt Hessians at real outcome
    amplitudes phi, their weights on zero outcomes, and |dH/da_0|, all of
    the gradient on ring ground states; None if site 0 is pure (J = 0).
    A tilt t of site j along a or b (n_j = normalize(n0 + a_j e1 + b_j e2))
    moves phi by t g_j + t^2 g_jj / 2 or -i t k_j + t^2 r_jj / 2: g_j(s) =
    sigma_j(s) phi(s xor e_j) / 2, sigma_j(s) = +-1 as bit j of s is 0 or 1,
    k_j(s) = phi(s xor e_j) / 2, g_0j(s) = sigma_0(s) g_j(s xor e_0) / 2,
    r_0j(s) = -k_j(s xor e_0) / 2.  With L = ln phi^2 where phi^2 >
    ``_ZERO_PROB`` (live), else 0, C^a_0j = -[sum (2 g_0 g_j + 2 phi g_0j) L
    + 4 sum_live g_0 g_j] / ln 2, C^b_0j = -sum (2 k_0 k_j + 2 phi r_0j) L /
    ln 2, plus local terms; weights: sum g_0 g_j, sum k_0 k_j off live.
    """
    prob = phi * phi
    live = (prob > _ZERO_PROB).astype(float)
    log_p = np.log(np.where(live, prob, 1.0))
    u0 = 2.0 * signs[0] @ prob  # site 0's Bloch component along n0; u1 along e1
    if not abs(u0) < 1.0:
        return None
    moved = phi[flips]  # phi(s xor e_j), one row per site j
    u1, phi_log = phi @ moved[0], phi * log_p
    g0, shifted = signs[0] * moved[0], phi_log[flips[0]]  # g_0j, r_0j enter via s xor e_0
    weights = np.stack([[g0 * (2.0 * log_p + 4.0 * live) - 2.0 * signs[0] * shifted,
                         moved[0] * log_p - shifted],
                        [g0 * (1.0 - live), 0.5 * moved[0] * (1.0 - live)]], axis=-1)
    rows, zero = np.moveaxis(np.stack([signs * moved, 0.5 * moved]) @ weights, -1, 0)
    rows = rows / _MINUS_LN2
    rows[:, 0] += 0.5 * u0 * math.log2((1.0 - u0) / (1.0 + u0))
    rows[0, 0] += u1 * u1 / ((1.0 - u0 * u0) * math.log(2.0))
    return rows, zero, 2.0 * abs(g0 @ phi_log) / math.log(2.0)


def _certify(tracker: _BudgetTracker, gs: PureState) -> GDResult | None:
    """The better uniform basis, if it is a strict local minimum; else None.

    Only ring ground states get here.  They are real and parity eigenstates,
    so the objective is even in all b_j, and in all a_j together, and the
    ring's symmetry makes the tilt Hessian two circulants, whose rows
    ``_tilt_rows`` gives.  A zero outcome grows like t^2 log(1/t) along a
    mode weighing on it above ``_STRICT_TOL``, so that mode is strict, and
    the others give ``hessian_margin``.  Scores the two centres in one call
    and no other row.  Raises ``_BudgetExhausted`` when the budget runs out.
    """
    centres, bases, phases, flips, signs = _certificate_rows(gs.n_sites)
    values = dict(zip(_FRAMES, tracker(centres, bases=bases)))
    basis = min(values, key=values.get)
    k = list(_FRAMES).index(basis)
    found = _tilt_rows(_outcome_amplitudes(gs.amplitudes, bases[0][k:k + 1])[0].real,
                       flips, signs)
    if found is None:
        return None
    rows, zero, grad = found
    spectra = (rows @ phases)[zero @ phases <= _STRICT_TOL]
    margin = float(spectra.min()) if spectra.size else None
    if not (grad <= _GRAD_TOL and (margin is None or margin >= _MARGIN_TOL)):
        return None
    return GDResult(value=float(values[basis]), argmin_angles=centres[k].copy(),
                    n_restarts=0, converged=True, n_evals=tracker.n_evals,
                    basis=basis, hessian_margin=margin)


def global_discord(gs: PureState, opt: OptimizerConfig | None = None) -> GDResult:
    """Minimize the objective over all multi-local projective bases.

    A state that ``ring.ground_state`` returned (a ``ring._GroundState``)
    first takes the certified path (``_certify``): it is converged when, at
    the better of the all-sigma^x and all-sigma^z bases, the exact gradient
    is <= ``_GRAD_TOL`` (1e-6) per tilt and the exact tilt Hessian shows a
    strict local minimum, with ``hessian_margin`` >= ``_MARGIN_TOL`` (1e-6)
    where it is not None.  A failed certificate (at J = 0 the objective is
    flat; at N = 2, B = 0 the Bell pair's minimum is flat along equal
    tilts), or any other state, falls back to the multi-start search, which
    shares the evaluation budget ``max_evals``.
    """
    if opt is None:
        opt = OptimizerConfig()
    tracker = _BudgetTracker(_objective_factory(gs), opt.max_evals)
    if isinstance(gs, _GroundState):
        try:
            result = _certify(tracker, gs)
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
