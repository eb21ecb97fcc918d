"""Safeguarded Newton polish of a cost that scores a batch of angle rows per
call: the one local optimizer of the package, used by discord, AMID and the
global-discord search."""

from __future__ import annotations

import numpy as np

#: Finite-difference step (rad), floor on the Hessian's |eigenvalues|, step
#: fractions of the line search, the stopping tolerances on the value (bits)
#: and on the move (rad), and the step cap.  Rounding puts ~4e-8 of noise on
#: the Hessian at this step; a floor of 1e-6 cut true curvatures of ~7e-8
#: (phi, near theta = 0 of nearly mixed two-qubit states) and crept through
#: 50 steps there.
_FD_STEP = 1e-4
_CURVATURE_FLOOR = 1e-8
_LINE_SEARCH = 0.5 ** np.arange(8)
_POLISH_FTOL = 1e-15
_POLISH_XTOL = 1e-9
_POLISH_MAX_ITER = 50


def _stencil(d: int) -> np.ndarray:
    """Central-difference stencil offsets in units of the step: 0, then
    +-e_i for each i, then (++, +-, -+, --) of e_i, e_j for each i < j;
    2 d^2 + 1 rows."""
    eye = np.eye(d)
    pairs = [si * eye[i] + sj * eye[j] for i in range(d) for j in range(i + 1, d)
             for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return np.vstack([np.zeros(d), eye, -eye, *pairs])


def _newton_step(values: np.ndarray, d: int) -> np.ndarray:
    """Saddle-free Newton step from the ``_stencil`` values: the gradient and
    Hessian by central differences, the Hessian's eigenvalues replaced by
    max(|lambda|, ``_CURVATURE_FLOOR``), so the step descends at saddles and
    stays put along flat directions (phi at theta = 0)."""
    h = _FD_STEP
    f0, fp, fm = values[0], values[1:d + 1], values[d + 1:2 * d + 1]
    grad = (fp - fm) / (2.0 * h)
    hess = np.diag((fp - 2.0 * f0 + fm) / h ** 2)
    hess[np.triu_indices(d, 1)] = (values[2 * d + 1:].reshape(-1, 4)
                                   @ [1.0, -1.0, -1.0, 1.0]) / (4.0 * h ** 2)
    lam, vec = np.linalg.eigh(hess, UPLO="U")
    return -vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), _CURVATURE_FLOOR))


def _polish(cost, candidates: np.ndarray) -> tuple[float, bool]:
    """Score every candidate angle row in one vectorized ``cost`` call, then
    polish the best row by safeguarded Newton steps; returns the minimum and
    whether the polish converged.

    Each step takes two ``cost`` calls: the ``_stencil`` around the current
    point, then the Newton step from it scaled by 1, 1/2, ..., 1/128.  The
    point moves to the lowest of all those rows, so a stencil row leaves a
    saddle or a flat start even where the step cannot.  It stops, converged,
    when no row is lower by more than ``_POLISH_FTOL`` or the move is below
    ``_POLISH_XTOL`` rad, and gives up, not converged, after
    ``_POLISH_MAX_ITER`` steps that did not.
    """
    values = cost(candidates)
    x, best = candidates[np.argmin(values)], float(values.min())
    d = len(x)
    offsets = _FD_STEP * _stencil(d)
    for _ in range(_POLISH_MAX_ITER):
        rows = x + offsets
        values = cost(rows)
        trials = x + _LINE_SEARCH[:, None] * _newton_step(values, d)
        rows, values = np.vstack([rows, trials]), np.concatenate([values, cost(trials)])
        k = np.argmin(values)
        if values[k] >= best - _POLISH_FTOL or np.linalg.norm(rows[k] - x) < _POLISH_XTOL:
            return min(best, float(values[k])), True
        x, best = rows[k], float(values[k])
    return best, False
