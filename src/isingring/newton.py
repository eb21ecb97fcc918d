"""Safeguarded Newton polish of a cost that scores a batch of angle rows per
call: the one local optimizer of the package, used by discord, AMID and the
global-discord search.  It runs a stack of independent searches in lockstep,
so the two measured sides of a discord share every cost call."""

from __future__ import annotations

import functools

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


@functools.cache
def _stencil(d: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Central-difference stencil offsets (rad) in d angles: 0, then +-e_i
    for each i, then (++, +-, -+, --) of e_i, e_j for each i < j, times
    ``_FD_STEP``; 2 d^2 + 1 rows.  Also the index pair of the Hessian's upper
    triangle, in the same (i, j) order.  Built once per d, read-only."""
    eye = np.eye(d)
    pairs = [si * eye[i] + sj * eye[j] for i in range(d) for j in range(i + 1, d)
             for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    offsets = _FD_STEP * np.vstack([np.zeros(d), eye, -eye, *pairs])
    upper = np.triu_indices(d, 1)
    for table in (offsets, *upper):
        table.setflags(write=False)
    return offsets, upper


def _newton_step(values: np.ndarray, d: int) -> np.ndarray:
    """Saddle-free Newton step from the ``_stencil`` values: the gradient and
    Hessian by central differences, the Hessian's eigenvalues replaced by
    max(|lambda|, ``_CURVATURE_FLOOR``), so the step descends at saddles and
    stays put along flat directions (phi at theta = 0)."""
    h = _FD_STEP
    f0, fp, fm = values[0], values[1:d + 1], values[d + 1:2 * d + 1]
    grad = (fp - fm) / (2.0 * h)
    hess = np.diag((fp - 2.0 * f0 + fm) / h ** 2)
    hess[_stencil(d)[1]] = (values[2 * d + 1:].reshape(-1, 4)
                            @ [1.0, -1.0, -1.0, 1.0]) / (4.0 * h ** 2)
    lam, vec = np.linalg.eigh(hess, UPLO="U")
    return -vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), _CURVATURE_FLOOR))


def _polish(cost, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run S independent searches in lockstep, one per stack of candidate
    angle rows in ``candidates`` (S, C, d); returns each search's minimum
    and whether its polish converged, as arrays of length S.

    ``cost(rows, live)`` scores the rows (L, R, d) of the L searches still
    running, whose indices into the stack are ``live``, and returns their
    values (L, R).  The first call scores every candidate; each search then
    polishes its best row by safeguarded Newton steps.  Each step takes two
    ``cost`` calls for all live searches together: the ``_stencil`` around
    each current point, then each search's Newton step scaled by 1, 1/2,
    ..., 1/128.  A search moves to the lowest of its rows, so a stencil row
    leaves a saddle or a flat start even where the step cannot.  It stops,
    converged, when no row is lower by more than ``_POLISH_FTOL`` or the
    move is below ``_POLISH_XTOL`` rad, and gives up, not converged, after
    ``_POLISH_MAX_ITER`` steps that did not.  A search does the same
    arithmetic whatever else runs beside it.
    """
    n_searches, _, d = candidates.shape
    offsets = _stencil(d)[0]
    live = np.arange(n_searches)
    values = cost(candidates, live)
    k = np.argmin(values, axis=1)
    x, best = candidates[live, k], values[live, k].tolist()
    converged = np.zeros(n_searches, dtype=bool)
    for _ in range(_POLISH_MAX_ITER):
        stencils = x[live, None] + offsets
        values = cost(stencils, live)
        trials = np.stack([x[s] + _LINE_SEARCH[:, None] * _newton_step(v, d)
                           for s, v in zip(live, values)])
        rows = np.concatenate([stencils, trials], axis=1)
        values = np.concatenate([values, cost(trials, live)], axis=1)
        for s, row, v in zip(live, rows, values):
            k = np.argmin(v)
            if v[k] >= best[s] - _POLISH_FTOL or np.linalg.norm(row[k] - x[s]) < _POLISH_XTOL:
                best[s], converged[s] = min(best[s], float(v[k])), True
            else:
                x[s], best[s] = row[k], float(v[k])
        live = live[~converged[live]]
        if not live.size:
            break
    return np.array(best), converged
