"""Two-spin correlation measures: discord, MID, AMID, Toeplitz correlators.

Every pair measure works on the real Bloch form R[i, j] = Tr[rho sigma_i (x)
sigma_j] (sigma_0 = I), which holds A's Bloch vector r = R[1:, 0], B's
s = R[0, 1:] and the correlation matrix T = R[1:, 1:].  One numpy kernel per
measure scores many measurement axes and single optimizer probes alike, on
the single-qubit kernels of :mod:`density`.  Discord and AMID share one
search, ``_polish``: score the probe axes (sigma^z, sigma^x, sigma^y, the
side's Bloch direction and the singular axes of T) in one kernel call, then
polish once (restarted once if it stops on its budget).  On X states (non-zero
entries on the diagonal and anti-diagonal only, as in every reduced pair of
the ring) the probes hold the semi-closed Ali-Rau-Alber discord minimum
(PRA 81, 042105, 2010).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.optimize import minimize

from .density import (DensityMatrix, PureState, _angles, _entropy_bits, _h2,
                      _unit, reduced_state)
from .errors import ConvergenceWarning, NonXStateWarning, QuadratureError

X_PATTERN_TOL = 1e-10

#: Nelder-Mead stopping tolerance of the discord and AMID polish, on the
#: angles and on the value alike.
_POLISH_TOL = 1e-9

#: Simplex edge (radians) of the polish's one restart.  scipy's default steps
#: only 2.5e-4 rad in a zero angle, as on the sigma^z and sigma^x probes: the
#: fewest evaluations from the exact optima of X states, but near theta = 0
#: it can stall 0.01 bit above the minimum.  The restart has its own budget,
#: so a polish that stalls spends up to twice ``maxfev``.
_POLISH_STEP = 0.05

_OFF_PATTERN = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]


def is_x_pattern(mat: np.ndarray) -> bool:
    """True when all entries off the diagonal and anti-diagonal are at most
    ``X_PATTERN_TOL`` in magnitude."""
    return all(abs(mat[r, c]) <= X_PATTERN_TOL for r, c in _OFF_PATTERN)


class XState(DensityMatrix):
    """Two-qubit density matrix constrained to the X sparsity pattern."""

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 4:
            raise ValueError("X states are two-qubit states")
        if not is_x_pattern(self.matrix):
            raise ValueError("matrix violates the X sparsity pattern")


def reduced_two_spin(gs: PureState, i: int, j: int) -> XState:
    """Reduced state of sites (i, j) of the ring ground state, site i first."""
    if i == j:
        raise ValueError("need two distinct sites")
    rho = reduced_state(gs, (i, j))
    return XState(rho.matrix, rho.site_labels)


_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch(mat: np.ndarray) -> np.ndarray:
    """Real Bloch form R[i, j] = Tr[rho sigma_i (x) sigma_j], sigma_0 = I."""
    return np.einsum("abcd,ica,jdb->ij", mat.reshape(2, 2, 2, 2),
                     _PAULI, _PAULI).real


def _pair_form(rho) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and Bloch form of a two-qubit state; raw arrays are validated."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, (0, 1))
    if rho.dim != 4:
        raise ValueError("pair measures are defined for two-qubit states")
    return rho.matrix, _bloch(rho.matrix)


def _mutual_information(bl: np.ndarray, mat: np.ndarray) -> float:
    s_a, s_b = _h2(0.5 + 0.5 * np.linalg.norm([bl[1:, 0], bl[0, 1:]], axis=1))
    return float(s_a + s_b - _entropy_bits(np.linalg.eigvalsh(mat)))


def pair_mutual_information(mat: np.ndarray) -> float:
    """I(A:B) of a two-qubit state or raw 4x4 density matrix, in bits."""
    mat, bl = _pair_form(mat)
    return _mutual_information(bl, mat)


def _conditional_entropy(bl: np.ndarray, axes: np.ndarray):
    """sum_b p_b S(rho_{A|b}) for B measured along each unit vector of ``axes``.

    Outcome b = +-1 has p_b = (1 + b s.m) / 2 and leaves A with the Bloch
    vector (r + b T m) / (2 p_b); outcomes with p_b <= 1e-14 count as pure.
    """
    r, s, t = bl[1:, 0], bl[0, 1:], bl[1:, 1:]
    total = 0.0
    for b in (1.0, -1.0):
        p = 0.5 * (1.0 + b * (axes @ s))
        v = np.linalg.norm(r + b * (axes @ t.T), axis=-1)
        length = np.divide(v, 2.0 * p, out=np.ones_like(p), where=p > 1e-14)
        total = total + p * _h2(0.5 + 0.5 * length)
    return total


def _probe_angles(bl: np.ndarray) -> np.ndarray:
    """(theta, phi) of the 7 probe axes on side B: sigma^z, sigma^x, sigma^y,
    B's Bloch direction (sigma^z when B is maximally mixed) and the three
    right-singular axes of T.  ``_probe_angles(bl.T)`` gives side A's."""
    axes = np.vstack([np.eye(3)[[2, 0, 1]], bl[0, 1:], np.linalg.svd(bl[1:, 1:])[2]])
    return _angles(axes)


def _polish(cost, candidates: np.ndarray, maxfev: int) -> float:
    """Score every candidate angle row in one vectorized ``cost`` call, then
    polish by Nelder-Mead from the best row; returns the minimum.  A polish
    that stops on its budget restarts once where it stopped, with a simplex
    of edge ``_POLISH_STEP``, and warns :class:`ConvergenceWarning` if that
    one stops on its budget too."""
    values = cost(candidates)
    x, best = candidates[np.argmin(values)], float(values.min())
    for edge in (None, _POLISH_STEP):
        simplex = None if edge is None else x + edge * np.eye(len(x) + 1, len(x), -1)
        res = minimize(cost, x, method="Nelder-Mead",
                       options={"xatol": _POLISH_TOL, "fatol": _POLISH_TOL,
                                "maxfev": maxfev, "initial_simplex": simplex})
        x, best = res.x, min(best, float(res.fun))
        if res.success:
            return best
    warnings.warn("the Nelder-Mead polish did not converge; returning the "
                  "best value found", ConvergenceWarning, stacklevel=3)
    return best


def _discord_measured_on_b(bl: np.ndarray, s_ab: float) -> float:
    h_min = _polish(lambda x: _conditional_entropy(bl, _unit(x)),
                    _probe_angles(bl), maxfev=600)
    s_b = _h2(0.5 + 0.5 * np.linalg.norm(bl[0, 1:]))
    return max(float(s_b - s_ab + h_min), 0.0)


def discord(rho: DensityMatrix, direction: str = "sym") -> float:
    """Quantum discord of a two-qubit state, in bits.

    ``direction`` selects the measured side: ``"b->a"`` measures the second
    qubit, ``"a->b"`` the first, and ``"sym"`` returns the maximum of the two
    (the symmetrized discord).  The conditional entropy is scored on the
    measured side's 7 probe axes and polished by Nelder-Mead from the best
    of them, which warns :class:`ConvergenceWarning` when it does not
    converge.  On X states the probe axes reproduce the semi-closed
    formula's minimum; on other states the same search is a numerical
    minimum only, and a :class:`NonXStateWarning` says so.
    """
    mat, bl = _pair_form(rho)
    sides = {"b->a": (bl,), "a->b": (bl.T,), "sym": (bl, bl.T)}
    if direction not in sides:
        raise ValueError(f"unknown direction {direction!r}")
    if not is_x_pattern(mat):
        warnings.warn("input is not an X state; the minimum rests on the "
                      "numerical search", NonXStateWarning, stacklevel=2)
    s_ab = _entropy_bits(np.linalg.eigvalsh(mat))
    return max(_discord_measured_on_b(side, s_ab) for side in sides[direction])


def _dephased_information(bl: np.ndarray, angles: np.ndarray):
    """I(A:B) after dephasing along each (theta_a, phi_a, theta_b, phi_b) row.

    Outcomes a, b = +-1 of A along n and B along m have probabilities
    p_ab = (1 + a r.n + b s.m + ab n.T m) / 4.
    """
    n, m = _unit(angles[..., :2]), _unit(angles[..., 2:])
    rn = (n @ bl[1:, 0])[..., None, None]
    sm = (m @ bl[0, 1:])[..., None, None]
    ntm = np.einsum("...i,ij,...j->...", n, bl[1:, 1:], m)[..., None, None]
    a, b = np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])
    p = np.clip(0.25 * (1.0 + a * rn + b * sm + a * b * ntm), 0.0, None)
    return (_entropy_bits(p.sum(axis=-1), axis=-1)
            + _entropy_bits(p.sum(axis=-2), axis=-1)
            - _entropy_bits(p, axis=(-2, -1)))


def mid(rho: DensityMatrix) -> float:
    """Measurement-induced disturbance: mutual-information loss under
    dephasing in the marginal eigenbases (no optimization).  A maximally
    mixed marginal (Bloch length <= 1e-9) is dephased along sigma^z."""
    mat, bl = _pair_form(rho)
    eigenbases = _angles(np.stack([bl[1:, 0], bl[0, 1:]])).ravel()
    value = _mutual_information(bl, mat) - _dephased_information(bl, eigenbases)
    return max(float(value), 0.0)


def amid(rho: DensityMatrix, n_starts: int = 8, seed: int = 0) -> float:
    """Ameliorated MID: mutual-information loss minimized over all bilocal
    projective bases (4 angles).

    The candidates are the 7 x 7 pairs of A and B probe axes plus
    ``max(n_starts, 4) - 4`` random angle pairs drawn from ``seed``; one
    Nelder-Mead polish starts from the best of them and warns
    :class:`ConvergenceWarning` when it does not converge.
    """
    mat, bl = _pair_form(rho)
    a, b = _probe_angles(bl.T), _probe_angles(bl)
    candidates = [np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])]
    rng = np.random.default_rng(seed)
    for _ in range(max(n_starts, 4) - 4):
        th, ph = rng.uniform(0.0, math.pi, 2), rng.uniform(0.0, 2.0 * math.pi, 2)
        candidates.append([[th[0], ph[0], th[1], ph[1]]])
    loss = _polish(lambda x: -_dephased_information(bl, x),
                   np.vstack(candidates), maxfev=1600)
    return max(_mutual_information(bl, mat) + loss, 0.0)


# ---------------------------------------------------------------------------
# Thermodynamic-limit correlators (Toeplitz determinants)
# ---------------------------------------------------------------------------

QUAD_ABS_TOL = 1e-10


@dataclass(frozen=True)
class CorrelatorSet:
    """Infinite-ring two-point correlators at separation ``s``.

    ``lam`` is the coupling-to-field ratio J/B.  ``mz`` equals the quadrature
    kernel's zeroth moment G_0, the field-aligned magnetization; it has the
    opposite sign to ``<sigma^z>`` of the ring ground state (the +B field
    term polarizes spins down).
    """

    chi_xx: float
    chi_yy: float
    chi_zz: float
    mz: float
    separation: int
    lam: float
    quad_error: float

    def __post_init__(self):
        for name in ("chi_xx", "chi_yy", "chi_zz", "mz"):
            val = getattr(self, name)
            if abs(val) > 1.0 + 1e-9:
                raise ValueError(f"{name}={val} outside [-1, 1]")


def _g_moment(lam: float, k: int) -> tuple[float, float]:
    """Quadrature for the moment G_k; returns (value, error estimate)."""

    def eps(phi):
        return np.sqrt(1.0 + lam * lam + 2.0 * lam * np.cos(phi))

    i1, e1 = quad(
        lambda phi: math.cos(k * phi) * (1.0 + lam * math.cos(phi)) / eps(phi),
        0.0, math.pi, epsabs=1e-13, epsrel=1e-12, limit=400,
    )
    if k == 0:
        return i1 / math.pi, e1 / math.pi
    i2, e2 = quad(
        lambda phi: math.sin(k * phi) * math.sin(phi) / eps(phi),
        0.0, math.pi, epsabs=1e-13, epsrel=1e-12, limit=400,
    )
    return (i1 - lam * i2) / math.pi, (e1 + abs(lam) * e2) / math.pi


def toeplitz_correlators(lam: float, s: int) -> CorrelatorSet:
    """Thermodynamic-limit correlators at separation ``s`` for ratio J/B = lam.

    chi_xx and chi_yy are s-by-s Toeplitz determinants over the moments G_k;
    chi_zz = G_0**2 - G_s G_{-s}.  Quadrature is adaptive with an absolute
    tolerance of 1e-10 on every moment.
    """
    if not math.isfinite(lam) or lam <= 0:
        raise ValueError("lam must be finite and positive")
    if s < 1:
        raise ValueError("separation must be >= 1")
    g, err = {}, 0.0
    for k in range(-s, s + 1):
        g[k], e = _g_moment(lam, k)
        err += e
    if err > QUAD_ABS_TOL:
        raise QuadratureError("correlator quadrature above tolerance", err)

    def det_for(offset: int) -> float:
        col = [g[r + offset] for r in range(s)]
        row = [g[-c + offset] for c in range(s)]
        return float(np.linalg.det(toeplitz(col, row)))

    chi_xx = det_for(-1)
    chi_yy = det_for(+1)
    chi_zz = g[0] ** 2 - g[s] * g[-s]
    return CorrelatorSet(chi_xx, chi_yy, chi_zz, g[0], s, lam, err)


def x_state_from_correlators(corr: CorrelatorSet) -> XState:
    """Two-spin state reconstructed from a correlator set.

    Uses ``<sigma^z> = -corr.mz`` so the result matches the reduced states of
    finite rings built with the +B field convention.
    """
    mz = -corr.mz
    diag = 0.25 * np.array([
        1.0 + corr.chi_zz + 2.0 * mz,
        1.0 - corr.chi_zz,
        1.0 - corr.chi_zz,
        1.0 + corr.chi_zz - 2.0 * mz,
    ])
    mat = np.diag(diag.astype(complex))
    mat[0, 3] = mat[3, 0] = 0.25 * (corr.chi_xx - corr.chi_yy)
    mat[1, 2] = mat[2, 1] = 0.25 * (corr.chi_xx + corr.chi_yy)
    return XState(mat, (0, 1))
