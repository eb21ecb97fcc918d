"""Two-spin correlation measures: discord, MID, AMID, Toeplitz correlators.

Every pair measure works on the real Bloch form R[i, j] = Tr[rho sigma_i (x)
sigma_j] (sigma_0 = I), which holds A's Bloch vector r = R[1:, 0], B's
s = R[0, 1:] and the correlation matrix T = R[1:, 1:].  One numpy kernel per
measure scores a whole batch of measurement angles per call, on the
single-qubit kernels of :mod:`density`.  Discord and AMID share one search:
score the probe axes (sigma^z, sigma^x, sigma^y, the side's Bloch direction
and the singular axes of T) in one kernel call, then take the safeguarded
Newton steps of :mod:`newton` from the best, two kernel calls each (a
finite-difference stencil, then a line search).  On X states (non-zero
entries on the diagonal and anti-diagonal only, as in every reduced pair of
the ring) the probes hold the semi-closed Ali-Rau-Alber discord minimum
(PRA 81, 042105, 2010), so one step confirms it: three kernel calls.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import newton
from .density import (DensityMatrix, PureState, _angles, _entropy_bits, _h2,
                      _unit, reduced_state)
from .errors import (ConvergenceWarning, NonXStateWarning, QuadratureError,
                     _check_integer)

X_PATTERN_TOL = 1e-10

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
    """sum_b p_b S(rho_{A|b}) for B measured along each row (unit vector) of
    ``axes``.

    Outcome b = +-1 has p_b = (1 + b s.m) / 2 and leaves A with the Bloch
    vector (r + b T m) / (2 p_b); outcomes with p_b <= 1e-14 count as pure.
    """
    r, s, t = bl[1:, 0], bl[0, 1:], bl[1:, 1:]
    b = np.array([[1.0], [-1.0]])  # both outcomes in one pass, axis 0
    p = 0.5 * (1.0 + b * (axes @ s))
    v = np.linalg.norm(r + b[..., None] * (axes @ t.T), axis=-1)
    length = np.divide(v, 2.0 * p, out=np.ones_like(p), where=p > 1e-14)
    return np.add.reduce(p * _h2(0.5 + 0.5 * length), axis=0)


def _probe_angles(bl: np.ndarray) -> np.ndarray:
    """(theta, phi) of the 7 probe axes on side B: sigma^z, sigma^x, sigma^y,
    B's Bloch direction (sigma^z when B is maximally mixed) and the three
    right-singular axes of T.  ``_probe_angles(bl.T)`` gives side A's."""
    axes = np.vstack([np.eye(3)[[2, 0, 1]], bl[0, 1:], np.linalg.svd(bl[1:, 1:])[2]])
    return _angles(axes)


def _minimum(cost, candidates: np.ndarray) -> float:
    """``newton._polish``; warns :class:`ConvergenceWarning` on its step cap."""
    value, converged = newton._polish(cost, candidates)
    if not converged:
        warnings.warn(f"the Newton polish did not converge in "
                      f"{newton._POLISH_MAX_ITER} steps; returning the best "
                      "value found", ConvergenceWarning, stacklevel=4)
    return value


def _discord_measured_on_b(bl: np.ndarray, s_ab: float) -> float:
    h_min = _minimum(lambda x: _conditional_entropy(bl, _unit(x)), _probe_angles(bl))
    s_b = _h2(0.5 + 0.5 * np.linalg.norm(bl[0, 1:]))
    return max(float(s_b - s_ab + h_min), 0.0)


def discord(rho: DensityMatrix, direction: str = "sym") -> float:
    """Quantum discord of a two-qubit state, in bits.

    ``direction`` selects the measured side: ``"b->a"`` measures the second
    qubit, ``"a->b"`` the first, and ``"sym"`` returns the maximum of the two
    (the symmetrized discord).  The conditional entropy is scored on the
    measured side's 7 probe axes and polished by Newton steps from the best
    of them (``newton._polish``); it warns :class:`ConvergenceWarning` when
    the polish reaches its step cap.  On X states the probe axes reproduce the
    semi-closed formula's minimum; on other states the same search is a
    numerical minimum only, and a :class:`NonXStateWarning` says so.
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
    Newton polish (``newton._polish``) starts from the best of them; it warns
    :class:`ConvergenceWarning` when the polish reaches its step cap.
    ``seed`` must be None or an integer >= 0 (else TypeError or ValueError,
    as numpy's generator has it) on every call; only a call that draws
    loads ``numpy.random``.
    """
    mat, bl = _pair_form(rho)
    a, b = _probe_angles(bl.T), _probe_angles(bl)
    candidates = [np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])]
    if seed is not None and operator.index(seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n_random = max(_check_integer("n_starts", n_starts), 4) - 4
    if n_random > 0:
        rng = np.random.default_rng(seed)
        for _ in range(n_random):
            th, ph = rng.uniform(0.0, math.pi, 2), rng.uniform(0.0, 2.0 * math.pi, 2)
            candidates.append([[th[0], ph[0], th[1], ph[1]]])
    loss = _minimum(lambda x: -_dephased_information(bl, x), np.vstack(candidates))
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


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n (three-term recurrence) from the asymptotic
    guesses, which converges in four steps; w = 2 / ((1 - x^2) P_n'(x)^2).
    Both come out within 1.5e-16 of 40-digit values for n = 20 and 30,
    where ``numpy.polynomial.legendre.leggauss``'s rescaled weights are off
    by up to 2.4e-15.
    """
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (p_prev - x * p) / (1.0 - x * x)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


# Composite Gauss-Legendre rules of two orders: the moments are the sums of
# the higher order, their error estimate the gap between the two.
_RULES = (_gauss_legendre(20), _gauss_legendre(30))


def _sorted_unique(x) -> np.ndarray:
    """``np.unique(x)`` for floats, bit for bit, without the numpy.ma import
    that np.unique makes (numpy 2.4)."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


def _panel_edges(lam: float, s: int) -> np.ndarray:
    """Panel edges on [0, pi] for the moments of order |k| <= s.

    The integrand has a kink of width |1 - lam| / sqrt(lam) at t = 0 (its
    complex singularities sit that far off the real axis), so the panels grade
    geometrically, by 4, from that width up to pi; at lam = 1 the kink is gone.
    A uniform grid of panels at most 12 / (s + 1) wide resolves the factors
    cos kt and sin (k + 1/2) t over every panel.
    """
    edges = [np.linspace(0.0, math.pi, math.ceil(math.pi * (s + 1) / 12.0) + 1)]
    width = abs(1.0 - lam) / math.sqrt(lam)
    if 0.0 < width < math.pi:
        edges.append(width * 4.0 ** np.arange(math.ceil(math.log(math.pi / width, 4))))
    return _sorted_unique(np.concatenate(edges))


def _g_moments(lam: float, s: int) -> tuple[np.ndarray, np.ndarray]:
    """G_k = (1/pi) int_0^pi [cos k phi + lam cos (k+1) phi] / eps(phi) dphi,
    eps^2 = 1 + lam^2 + 2 lam cos phi, for k = -s..s, as (values, error
    estimates).  All moments share one composite Gauss-Legendre rule in
    t = pi - phi, where no term cancels next to lam = 1."""
    a, b = 1.0 - lam, 2.0 * math.sqrt(lam)
    edges = _panel_edges(lam, s)
    centre = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half_width = 0.5 * np.diff(edges)[:, None]
    k = np.arange(-s, s + 1)[:, None]
    sums = []
    for x, w in _RULES:
        t = (centre + half_width * x).ravel()
        half = np.sin(0.5 * t)
        # (-1)^k times the integrand in t
        f = ((a * np.cos(k * t) + 2.0 * lam * half * np.sin((k + 0.5) * t))
             / np.hypot(a, b * half))
        sums.append(f @ (half_width * w).ravel())
    low, high = sums
    return (-1.0) ** k.ravel() * high / math.pi, np.abs(high - low) / math.pi


def toeplitz_correlators(lam: float, s: int) -> CorrelatorSet:
    """Thermodynamic-limit correlators at separation ``s`` for ratio J/B = lam.

    chi_xx and chi_yy are s-by-s Toeplitz determinants over the moments
    G_-s..G_s (``_g_moments``), chi_zz = G_0**2 - G_s G_-s.  Their summed
    error estimate must stay within ``QUAD_ABS_TOL`` (1e-10), or
    :class:`QuadratureError` is raised.

    Against 50-digit values the fields are within 1.7e-15 for every tested
    s <= 8.  At large lam and s rounding in the node sums costs digits:
    3.1e-15 at lam = 5, s = 15 and 5.7e-15 at lam = 25, s = 15.
    """
    if not math.isfinite(lam) or lam <= 0:
        raise ValueError("lam must be finite and positive")
    if _check_integer("separation", s) < 1:
        raise ValueError("separation must be >= 1")
    moments, errors = _g_moments(lam, s)
    err = float(errors.sum())
    if err > QUAD_ABS_TOL:
        raise QuadratureError("correlator quadrature above tolerance", err)

    # chi_xx and chi_yy: determinants of the Toeplitz matrices with entries
    # G_{d + i - j}, d = -1 and +1; moments[s + m] is G_m
    toeplitz = s + np.subtract.outer(np.arange(s), np.arange(s))
    chi_xx, chi_yy = (float(np.linalg.det(moments[toeplitz + d])) for d in (-1, 1))
    chi_zz = float(moments[s] ** 2 - moments[2 * s] * moments[0])
    return CorrelatorSet(chi_xx, chi_yy, chi_zz, float(moments[s]), s, lam, err)


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
