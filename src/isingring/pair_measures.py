"""Two-spin correlation measures: discord, MID, AMID, Toeplitz correlators.

Every pair measure works on the real Bloch form R[i, j] = Tr[rho sigma_i (x)
sigma_j] (sigma_0 = I), which holds A's Bloch vector r = R[1:, 0], B's
s = R[0, 1:] and the correlation matrix T = R[1:, 1:].  One numpy kernel per
measure scores a whole batch of measurement angles per call, on the
single-qubit kernels of :mod:`density`.  Discord and AMID share one search:
score the probe axes (sigma^z, sigma^x, sigma^y, the side's Bloch direction
and the singular axes of T) in one kernel call, then take the safeguarded
Newton steps of :mod:`newton` from the best, two kernel calls each (a
finite-difference stencil, then a line search).  The discord kernel takes a
stack of Bloch forms, so both measured sides of a symmetrized discord run
as two searches in lockstep and share every kernel call.  On X states
(non-zero entries on the diagonal and anti-diagonal only, as in every
reduced pair of the ring) the probes hold the semi-closed Ali-Rau-Alber
discord minimum (PRA 81, 042105, 2010), so one step confirms it: three
kernel calls per discord, both sides together, or per AMID.  A caller that
measures one pair several times builds its ``_Pair`` (Bloch form and
entropy) once and hands it to each measure.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import newton
from .density import (DensityMatrix, PureState, _angles, _entropy_bits, _h2,
                      _reduced_matrix, _unit)
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
    """Reduced state of sites (i, j) of the ring ground state, site i first;
    validated once, as an X state."""
    return XState(*_reduced_matrix(gs, (i, j)))


_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch(mat: np.ndarray) -> np.ndarray:
    """Real Bloch form R[i, j] = Tr[rho sigma_i (x) sigma_j], sigma_0 = I."""
    return np.einsum("abcd,ica,jdb->ij", mat.reshape(2, 2, 2, 2),
                     _PAULI, _PAULI).real


@dataclass(frozen=True)
class _Pair:
    """A validated two-qubit state as every pair measure reads it: its
    matrix, its Bloch form and its entropy S(rho_AB) in bits."""

    matrix: np.ndarray
    bloch: np.ndarray
    entropy: float


def _pair_form(rho) -> _Pair:
    """The ``_Pair`` of a two-qubit state; raw arrays are validated.  A
    ``_Pair`` passes through, so a caller that builds it once can hand it to
    every measure."""
    if isinstance(rho, _Pair):
        return rho
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, (0, 1))
    if rho.dim != 4:
        raise ValueError("pair measures are defined for two-qubit states")
    return _Pair(rho.matrix, _bloch(rho.matrix), _entropy_bits(rho.spectrum))


def _mutual_information(pair: _Pair) -> float:
    bl = pair.bloch
    s_a, s_b = _h2(0.5 + 0.5 * np.linalg.norm([bl[1:, 0], bl[0, 1:]], axis=1))
    return float(s_a + s_b - pair.entropy)


def pair_mutual_information(mat: np.ndarray) -> float:
    """I(A:B) of a two-qubit state or raw 4x4 density matrix, in bits."""
    return _mutual_information(_pair_form(mat))


def _conditional_entropy(bl: np.ndarray, axes: np.ndarray):
    """sum_b p_b S(rho_{A|b}) for a stack of Bloch forms ``bl`` (S, 4, 4),
    side B of form s measured along each row (unit vector) of ``axes[s]``
    (S, R, 3); returns (S, R).

    Outcome b = +-1 has p_b = (1 + b s.m) / 2 and leaves A with the Bloch
    vector (r + b T m) / (2 p_b); outcomes with p_b <= 1e-14 count as pure.
    """
    r, s, t = bl[:, 1:, 0], bl[:, 0, 1:], bl[:, 1:, 1:]
    b = np.array([1.0, -1.0])[:, None, None]  # both outcomes in one pass, axis 0
    p = 0.5 * (1.0 + b * (axes @ s[..., None])[..., 0])
    v = np.linalg.norm(r[:, None] + b[..., None] * (axes @ t.transpose(0, 2, 1)), axis=-1)
    length = np.divide(v, 2.0 * p, out=np.ones_like(p), where=p > 1e-14)
    return np.add.reduce(p * _h2(0.5 + 0.5 * length), axis=0)


#: The probe axes every side shares: sigma^z, sigma^x, sigma^y.
_FIXED_PROBES = np.eye(3)[[2, 0, 1]]


def _probe_angles(bl: np.ndarray) -> np.ndarray:
    """(theta, phi) of the 7 probe axes on side B of each Bloch form in the
    stack ``bl`` (S, 4, 4): sigma^z, sigma^x, sigma^y, B's Bloch direction
    (sigma^z when B is maximally mixed) and the three right-singular axes of
    T, from one stacked SVD; (S, 7, 2).  A transposed form gives side A's."""
    fixed = np.broadcast_to(_FIXED_PROBES, (len(bl), 3, 3))
    axes = np.concatenate([fixed, bl[:, None, 0, 1:],
                           np.linalg.svd(bl[:, 1:, 1:])[2]], axis=1)
    return _angles(axes)


def _warn_if_stalled(converged: np.ndarray, stacklevel: int) -> None:
    """One :class:`ConvergenceWarning` when any search of a ``newton._polish``
    stopped on its step cap, at ``stacklevel`` as seen from the caller."""
    if not converged.all():
        warnings.warn(f"the Newton polish did not converge in "
                      f"{newton._POLISH_MAX_ITER} steps; returning the best "
                      "value found", ConvergenceWarning, stacklevel=stacklevel + 1)


def _discords(pair: _Pair) -> list[float]:
    """The discords of ``pair`` with A measured and with B measured, from
    one lockstep search over both sides.

    Each side's conditional entropy is scored on its 7 probe axes and
    polished by Newton steps from the best of them; side A is measured on
    the transposed Bloch form.
    """
    if not is_x_pattern(pair.matrix):
        warnings.warn("input is not an X state; the minimum rests on the "
                      "numerical search", NonXStateWarning, stacklevel=3)
    forms = np.stack([pair.bloch.T, pair.bloch])
    h_min, converged = newton._polish(
        lambda x, live: _conditional_entropy(forms[live], _unit(x)),
        _probe_angles(forms))
    _warn_if_stalled(converged, stacklevel=3)
    # each side's own 1-D norm (a dot product): norm(axis=-1) rounds apart
    s_b = [_h2(0.5 + 0.5 * np.linalg.norm(form[0, 1:])) for form in forms]
    return [max(float(s - pair.entropy + h), 0.0) for s, h in zip(s_b, h_min)]


def discord(rho: DensityMatrix) -> float:
    """Symmetrized quantum discord of a two-qubit state, in bits: the larger
    of the two one-sided discords (``one_sided_discords``).

    Each measured side's conditional entropy is scored on its 7 probe axes
    and polished by Newton steps from the best of them; both sides run in
    one lockstep search (``newton._polish``), so they share every kernel
    call.  It warns :class:`ConvergenceWarning`, once, when a side's polish
    reaches its step cap.  On X states the probe axes reproduce the
    semi-closed formula's minimum; on other states the same search is a
    numerical minimum only, and a :class:`NonXStateWarning` says so.
    """
    return max(_discords(_pair_form(rho)))


def one_sided_discords(rho: DensityMatrix) -> tuple[float, float]:
    """The discords with A measured ("a->b") and with B measured ("b->a"),
    in bits, from the one lockstep search of ``discord(rho)``, which is the
    larger of the two."""
    d_a, d_b = _discords(_pair_form(rho))
    return d_a, d_b


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
    pair = _pair_form(rho)
    bl = pair.bloch
    eigenbases = _angles(np.stack([bl[1:, 0], bl[0, 1:]])).ravel()
    value = _mutual_information(pair) - _dephased_information(bl, eigenbases)
    return max(float(value), 0.0)


def amid(rho: DensityMatrix, n_starts: int = 8, seed: int = 0) -> float:
    """Ameliorated MID: mutual-information loss minimized over all bilocal
    projective bases (4 angles).

    The candidates are the 7 x 7 pairs of A and B probe axes (both sides
    from one stacked SVD) plus ``max(n_starts, 4) - 4`` random angle pairs
    drawn from ``seed``; one Newton polish (``newton._polish``) starts from
    the best of them; it warns :class:`ConvergenceWarning` when the polish
    reaches its step cap.  ``seed`` must be None or an integer >= 0 (else
    TypeError or ValueError, as numpy's generator has it) on every call;
    only a call that draws loads ``numpy.random``.
    """
    pair = _pair_form(rho)
    bl = pair.bloch
    a, b = _probe_angles(np.stack([bl.T, bl]))
    candidates = [np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])]
    if seed is not None and operator.index(seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n_random = max(_check_integer("n_starts", n_starts), 4) - 4
    if n_random > 0:
        rng = np.random.default_rng(seed)
        for _ in range(n_random):
            th, ph = rng.uniform(0.0, math.pi, 2), rng.uniform(0.0, 2.0 * math.pi, 2)
            candidates.append([[th[0], ph[0], th[1], ph[1]]])
    loss, converged = newton._polish(lambda x, live: -_dephased_information(bl, x[0])[None],
                                     np.vstack(candidates)[None])
    _warn_if_stalled(converged, stacklevel=2)
    return max(_mutual_information(pair) + float(loss[0]), 0.0)


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
