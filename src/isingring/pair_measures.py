"""Two-spin correlation measures: discord, MID, AMID, Toeplitz correlators.

Reduced two-spin states of the ring ground state always carry the X sparsity
pattern (non-zero entries on the diagonal and anti-diagonal only), which
admits a semi-closed discord formula; every optimized quantity is also
evaluated by direct numerical minimization and the better bound is returned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.optimize import minimize

from .density import (
    DensityMatrix,
    PureState,
    _entropy_bits,
    binary_entropy,
    reduced_state,
    rotation_matrix,
    shannon_entropy,
)
from .errors import ConvergenceWarning, NonXStateWarning, QuadratureError

X_PATTERN_TOL = 1e-10

_OFF_PATTERN = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]


def is_x_pattern(mat: np.ndarray, tol: float = X_PATTERN_TOL) -> bool:
    """True when all entries off the diagonal and anti-diagonal vanish."""
    return all(abs(mat[r, c]) <= tol for r, c in _OFF_PATTERN)


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


def _as_matrix(rho) -> np.ndarray:
    """Accept a DensityMatrix or a raw 4x4 array; raw arrays are trusted."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def _swap_pair(mat: np.ndarray) -> np.ndarray:
    return mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _eig2(mat2: np.ndarray) -> tuple[float, float]:
    t = mat2[0, 0].real + mat2[1, 1].real
    gap = math.sqrt(
        (mat2[0, 0].real - mat2[1, 1].real) ** 2 + 4.0 * abs(mat2[0, 1]) ** 2
    )
    return 0.5 * (t - gap), 0.5 * (t + gap)


def _entropy2(mat2: np.ndarray) -> float:
    lo, hi = _eig2(mat2)
    s = 0.0
    for lam in (lo, hi):
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return s


def _marginals(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = mat.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", t), np.einsum("abad->bd", t)


def pair_mutual_information(mat: np.ndarray) -> float:
    """I(A:B) of a two-qubit matrix, in bits."""
    rho_a, rho_b = _marginals(mat)
    s_ab = _entropy_bits(np.linalg.eigvalsh(mat))
    return _entropy2(rho_a) + _entropy2(rho_b) - s_ab


def _conditional_entropy(mat: np.ndarray, theta: float, phi: float) -> float:
    """sum_m p_m S(rho_{A|m}) for a projective measurement on qubit B."""
    t = mat.reshape(2, 2, 2, 2)
    rot = rotation_matrix(theta, phi)
    total = 0.0
    for m in range(2):
        v = rot[:, m]
        w = np.einsum("b,abcd,d->ac", v.conj(), t, v)
        p = w[0, 0].real + w[1, 1].real
        if p > 1e-14:
            total += p * _entropy2(w / p)
    return total


def _min_conditional_entropy_numeric(mat: np.ndarray, grid: int = 16,
                                     tol: float = 1e-9) -> float:
    thetas = np.linspace(0.0, math.pi, grid)
    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    best, best_angles = math.inf, (0.0, 0.0)
    for th in thetas:
        for ph in phis:
            val = _conditional_entropy(mat, th, ph)
            if val < best:
                best, best_angles = val, (th, ph)
    res = minimize(
        lambda x: _conditional_entropy(mat, x[0], x[1]),
        np.array(best_angles),
        method="Nelder-Mead",
        options={"xatol": tol, "fatol": tol, "maxfev": 600},
    )
    return min(best, float(res.fun))


def _min_conditional_entropy_formula(mat: np.ndarray) -> float:
    """Semi-closed X-state minimum: best of the z basis and the tilted x basis."""
    a, b = mat[0, 0].real, mat[1, 1].real
    c, d = mat[2, 2].real, mat[3, 3].real
    f, e = mat[0, 3], mat[1, 2]
    s_z = 0.0
    if a + c > 1e-14:
        s_z += (a + c) * binary_entropy(a / (a + c))
    if b + d > 1e-14:
        s_z += (b + d) * binary_entropy(b / (b + d))
    gamma = math.sqrt((a + b - c - d) ** 2 + 4.0 * (abs(f) + abs(e)) ** 2)
    s_x = binary_entropy(0.5 * (1.0 + min(gamma, 1.0)))
    return min(s_z, s_x)


def _discord_measured_on_b(mat: np.ndarray, use_formula: bool) -> float:
    _, rho_b = _marginals(mat)
    cond = _min_conditional_entropy_numeric(mat)
    if use_formula:
        cond = min(cond, _min_conditional_entropy_formula(mat))
    value = _entropy2(rho_b) - _entropy_bits(np.linalg.eigvalsh(mat)) + cond
    return max(value, 0.0)


def discord(rho: DensityMatrix, direction: str = "sym") -> float:
    """Quantum discord of a two-qubit state, in bits.

    ``direction`` selects the measured side: ``"b->a"`` measures the second
    qubit, ``"a->b"`` the first, and ``"sym"`` returns the maximum of the two
    (the symmetrized discord).  X states use the semi-closed formula and a
    numerical minimization, returning the smaller; other states fall back to
    the numerical path alone with a :class:`NonXStateWarning`.
    """
    mat = _as_matrix(rho)
    if mat.shape != (4, 4):
        raise ValueError("discord is defined here for two-qubit states")
    x_form = is_x_pattern(mat)
    if not x_form:
        warnings.warn(
            "input is not an X state; using numerical minimization only",
            NonXStateWarning,
            stacklevel=2,
        )
    if direction == "b->a":
        return _discord_measured_on_b(mat, x_form)
    if direction == "a->b":
        return _discord_measured_on_b(_swap_pair(mat), x_form)
    if direction == "sym":
        return max(
            _discord_measured_on_b(mat, x_form),
            _discord_measured_on_b(_swap_pair(mat), x_form),
        )
    raise ValueError(f"unknown direction {direction!r}")


def _eigenbasis_angles(mat2: np.ndarray, degeneracy_tol: float = 1e-9):
    """Measurement angles aligned with the eigenbasis of a qubit state.

    A maximally mixed marginal leaves the eigenbasis undetermined; the
    sigma^z basis is used by convention in that case.
    """
    lo, hi = _eig2(mat2)
    if hi - lo <= degeneracy_tol:
        return 0.0, 0.0
    _, vecs = np.linalg.eigh(mat2)
    v = vecs[:, 1]
    theta = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
    phi = float(np.angle(v[1]) - np.angle(v[0])) % (2.0 * math.pi)
    return theta, phi


def _dephased_probs(mat: np.ndarray, ta, pa, tb, pb) -> np.ndarray:
    big_r = np.kron(rotation_matrix(ta, pa), rotation_matrix(tb, pb))
    return np.einsum("ki,ij,jk->k", big_r.conj().T, mat, big_r).real


def _dephased_mutual_information(mat: np.ndarray, ta, pa, tb, pb) -> float:
    p = np.clip(_dephased_probs(mat, ta, pa, tb, pb), 0.0, None).reshape(2, 2)
    return (
        shannon_entropy(p.sum(axis=1))
        + shannon_entropy(p.sum(axis=0))
        - shannon_entropy(p.ravel())
    )


def mid(rho: DensityMatrix) -> float:
    """Measurement-induced disturbance: mutual-information loss under
    dephasing in the marginal eigenbases (no optimization)."""
    mat = _as_matrix(rho)
    if mat.shape != (4, 4):
        raise ValueError("mid is defined here for two-qubit states")
    rho_a, rho_b = _marginals(mat)
    ta, pa = _eigenbasis_angles(rho_a)
    tb, pb = _eigenbasis_angles(rho_b)
    value = pair_mutual_information(mat) - _dephased_mutual_information(
        mat, ta, pa, tb, pb
    )
    return max(value, 0.0)


def amid(rho: DensityMatrix, n_starts: int = 8, seed: int = 0,
         tol: float = 1e-9) -> float:
    """Ameliorated MID: mutual-information loss minimized over all bilocal
    projective bases (multi-start Nelder-Mead over 4 angles)."""
    mat = _as_matrix(rho)
    if mat.shape != (4, 4):
        raise ValueError("amid is defined here for two-qubit states")
    rho_a, rho_b = _marginals(mat)
    half = math.pi / 2.0
    starts = [
        (0.0, 0.0, 0.0, 0.0),
        (half, 0.0, half, 0.0),
        (half, half, half, half),
        (*_eigenbasis_angles(rho_a), *_eigenbasis_angles(rho_b)),
    ]
    rng = np.random.default_rng(seed)
    while len(starts) < max(n_starts, 4):
        th = rng.uniform(0.0, math.pi, size=2)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=2)
        starts.append((th[0], ph[0], th[1], ph[1]))

    def neg_info(x):
        return -_dephased_mutual_information(mat, *x)

    best = -math.inf
    any_converged = False
    for x0 in starts:
        best = max(best, _dephased_mutual_information(mat, *x0))
        res = minimize(
            neg_info,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"xatol": tol, "fatol": tol, "maxfev": 800},
        )
        any_converged = any_converged or bool(res.success)
        best = max(best, -float(res.fun))
    if not any_converged:
        warnings.warn(
            "no AMID restart converged; returning best value found",
            ConvergenceWarning,
            stacklevel=2,
        )
    return max(pair_mutual_information(mat) - best, 0.0)


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
