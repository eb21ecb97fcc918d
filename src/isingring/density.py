"""States and their entropies: validated state types, reduced states, rotations.

All entropic quantities are in bits (base-2 logarithms).  Measurement bases
are parameterized by per-site angle pairs ``(theta, phi)`` through
:func:`rotation_matrix`; every module in the package shares that convention.
The single-qubit measurement kernels live here too: ``_unit`` maps angle
pairs to unit Bloch axes n and ``_angles`` maps axes back, and a qubit with
Bloch vector r measured along n gives outcomes with probabilities
(1 +- n.r) / 2, whose entropy is ``_h2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import _check_integer

# Eigenvalues in [-EIG_CLIP, 0] are treated as numerical zeros; anything more
# negative marks a genuinely invalid operator.
EIG_CLIP = 1e-10


def rotation_matrix(theta, phi) -> np.ndarray:
    """Single-qubit rotation taking the sigma^z eigenbasis to the (theta, phi) basis.

    The first column is the +1 measurement vector with Bloch direction
    ``(sin(theta) cos(phi), sin(theta) sin(phi), cos(theta))``; the second
    column is the antipodal vector.  Arrays of angles, of one shape, give
    a stack of matrices of that shape plus (2, 2).
    """
    c, s = np.cos(np.divide(theta, 2.0)), np.sin(np.divide(theta, 2.0))
    ph = np.cos(phi) + 1j * np.sin(phi)
    return np.stack([c + 0j, -s * ph.conj(), s * ph, c + 0j],
                    axis=-1).reshape(*np.shape(c), 2, 2)


def _unit(angles) -> np.ndarray:
    """Unit Bloch vectors of the (theta, phi) pairs on the last axis."""
    th, ph = angles[..., 0], angles[..., 1]
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                     np.cos(th)], axis=-1)


def _angles(v: np.ndarray) -> np.ndarray:
    """(theta, phi) of the vectors on the last axis, phi in [0, 2 pi): the
    inverse of ``_unit``.  A length <= 1e-9 has no direction and maps to
    sigma^z, (0, 0)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    th, ph = np.arctan2(np.hypot(x, y), z), np.arctan2(y, x) % (2.0 * math.pi)
    null = (np.linalg.norm(v, axis=-1) <= 1e-9)[..., None]
    return np.where(null, 0.0, np.stack([th, ph], axis=-1))


def as_angles(angles, n_sites: int) -> np.ndarray:
    """Coerce ``angles`` to a float array of shape ``(n_sites, 2)``."""
    arr = np.asarray(angles, dtype=float).reshape(-1, 2)
    if arr.shape[0] != n_sites:
        raise ValueError(
            f"expected {n_sites} (theta, phi) pairs, got {arr.shape[0]}"
        )
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on labeled sites.

    ``site_labels`` records which ring sites the tensor factors describe, in
    register order (first label = most significant qubit).  ``spectrum``
    holds the ascending eigenvalues that the positivity check computed.
    """

    matrix: np.ndarray
    site_labels: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        labels = tuple(_check_integer("site label", s) for s in self.site_labels)
        dim = 2 ** len(labels)
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match {len(labels)} labeled sites"
            )
        # Every check is written so that NaN fails it.
        if not np.max(np.abs(m - m.conj().T)) <= 1e-11:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= 1e-9:
            raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh(m)
        if not evals[0] >= -EIG_CLIP:
            raise ValueError(f"negative eigenvalue {evals[0]:.3e} beyond clip window")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "site_labels", labels)
        object.__setattr__(self, "spectrum", evals)

    @property
    def n_sites(self) -> int:
        return len(self.site_labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# The smallest positive double.  log(max(w, _LOG_FLOOR)) is log(w) for every
# w > 0, subnormals included, and finite for w <= 0, where the factor
# max(w, 0) = 0 zeroes the term: -p ln p without evaluating log(0).
_LOG_FLOOR = 5e-324

_MINUS_LN2 = -math.log(2.0)


def _entropy_bits(weights, axis=None):
    """Entropy kernel in bits, summed over ``axis`` (all of it by default):
    negatives clipped to 0, no validation.

    For spectra that are valid by construction, such as those inside the
    optimizer loops; the public entropies below check their input first.
    """
    terms = np.maximum(weights, 0.0) * np.log(np.maximum(weights, _LOG_FLOOR))
    return np.add.reduce(terms, axis=axis) / _MINUS_LN2


def _h2(p):
    """Elementwise binary entropy in bits, arguments clipped to [0, 1]."""
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    q = 1.0 - p
    return (p * np.log(np.maximum(p, _LOG_FLOOR))
            + q * np.log(np.maximum(q, _LOG_FLOOR))) / _MINUS_LN2


def binary_entropy(p: float) -> float:
    """Entropy in bits of a (p, 1-p) distribution."""
    return float(_h2(p))


def shannon_entropy(probs: np.ndarray) -> float:
    """Entropy in bits of a probability vector (small negatives clipped)."""
    lam = np.asarray(probs, dtype=float)
    if lam.min() < -EIG_CLIP:
        raise ValueError(f"negative weight {lam.min():.3e} beyond clip window")
    return float(_entropy_bits(lam))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr[rho log2 rho] in bits."""
    return shannon_entropy(rho.spectrum)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over the sigma^z product basis of a ring.

    Site ``n`` maps to bit ``n`` of the basis index counted from the most
    significant side; bit value 0 is spin-up (sigma^z = +1).  Real input is
    stored as float64 and complex input as complex128, so the Gram products
    of a real state, such as a ring ground state, run in real arithmetic.
    """

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        v = np.asarray(self.amplitudes)
        v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float).ravel()
        n = _check_integer("n_sites", self.n_sites)
        if v.size != 2 ** n:
            raise ValueError(f"amplitude vector of length {v.size} does not match {n} sites")
        norm = np.linalg.norm(v)
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state norm {norm} differs from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "n_sites", n)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_sites)


def _gram(tensor: np.ndarray, side: tuple) -> np.ndarray:
    """Reduced state on the sites ``side`` (in that register order) of an
    amplitude tensor with one axis per site: one Gram product of the
    reshaped tensor, unvalidated.  Every partial trace of a pure state in
    the package is this kernel."""
    other = tuple(s for s in range(tensor.ndim) if s not in side)
    m = tensor.transpose(side + other).reshape(2 ** len(side), -1)
    return m @ m.conj().T


def _reduced_matrix(state: PureState, keep) -> tuple[np.ndarray, tuple]:
    """The unvalidated reduced matrix of a pure state on the ``keep`` sites
    (given order), and the checked sites, for one state type to validate."""
    keep = tuple(_check_integer("site", s) for s in keep)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("keep must be a nonempty set of distinct sites")
    if any(s < 0 or s >= state.n_sites for s in keep):
        raise ValueError(f"sites {keep} outside ring of {state.n_sites}")
    return _gram(state.as_tensor(), keep), keep


def reduced_state(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the ``keep`` sites (given order)."""
    return DensityMatrix(*_reduced_matrix(state, keep))
