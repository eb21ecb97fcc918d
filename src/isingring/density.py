"""Density-operator algebra: partial traces, entropies, rotations, dephasing.

All entropic quantities are in bits (base-2 logarithms).  Measurement bases
are parameterized by per-site angle pairs ``(theta, phi)`` through
:func:`rotation_matrix`; every module in the package shares that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Eigenvalues in [-EIG_CLIP, 0] are treated as numerical zeros; anything more
# negative marks a genuinely invalid operator.
EIG_CLIP = 1e-10

#: Sentinel returned by relative_entropy on a support violation.
INF_DIVERGENCE = math.inf


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    """Single-qubit rotation taking the sigma^z eigenbasis to the (theta, phi) basis.

    The first column is the +1 measurement vector with Bloch direction
    ``(sin(theta) cos(phi), sin(theta) sin(phi), cos(theta))``; the second
    column is the antipodal vector.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ph = complex(math.cos(phi), math.sin(phi))
    return np.array([[c, -s * ph.conjugate()], [s * ph, c]], dtype=complex)


def as_angles(angles, n_sites: int) -> np.ndarray:
    """Coerce ``angles`` to a float array of shape ``(n_sites, 2)``."""
    arr = np.asarray(angles, dtype=float).reshape(-1, 2)
    if arr.shape[0] != n_sites:
        raise ValueError(
            f"expected {n_sites} (theta, phi) pairs, got {arr.shape[0]}"
        )
    return arr


def angles_all_z(n_sites: int) -> np.ndarray:
    """Angle set selecting the sigma^z eigenbasis on every site."""
    return np.zeros((n_sites, 2))


def angles_all_x(n_sites: int) -> np.ndarray:
    """Angle set selecting the sigma^x eigenbasis on every site."""
    out = np.zeros((n_sites, 2))
    out[:, 0] = math.pi / 2.0
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on labeled sites.

    ``site_labels`` records which ring sites the tensor factors describe, in
    register order (first label = most significant qubit).
    """

    matrix: np.ndarray
    site_labels: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        labels = tuple(int(s) for s in self.site_labels)
        dim = 2 ** len(labels)
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match {len(labels)} labeled sites"
            )
        if np.max(np.abs(m - m.conj().T)) > 1e-11:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -EIG_CLIP:
            raise ValueError(f"negative eigenvalue {evals[0]:.3e} beyond clip window")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "site_labels", labels)

    @property
    def n_sites(self) -> int:
        return len(self.site_labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_density(amplitudes: np.ndarray, site_labels) -> DensityMatrix:
    """Projector onto a normalized state vector as a DensityMatrix."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    return DensityMatrix(np.outer(v, v.conj()), tuple(site_labels))


def _entropy_bits(weights: np.ndarray) -> float:
    """Entropy kernel in bits: negatives clipped to 0, no validation.

    For spectra that are valid by construction, such as those inside the
    optimizer loops; the public entropies below check their input first.
    """
    lam = np.clip(weights, 0.0, None)
    nz = lam[lam > 0.0]
    return float(-np.dot(nz, np.log2(nz)))


def binary_entropy(p: float) -> float:
    """Entropy in bits of a (p, 1-p) distribution."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def shannon_entropy(probs: np.ndarray) -> float:
    """Entropy in bits of a probability vector (small negatives clipped)."""
    lam = np.asarray(probs, dtype=float)
    if lam.min() < -EIG_CLIP:
        raise ValueError(f"negative weight {lam.min():.3e} beyond clip window")
    return _entropy_bits(lam)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr[rho log2 rho] in bits."""
    return shannon_entropy(np.linalg.eigvalsh(rho.matrix))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) = Tr[rho log2 rho - rho log2 sigma] in bits.

    Returns ``math.inf`` when the support of ``rho`` leaks outside the
    support of ``sigma`` (no exception is raised).
    """
    if rho.dim != sigma.dim:
        raise ValueError("operators act on different dimensions")
    s_evals, s_vecs = np.linalg.eigh(sigma.matrix)
    s_evals = np.clip(s_evals, 0.0, None)
    # Diagonal of rho in sigma's eigenbasis.
    rho_in_sigma = np.einsum(
        "ij,jk,ki->i", s_vecs.conj().T, rho.matrix, s_vecs
    ).real
    kernel = s_evals <= EIG_CLIP
    if np.any(rho_in_sigma[kernel] > EIG_CLIP):
        return INF_DIVERGENCE
    supported = ~kernel
    cross = -float(np.dot(rho_in_sigma[supported], np.log2(s_evals[supported])))
    value = cross - von_neumann_entropy(rho)
    return max(value, 0.0)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every site not in ``keep``, preserving register order."""
    keep = tuple(int(s) for s in keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    labels = rho.site_labels
    if len(set(keep)) != len(keep) or any(s not in labels for s in keep):
        raise ValueError(f"keep sites {keep} not a subset of {labels}")
    if len(keep) == rho.n_sites:
        return rho

    n = rho.n_sites
    keep_pos = sorted(labels.index(s) for s in keep)
    tensor = rho.matrix.reshape((2,) * (2 * n))
    row_idx = list(range(n))
    col_idx = [n + keep_pos.index(p) if p in keep_pos else row_idx[p]
               for p in range(n)]
    out_idx = [p for p in keep_pos] + [n + i for i in range(len(keep_pos))]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    dim = 2 ** len(keep_pos)
    return DensityMatrix(reduced.reshape(dim, dim), tuple(labels[p] for p in keep_pos))


def mutual_information(rho: DensityMatrix, cut) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB) across the given bipartition.

    ``cut`` lists the site labels forming side A; the remaining labels form B.
    """
    side_a = tuple(int(s) for s in cut)
    side_b = tuple(s for s in rho.site_labels if s not in side_a)
    if not side_a or not side_b or any(s not in rho.site_labels for s in side_a):
        raise ValueError(f"cut {side_a} is not a proper bipartition of {rho.site_labels}")
    s_a = von_neumann_entropy(partial_trace(rho, side_a))
    s_b = von_neumann_entropy(partial_trace(rho, side_b))
    return s_a + s_b - von_neumann_entropy(rho)


def _kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dephase(rho: DensityMatrix, angles) -> DensityMatrix:
    """Project onto the product basis defined by per-site rotation angles.

    Implements ``sum_k Pi_k rho Pi_k`` with ``Pi_k`` the rank-one projectors
    of the rotated local bases; the result is diagonal in that basis.
    """
    ang = as_angles(angles, rho.n_sites)
    big_r = _kron_all(rotation_matrix(t, p) for t, p in ang)
    rotated = big_r.conj().T @ rho.matrix @ big_r
    diag = np.diag(np.diag(rotated).real.astype(complex))
    return DensityMatrix(big_r @ diag @ big_r.conj().T, rho.site_labels)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over the sigma^z product basis of a ring.

    Site ``n`` maps to bit ``n`` of the basis index counted from the most
    significant side; bit value 0 is spin-up (sigma^z = +1).
    """

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        if v.size != 2 ** self.n_sites:
            raise ValueError(
                f"amplitude vector of length {v.size} does not match {self.n_sites} sites"
            )
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} differs from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_sites)

    def density_matrix(self) -> DensityMatrix:
        return pure_density(self.amplitudes, range(self.n_sites))


def reduced_state(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the ``keep`` sites (given order)."""
    keep = tuple(int(s) for s in keep)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("keep must be a nonempty set of distinct sites")
    if any(s < 0 or s >= state.n_sites for s in keep):
        raise ValueError(f"sites {keep} outside ring of {state.n_sites}")
    rest = [s for s in range(state.n_sites) if s not in keep]
    perm = list(keep) + rest
    mat = state.as_tensor().transpose(perm).reshape(2 ** len(keep), 2 ** len(rest))
    return DensityMatrix(mat @ mat.conj().T, keep)
