"""Independent reference constructions used by the tests.

Everything here is built from numpy/scipy primitives only — no imports from
the package under test — so agreement is a genuine cross-check rather than
a tautology.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.sparse.linalg import eigsh

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def site_operator(op: np.ndarray, site: int, n: int) -> sp.csr_matrix:
    out = sp.identity(1, format="csr", dtype=complex)
    for k in range(n):
        factor = sp.csr_matrix(op) if k == site else sp.identity(2, format="csr")
        out = sp.kron(out, factor, format="csr")
    return out


def sparse_tfim(n: int, j: float, b: float) -> sp.csr_matrix:
    """H = -J sum sx_k sx_{k+1} + B sum sz_k on a periodic chain (kron build)."""
    dim = 2 ** n
    ham = sp.csr_matrix((dim, dim), dtype=complex)
    for k in range(n):
        ham = ham - j * (
            site_operator(SX, k, n) @ site_operator(SX, (k + 1) % n, n)
        )
        ham = ham + b * site_operator(SZ, k, n)
    return ham


def sparse_ground(n: int, j: float, b: float) -> tuple[np.ndarray, float]:
    ham = sparse_tfim(n, j, b)
    evals, evecs = eigsh(ham.real, k=1, which="SA", tol=0.0, maxiter=20000)
    vec = evecs[:, 0]
    return vec / np.linalg.norm(vec), float(evals[0])


def reduced_pair(vec: np.ndarray, n: int, i: int, k: int) -> np.ndarray:
    """4x4 reduced density matrix of sites (i, k) of a pure chain state."""
    perm = [i, k] + [s for s in range(n) if s not in (i, k)]
    mat = vec.reshape((2,) * n).transpose(perm).reshape(4, -1)
    return mat @ mat.conj().T


def random_density(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Ginibre-ensemble random density matrix."""
    dim = 2 ** n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    dim = 2 ** n_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_x_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random two-qubit X state (diagonal + anti-diagonal support)."""
    d = rng.dirichlet(np.ones(4))
    f = rng.uniform(0.0, np.sqrt(d[0] * d[3])) * np.exp(2j * np.pi * rng.uniform())
    e = rng.uniform(0.0, np.sqrt(d[1] * d[2])) * np.exp(2j * np.pi * rng.uniform())
    mat = np.diag(d).astype(complex)
    mat[0, 3], mat[3, 0] = f, f.conjugate()
    mat[1, 2], mat[2, 1] = e, e.conjugate()
    return mat


def basis_vector(theta: float, phi: float, outcome: int) -> np.ndarray:
    """Measurement vector of the (theta, phi) basis, explicit construction."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ph = np.exp(1j * phi)
    if outcome == 0:
        return np.array([c, s * ph])
    return np.array([-s * np.conj(ph), c])


def product_projectors(angle_pairs) -> list[np.ndarray]:
    """Rank-one projectors of a multi-site product measurement."""
    n = len(angle_pairs)
    projectors = []
    for idx in range(2 ** n):
        vec = np.array([1.0 + 0.0j])
        for site in range(n):
            bit = (idx >> (n - 1 - site)) & 1
            theta, phi = angle_pairs[site]
            vec = np.kron(vec, basis_vector(theta, phi, bit))
        projectors.append(np.outer(vec, vec.conj()))
    return projectors


def dephase_matrix(rho: np.ndarray, angle_pairs) -> np.ndarray:
    """Projector-sum dephasing sum_k P_k rho P_k."""
    return sum(p @ rho @ p for p in product_projectors(angle_pairs))


def entropy_bits(mat: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(mat)
    evals = np.clip(evals, 0.0, None)
    nz = evals[evals > 1e-300]
    return float(-np.dot(nz, np.log2(nz)))


def partial_trace_dense(rho: np.ndarray, n: int, keep) -> np.ndarray:
    """Reference partial trace (keep in ascending position order)."""
    keep = sorted(keep)
    t = rho.reshape((2,) * (2 * n))
    drop = [s for s in range(n) if s not in keep]
    for count, site in enumerate(drop):
        axis = site - sum(1 for d in drop[:count] if d < site)
        ndim_half = t.ndim // 2
        t = np.trace(t, axis1=axis, axis2=ndim_half + axis)
    dim = 2 ** len(keep)
    return t.reshape(dim, dim)


def bipartitions(n: int) -> list[tuple[int, ...]]:
    """Every unordered cut of an n-site ring once, as its side holding site
    0: the 2^(n-1) - 1 proper subsets of range(n) that contain 0."""
    return [(0,) + rest for size in range(n - 1)
            for rest in itertools.combinations(range(1, n), size)]


def pair_information(mat: np.ndarray) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) of a two-qubit density matrix, in bits."""
    return (entropy_bits(partial_trace_dense(mat, 2, [0]))
            + entropy_bits(partial_trace_dense(mat, 2, [1])) - entropy_bits(mat))


def reference_objective(psi: np.ndarray, n: int, flat_angles) -> float:
    """Global-discord bracket of a pure state from explicit projector sums.

    S(Pi(rho)) - S(rho) - sum_j [S(Pi_j(rho_j)) - S(rho_j)] with every
    dephasing done by summing rank-one kron projectors.
    """
    pairs = np.asarray(flat_angles, dtype=float).reshape(n, 2)
    return full_matrix_objective(np.outer(psi, psi.conj()), n, pairs)


def full_matrix_objective(rho: np.ndarray, n: int, angle_pairs) -> float:
    """Global-discord bracket of a (possibly mixed) n-qubit density matrix,
    with explicit dephased matrices for the whole ring and for each site."""
    pairs = np.asarray(angle_pairs, dtype=float).reshape(n, 2)
    total = entropy_bits(dephase_matrix(rho, pairs)) - entropy_bits(rho)
    for j in range(n):
        rho_j = partial_trace_dense(rho, n, [j])
        dep_j = dephase_matrix(rho_j, [pairs[j]])
        total -= entropy_bits(dep_j) - entropy_bits(rho_j)
    return total


#: Uniform measured axis n0 and tilt directions (e1, e2) of the sigma^x and
#: sigma^z bases.
_TILT_FRAMES = {
    "x": ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
    "z": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
}


def tilt_hessian(psi: np.ndarray, n: int, basis: str, h: float = 1e-3) -> np.ndarray:
    """Full 2N x 2N central-difference Hessian of ``reference_objective`` at
    a uniform basis, in tilt coordinates n_j = normalize(n0 + a_j e1 + b_j e2).

    Diagonal entries use (f(+h) + f(-h) - 2 f(0)) / h^2 and every
    off-diagonal entry the four corners (+-h, +-h) / (4 h^2).
    """
    n0, e1, e2 = (np.array(v) for v in _TILT_FRAMES[basis])

    def f(tilt):
        axes = n0 + np.outer(tilt[0::2], e1) + np.outer(tilt[1::2], e2)
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        theta = np.arccos(np.clip(axes[:, 2], -1.0, 1.0))
        phi = np.arctan2(axes[:, 1], axes[:, 0])
        return reference_objective(psi, n, np.column_stack([theta, phi]))

    dim = 2 * n
    unit = np.eye(dim) * h
    f0 = f(np.zeros(dim))
    hess = np.empty((dim, dim))
    for i in range(dim):
        hess[i, i] = (f(unit[i]) + f(-unit[i]) - 2.0 * f0) / h ** 2
        for k in range(i):
            hess[i, k] = hess[k, i] = (
                f(unit[i] + unit[k]) - f(unit[i] - unit[k])
                - f(unit[k] - unit[i]) + f(-unit[i] - unit[k])) / (4.0 * h * h)
    return hess


def free_fermion_energy(n: int, j: float, b: float) -> float:
    """Even-fermion-parity ring energy -sum_k eps_k, antiperiodic momenta.

    For even N it is the exact ground energy whenever the ground state has
    parity +1 under prod_n sz_n.
    """
    phi = np.pi * (2 * np.arange(n) + 1) / n
    return float(-np.sum(np.sqrt(j * j + b * b - 2.0 * j * b * np.cos(phi))))


def _measured_conditional_entropy(rho: np.ndarray, measured: int,
                                  thetas, phis) -> np.ndarray:
    """sum_k p_k S(rho_{other|k}) for a projective measurement on one qubit,
    for every (theta, phi) pair of the grid ``thetas`` x ``phis``, flattened
    theta-major: explicit rank-one projectors P_k = |v_k><v_k| on the
    measured qubit, post-measurement states (P_k (x) I) rho (P_k (x) I) (or
    I (x) P_k), and their partial trace over the measured qubit."""
    grid = np.array([(t, f) for t in thetas for f in phis])
    vecs = _basis_vectors(grid)
    proj = np.einsum("rki,rkj->rkij", vecs, vecs.conj())
    op = (np.einsum("rkij,ab->rkiajb", proj, np.eye(2)) if measured == 0
          else np.einsum("ab,rkij->rkaibj", np.eye(2), proj)).reshape(-1, 2, 4, 4)
    post = (op @ rho @ op).reshape(-1, 2, 2, 2, 2, 2)
    post = np.einsum("rkabac->rkbc" if measured == 0 else "rkabcb->rkac", post)
    p = np.trace(post, axis1=-2, axis2=-1).real
    evals = np.clip(np.linalg.eigvalsh(post / np.where(p > 1e-14, p, 1.0)[..., None, None]),
                    1e-300, None)
    s_cond = -np.sum(evals * np.log2(evals), axis=-1)
    return np.sum(np.where(p > 1e-14, p * s_cond, 0.0), axis=-1)


def discord_scan(rho: np.ndarray, measured: int, zooms: int = 4) -> float:
    """Two-qubit discord with qubit ``measured`` (0 or 1) measured, by scanning.

    Explicit projectors on the measured qubit, conditional states by partial
    trace of the post-measurement state, and a theta/phi scan of the
    measurement axis: a 31 x 62 grid, then ``zooms`` 11 x 11 grids, each
    five times finer, around the best point so far.
    """
    def scan(thetas, phis):
        values = _measured_conditional_entropy(rho, measured, thetas, phis)
        k = int(np.argmin(values))
        return values[k], thetas[k // len(phis)], phis[k % len(phis)]

    best = scan(np.linspace(0.0, np.pi, 31),
                np.linspace(0.0, 2.0 * np.pi, 62, endpoint=False))
    step = np.pi / 30.0
    for _ in range(zooms):
        offsets = np.linspace(-step, step, 11)
        best = min(best, scan(best[1] + offsets, best[2] + offsets))
        step /= 5.0
    s_measured = entropy_bits(partial_trace_dense(rho, 2, [measured]))
    return s_measured - entropy_bits(rho) + best[0]


def _basis_vectors(angles: np.ndarray) -> np.ndarray:
    """basis_vector for every (theta, phi) row: shape (rows, outcome, 2)."""
    c, s = np.cos(angles[:, 0] / 2.0), np.sin(angles[:, 0] / 2.0)
    ph = np.exp(1j * angles[:, 1])
    return np.stack([np.stack([c, s * ph], axis=-1),
                     np.stack([-s * np.conj(ph), c], axis=-1)], axis=1)


def _dephased_information_grid(rho: np.ndarray, angles_a, angles_b) -> np.ndarray:
    """I(A:B) of sum_k P_k rho P_k for every pair of an A and a B basis.

    The dephased state is diagonal in the product basis with weights
    p_xy = <v_x w_y| rho |v_x w_y>, so its mutual information is that of the
    joint distribution p; entry [i, j] pairs angles_a[i] with angles_b[j].
    """
    va, vb = _basis_vectors(angles_a), _basis_vectors(angles_b)
    p = np.einsum("ixk,jyl,klmn,ixm,jyn->ijxy", va.conj(), vb.conj(),
                  rho.reshape(2, 2, 2, 2), va, vb, optimize=True).real

    def entropy(q, axes):
        q = np.clip(q, 1e-300, None)
        return -np.sum(q * np.log2(q), axis=axes)

    return (entropy(p.sum(axis=3), 2) + entropy(p.sum(axis=2), 2)
            - entropy(p, (2, 3)))


def amid_scan(rho: np.ndarray) -> float:
    """Two-qubit AMID by scanning both measurement bases.

    I(A:B) minus the largest dephased mutual information: a 13 x 24
    theta/phi grid on each qubit, then a Nelder-Mead polish from the best
    grid pair; the winning pair is re-evaluated with the explicit projector
    sum ``dephase_matrix``.
    """
    grid = np.stack(np.meshgrid(np.linspace(0.0, np.pi, 13),
                                np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    values = _dephased_information_grid(rho, grid, grid)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    res = minimize(
        lambda x: -_dephased_information_grid(rho, x[None, :2], x[None, 2:])[0, 0],
        np.concatenate([grid[i], grid[j]]), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxfev": 4000})
    dephased = dephase_matrix(rho, res.x.reshape(2, 2))
    return pair_information(rho) - pair_information(dephased)
