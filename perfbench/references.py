"""Independent reference computations for the benchmark's correctness checks.

Built from numpy/scipy primitives only; nothing here imports ``isingring``,
so agreement with the package is a cross-check, not a tautology.  The
conventions follow the package README: H = -J sum sx_n sx_{n+1} + B sum sz_n
on a periodic ring, site 0 is the most significant bit, bit 0 is spin-up,
and the (theta, phi) measurement basis has vectors (cos t/2, sin t/2 e^{i phi})
and (-sin t/2 e^{-i phi}, cos t/2).  Entropies are in bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


# ------------------------------------------------------------ ring states


def _site_op(op: np.ndarray, site: int, n: int) -> sp.csr_matrix:
    out = sp.identity(1, format="csr")
    for k in range(n):
        out = sp.kron(out, sp.csr_matrix(op) if k == site else sp.identity(2),
                      format="csr")
    return out


def tfim_sparse(n: int, j: float, b: float) -> sp.csr_matrix:
    """Ring Hamiltonian assembled from Kronecker products of Pauli matrices."""
    ham = sp.csr_matrix((2 ** n, 2 ** n))
    for k in range(n):
        ham = ham - j * (_site_op(SX, k, n) @ _site_op(SX, (k + 1) % n, n))
        ham = ham + b * _site_op(SZ, k, n)
    return ham


def lanczos_ground(n: int, j: float, b: float) -> tuple[np.ndarray, float]:
    """Lowest eigenpair by Lanczos; the vector is normalized, phase arbitrary.

    At B = 0 the returned vector is some member of the degenerate doublet.
    """
    ham = tfim_sparse(n, j, b)
    v0 = np.ones(2 ** n) / math.sqrt(2 ** n)
    evals, evecs = eigsh(ham, k=1, which="SA", v0=v0, tol=0.0, maxiter=50_000)
    vec = evecs[:, 0]
    return vec / np.linalg.norm(vec), float(evals[0])


def free_fermion_energy(n: int, j: float, b: float) -> float:
    """Even-parity ground energy -sum_k eps_k with antiperiodic momenta."""
    phi = math.pi * (2 * np.arange(n) + 1) / n
    return float(-np.sum(np.sqrt(j * j + b * b - 2.0 * j * b * np.cos(phi))))


def parity(vec: np.ndarray, n: int) -> float:
    """Expectation of prod_n sz_n: +1 weight on even popcounts, -1 on odd."""
    pop = np.array([bin(i).count("1") for i in range(2 ** n)])
    return float(np.dot(np.where(pop % 2 == 0, 1.0, -1.0), np.abs(vec) ** 2))


def ring_state(n: int, j: float, b: float) -> np.ndarray:
    """Lanczos ground state of a B > 0 ring as a complex vector."""
    return lanczos_ground(n, j, b)[0].astype(complex)


# ------------------------------------------------------------- entropies


def entropy_bits(mat: np.ndarray) -> float:
    evals = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    nz = evals[evals > 1e-300]
    return float(-np.dot(nz, np.log2(nz)))


def _h_bits(p: np.ndarray, axis=-1) -> np.ndarray:
    """Shannon entropy along ``axis``; zero probabilities contribute zero."""
    p = np.clip(p, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=axis)


def _qubit_entropy_batch(mats: np.ndarray) -> np.ndarray:
    """Entropies of a batch of 2x2 Hermitian PSD matrices (trace may be < 1)."""
    tr = (mats[..., 0, 0] + mats[..., 1, 1]).real
    gap = np.sqrt(((mats[..., 0, 0] - mats[..., 1, 1]).real) ** 2
                  + 4.0 * np.abs(mats[..., 0, 1]) ** 2)
    return _h_bits(np.stack([(tr - gap) / 2.0, (tr + gap) / 2.0], axis=-1))


def _basis_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Shape (..., 2 outcomes, 2 components) measurement vectors."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    v0 = np.stack([c + 0j, s * e], axis=-1)
    v1 = np.stack([-s * np.conj(e), c + 0j], axis=-1)
    return np.stack([v0, v1], axis=-2)


def _zoom_min(objective, n_theta: int = 37, n_phi: int = 72,
              n_basins: int = 4, n_zoom: int = 6) -> float:
    """Minimum of ``objective(theta[], phi[])`` over the sphere of bases.

    A uniform grid (theta spacing pi/36, phi spacing 2 pi/72) locates the
    best ``n_basins`` points; each is then refined by ``n_zoom`` rounds of a
    9 x 9 grid whose spacing shrinks fourfold per round, ending below 1e-4
    rad.  Every returned value is attained at an evaluated basis.
    """
    th, ph = np.meshgrid(np.linspace(0.0, math.pi, n_theta),
                         np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
                         indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    vals = objective(th, ph)
    best = float(vals.min())
    offsets = np.linspace(-1.0, 1.0, 9)
    dt0, dp0 = math.pi / (n_theta - 1), 2.0 * math.pi / n_phi
    for k in np.argsort(vals)[:n_basins]:
        t0, p0, dt, dp = th[k], ph[k], dt0, dp0
        for _ in range(n_zoom):
            tt, pp = np.meshgrid(t0 + dt * offsets, p0 + dp * offsets,
                                 indexing="ij")
            tt, pp = tt.ravel(), pp.ravel()
            v = objective(tt, pp)
            i = int(np.argmin(v))
            t0, p0 = tt[i], pp[i]
            best = min(best, float(v[i]))
            dt, dp = dt / 4.0, dp / 4.0
    return best


# --------------------------------------------------------- global discord


def _single_site_marginals(psi: np.ndarray, n: int) -> list[np.ndarray]:
    t = psi.reshape((2,) * n)
    out = []
    for j in range(n):
        m = np.moveaxis(t, j, 0).reshape(2, -1)
        out.append(m @ m.conj().T)
    return out


def gd_objective_projector_sum(psi: np.ndarray, n: int, angles) -> float:
    """GD bracket of a pure state by explicit projector-sum dephasing.

    S(sum_k P_k rho P_k) - S(rho) - sum_j [S(sum_m p_m rho_j p_m) - S(rho_j)],
    with P_k the rank-one projectors of the product basis.  Dense in 2^N;
    meant for N <= 6.
    """
    rho = np.outer(psi, psi.conj())
    vecs = [_basis_vectors(np.float64(t), np.float64(p)) for t, p in angles]
    dephased = np.zeros_like(rho)
    for outcome in itertools.product((0, 1), repeat=n):
        v = np.array([1.0 + 0j])
        for site, m in enumerate(outcome):
            v = np.kron(v, vecs[site][m])
        proj = np.outer(v, v.conj())
        dephased += proj @ rho @ proj
    total = entropy_bits(dephased) - entropy_bits(rho)
    for j, rho_j in enumerate(_single_site_marginals(psi, n)):
        local = sum(np.outer(v, v.conj()) @ rho_j @ np.outer(v, v.conj())
                    for v in vecs[j])
        total -= entropy_bits(local) - entropy_bits(rho_j)
    return float(total)


def _shared_angle_objective(psi: np.ndarray, n: int):
    """Vectorized GD bracket for one basis shared by every site."""
    marginals = _single_site_marginals(psi, n)
    base = sum(entropy_bits(m) for m in marginals)

    def objective(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        vecs = _basis_vectors(theta, phi)              # (B, outcome, comp)
        bra = vecs.conj()
        amps = np.broadcast_to(psi, (len(theta), psi.size))
        for j in range(n):
            t = amps.reshape(len(theta), 2 ** j, 2, -1)
            amps = np.einsum("bmc,bacr->bamr", bra, t).reshape(len(theta), -1)
        total = _h_bits(np.abs(amps) ** 2) + base
        for rho_j in marginals:
            p0 = np.einsum("bc,cd,bd->b", bra[:, 0], rho_j, vecs[:, 0]).real
            total -= _h_bits(np.stack([p0, 1.0 - p0], axis=-1))
        return total

    return objective


def shared_angle_gd(psi: np.ndarray, n: int) -> float:
    """Brute-force minimum of the GD bracket over one shared basis."""
    return _zoom_min(_shared_angle_objective(np.asarray(psi, complex), n))


def shared_angle_value(psi: np.ndarray, n: int, theta: float, phi: float) -> float:
    """The shared-angle bracket at one basis (used by the self-test)."""
    obj = _shared_angle_objective(np.asarray(psi, complex), n)
    return float(obj(np.array([theta]), np.array([phi]))[0])


# ------------------------------------------------------------ pair states


def reduced_pair(psi: np.ndarray, n: int, i: int, k: int) -> np.ndarray:
    """4x4 reduced state of sites (i, k), site i the first factor."""
    perm = [i, k] + [s for s in range(n) if s not in (i, k)]
    mat = psi.reshape((2,) * n).transpose(perm).reshape(4, -1)
    return mat @ mat.conj().T


def _swap(mat: np.ndarray) -> np.ndarray:
    return mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _discord_measuring_second(mat: np.ndarray) -> float:
    t = mat.reshape(2, 2, 2, 2)                # (a, b, a', b')
    rho_b = np.einsum("abad->bd", t)

    def cond_entropy(theta, phi):
        v = _basis_vectors(theta, phi)         # (B, m, comp)
        w = np.einsum("bmx,axcy,bmy->bmac", v.conj(), t, v)
        # The eigenvalues of w_m are p_m * lambda, so their entropy is
        # p_m S(rho_{A|m}) - p_m log2 p_m; subtracting H(p) leaves sum p_m S.
        p = (w[..., 0, 0] + w[..., 1, 1]).real
        return _qubit_entropy_batch(w).sum(axis=1) - _h_bits(p)

    return entropy_bits(rho_b) - entropy_bits(mat) + _zoom_min(cond_entropy)


def symmetric_discord(mat: np.ndarray) -> float:
    """max(D measured on the second qubit, D measured on the first)."""
    mat = np.asarray(mat, complex)
    return max(_discord_measuring_second(mat),
               _discord_measuring_second(_swap(mat)))


# ---------------------------------------------------------- entanglement


def cut_statistics(psi: np.ndarray, n: int) -> tuple[float, float, int]:
    """Mean and population variance of -log2 Tr rho_A^2 over every cut.

    Cuts are the 2^(N-1) - 1 proper subsets containing site 0; purities come
    from the singular values of the reshaped amplitude tensor.
    """
    t = psi.reshape((2,) * n)
    values = []
    for r in range(1, n):
        for rest in itertools.combinations(range(1, n), r - 1):
            side = (0,) + rest
            other = tuple(s for s in range(n) if s not in side)
            m = t.transpose(side + other).reshape(2 ** len(side), -1)
            sv = np.linalg.svd(m, compute_uv=False)
            values.append(-math.log2(float(np.sum(sv ** 4))))
    values = np.array(values)
    return float(values.mean()), float(values.var()), len(values)


# -------------------------------------------------------------- self-test


def self_test() -> list[str]:
    """Check the references against closed-form anchors; return failures."""
    failures = []
    for n in (3, 4):
        ghz = np.zeros(2 ** n, complex)
        ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
        gd = shared_angle_gd(ghz, n)
        if abs(gd - 1.0) > 1e-9:
            failures.append(f"GHZ N={n}: shared-angle GD {gd!r} != 1")
    psi2 = ring_state(2, 1.0, 0.7)
    s_a = entropy_bits(_single_site_marginals(psi2, 2)[0])
    gd2 = shared_angle_gd(psi2, 2)
    if abs(gd2 - s_a) > 1e-9:
        failures.append(f"N=2: GD {gd2!r} != S(rho_A) {s_a!r}")
    rng = np.random.default_rng(7)
    psi3 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi3 /= np.linalg.norm(psi3)
    theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
    fast = shared_angle_value(psi3, 3, theta, phi)
    slow = gd_objective_projector_sum(psi3, 3, [(theta, phi)] * 3)
    if abs(fast - slow) > 1e-10:
        failures.append(f"shared-angle bracket {fast!r} != projector sum {slow!r}")
    for n, b in ((4, 0.6), (6, 1.0), (8, 1.7)):
        _, energy = lanczos_ground(n, 1.0, b)
        ff = free_fermion_energy(n, 1.0, b)
        if abs(energy - ff) > 1e-9:
            failures.append(f"N={n} B={b}: Lanczos {energy!r} != free fermion {ff!r}")
    return failures
