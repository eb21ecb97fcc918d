import math

import numpy as np
import pytest

import oracles
from isingring.density import (
    DensityMatrix,
    PureState,
    as_angles,
    binary_entropy,
    reduced_state,
    rotation_matrix,
    shannon_entropy,
    von_neumann_entropy,
)
from isingring.pair_measures import _bloch, _dephased_information, pair_mutual_information

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def test_rotation_matrix_unitary_and_bloch_direction():
    for theta in np.linspace(0.0, math.pi, 7):
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            r = rotation_matrix(theta, phi)
            assert np.allclose(r.conj().T @ r, np.eye(2), atol=1e-14)
            v = r[:, 0]
            bloch = np.array(
                [
                    (v.conj() @ oracles.SX @ v).real,
                    (v.conj() @ oracles.SY @ v).real,
                    (v.conj() @ oracles.SZ @ v).real,
                ]
            )
            expected = np.array(
                [
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                ]
            )
            assert np.allclose(bloch, expected, atol=1e-14)


def test_rotation_matrix_columns_antipodal():
    r = rotation_matrix(1.1, 2.3)
    assert abs(np.vdot(r[:, 0], r[:, 1])) < 1e-15


def test_as_angles_coercion_and_errors():
    arr = as_angles([0.1, 0.2, 0.3, 0.4], 2)
    assert arr.shape == (2, 2)
    assert np.allclose(arr, [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError):
        as_angles([0.1, 0.2], 2)


def test_entropy_scalars():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(shannon_entropy(np.full(8, 0.125)) - 3.0) < 1e-14
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        shannon_entropy(np.array([1.2, -0.2]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]), (0,))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (0,))  # trace 2
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(bad, (0,))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4.0, (0,))  # shape vs labels
    for bad in (np.full((2, 2), math.nan), np.diag([math.nan, 1.0]),
                np.diag([1.0, math.nan])):
        with pytest.raises(ValueError):
            DensityMatrix(bad, (0,))


def test_von_neumann_entropy_pure_and_mixed(rng):
    psi = oracles.random_pure(rng, 2)
    assert von_neumann_entropy(DensityMatrix(np.outer(psi, psi.conj()), (0, 1))) < 1e-10
    maximally_mixed = DensityMatrix(np.eye(4) / 4.0, (0, 1))
    assert abs(von_neumann_entropy(maximally_mixed) - 2.0) < 1e-14


def test_partial_trace_against_reference(rng):
    psi = oracles.random_pure(rng, 3)
    state = PureState(psi, 3)
    rho_mat = np.outer(psi, psi.conj())
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        expected = oracles.partial_trace_dense(rho_mat, 3, keep)
        got = reduced_state(state, keep)
        assert got.site_labels == keep
        assert np.allclose(got.matrix, expected, atol=1e-12)


def test_partial_trace_factorizes_product_states(rng):
    a = oracles.random_pure(rng, 1)
    b = oracles.random_pure(rng, 1)
    state = PureState(np.kron(a, b), 2)
    assert np.allclose(reduced_state(state, (0,)).matrix, np.outer(a, a.conj()), atol=1e-12)
    assert np.allclose(reduced_state(state, (1,)).matrix, np.outer(b, b.conj()), atol=1e-12)
    with pytest.raises(ValueError):
        reduced_state(state, ())
    with pytest.raises(ValueError):
        reduced_state(state, (0, 5))


def test_mutual_information_anchors(rng):
    bell = np.outer(BELL, BELL)
    assert abs(pair_mutual_information(bell) - 2.0) < 1e-10
    a = oracles.random_density(rng, 1)
    b = oracles.random_density(rng, 1)
    assert abs(pair_mutual_information(np.kron(a, b))) < 1e-10
    with pytest.raises(ValueError):
        pair_mutual_information(np.eye(8) / 8.0)


def test_dephase_matches_projector_sum(rng):
    """The pair kernel's dephased mutual information at arbitrary angles
    equals the mutual information of the projector-sum dephased state."""
    for _ in range(5):
        rho_mat = oracles.random_density(rng, 2)
        pairs = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                 for _ in range(2)]
        dephased = oracles.dephase_matrix(rho_mat, pairs)
        expected = sum(
            oracles.entropy_bits(oracles.partial_trace_dense(dephased, 2, [k]))
            for k in (0, 1)
        ) - oracles.entropy_bits(dephased)
        got = _dephased_information(_bloch(rho_mat), np.ravel(pairs))
        assert abs(got - expected) < 1e-10


def test_pure_state_validation_and_reduction():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), 1)  # unnormalized
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0]), 2)  # wrong length
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PureState(np.array([bad, 0.0]), 1)
    bell = PureState(BELL, 2)
    assert bell.as_tensor().shape == (2, 2)
    for site in (0, 1):
        red = reduced_state(bell, (site,))
        assert np.allclose(red.matrix, np.eye(2) / 2.0, atol=1e-14)
    with pytest.raises(ValueError):
        reduced_state(bell, (0, 0))
    with pytest.raises(ValueError):
        reduced_state(bell, (3,))


def test_reduced_state_respects_requested_site_order(rng):
    psi = oracles.random_pure(rng, 3)
    state = PureState(psi, 3)
    fwd = reduced_state(state, (0, 2)).matrix
    rev = reduced_state(state, (2, 0)).matrix
    swap = fwd.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.allclose(rev, swap, atol=1e-13)
