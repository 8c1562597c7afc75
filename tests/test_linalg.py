"""Gram assembly and the general LU solve layer."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from alignrec import CapacityError, SingularMatrixError, gram, solve_general
from alignrec import linalg
from alignrec.linalg import check_dense_budget, invert


def test_gram_matches_dense_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.random((int(rng.integers(2, 40)), int(rng.integers(2, 15))))
        np.testing.assert_allclose(gram(a), a.T @ a, atol=1e-12)


def test_gram_sparse_and_dense_agree():
    rng = np.random.default_rng(1)
    a = rng.random((30, 12)) * (rng.random((30, 12)) < 0.3)
    np.testing.assert_allclose(gram(sp.csr_matrix(a)), gram(a), atol=1e-12)


def test_gram_is_bitwise_symmetric():
    rng = np.random.default_rng(2)
    g = gram(rng.standard_normal((40, 17)))
    assert np.array_equal(g, g.T)


def test_gram_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        gram(np.zeros((0, 3)))


def test_gram_enforces_memory_budget(monkeypatch):
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_BUDGET", 128)
    with pytest.raises(CapacityError, match="memory budget"):
        gram(np.ones((4, 10)))


def test_check_dense_budget_counts_bytes(monkeypatch):
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_BUDGET", 128)
    check_dense_budget(4, 4)  # exactly at the budget
    with pytest.raises(CapacityError):
        check_dense_budget(4, 5)


def test_solve_general_small_residual_on_conditioned_systems():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * rng.uniform(0.5, 3.0, size=n)) @ q.T
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        x = solve_general(m, b)
        np.testing.assert_allclose(m @ x, b, atol=1e-9)


def test_solve_general_vector_rhs_round_trips_shape():
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_general(m, np.array([2.0, 8.0]))
    assert x.shape == (2,)
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)


def test_solve_general_handles_nonsymmetric_systems():
    m = np.array([[1.0, 3.0], [0.0, 2.0]])
    x = solve_general(m, np.eye(2))
    np.testing.assert_allclose(m @ x, np.eye(2), atol=1e-12)


def test_solve_general_rejects_mismatched_rhs():
    with pytest.raises(ValueError, match="rows"):
        solve_general(np.eye(3), np.ones((2, 2)))


def test_solve_general_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        solve_general(np.ones((2, 3)), np.ones(2))


def test_exactly_singular_matrix_reports_pivot():
    with pytest.raises(SingularMatrixError) as excinfo:
        solve_general(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
    assert excinfo.value.pivot == 1
    assert "singular" in str(excinfo.value)


def test_near_singular_matrix_trips_rcond_floor():
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(SingularMatrixError, match="rcond"):
        solve_general(m, np.ones(2))


def test_nan_matrix_trips_rcond_floor():
    # dgecon gives a NaN rcond here, which must fail the floor as a small one does
    m = np.eye(3)
    m[0, 1] = np.nan
    with pytest.raises(SingularMatrixError, match="rcond"):
        solve_general(m, np.ones(3))


def test_invert_matches_numpy():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    np.testing.assert_allclose(invert(m), np.linalg.inv(m), atol=1e-10)


def test_spd_invert_is_a_symmetric_cholesky_inverse():
    rng = np.random.default_rng(6)
    for n in (1, 2, 7, 40):
        a = rng.standard_normal((2 * n, n))
        m = a.T @ a + 0.5 * np.eye(n)
        p = invert(m, spd=True)
        assert np.array_equal(p, p.T)
        np.testing.assert_allclose(p, invert(m), rtol=0, atol=1e-10 * np.abs(p).max())


def test_spd_invert_refuses_indefinite_and_near_singular_matrices():
    with pytest.raises(SingularMatrixError, match="positive definite"):
        invert(np.array([[1.0, 2.0], [2.0, 1.0]]), spd=True)
    with pytest.raises(SingularMatrixError, match="rcond"):
        invert(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), spd=True)
    with pytest.raises(ValueError, match="square"):
        invert(np.ones((2, 3)), spd=True)


@pytest.mark.parametrize("overwrite, bound", [(False, 1.1), (True, 0.1)])
def test_lu_inverse_holds_at_most_one_working_array(overwrite, bound):
    # dgetrf and dgetri work in one n x n buffer, m's own with overwrite, and
    # need no identity right-hand side; beside it only the pivots and
    # dgetri's workspace of _BLOCK columns
    n = 400
    m = np.random.default_rng(7).standard_normal((n, n)) + n * np.eye(n)
    want = invert(m, spd=False)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p = invert(m, spd=False, overwrite=overwrite)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(p, want)
    assert peak <= bound * 8 * n * n
