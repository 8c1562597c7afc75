"""The partitioned inverse of ``linalg.invert`` against the general LU it replaces.

``invert(m, spd=core)`` inverts the symmetric positive definite core M_NN
by Cholesky and the rest through the Schur complement by LU. Each example
builds M as the solvers do, X^T X plus a cross term X^T B = alpha X^T X G
diag(d) that is zero off the decay columns D, and compares the result
with ``solve_general(m, I)`` at 1e-12 kappa_1(M) of the largest |P|, since
the forward error of either inverse grows with M's condition number
kappa_1(M) = ||M||_1 ||M^-1||_1. With D empty the path is the Cholesky
inverse byte for byte, and with N empty the LU inverse (dgetrf of m^T,
then dgetri).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from alignrec import AlignmentConfig, EaseConfig, MslimConfig, SolverError, align
from alignrec import fit_ease, fit_mslim, linalg, solvers
from alignrec.errors import SingularMatrixError
from alignrec.linalg import invert, solve_general

_DECAY = ("none", "one", "some", "all-but-one", "all")


def _decay_mask(rng, n, decay):
    count = {"none": 0, "one": 1, "some": max(1, n // 3), "all-but-one": n - 1,
             "all": n}[decay]
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:count]] = True
    return mask


def _system(seed, n, decay, solver, lambda1, duplicates):
    """(M, D): the solver's shared matrix over n items and its decay columns."""
    rng = np.random.default_rng(seed)
    x = (rng.random((int(rng.integers(n, 3 * n + 1)), n)) < 0.4).astype(np.float64)
    a = x.T @ x
    raw = np.abs(rng.standard_normal((n, n)))
    g = 0.5 * (raw + raw.T)
    if duplicates and n > 2:
        g[:, 2::2] = g[:, [0]]
    dmask = _decay_mask(rng, n, decay)
    d = rng.uniform(0.1, 2.0, size=n) * dmask
    s = a + 0.7 * (a @ g) * d[None, :]
    w1 = rng.choice([0.0, 0.4, 1.0]) if solver == "mslim" else 1.0
    m = w1 * s
    m.flat[::n + 1] += lambda1
    return m, dmask


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), decay=st.sampled_from(_DECAY),
       solver=st.sampled_from(["ease", "mslim"]), lambda1=st.sampled_from([1e-4, 0.5, 3.0]),
       duplicates=st.booleans(), singular=st.booleans())
@settings(max_examples=200, deadline=None)
@example(seed=58773179, n=8, decay="all-but-one", solver="ease", lambda1=1e-4,
         duplicates=False, singular=False)  # kappa_1 about 5e7
def test_partitioned_inverse_matches_the_general_lu(seed, n, decay, solver, lambda1,
                                                   duplicates, singular):
    m, dmask = _system(seed, n, decay, solver, lambda1, duplicates)
    if singular and dmask.any():
        # a cross term that makes the first decay column a combination of the others
        j = np.flatnonzero(dmask)[0]
        others = np.delete(np.arange(n), j)
        m[:, j] = m[:, others] @ np.random.default_rng(seed).standard_normal(n - 1)
    outcomes = []
    for f in (lambda: solve_general(m, np.eye(n)), lambda: invert(m, spd=~dmask)):
        try:
            outcomes.append(f())
        except SingularMatrixError as e:
            outcomes.append(e)
    ref, got = outcomes
    if singular and dmask.any():
        assert isinstance(ref, SingularMatrixError) and isinstance(got, SingularMatrixError)
        return
    if isinstance(ref, SingularMatrixError) or isinstance(got, SingularMatrixError):
        # dgecon's estimate and the exact rcond may only fall on two sides of
        # the floor when both are near it
        if not isinstance(got, SingularMatrixError):
            assert 1.0 / (_norm1(m) * _norm1(got)) < 100 * linalg.RCOND_FLOOR
        elif not isinstance(ref, SingularMatrixError):
            assert 1.0 / (_norm1(m) * _norm1(ref)) < 100 * linalg.RCOND_FLOOR
        return
    # the forward error of an inverse grows with M's condition number
    exact = 1.0 / (_norm1(m) * _norm1(ref))
    assert np.abs(got - ref).max() <= 1e-12 / exact * np.abs(ref).max()


def _cholesky_reference(m):
    c, info = lapack.dpotrf(m)
    assert info == 0
    inv, info = lapack.dpotri(c, overwrite_c=1)
    lower = np.tril_indices(len(inv), -1)
    inv[lower] = inv.T[lower]
    return inv


def _lu_reference(m):
    """dgetrf of m^T, then dgetri with a workspace of linalg._BLOCK columns:
    M^-T, which read in C order is M^-1."""
    lu, piv, info = lapack.dgetrf(m.T)
    assert info == 0
    inv, info = lapack.dgetri(lu, piv, lwork=linalg._BLOCK * len(m))
    assert info == 0
    return inv.T


@pytest.mark.parametrize("n", [1, 5, 40])
def test_the_two_ends_are_todays_cholesky_and_lu_byte_for_byte(n):
    m, _ = _system(n, n, "none", "ease", 0.5, False)
    for core in (True, np.ones(n, dtype=bool)):
        assert np.array_equal(invert(m, spd=core), _cholesky_reference(m))
    for core in (False, np.zeros(n, dtype=bool)):
        p = invert(m, spd=core)
        assert np.array_equal(p, _lu_reference(m))
        ref = solve_general(m, np.eye(n))
        assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()


def test_the_core_is_a_bool_or_a_boolean_mask():
    m, dmask = _system(3, 6, "some", "ease", 0.5, False)
    p, rcond = invert(m, spd=~dmask, return_rcond=True)
    assert np.array_equal(p, invert(m, spd=~dmask)) and linalg.RCOND_FLOOR <= rcond <= 1.0
    # True is "all rows", never the leading block of one row
    spd, _ = _system(3, 6, "none", "ease", 0.5, False)
    assert np.array_equal(invert(spd, spd=True), _cholesky_reference(spd))
    for bad in (1, np.int64(1), 1.0, np.arange(6), np.ones((2, 2), dtype=bool),
                np.ones(5, dtype=bool)):
        with pytest.raises(ValueError, match="spd"):
            invert(m, spd=bad)


def test_a_singular_schur_complement_names_its_decay_row():
    # M = [[2, 1], [0, 0]]: the core [2] is fine, T = 0 is exactly singular
    with pytest.raises(SingularMatrixError) as excinfo:
        invert(np.array([[2.0, 1.0], [0.0, 0.0]]), spd=np.array([True, False]))
    assert excinfo.value.pivot == 1


def test_the_floor_reads_m_not_its_parts():
    # the core [1] and the Schur complement T = [1] are perfectly conditioned,
    # but M's own 1-norm rcond is 1 / (1e8 + 1)^2, about 1e-16
    m = np.array([[1.0, 1e8], [0.0, 1.0]])
    for spd in (np.array([True, False]), False):
        with pytest.raises(SingularMatrixError, match="rcond"):
            invert(m, spd=spd)


def _norm1(a):
    return np.abs(a).sum(axis=0).max()


def _aligned_system(seed, n_items, cold, decay, w1, lambda1, duplicates):
    """(M, decay mask): the general route's shared matrix w1 S + lambda1 I of a
    click matrix with ``cold`` empty columns, aligned on the decay columns."""
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(1, 3 * n_items + 2))
    x = (rng.random((n_users, n_items)) < 0.4).astype(np.float64)
    n_cold = {"none": 0, "some": max(1, n_items // 3), "all-but-one": n_items - 1}[cold]
    x[:, rng.permutation(n_items)[:n_cold]] = 0.0
    raw = np.abs(rng.standard_normal((n_items, n_items)))
    g = raw + raw.T
    if duplicates:
        # repeated users, and items 0, 2, 4, ... with equal clicks and metadata
        x = np.vstack([x, x[: max(1, n_users // 2)]])
        x[:, 2::2] = x[:, [0]]
        g[:, 2::2], g[2::2, :] = g[:, [0]], g[[0], :]
    X = sp.csr_matrix(x)
    B = None
    if decay != "none":
        mask = x.any(axis=0) if decay == "warm" else np.ones(n_items, dtype=bool)
        B = align(X, g, AlignmentConfig(alpha=0.5),
                  d=rng.uniform(0.1, 2.0, size=n_items) * mask)
    system = solvers.FitContext(X).system(B, False)
    return system.shared(w1, lambda1), system.decay


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(1, 10),
       cold=st.sampled_from(["none", "some", "all-but-one"]),
       decay=st.sampled_from(["none", "warm", "all"]),
       core=st.sampled_from(["all", "none", "masked"]), w1=st.sampled_from([0.4, 1.0]),
       lambda1=st.sampled_from([1e-9, 0.5, 3.0]), duplicates=st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_core_gives_the_general_lu_inverse_and_m_own_rcond(
        seed, n_items, cold, decay, core, w1, lambda1, duplicates):
    # all rows as the core needs a symmetric M: no decay column
    m, dmask = _aligned_system(seed, n_items, cold, "none" if core == "all" else decay,
                               w1, lambda1, duplicates)
    spd = {"all": True, "none": False, "masked": ~dmask}[core]
    outcomes = []
    for f in (lambda: solve_general(m, np.eye(n_items)),
              lambda: invert(m, spd=spd, return_rcond=True)):
        try:
            outcomes.append(f())
        except SingularMatrixError as e:
            outcomes.append(e)
    ref, got = outcomes
    if isinstance(ref, SingularMatrixError) or isinstance(got, SingularMatrixError):
        # dgecon's estimate and the exact rcond may only fall on two sides of
        # the floor when both are near it
        if not isinstance(got, SingularMatrixError):
            assert got[1] < 100 * linalg.RCOND_FLOOR
        elif not isinstance(ref, SingularMatrixError):
            assert 1.0 / (_norm1(m) * _norm1(ref)) < 100 * linalg.RCOND_FLOOR
        return
    p, rcond = got
    exact = 1.0 / (_norm1(m) * _norm1(ref))
    # the forward error of an inverse grows with M's condition number
    assert np.abs(p - ref).max() <= 1e-12 / exact * np.abs(ref).max()
    # M's own rcond, of the inverse returned and of the reference to 3 digits
    assert rcond == pytest.approx(1.0 / (_norm1(m) * _norm1(p)), rel=1e-12)
    assert rcond == pytest.approx(exact, rel=1e-3)


def _fit(solver, X, B, lambda1):
    if solver == "ease":
        return fit_ease(X, EaseConfig(lambda1=lambda1), B=B)
    return fit_mslim(X, MslimConfig(w1=0.4, lambda1=lambda1, gamma1=1.5), B=B)


@pytest.mark.parametrize("solver", ["ease", "mslim"])
@pytest.mark.parametrize("decay", _DECAY)
def test_fits_through_the_core_match_fits_by_lu(monkeypatch, solver, decay):
    # warm matrices (no empty column) take the general route; the reference
    # fit inverts the same matrix by LU alone
    rng = np.random.default_rng(17)
    x = (rng.random((40, 10)) < 0.4).astype(np.float64)
    x[0] = 1.0
    X = sp.csr_matrix(x)
    g = np.abs(rng.standard_normal((10, 10)))
    B = align(X, g + g.T, AlignmentConfig(alpha=0.7),
              d=rng.uniform(0.1, 2.0, size=10) * _decay_mask(rng, 10, decay))
    got = _fit(solver, X, B, 0.8)
    facts = got.diagnostics
    assert facts["route"] == "general"
    assert facts["factorization"] == {"none": "cholesky", "all": "lu"}.get(decay, "cholesky+lu")
    assert linalg.RCOND_FLOOR <= facts["rcond_min"] <= 1.0
    monkeypatch.setattr(solvers, "invert", lambda m, spd=False, **kw: invert(m, **kw))
    ref = _fit(solver, X, B, 0.8)
    assert np.abs(got.theta - ref.theta).max() <= 1e-10 * np.abs(ref.theta).max()


def test_a_singular_cross_term_fails_both_ways(monkeypatch):
    # X = I, lambda1 = 1, d = (0, 1): M = [[2, 1], [0, 2 + g11]] with g11 = -2
    X = sp.csr_matrix(np.eye(2))
    B = align(X, np.array([[0.0, 1.0], [1.0, -2.0]]), AlignmentConfig(alpha=1.0),
              d=np.array([0.0, 1.0]))
    with pytest.raises(SolverError, match="increase lambda1"):
        fit_ease(X, EaseConfig(lambda1=1.0), B=B)
    monkeypatch.setattr(solvers, "invert", lambda m, spd=False, **kw: invert(m, **kw))
    with pytest.raises(SolverError, match="increase lambda1"):
        fit_ease(X, EaseConfig(lambda1=1.0), B=B)
