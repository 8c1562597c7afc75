"""Closed-form solvers, baselines, and model persistence."""

import hashlib
import sys
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import (
    AlignmentConfig,
    EaseConfig,
    FeatureSet,
    ItemModel,
    MslimConfig,
    SolverError,
    align,
    fit_ease,
    fit_mslim,
    itemknn_scores,
    load_model,
    multihot_encode,
    predict,
    save_model,
)
from alignrec import linalg, solvers
from alignrec.errors import CapacityError, SingularMatrixError
from alignrec.linalg import invert, solve_general
from alignrec.solvers import popularity_scores, random_scores
from alignrec.synthetic import planted_dataset


def _random_clicks(rng, n_users, n_items, density=0.35):
    x = (rng.random((n_users, n_items)) < density).astype(np.float64)
    # ensure no empty columns so the textbook systems stay well posed
    empty = np.flatnonzero(x.sum(axis=0) == 0)
    x[rng.integers(0, n_users, size=len(empty)), empty] = 1.0
    return sp.csr_matrix(x)


def _textbook_ease(X, lam):
    """Independent reference: ridge inverse plus the diagonal correction."""
    g = (X.T @ X).toarray()
    p = np.linalg.inv(g + lam * np.eye(g.shape[0]))
    theta = np.eye(g.shape[0]) - p / np.diag(p)[None, :]
    np.fill_diagonal(theta, 0.0)
    return theta


def _brute_mslim(X, cfg, Bd=None):
    """Dense normal equations for every column, one weighted ridge each."""
    Xd = X.toarray()
    n = Xd.shape[1]
    theta = np.zeros((n, n))
    for i in range(n):
        w = np.where(Xd[:, i] > 0, cfg.w0, cfg.w1)
        a = Xd.T @ (w[:, None] * Xd)
        if Bd is not None:
            a = a + Xd.T @ (w[:, None] * Bd)
        b = a[:, i].copy()
        a = a + cfg.lambda1 * np.eye(n)
        a[i, i] += cfg.gamma1
        theta[:, i] = np.linalg.solve(a, b)
    return theta


# -------------------------------------------------------------------- ease

def test_ease_two_by_two_closed_form():
    X = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    model = fit_ease(X, EaseConfig(lambda1=1.0))
    np.testing.assert_allclose(model.theta, [[0.0, 1.0 / 3.0], [0.5, 0.0]], atol=1e-12)
    assert model.solver == "ease"
    assert model.diagnostics["diag_residual_max"] <= 1e-12


def test_ease_matches_textbook_reference():
    rng = np.random.default_rng(10)
    for _ in range(5):
        X = _random_clicks(rng, 25, 8)
        lam = float(rng.uniform(0.5, 3.0))
        model = fit_ease(X, EaseConfig(lambda1=lam))
        np.testing.assert_allclose(model.theta, _textbook_ease(X, lam), atol=1e-9)


def test_ease_solution_is_stationary():
    # off-diagonal gradient of the ridge objective must vanish at the fit
    rng = np.random.default_rng(11)
    X = _random_clicks(rng, 30, 10)
    lam = 1.7
    model = fit_ease(X, EaseConfig(lambda1=lam))
    g = (X.T @ X).toarray()
    grad = g @ model.theta - g + lam * model.theta
    np.fill_diagonal(grad, 0.0)
    assert np.abs(grad).max() < 1e-8


def test_ease_diagonal_is_exactly_zero():
    rng = np.random.default_rng(12)
    model = fit_ease(_random_clicks(rng, 20, 6), EaseConfig(lambda1=0.5))
    assert np.all(np.diag(model.theta) == 0.0)
    assert model.diagnostics["diag_residual_max"] < 1e-10


def test_ease_disjoint_items_give_zero_weights():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    model = fit_ease(X, EaseConfig(lambda1=1.0))
    np.testing.assert_allclose(model.theta, 0.0, atol=1e-12)


def test_ease_alignment_term_changes_solution():
    rng = np.random.default_rng(13)
    X = _random_clicks(rng, 30, 8)
    G = np.abs(rng.standard_normal((8, 8)))
    G = 0.5 * (G + G.T)
    B = align(X, G, AlignmentConfig(alpha=1.0), d=np.ones(8))
    plain = fit_ease(X, EaseConfig(lambda1=1.0))
    aligned = fit_ease(X, EaseConfig(lambda1=1.0), B=B)
    assert np.abs(plain.theta - aligned.theta).max() > 1e-6
    # alpha = 0 switches the alignment term off
    off = fit_ease(X, EaseConfig(lambda1=1.0),
                   B=align(X, G, AlignmentConfig(alpha=0.0), d=np.ones(8)))
    np.testing.assert_allclose(off.theta, plain.theta, atol=0)
    assert aligned.config["use_alignment"] and not plain.config["use_alignment"]
    assert not off.config["use_alignment"]


def test_ease_feature_term_matches_manual_assembly():
    rng = np.random.default_rng(14)
    X = _random_clicks(rng, 25, 6)
    fs = FeatureSet(blocks=[multihot_encode([[f"t{j % 3}"] for j in range(6)], name="t")])
    lam0, lam1 = 2.0, 1.3
    model = fit_ease(X, EaseConfig(lambda0=lam0, lambda1=lam1), F=fs)
    ff = (fs.concat() @ fs.concat().T).toarray()
    m = (X.T @ X).toarray() + lam0 * ff + lam1 * np.eye(6)
    p = np.linalg.inv(m)
    theta = (np.eye(6) - lam1 * p) - p * ((1 - lam1 * np.diag(p)) / np.diag(p))[None, :]
    np.fill_diagonal(theta, 0.0)
    np.testing.assert_allclose(model.theta, theta, atol=1e-9)


def test_ease_theta_bytes_are_pinned():
    # Guards the in-place diagonal correction. The digest is of the theta the
    # out-of-place form (theta_tilde = I - lambda1 P, then theta = theta_tilde -
    # P diag(theta_tilde) / diag(P)) gave with numpy 2.4 on OpenBLAS 0.3.31, on
    # the system assembled as S = X^T B (from the Gram) + X^T X, then lambda1
    # on the diagonal, then lambda0 FF^T, with P = invert(S, spd=~decay) out
    # of place: the Cholesky core on the item without decay weight, LU on the
    # Schur complement; a different BLAS build may move the last bits and need
    # a new digest.
    rng = np.random.default_rng(21)
    X = sp.csr_matrix((rng.random((30, 9)) < 0.35).astype(np.float64))
    Z = rng.random((9, 4))
    F = (rng.random((9, 5)) < 0.4).astype(np.float64)
    B = align(X, Z @ Z.T, AlignmentConfig(alpha=0.7), d=np.linspace(0.0, 2.0, 9))
    theta = fit_ease(X, EaseConfig(lambda0=0.3, lambda1=1.5), F=F, B=B).theta
    digest = hashlib.sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes()).hexdigest()
    assert digest == "a7919799ae719403ec7af8613174312583fd670d1232711998af63fcabaab910"


def test_ease_reports_singular_system():
    X = sp.csr_matrix(np.array([[1.0]]))
    B = align(X, np.array([[-2.0]]), AlignmentConfig(alpha=1.0), d=np.ones(1))
    with pytest.raises(SolverError, match="increase lambda1"):
        fit_ease(X, EaseConfig(lambda1=1.0), B=B)


def test_ease_reports_degenerate_inverse_diagonal():
    X = sp.csr_matrix(np.eye(2))
    B = align(X, np.array([[-2.0, 1.0], [1.0, -2.0]]), AlignmentConfig(alpha=1.0),
              d=np.ones(2))
    with pytest.raises(SolverError, match="degenerate") as excinfo:
        fit_ease(X, EaseConfig(lambda1=1.0), B=B)
    assert excinfo.value.columns == [0, 1]


@pytest.mark.parametrize("fit", [lambda X, B: fit_ease(X, EaseConfig(lambda1=1.0), B=B),
                                 lambda X, B: fit_mslim(X, MslimConfig(lambda1=1.0), B=B)],
                         ids=["ease", "mslim"])
def test_non_finite_alignment_is_a_solver_error(fit):
    # a NaN decay weight (beta = inf gives inf * 0) makes X^T B NaN; no fit may
    # return NaN weights
    rng = np.random.default_rng(15)
    X = _random_clicks(rng, 20, 6)
    d = np.ones(6)
    d[2] = np.nan
    B = align(X, np.abs(rng.standard_normal((6, 6))), AlignmentConfig(alpha=1.0), d=d)
    with pytest.raises(SolverError):
        fit(X, B)


def test_ease_config_validation():
    with pytest.raises(ValueError, match="lambda1"):
        EaseConfig(lambda1=0.0)
    with pytest.raises(ValueError, match="lambda0"):
        EaseConfig(lambda0=-1.0)


# ------------------------------------------------------------------- mslim

def test_mslim_uniform_weights_reduce_to_plain_ridge():
    rng = np.random.default_rng(20)
    X = _random_clicks(rng, 20, 6)
    lam = 2.0
    model = fit_mslim(X, MslimConfig(w1=1.0, lambda1=lam, gamma1=0.0))
    g = (X.T @ X).toarray()
    expected = np.linalg.solve(g + lam * np.eye(6), g)
    np.testing.assert_allclose(model.theta, expected, atol=1e-9)


def test_mslim_matches_brute_force_weighted_ridge():
    rng = np.random.default_rng(21)
    for _ in range(5):
        X = _random_clicks(rng, 18, 7)
        cfg = MslimConfig(
            w1=float(rng.uniform(0.1, 0.9)),
            lambda1=float(rng.uniform(0.5, 2.0)),
            gamma1=float(rng.uniform(0.0, 5.0)),
        )
        model = fit_mslim(X, cfg)
        np.testing.assert_allclose(model.theta, _brute_mslim(X, cfg), atol=1e-9)


def test_mslim_alignment_term_matches_brute_force():
    rng = np.random.default_rng(22)
    X = _random_clicks(rng, 18, 6)
    G = np.abs(rng.standard_normal((6, 6)))
    G = 0.5 * (G + G.T)
    B = align(X, G, AlignmentConfig(alpha=0.7), d=rng.uniform(0.0, 2.0, size=6))
    cfg = MslimConfig(w1=0.4, lambda1=1.1, gamma1=0.3)
    model = fit_mslim(X, cfg, B=B)
    np.testing.assert_allclose(model.theta, _brute_mslim(X, cfg, Bd=B.materialize()),
                               atol=1e-9)


def test_mslim_gamma_suppresses_self_similarity():
    rng = np.random.default_rng(23)
    X = _random_clicks(rng, 25, 8)
    loose = fit_mslim(X, MslimConfig(w1=0.5, lambda1=1.0, gamma1=0.0))
    tight = fit_mslim(X, MslimConfig(w1=0.5, lambda1=1.0, gamma1=1e8))
    assert np.abs(np.diag(loose.theta)).max() > 1e-3
    assert np.abs(np.diag(tight.theta)).max() < 1e-4


def test_mslim_negative_weight_changes_solution():
    rng = np.random.default_rng(24)
    X = _random_clicks(rng, 25, 8)
    full = fit_mslim(X, MslimConfig(w1=1.0, lambda1=1.0))
    down = fit_mslim(X, MslimConfig(w1=0.2, lambda1=1.0))
    assert np.abs(full.theta - down.theta).max() > 1e-6


def test_mslim_worker_count_never_changes_weights():
    rng = np.random.default_rng(25)
    X = _random_clicks(rng, 30, 12)
    cfg = MslimConfig(w1=0.3, lambda1=0.8, gamma1=2.0)
    a = fit_mslim(X, cfg, workers=1)
    b = fit_mslim(X, cfg, workers=4)
    assert np.array_equal(a.theta, b.theta)


def test_mslim_collects_singular_columns():
    X = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError, match="increase lambda1 or gamma1") as excinfo:
        fit_mslim(X, MslimConfig(w1=1.0, lambda1=0.0, gamma1=0.0))
    assert excinfo.value.columns == [0, 1]


def _mslim_case(seed, n_items, dense, cold, w1, gamma1, alignment):
    """A random clicks matrix with its cold columns emptied, an MslimConfig and B."""
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(n_items, 3 * n_items + 1))
    X = _random_clicks(rng, n_users, n_items, density=0.9 if dense else 0.35).toarray()
    n_cold = {"none": 0, "one": 1, "some": max(1, n_items // 3),
              "all-but-one": n_items - 1}[cold]
    X[:, rng.permutation(n_items)[:n_cold]] = 0.0
    X = sp.csr_matrix(X)
    cfg = MslimConfig(w1=w1, lambda1=float(rng.uniform(0.5, 3.0)), gamma1=gamma1)
    B = None
    if alignment != "none":
        raw = np.abs(rng.standard_normal((n_items, n_items)))
        # "warm-d" puts the decay weight on clicked items too, "cold-d" only on unclicked ones
        clicked = np.asarray(X.sum(axis=0)).ravel() > 0
        d = rng.uniform(0.1, 2.0, size=n_items) * (1.0 if alignment == "warm-d" else ~clicked)
        B = align(X, 0.5 * (raw + raw.T), AlignmentConfig(alpha=0.0 if alignment == "alpha0"
                                                            else 0.7), d=d)
    return X, cfg, B


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 10), dense=st.booleans(),
       cold=st.sampled_from(["none", "some", "all-but-one"]),
       w1=st.sampled_from([0.0, 0.4, 1.0, 1.7]), gamma1=st.sampled_from([0.0, 2.5]),
       alignment=st.sampled_from(["none", "alpha0", "cold-d", "warm-d"]))
@settings(max_examples=120, deadline=None)
def test_mslim_routes_match_the_direct_solve(seed, n_items, dense, cold, w1, gamma1,
                                             alignment):
    # w1 = 1.7 > w0 is a negative update; a dense X gives r_i + 1 >= n columns
    X, cfg, B = _mslim_case(seed, n_items, dense, cold, w1, gamma1, alignment)
    model = fit_mslim(X, cfg, B=B)
    Bd = None if B is None else B.materialize()
    expected = _brute_mslim(X, cfg, Bd=Bd)
    assert np.abs(model.theta - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())
    r = np.diff(X.tocsc().indptr) if cfg.w0 != cfg.w1 else np.zeros(n_items, dtype=int)
    routes = model.diagnostics["columns_by_route"]
    assert routes["rank_one"] == int((r == 0).sum())
    assert routes["woodbury"] + routes["direct"] == int((r > 0).sum())
    assert routes["direct"] >= int(((r > 0) & (r + 1 >= n_items)).sum())


def test_mslim_failed_capacitance_solves_the_column_directly(monkeypatch):
    # every capacitance system fails its rcond check, as a negative update can make it
    from alignrec import solvers

    def no_capacitance_solves(m, rhs):
        # the Woodbury step's capacitance is its caller's local ``cap``; on the
        # block route a direct system is as small as the warm block, so size
        # alone cannot tell the two apart
        if m is sys._getframe(1).f_locals.get("cap"):
            raise SingularMatrixError("forced", pivot=0)
        return solve_general(m, rhs)

    X, cfg, B = _mslim_case(4, 9, False, "some", 1.7, 2.5, "warm-d")
    monkeypatch.setattr(solvers, "solve_general", no_capacitance_solves)
    model = fit_mslim(X, cfg, B=B)
    r = np.diff(X.tocsc().indptr)
    assert model.diagnostics["columns_by_route"] == {
        "rank_one": int((r == 0).sum()), "woodbury": 0, "direct": int((r > 0).sum())}
    expected = _brute_mslim(X, cfg, Bd=B.materialize())
    assert np.abs(model.theta - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())


def reference_mslim_columns(X, cfg, B=None):
    """The per-column MSLIM loop the grouped Woodbury step replaced.

    Returns (theta, columns_by_route), or (None, the singular columns) where
    fit_mslim raises SolverError. Each Woodbury column gathers its own rows
    X_i, forms X_i Q from the whole inverse and solves its capacitance, a
    local ``cap``, through ``solvers.solve_general`` as looked up at call time.
    """
    system = solvers.FitContext(X).system(B, cfg.lambda1 > 0)
    Xcsr, items = system.X, system.items
    k = system.shared(cfg.w1, cfg.lambda1)
    n = len(k)
    h = None
    if system.decay.any():
        h = system.restrict(B.item_map())
    Xcsc = Xcsr.tocsc()
    m = np.eye(n) + (0.0 if h is None else h)
    try:
        p = invert(k, spd=~system.decay if cfg.lambda1 > 0 else False)
    except SingularMatrixError:
        p = q = None
    else:
        q = p if h is None else m @ p
    theta, route, failures = np.zeros((n, n)), np.zeros(n, dtype=np.int8), []
    w_gap, shift = cfg.w0 - cfg.w1, cfg.lambda1 + cfg.gamma1
    for i in range(n):
        rows = Xcsc.indices[Xcsc.indptr[i]:Xcsc.indptr[i + 1]] if w_gap != 0.0 else ()
        r = len(rows)
        xi = Xcsr[rows] if r else None
        s = None
        if p is not None and r == 0 and 1.0 + cfg.gamma1 * p[i, i] != 0.0:
            s, route[i] = p[:, i] / (1.0 + cfg.gamma1 * p[i, i]), 0
        elif p is not None and 0 < r < X.shape[1] - 1:
            vp = xi @ q
            cap = np.empty((r + 1, r + 1))
            cap[:r, :r] = w_gap * (xi @ vp.T).T
            cap[:r, r] = w_gap * vp[:, i]
            cap[r] = cfg.gamma1 * np.append(xi @ p[i], p[i, i])
            wp = cap[:, r].copy()
            cap.flat[::r + 2] += 1.0
            try:
                z = solvers.solve_general(cap, wp)
            except SingularMatrixError:
                pass
            else:
                s, route[i] = p[:, i] * (1.0 - z[r]) - p @ (xi.T @ z[:r]), 1
        if s is not None:
            theta[:, i] = -shift * s
            theta[i, i] += 1.0
            continue
        route[i] = 2
        a = k.copy()
        if r:
            a += w_gap * np.asarray(xi.T @ (xi @ m))
        a[i, i] += cfg.gamma1
        rhs = a[:, i].copy()
        rhs[i] -= shift
        try:
            theta[:, i] = solvers.solve_general(a, rhs)
        except SingularMatrixError:
            failures.append(int(items[i]))
    try:
        theta = system.theta(theta, p, cfg.w1, k)
    except SingularMatrixError:
        failures += system.cold.tolist()
    route = np.concatenate([route, np.zeros(len(system.cold), dtype=np.int8)])
    if failures:
        return None, sorted(failures)
    return theta, dict(zip(("rank_one", "woodbury", "direct"),
                           np.bincount(route, minlength=3).tolist()))


def _fail_capacitances(m, rhs):
    """solve_general, except that a Woodbury capacitance (its caller's ``cap``) fails."""
    if m is sys._getframe(1).f_locals.get("cap"):
        raise SingularMatrixError("forced", pivot=0)
    return solve_general(m, rhs)


def _fail_even_capacitances(m, rhs):
    """solve_general, except that a Woodbury capacitance of even order fails."""
    if m is sys._getframe(1).f_locals.get("cap") and len(m) % 2 == 0:
        raise SingularMatrixError("forced", pivot=0)
    return solve_general(m, rhs)


def _fit_or_columns(X, cfg, B, workers=1):
    """fit_mslim's (theta, columns_by_route), or (None, its SolverError columns)."""
    try:
        model = fit_mslim(X, cfg, B=B, workers=workers)
    except SolverError as e:
        return None, e.columns
    return model.theta, model.diagnostics["columns_by_route"]


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 16), dense=st.booleans(),
       cold=st.sampled_from(["none", "none", "some", "all-but-one"]),
       w1=st.sampled_from([0.0, 0.4, 1.7]), gamma1=st.sampled_from([0.0, 2.5]),
       alignment=st.sampled_from(["none", "cold-d", "warm-d"]),
       zero_lambda=st.sampled_from([False, False, True]),
       fail_caps=st.sampled_from(["none", "none", "all", "even"]),
       clicks=st.sampled_from(["random", "extremes", "duplicated"]),
       slots=st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_grouped_woodbury_matches_the_per_column_loop(seed, n_items, dense, cold, w1, gamma1,
                                                      alignment, zero_lambda, fail_caps,
                                                      clicks, slots):
    # w1 = 1.7 > w0 is a negative update, a dense X gives r_i + 1 >= n direct
    # columns, "warm-d" puts a decay weight on clicked items (M = I + H), and a
    # zero lambda1 with cold items makes K singular. "extremes" clicks each
    # warm column by 1 or n - 2 users, so that a group pads 1-click columns
    # to the longest and runs of equal click counts are long; "duplicated"
    # clicks each by 1 to (n - 2) / 2 users of the first half and repeats
    # those rows as the second half
    X, cfg, B = _mslim_case(seed, n_items, dense, cold, w1, gamma1, alignment)
    if clicks != "random":
        rng = np.random.default_rng(seed)
        x = X.toarray()
        half = len(x) // 2
        for i in np.flatnonzero(x.any(axis=0)):
            x[:, i] = 0.0
            if clicks == "extremes":
                x[rng.permutation(len(x))[:rng.choice([1, max(1, n_items - 2)])], i] = 1.0
            else:
                x[rng.permutation(half)[:rng.integers(1, max(2, n_items // 2))], i] = 1.0
        if clicks == "duplicated":
            x[half:2 * half] = x[:half]
        X = sp.csr_matrix(x)
        if B is not None:
            B = align(X, B.G, AlignmentConfig(alpha=B.alpha), d=B.d)
    if zero_lambda:
        cfg.lambda1 = 0.0
    solve = {"none": solve_general, "all": _fail_capacitances,
             "even": _fail_even_capacitances}[fail_caps]
    with mock.patch.object(solvers, "solve_general", solve):
        ref_theta, ref_routes = reference_mslim_columns(X, cfg, B)
        # one column per group, a budget of ``slots`` padded slots per group
        # (which cuts runs of equal click counts), and every column in one group
        thetas = []
        for cells in (1, slots, 2**62):
            with mock.patch.object(solvers, "_group_cells", lambda users, width: cells * width):
                theta, routes = _fit_or_columns(X, cfg, B)
            assert routes == ref_routes
            if ref_theta is None:
                assert theta is None
                continue
            tol = 1e-12 * max(1.0, np.abs(ref_theta).max())
            assert np.abs(theta - ref_theta).max() <= tol
            thetas.append(theta)
        # more threads than cores, switching often, must lose no column update
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(solvers, "_group_cells", lambda users, width: slots * width):
                threaded, threaded_routes = _fit_or_columns(X, cfg, B, workers=3)
        finally:
            sys.setswitchinterval(interval)
    assert threaded_routes == ref_routes
    # no column's arithmetic depends on its group or thread: theta is the same bytes
    assert all(t.tobytes() == threaded.tobytes() for t in thetas)


def test_woodbury_builds_one_sparse_matrix_per_group_and_one_solve_per_column():
    # counts, not times: the sparse matrices built inside _woodbury_group
    # (through the constructor it calls, wrapped in a stand-in for
    # solvers.sp, so scipy.sparse itself is untouched) grow with the groups,
    # not the columns, and every column solves once
    dataset, _ = planted_dataset(n_users=300, n_items=80, n_topics=8, seed=3)
    inside, built, groups, solves = [False], [0], [0], [0]

    def constructor(*args, **kwargs):
        built[0] += inside[0]
        return sp.csr_matrix(*args, **kwargs)

    def group(*args):
        groups[0] += 1
        inside[0] = True
        try:
            return woodbury_group(*args)
        finally:
            inside[0] = False

    def solve(m, rhs):
        solves[0] += 1
        return solve_general(m, rhs)

    woodbury_group = solvers._woodbury_group
    sparse = types.SimpleNamespace(**{**vars(sp), "csr_matrix": constructor})
    with mock.patch.object(solvers, "sp", sparse), \
            mock.patch.object(solvers, "_woodbury_group", group), \
            mock.patch.object(solvers, "solve_general", solve):
        routes = fit_mslim(dataset.X, MslimConfig(w1=0.5, lambda1=5.0, gamma1=10.0)
                           ).diagnostics["columns_by_route"]
    assert built[0] <= groups[0] < routes["woodbury"]
    assert solves[0] == routes["woodbury"] + routes["direct"]


def test_mslim_scratch_memory_is_bounded():
    # many users over few items, each item clicked by fewer users than there
    # are items (the Woodbury route), so that X dense is large against the
    # fit's items-squared matrices
    rng = np.random.default_rng(3)
    n_users, n_items = 10000, 200
    x = rng.random((n_users, n_items)) < 0.01
    x[rng.integers(0, n_users, size=n_items), np.arange(n_items)] = True
    X = sp.csr_matrix(x.astype(np.float64))
    del x
    cfg = MslimConfig(w1=0.5, lambda1=5.0, gamma1=10.0)
    tracemalloc.start()
    try:
        model = fit_mslim(X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.diagnostics["columns_by_route"]["woodbury"] == n_items
    # Y = X Q (users x items), a few group gathers, sparse copies of X and the
    # items-squared K, P and theta; densifying X, or keeping one items-wide
    # block per column, adds at least another users x items
    bound = (8 * n_users * n_items + 4 * 8 * solvers._GROUP_CELLS
             + 3 * 12 * X.nnz + 8 * 8 * n_items**2)
    assert peak < bound


def test_mslim_budgets_its_users_by_items_array(monkeypatch):
    # Y^T = (X Q)^T, items x users, is the one users x items array of a fit:
    # over the memory budget it raises CapacityError, where the Gram fits
    rng = np.random.default_rng(8)
    n_users, n_items = 400, 60
    X = _random_clicks(rng, n_users, n_items, density=0.02)
    cfg = MslimConfig(w1=0.5, lambda1=5.0, gamma1=10.0)
    assert fit_mslim(X, cfg).diagnostics["columns_by_route"]["woodbury"] > 0
    monkeypatch.setattr(linalg, "DEFAULT_MEMORY_BUDGET", 8 * n_users * n_items - 8)
    with pytest.raises(CapacityError, match=r"Y\^T"):
        fit_mslim(X, cfg)


def _phase_peaks(fn):
    """fn()'s tracemalloc peak, and the largest peak inside one call of
    ``FitContext.system`` (where a _System is built) and of ``_System.theta``
    (where theta is placed), in bytes above the memory traced at each entry."""
    peaks, overall = {}, [0]

    def wrap(name, inner):
        def traced(*args, **kwargs):
            before, peak = tracemalloc.get_traced_memory()
            overall[0] = max(overall[0], peak)
            tracemalloc.reset_peak()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                overall[0] = max(overall[0], peak)
                peaks[name] = max(peaks.get(name, 0), peak - before)
        return traced

    with mock.patch.object(solvers.FitContext, "system", wrap("system", solvers.FitContext.system)), \
            mock.patch.object(solvers._System, "theta", wrap("theta", solvers._System.theta)):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        try:
            fn()
            overall[0] = max(overall[0], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return overall[0] - base, peaks


@pytest.mark.parametrize("case, fit_peak, system_peak", [
    ("ease", 4.66, 0.298), ("mslim", 10.49, 0.298), ("ease-feature", 5.214, 0.614)])
def test_general_route_gathers_and_re_embeds_nothing(case, fit_peak, system_peak):
    # fit_peak and system_peak are the parent commit's tracemalloc peaks, in
    # n^2 float64s, of an aligned fit whose context already holds the Gram
    # (from an unaligned fit), and of the _System build inside it. The
    # general route must gather no G[W] over all items (n^2 more in the
    # build) and must return theta as solved (n^2 more in the placement).
    n = 200
    rng = np.random.default_rng(0)
    x = (rng.random((600, n)) < 0.1).astype(np.float64)
    x[rng.integers(0, 600, n), np.arange(n)] = 1.0
    if case == "ease-feature":
        x[:, :40] = 0.0  # empty columns, kept by the feature term
    X = sp.csr_matrix(x)
    raw = rng.random((n, n))
    B = align(X, 0.5 * (raw + raw.T), AlignmentConfig(alpha=0.5, beta=2.0, percentile=10.0))
    F = sp.random(n, 30, density=0.2, random_state=1, format="csr")
    fit = {"ease": lambda b, ctx: fit_ease(X, EaseConfig(lambda1=10.0), B=b, context=ctx),
           "mslim": lambda b, ctx: fit_mslim(X, MslimConfig(w1=0.5, lambda1=5.0, gamma1=10.0),
                                             B=b, context=ctx),
           "ease-feature": lambda b, ctx: fit_ease(X, EaseConfig(lambda0=1.0, lambda1=10.0),
                                                   F=F, B=b, context=ctx)}[case]
    ctx = solvers.FitContext(X)
    fit(None, ctx)
    peak, phases = _phase_peaks(lambda: fit(B, ctx))
    assert fit(B, ctx).diagnostics["route"] == "general"
    unit, slack = 8 * n * n, 0.05
    assert peak < (fit_peak + slack) * unit
    assert phases["system"] < (system_peak + slack) * unit
    assert phases["theta"] < slack * unit


def test_aligned_general_route_ease_fit_holds_one_working_array():
    # The same aligned EASE fit, bounded at 2.5 n^2 where the out-of-place
    # fit read 4.66: beside the fit's copy of its system it held the core's
    # gather with dpotrf's copy and |K| for its norm, then a fresh P beside
    # a block of its rows, then I, lambda1 P and theta beside P. The
    # inverse goes into the system's buffer and theta into P's.
    test_general_route_gathers_and_re_embeds_nothing("ease", 2.45, 0.298)


def test_aligned_feature_ease_fit_holds_one_working_array():
    # The ease-feature case at 2.5 n^2 where the LU-only route read 5.214: its
    # core off the decay columns, X^T X + lambda1 I + lambda0 FF^T, is
    # Cholesky's, lambda0 FF^T is added a block of rows at a time, and the
    # Schur complement is inverted in its own buffer.
    test_general_route_gathers_and_re_embeds_nothing("ease-feature", 2.5, 0.614)


def _direct_singular_columns(X, cfg, Bd=None):
    """The columns whose assembled n x n system fails the LU's rcond check."""
    Xd = X.toarray()
    bad = []
    for i in range(Xd.shape[1]):
        w = np.where(Xd[:, i] > 0, cfg.w0, cfg.w1)
        a = Xd.T @ (w[:, None] * (Xd if Bd is None else Xd + Bd))
        a += cfg.lambda1 * np.eye(len(a))
        a[i, i] += cfg.gamma1
        try:
            solve_general(a, a[:, i])
        except SingularMatrixError:
            bad.append(i)
    return bad


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 8),
       cold=st.sampled_from(["some", "all-but-one"]), gamma1=st.sampled_from([0.0, 2.5]),
       alignment=st.sampled_from(["none", "cold-d", "warm-d"]))
@settings(max_examples=40, deadline=None)
def test_mslim_zero_lambda_with_cold_items_names_the_singular_columns(
        seed, n_items, cold, gamma1, alignment):
    X, cfg, B = _mslim_case(seed, n_items, False, cold, 0.4, gamma1, alignment)
    cfg.lambda1 = 0.0
    expected = _direct_singular_columns(X, cfg, None if B is None else B.materialize())
    assert expected
    with pytest.raises(SolverError, match="increase lambda1 or gamma1") as excinfo:
        fit_mslim(X, cfg, B=B)
    assert excinfo.value.columns == expected


@pytest.mark.parametrize("cold", ["one", "some", "all-but-one"])
@pytest.mark.parametrize("gamma1", [0.0, 2.5])
@pytest.mark.parametrize("alignment", ["none", "cold-d", "warm-d"])
def test_mslim_zero_lambda_with_two_empty_columns_refuses_before_factoring(
        monkeypatch, cold, gamma1, alignment):
    # 8 items: "one" empties 1 column, "some" 2, "all-but-one" 7; with one empty
    # column c every system but S_c holds c's zero row, so only S_c is solved,
    # and only when gamma1 > 0 can make it regular
    X, cfg, B = _mslim_case(5, 8, False, cold, 0.4, gamma1, alignment)
    cfg.lambda1 = 0.0
    expected = _direct_singular_columns(X, cfg, None if B is None else B.materialize())
    if cold == "one":
        (c,) = np.flatnonzero(X.getnnz(axis=0) == 0)
        assert set(expected) >= set(range(8)) - {int(c)}
    else:
        assert expected == list(range(8))
    calls = []
    for name in ("invert", "solve_general"):
        real = getattr(solvers, name)
        monkeypatch.setattr(solvers, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    with pytest.raises(SolverError, match="increase lambda1 or gamma1") as excinfo:
        fit_mslim(X, cfg, B=B)
    assert calls == (["solve_general"] if cold == "one" and gamma1 > 0 else [])
    assert excinfo.value.columns == expected


def test_mslim_config_validation():
    for bad in ({"w0": 0.0}, {"w1": -0.1}, {"lambda1": -1.0}, {"gamma1": -1.0}):
        with pytest.raises(ValueError):
            MslimConfig(**bad)


# ---------------------------------------------------------------- scoring

def test_itemknn_scores_are_click_weighted_similarity_sums():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(itemknn_scores(X, G), [[1.0, 0.5], [1.5, 1.5]])


def test_predict_masks_training_positives():
    model = ItemModel(theta=np.array([[0.0, 1.0], [1.0, 0.0]]), solver="ease")
    X = sp.csr_matrix(np.array([[1.0, 0.0]]))
    scores = predict(model, X)
    assert scores[0, 0] == -np.inf
    assert scores[0, 1] == 1.0


def test_popularity_scores_tile_column_counts():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(popularity_scores(X), np.tile([3.0, 1.0], (3, 1)))


def test_random_scores_are_seed_deterministic():
    np.testing.assert_array_equal(random_scores(4, 5, seed=9), random_scores(4, 5, seed=9))
    assert not np.array_equal(random_scores(4, 5, seed=9), random_scores(4, 5, seed=10))


# ------------------------------------------------------------- persistence

@pytest.fixture
def fitted():
    rng = np.random.default_rng(30)
    X = _random_clicks(rng, 20, 5)
    model = fit_ease(X, EaseConfig(lambda1=1.0))
    model.item_ids = tuple(f"i{j}" for j in range(5))
    return model


def test_model_round_trip_dense(tmp_path, fitted):
    path = str(tmp_path / "model.bin")
    save_model(fitted, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.theta, fitted.theta)
    assert back.solver == "ease"
    assert back.item_ids == fitted.item_ids
    assert back.config == {"lambda0": 0.0, "lambda1": 1.0, "use_alignment": False}


def test_model_round_trip_without_ids(tmp_path, fitted):
    fitted.item_ids = None
    path = str(tmp_path / "model.bin")
    save_model(fitted, path)
    assert load_model(path).item_ids is None


def test_model_save_is_byte_deterministic(tmp_path, fitted):
    save_model(fitted, str(tmp_path / "a.bin"))
    save_model(fitted, str(tmp_path / "b.bin"))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.bin.json").read_bytes() == (tmp_path / "b.bin.json").read_bytes()


def test_model_sidecar_records_storage(tmp_path, fitted):
    import json

    path = str(tmp_path / "model.bin")
    save_model(fitted, path)
    sidecar = json.loads((tmp_path / "model.bin.json").read_text(encoding="utf-8"))
    # the layout is always dense, so the sidecar names no storage mode
    assert sorted(sidecar) == ["config", "diagnostics", "n_items", "solver"]
    assert sidecar["n_items"] == 5
    assert "wall_time_s" in sidecar["diagnostics"]


def test_load_model_rejects_foreign_files(tmp_path):
    (tmp_path / "model.bin").write_bytes(b"NOTAMODEL")
    (tmp_path / "model.bin.json").write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match="magic"):
        load_model(str(tmp_path / "model.bin"))
