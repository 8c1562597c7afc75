"""The block route of the solvers against the general route it replaces.

A FitContext whose ``block`` flag is cleared sends every fit down the
general route (the full n x n system), so each example fits the same
inputs both ways. The routes agree to 1e-10 of the largest weight; cold
items with byte-equal metadata get bitwise-equal columns on the block
route; lambda0 > 0 with F, and lambda1 = 0 under MSLIM, stay general.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import AlignmentConfig, EaseConfig, FitContext, MslimConfig, SolverError
from alignrec import align, fit_ease, fit_mslim


def _case(seed, n_items, cold, decay, duplicates):
    """Clicks with ``cold`` of their columns emptied, and an alignment B (or None).

    ``duplicates`` copies one cold item's metadata (its G row and column and
    its decay weight) onto every other cold item of even position.
    """
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(n_items, 3 * n_items + 1))
    x = (rng.random((n_users, n_items)) < 0.4).astype(np.float64)
    empty = np.flatnonzero(x.sum(axis=0) == 0)
    x[rng.integers(0, n_users, size=len(empty)), empty] = 1.0
    n_cold = {"none": 0, "some": max(1, n_items // 3), "all-but-one": n_items - 1,
              "all": n_items}[cold]
    cold_items = np.sort(rng.permutation(n_items)[:n_cold])
    x[:, cold_items] = 0.0
    X = sp.csr_matrix(x)
    if decay == "none":
        return X, None, cold_items
    raw = np.abs(rng.standard_normal((n_items, n_items)))
    G = 0.5 * (raw + raw.T)
    clicked = x.sum(axis=0) > 0
    # "warm-d" puts decay weights on clicked items too, so S_WW is not symmetric
    d = rng.uniform(0.1, 2.0, size=n_items) * (1.0 if decay == "warm-d" else ~clicked)
    if duplicates and len(cold_items) > 1:
        src, dst = cold_items[0], cold_items[2::2]
        G[:, dst] = G[:, [src]]
        G[dst, :] = G[src, :]
        d[dst] = d[src]
    B = align(X, G, AlignmentConfig(alpha=0.0 if decay == "alpha0" else 0.7), d=d)
    return X, B, cold_items


def _both_routes(fit, X):
    """fit(context) on the block route if X has one, and on the general route."""
    general = FitContext(X)
    general.block = False
    outcomes = []
    for ctx in (FitContext(X), general):
        try:
            outcomes.append(fit(ctx))
        except SolverError as e:
            outcomes.append(e)
    return outcomes


def _distinct_columns(theta, cols):
    return len({theta[:, c].tobytes() for c in cols})


_SOLVERS = {
    "ease": lambda X, B, lam, gamma1, w1: lambda ctx: fit_ease(
        X, EaseConfig(lambda1=lam), B=B, context=ctx),
    "mslim": lambda X, B, lam, gamma1, w1: lambda ctx: fit_mslim(
        X, MslimConfig(w1=w1, lambda1=lam, gamma1=gamma1), B=B, context=ctx),
}


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 9),
       cold=st.sampled_from(["none", "some", "all-but-one", "all"]),
       decay=st.sampled_from(["none", "alpha0", "cold-d", "warm-d"]),
       duplicates=st.booleans(), solver=st.sampled_from(sorted(_SOLVERS)),
       w1=st.sampled_from([0.0, 0.4, 1.0, 1.7]), gamma1=st.sampled_from([0.0, 2.5]))
@settings(max_examples=250, deadline=None)
def test_block_route_matches_the_general_route(seed, n_items, cold, decay, duplicates,
                                               solver, w1, gamma1):
    X, B, cold_items = _case(seed, n_items, cold, decay, duplicates)
    lam = float(np.random.default_rng(seed).uniform(0.5, 3.0))
    block, general = _both_routes(_SOLVERS[solver](X, B, lam, gamma1, w1), X)
    if isinstance(general, Exception) or isinstance(block, Exception):
        # a system singular to working precision fails on both routes
        assert type(block) is type(general)
        return
    ref = general.theta
    assert np.abs(block.theta - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    facts = block.diagnostics
    has_block = 0 < len(cold_items) < n_items
    assert facts["route"] == ("block" if has_block else "general")
    assert general.diagnostics["route"] == "general"
    assert general.diagnostics["cold_columns_solved"] == len(cold_items)
    if not has_block:
        assert np.array_equal(block.theta, ref)  # the same route, so the same bytes
        return
    aligned = B is not None and B.alpha != 0.0
    assert facts["factorization"] == ("lu" if aligned and decay == "warm-d" else "cholesky")
    # the C rows are exactly zero, and cold items with equal metadata share
    # one solved column, bit for bit
    assert not block.theta[cold_items].any()
    if not aligned:
        assert facts["cold_columns_solved"] == 0
        assert not block.theta[:, cold_items].any()
        return
    warm = np.setdiff1d(np.arange(n_items), cold_items)
    keys = {(B.G[warm, c].tobytes(), B.d[c].tobytes()) for c in cold_items}
    assert facts["cold_columns_solved"] == len(keys)
    assert _distinct_columns(block.theta, cold_items) <= len(keys)
    if duplicates and len(cold_items) > 2:
        dup = np.append(cold_items[0], cold_items[2::2])
        assert _distinct_columns(block.theta, dup) == 1
        scores = np.asarray(X @ block.theta)
        assert len({scores[:, c].tobytes() for c in dup}) == 1


@pytest.mark.parametrize("cold", ["some", "all-but-one"])
def test_feature_term_keeps_the_general_route(cold):
    X, B, cold_items = _case(3, 8, cold, "cold-d", False)
    F = (np.random.default_rng(3).random((8, 4)) < 0.5).astype(np.float64)
    cfg = EaseConfig(lambda0=0.4, lambda1=1.2)
    block, general = _both_routes(lambda ctx: fit_ease(X, cfg, F=F, B=B, context=ctx), X)
    assert block.diagnostics["route"] == "general"
    assert block.diagnostics["factorization"] == "lu"
    assert np.array_equal(block.theta, general.theta)
    # without F, lambda0 has nothing to act on and the block route is taken
    assert fit_ease(X, cfg, B=B).diagnostics["route"] == "block"


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 8),
       cold=st.sampled_from(["some", "all-but-one"]), gamma1=st.sampled_from([0.0, 2.5]),
       decay=st.sampled_from(["none", "cold-d", "warm-d"]))
@settings(max_examples=30, deadline=None)
def test_zero_lambda_mslim_keeps_raising_on_the_general_route(seed, n_items, cold, gamma1,
                                                              decay):
    # the lambda1 I corner vanishes: every column whose system holds a zero C row is singular
    X, B, _ = _case(seed, n_items, cold, decay, False)
    cfg = MslimConfig(w1=0.4, lambda1=0.0, gamma1=gamma1)
    block, general = _both_routes(lambda ctx: fit_mslim(X, cfg, B=B, context=ctx), X)
    assert isinstance(block, SolverError) and isinstance(general, SolverError)
    assert block.columns == general.columns
    assert "increase lambda1 or gamma1" in str(block)


def test_a_context_shares_one_gram_and_one_cross_term(monkeypatch):
    from alignrec import alignment, solvers

    X, B, _ = _case(5, 9, "some", "cold-d", True)
    calls = []
    gram, xtb = solvers.gram, alignment.AlignmentMatrix.xtb
    monkeypatch.setattr(solvers, "gram", lambda a: calls.append("gram") or gram(a))
    monkeypatch.setattr(alignment.AlignmentMatrix, "xtb",
                        lambda self, *a, **k: calls.append("xtb") or xtb(self, *a, **k))
    ctx = FitContext(X)
    for lam in (0.5, 1.0, 2.0):
        fit_ease(X, EaseConfig(lambda1=lam), B=B, context=ctx)
        fit_mslim(X, MslimConfig(lambda1=lam), B=B, context=ctx)
    assert calls == ["gram", "xtb"]
    with pytest.raises(ValueError, match="fit context"):
        fit_ease(X[:, :5], EaseConfig(), B=B, context=ctx)


def test_threads_sharing_a_context_build_its_block_once(monkeypatch):
    # more threads than cores, switching often: the lazily built block must be
    # built once and every fit must read the same one
    import sys
    import threading

    from alignrec import alignment

    X, B, _ = _case(11, 9, "some", "cold-d", False)
    calls = []
    xtb = alignment.AlignmentMatrix.xtb
    monkeypatch.setattr(alignment.AlignmentMatrix, "xtb",
                        lambda self, *a, **k: calls.append(1) or xtb(self, *a, **k))
    ctx, thetas = FitContext(X), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: thetas.append(
            fit_ease(X, EaseConfig(lambda1=1.0), B=B, context=ctx).theta)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1 and len(thetas) == 8
    assert all(np.array_equal(t, thetas[0]) for t in thetas)


def test_a_context_of_another_matrix_of_the_same_shape_is_refused():
    X, B, _ = _case(5, 9, "some", "cold-d", False)
    ctx = FitContext(X)
    moved = X.tolil()
    moved[0, 0] = 1.0 - moved[0, 0]  # one click added or removed
    weighted = X.copy()
    weighted.data *= 2.0  # the same clicks, other values
    for other in (moved.tocsr(), weighted):
        for fit in (lambda Y: fit_ease(Y, EaseConfig(), B=B, context=ctx),
                    lambda Y: fit_mslim(Y, MslimConfig(lambda1=1.0), B=B, context=ctx)):
            with pytest.raises(ValueError, match="another matrix"):
                fit(other)
    # an equal copy, or the same clicks given densely, shares the context
    own = fit_ease(X, EaseConfig(), B=B).theta
    assert np.array_equal(fit_ease(X.copy(), EaseConfig(), B=B, context=ctx).theta, own)
    assert np.array_equal(fit_ease(X.toarray(), EaseConfig(), B=B, context=ctx).theta, own)
