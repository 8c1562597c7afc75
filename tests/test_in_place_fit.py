"""The in-place EASE fit against the out-of-place path it replaces, byte for byte.

``fit_ease`` inverts its private copy of the system with
``invert(m, overwrite=True)``, which writes P into m's buffer, and on the
general route ``_ease_weights`` then turns P into theta in that same
buffer. The reference here inverts with ``overwrite`` off and forms theta
by the out-of-place formula, I - lambda1 P, then the diagonal correction.
The two must agree in every bit, the sign of every zero included: a
block-diagonal Gram gives P exact zeros, where 0 - lambda1 * 0 is +0.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import AlignmentConfig, EaseConfig, SolverError, align, fit_ease, solvers
from alignrec.errors import SingularMatrixError
from alignrec.linalg import invert


def reference_ease_weights(p, lambda1):
    """The out-of-place formula ``_ease_weights`` replaced."""
    theta = np.eye(len(p)) - lambda1 * p
    theta -= p * (np.diag(theta) / np.diag(p))[None, :]
    return theta


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _clicks(rng, n_users, n_items, cold, blocks, duplicates):
    """A click matrix: ``cold`` of its columns empty, in two diagonal blocks
    of items (so X^T X is block-diagonal) when ``blocks``, and with repeated
    user rows when ``duplicates``."""
    x = (rng.random((n_users, n_items)) < 0.5).astype(np.float64)
    owner = rng.integers(0, n_users, n_items)  # a user who clicks each item
    if blocks:
        half, mid = n_items // 2, n_users // 2
        x[:mid, half:] = x[mid:, :half] = 0.0
        owner = np.where(np.arange(n_items) < half, owner % mid, mid + owner % (n_users - mid))
    x[owner, np.arange(n_items)] = 1.0
    n_cold = {"none": 0, "some": max(1, n_items // 3), "all-but-one": n_items - 1}[cold]
    x[:, rng.permutation(n_items)[:n_cold]] = 0.0
    if duplicates:
        x = np.vstack([x, x[: max(1, n_users // 2)]])
    return sp.csr_matrix(x)


def _outcome(fit):
    try:
        return fit()
    except (SolverError, SingularMatrixError) as e:
        return e


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 9),
       cold=st.sampled_from(["none", "some", "all-but-one"]), blocks=st.booleans(),
       duplicates=st.booleans(), decay=st.sampled_from(["none", "warm", "all"]),
       lambda1=st.sampled_from([1e-14, 0.5, 3.0]), identical_columns=st.booleans())
@settings(max_examples=150, deadline=None)
def test_in_place_fit_is_the_out_of_place_fit_bit_for_bit(
        seed, n_items, cold, blocks, duplicates, decay, lambda1, identical_columns):
    rng = np.random.default_rng(seed)
    X = _clicks(rng, int(rng.integers(2, 12)), n_items, cold, blocks, duplicates)
    if identical_columns:
        # two equal training columns: with a tiny lambda1 the system is singular to
        # working precision, and both paths must refuse it naming the same row
        x = X.toarray()
        x[:, -1] = x[:, 0]
        X = sp.csr_matrix(x)
    B = None
    if decay != "none":
        warm = np.asarray(X.sum(axis=0)).ravel() > 0
        mask = warm if decay == "warm" else np.ones(n_items, dtype=bool)
        raw = np.abs(rng.standard_normal((n_items, n_items)))
        if blocks:
            # keep the cross term block-diagonal too, so that P keeps its zeros
            half = n_items // 2
            raw[:half, half:] = raw[half:, :half] = 0.0
        B = align(X, raw + raw.T, AlignmentConfig(alpha=0.5),
                  d=rng.uniform(0.1, 2.0, size=n_items) * mask)
    cfg = EaseConfig(lambda1=lambda1)
    got = _outcome(lambda: fit_ease(X, cfg, B=B))
    with mock.patch.object(solvers, "invert",
                           lambda m, **kw: invert(m, **{**kw, "overwrite": False})), \
            mock.patch.object(solvers, "_ease_weights",
                              lambda p, lam, items: reference_ease_weights(p, lam)):
        want = _outcome(lambda: fit_ease(X, cfg, B=B))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert getattr(got, "columns", None) == getattr(want, "columns", None)
        return
    assert not isinstance(got, Exception), got
    assert_same_bits(got.theta, want.theta)
    assert got.diagnostics["rcond_min"] == want.diagnostics["rcond_min"]
    assert got.diagnostics["route"] == want.diagnostics["route"]


def _spd_system(rng, n, blocks, lambda1):
    """X^T X + lambda1 I, bitwise symmetric, block-diagonal when ``blocks``."""
    x = (rng.random((int(rng.integers(1, 3 * n + 1)), n)) < 0.4).astype(np.float64)
    if blocks:
        x[: len(x) // 2, n // 2:] = 0.0
        x[len(x) // 2:, : n // 2] = 0.0
    m = x.T @ x
    m.flat[::n + 1] += lambda1
    return m


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       spd=st.sampled_from(["true", "false", "mask"]), blocks=st.booleans(),
       lambda1=st.sampled_from([1e-14, 0.5, 3.0]), identical_columns=st.booleans())
@settings(max_examples=150, deadline=None)
def test_invert_in_place_writes_the_same_inverse_and_leaves_m_alone_without_it(
        seed, n, spd, blocks, lambda1, identical_columns):
    rng = np.random.default_rng(seed)
    m = _spd_system(rng, n, blocks, lambda1)
    if identical_columns and n > 1:
        m[:, -1], m[-1, :] = m[:, 0], m[0, :]
    core = {"true": True, "false": False}.get(spd)
    if core is None:
        # a cross term on the decay columns makes the matrix non-symmetric there
        dmask = rng.random(n) < 0.4
        m[:, dmask] += 0.3 * np.abs(rng.standard_normal((n, int(dmask.sum()))))
        core = ~dmask
    before = m.copy()
    want = _outcome(lambda: invert(m, spd=core, return_rcond=True))
    assert m.tobytes() == before.tobytes()  # overwrite off: m untouched
    got = _outcome(lambda: invert(m, spd=core, return_rcond=True, overwrite=True))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert got.pivot == want.pivot
        return
    assert not isinstance(got, Exception), got
    (p, rcond), (p_want, rcond_want) = got, want
    assert_same_bits(p, p_want)
    assert rcond == pytest.approx(rcond_want, rel=1e-12)
    lam = float(rng.choice([0.5, 3.0]))
    items = np.arange(n)
    if not (np.diag(p_want) == 0.0).any():
        assert_same_bits(solvers._ease_weights(p, lam, items),
                         reference_ease_weights(p_want, lam))


@pytest.mark.parametrize("spd", [True, False])
def test_a_block_diagonal_inverse_keeps_its_signed_zeros(spd):
    # P is exactly zero off the blocks; I - lambda1 P is +0 there, never -0
    m = _spd_system(np.random.default_rng(4), 8, True, 0.5)
    p = invert(m.copy(), spd=spd, overwrite=True)
    assert (p[:4, 4:] == 0.0).all()
    theta = solvers._ease_weights(p, 2.0, np.arange(8))
    assert_same_bits(theta, reference_ease_weights(invert(m, spd=spd), 2.0))
    assert not np.signbit(theta[:4, 4:]).any()
