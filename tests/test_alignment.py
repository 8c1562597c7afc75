"""Similarity smoothing, coefficient mixing, and the alignment matrix."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import (
    AlignmentConfig,
    MixCoefficients,
    align,
    default_mix,
    fit_mix_coefficients,
    make_cold_split,
    mix_similarities,
    multihot_encode,
    popularity_regularizer,
    smoothed_cosine,
)
from alignrec.alignment import attribute_pairs
from alignrec.linalg import gram
from alignrec.synthetic import planted_dataset


def _counts_matrix(counts):
    """CSR user-item matrix whose column sums equal ``counts``."""
    n_users = max(max(counts), 1)
    dense = np.zeros((n_users, len(counts)))
    for j, c in enumerate(counts):
        dense[:c, j] = 1.0
    return sp.csr_matrix(dense)


# --------------------------------------------------------- smoothed cosine

def test_smoothed_cosine_parallel_rows_score_one():
    g = smoothed_cosine(np.array([[1.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_allclose(g, np.ones((2, 2)), atol=1e-12)


def test_smoothed_cosine_orthogonal_rows_score_zero():
    g = smoothed_cosine(np.array([[1.0, 0.0], [0.0, 3.0]]))
    np.testing.assert_allclose(g, np.eye(2), atol=1e-12)


def test_smoothed_cosine_delta_shrinks_similarity():
    g = smoothed_cosine(np.array([[3.0, 4.0], [4.0, 3.0]]), delta=5.0)
    assert g[0, 1] == pytest.approx(24.0 / 30.0, abs=1e-12)
    assert g[0, 0] == pytest.approx(25.0 / 30.0, abs=1e-12)


def test_smoothed_cosine_zero_rows_stay_zero():
    g = smoothed_cosine(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert g[0, 0] == 0.0 and g[0, 1] == 0.0 and g[1, 0] == 0.0
    assert g[1, 1] == pytest.approx(1.0)


def test_smoothed_cosine_accepts_blocks_and_sparse_input():
    block = multihot_encode([["x"], ["x", "y"], ["y"]])
    from_block = smoothed_cosine(block, delta=0.5)
    from_dense = smoothed_cosine(block.dense(), delta=0.5)
    np.testing.assert_allclose(from_block, from_dense, atol=1e-12)
    assert np.array_equal(from_block, from_block.T)


@pytest.mark.parametrize("kind", ["multihot", "dense"])
def test_smoothed_cosine_scratch_memory_is_bounded(kind):
    # G is formed in place: above its own n^2 output it holds at most 3 n^2
    # float64s of scratch (an out-of-place formula holds more), and it stays
    # bit for bit the out-of-place formula, zero rows included
    n, rng = 600, np.random.default_rng(5)
    z = (rng.random((n, 40)) < 0.1) * 1.0 if kind == "multihot" else rng.standard_normal((n, 16))
    z[7] = 0.0
    if kind == "multihot":
        z = sp.csr_matrix(z)
        inner, norms = (z @ z.T).toarray(), np.sqrt(np.asarray(z.multiply(z).sum(axis=1)).ravel())
    else:
        inner, norms = z @ z.T, np.linalg.norm(z, axis=1)
    denom = np.outer(norms, norms) + 0.5
    expected = np.where(denom > 0, inner / np.where(denom > 0, denom, 1.0), 0.0)
    expected = 0.5 * (expected + expected.T)
    del inner, denom
    tracemalloc.start()
    try:
        g = smoothed_cosine(z, delta=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.tobytes() == expected.tobytes()
    assert peak - g.nbytes <= 3 * g.nbytes


def test_smoothed_cosine_rejects_negative_delta():
    with pytest.raises(ValueError, match="delta"):
        smoothed_cosine(np.eye(2), delta=-0.1)


# ------------------------------------------------------------------ mixing

def test_attribute_pairs_order():
    assert attribute_pairs(3) == [(0, 1), (0, 2), (1, 2)]


def test_mix_coefficients_validate_lengths_and_signs():
    with pytest.raises(ValueError, match="second-order"):
        MixCoefficients(first_order=[1.0, 1.0], second_order=[])
    with pytest.raises(ValueError, match="non-negative"):
        MixCoefficients(first_order=[-1.0])
    mu = MixCoefficients(first_order=[1.0, 0.0], second_order=[2.0])
    assert mu.nnz == 2
    assert MixCoefficients.from_dict(mu.to_dict()).to_dict() == mu.to_dict()


def test_default_mix_is_first_order_only():
    mu = default_mix(3)
    np.testing.assert_array_equal(mu.first_order, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(mu.second_order, [0.0, 0.0, 0.0])


def test_mix_single_block_identity():
    g = np.array([[1.0, 0.2], [0.2, 1.0]])
    np.testing.assert_allclose(
        mix_similarities([g], MixCoefficients([1.0])), g, atol=1e-12
    )


def test_mix_adds_first_order_terms():
    g = np.array([[1.0, 0.2], [0.2, 1.0]])
    out = mix_similarities([g, g], MixCoefficients([0.5, 1.5], [0.0]))
    np.testing.assert_allclose(out, 2.0 * g, atol=1e-12)


def test_mix_symmetrizes_second_order_products():
    g1 = np.array([[1.0, 0.0], [0.0, 2.0]])
    g2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = mix_similarities([g1, g2], MixCoefficients([0.0, 0.0], [1.0]))
    np.testing.assert_allclose(out, [[0.0, 1.5], [1.5, 0.0]], atol=1e-12)


def test_mix_rejects_mismatched_block_count():
    with pytest.raises(ValueError, match="first-order"):
        mix_similarities([np.eye(2)], MixCoefficients([1.0, 1.0], [0.0]))


def test_mix_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape"):
        mix_similarities([np.eye(2), np.eye(3)], MixCoefficients([1.0, 1.0], [0.0]))


# ----------------------------------------------------- coefficient fitting

def test_fit_mix_prefers_predictive_attribute():
    dataset, meta = planted_dataset(n_users=400, n_items=120, n_topics=8, seed=13)
    split = make_cold_split(dataset, seed=13)
    sims = [smoothed_cosine(multihot_encode(meta["topic_labels"], name="topic"), delta=0.5),
            smoothed_cosine(multihot_encode(meta["noise_labels"], name="noise"), delta=0.5)]
    grid = [
        MixCoefficients([1.0, 0.0], [0.0]),
        MixCoefficients([0.0, 1.0], [0.0]),
        MixCoefficients([1.0, 1.0], [0.0]),
        MixCoefficients([1.0, 1.0], [1.0]),
    ]
    picked = fit_mix_coefficients(sims, split.train.X, split, grid)
    np.testing.assert_array_equal(picked.first_order, [1.0, 0.0])
    np.testing.assert_array_equal(picked.second_order, [0.0])


def test_fit_mix_breaks_metric_ties_toward_fewer_nonzeros():
    dataset, _ = planted_dataset(n_users=120, n_items=40, n_topics=4, seed=11)
    split = make_cold_split(dataset, seed=11)
    g = smoothed_cosine(multihot_encode([[f"t{j % 4}"] for j in range(40)]), delta=0.5)
    # identical mixed matrices, so the metric ties exactly
    grid = [MixCoefficients([1.0, 1.0], [0.0]), MixCoefficients([2.0, 0.0], [0.0])]
    picked = fit_mix_coefficients([g, g], split.train.X, split, grid)
    np.testing.assert_array_equal(picked.first_order, [2.0, 0.0])


def test_fit_mix_keeps_earlier_point_on_full_tie():
    dataset, _ = planted_dataset(n_users=120, n_items=40, n_topics=4, seed=11)
    split = make_cold_split(dataset, seed=11)
    g = smoothed_cosine(multihot_encode([[f"t{j % 4}"] for j in range(40)]), delta=0.5)
    # scaling scores never reorders them, so both points tie at equal nnz
    grid = [MixCoefficients([2.0]), MixCoefficients([4.0])]
    picked = fit_mix_coefficients([g], split.train.X, split, grid)
    assert picked.first_order[0] == 2.0


def test_fit_mix_rejects_empty_grid():
    dataset, _ = planted_dataset(n_users=120, n_items=40, n_topics=4, seed=11)
    split = make_cold_split(dataset, seed=11)
    with pytest.raises(ValueError, match="empty"):
        fit_mix_coefficients([np.eye(40)], split.train.X, split, [])


# ------------------------------------------------------------- popularity

def test_popularity_step_linear_values():
    X = _counts_matrix([0, 20, 40])
    cfg = AlignmentConfig(beta=40.0, percentile=100.0, decay="step_linear")
    np.testing.assert_allclose(popularity_regularizer(X, cfg), [40.0, 20.0, 0.0])


def test_popularity_exponential_halves_per_period():
    X = _counts_matrix([0, 40, 80])
    # the 50th percentile of {0, 40, 80} pins the half-life p at 40
    cfg = AlignmentConfig(beta=40.0, percentile=50.0, decay="exponential")
    d = popularity_regularizer(X, cfg)
    np.testing.assert_allclose(d, [40.0, 40.0 * 0.5, 40.0 * 0.25])


def test_popularity_is_monotone_nonincreasing_in_count():
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 50, size=30).tolist()
    X = _counts_matrix(counts)
    for decay in ("step_linear", "exponential"):
        d = popularity_regularizer(X, AlignmentConfig(beta=7.0, percentile=80.0, decay=decay))
        order = np.argsort(counts, kind="stable")
        assert np.all(np.diff(d[order]) <= 1e-12)


def test_popularity_zero_percentile_falls_back_to_unclicked_boost():
    X = _counts_matrix([0, 0, 0, 9])
    cfg = AlignmentConfig(beta=3.0, percentile=10.0)
    d = popularity_regularizer(X, cfg)
    np.testing.assert_allclose(d, [3.0, 3.0, 3.0, 0.0])


def test_alignment_config_validates_fields():
    for bad in (
        {"delta": -1.0},
        {"alpha": -0.5},
        {"beta": -2.0},
        {"percentile": 0.0},
        {"percentile": 101.0},
        {"decay": "cliff"},
    ):
        with pytest.raises(ValueError):
            AlignmentConfig(**bad)


# ------------------------------------------------------- alignment matrix

def test_align_matches_hand_computed_product():
    X = sp.csr_matrix(np.array([[1.0, 0.0]]))
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    cfg = AlignmentConfig(alpha=2.0)
    B = align(X, G, cfg, d=np.array([1.0, 2.0]))
    np.testing.assert_allclose(B.materialize(), [[2.0, 2.0]], atol=1e-12)
    np.testing.assert_allclose(B.xtb(gram(X)), [[2.0, 2.0], [0.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(B.item_map(), [[2.0, 2.0], [1.0, 4.0]], atol=1e-12)
    assert B.shape == (1, 2)


def test_align_zero_alpha_gives_exact_zeros():
    X = sp.csr_matrix(np.eye(3))
    B = align(X, np.eye(3), AlignmentConfig(alpha=0.0), d=np.ones(3))
    assert (B.materialize() == 0).all()
    assert (B.xtb(gram(X)) == 0).all()


@given(seed=st.integers(0, 2**32 - 1), n_items=st.integers(2, 9),
       n_cold=st.integers(0, 8), alpha=st.sampled_from([0.0, 0.7]),
       support=st.sampled_from(["partial", "full", "none"]))
@settings(max_examples=60, deadline=None)
def test_xtb_from_the_gram_matches_the_materialized_product(seed, n_items, n_cold,
                                                            alpha, support):
    # X^T B from the Gram against X^T B from B itself, with cold (empty) columns
    rng = np.random.default_rng(seed)
    x = (rng.random((12, n_items)) < 0.4).astype(np.float64)
    x[:, rng.permutation(n_items)[:min(n_cold, n_items - 1)]] = 0.0
    X = sp.csr_matrix(x)
    Z = rng.standard_normal((n_items, 3))
    d = {"partial": np.where(rng.random(n_items) < 0.5, 0.0, rng.uniform(0.1, 3.0, n_items)),
         "full": rng.uniform(0.1, 3.0, n_items),
         "none": np.zeros(n_items)}[support]
    B = align(X, Z @ Z.T, AlignmentConfig(alpha=alpha), d=d)
    direct = X.T @ B.materialize()
    tol = 1e-12 * max(1.0, np.abs(direct).max())
    np.testing.assert_allclose(B.xtb(gram(X)), direct, rtol=0, atol=tol)
    # a block from the Gram of the clicked columns alone
    rows = np.flatnonzero(x.any(axis=0))
    cols = rng.permutation(n_items)[:int(rng.integers(1, n_items + 1))]
    if len(rows):
        np.testing.assert_allclose(B.xtb(gram(X[:, rows]), rows=rows, cols=cols),
                                   direct[np.ix_(rows, cols)], rtol=0, atol=tol)


def test_align_defaults_decay_to_popularity():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    cfg = AlignmentConfig(alpha=1.0, beta=5.0, percentile=100.0)
    B = align(X, np.eye(2), cfg)
    expected = align(X, np.eye(2), cfg, d=popularity_regularizer(X, cfg))
    np.testing.assert_allclose(B.materialize(), expected.materialize(), atol=0)


def test_align_validates_shapes():
    X = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="items"):
        align(X, np.eye(2), AlignmentConfig())
    with pytest.raises(ValueError, match="decay vector"):
        align(X, np.eye(3), AlignmentConfig(), d=np.ones(2))
