"""Similarity smoothing, coefficient mixing, and the alignment matrix."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp

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
    picked = fit_mix_coefficients(sims, split.train.X, split, grid, k=10)
    np.testing.assert_array_equal(picked.first_order, [1.0, 0.0])
    np.testing.assert_array_equal(picked.second_order, [0.0])


def test_fit_mix_breaks_metric_ties_toward_fewer_nonzeros():
    dataset, _ = planted_dataset(n_users=120, n_items=40, n_topics=4, seed=11)
    split = make_cold_split(dataset, seed=11)
    g = smoothed_cosine(multihot_encode([[f"t{j % 4}"] for j in range(40)]), delta=0.5)
    # identical mixed matrices, so the metric ties exactly
    grid = [MixCoefficients([1.0, 1.0], [0.0]), MixCoefficients([2.0, 0.0], [0.0])]
    picked = fit_mix_coefficients([g, g], split.train.X, split, grid, k=10)
    np.testing.assert_array_equal(picked.first_order, [2.0, 0.0])


def test_fit_mix_keeps_earlier_point_on_full_tie():
    dataset, _ = planted_dataset(n_users=120, n_items=40, n_topics=4, seed=11)
    split = make_cold_split(dataset, seed=11)
    g = smoothed_cosine(multihot_encode([[f"t{j % 4}"] for j in range(40)]), delta=0.5)
    # scaling scores never reorders them, so both points tie at equal nnz
    grid = [MixCoefficients([2.0]), MixCoefficients([4.0])]
    picked = fit_mix_coefficients([g], split.train.X, split, grid, k=10)
    assert picked.first_order[0] == 2.0


def test_fit_mix_rejects_empty_grid():
    dataset, _ = planted_dataset(n_users=120, n_items=40, n_topics=4, seed=11)
    split = make_cold_split(dataset, seed=11)
    with pytest.raises(ValueError, match="empty"):
        fit_mix_coefficients([np.eye(40)], split.train.X, split, [], k=10)


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


def test_popularity_zero_percentile_falls_back_to_unclicked_boost(caplog):
    X = _counts_matrix([0, 0, 0, 9])
    cfg = AlignmentConfig(beta=3.0, percentile=10.0)
    with caplog.at_level(logging.WARNING):
        d = popularity_regularizer(X, cfg)
    np.testing.assert_allclose(d, [3.0, 3.0, 3.0, 0.0])
    assert "unclicked" in caplog.text


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
    np.testing.assert_allclose(B.xtb(), [[2.0, 2.0], [0.0, 0.0]], atol=1e-12)
    assert B.shape == (1, 2)


def test_align_zero_alpha_short_circuits():
    X = sp.csr_matrix(np.eye(3))
    B = align(X, np.eye(3), AlignmentConfig(alpha=0.0), d=np.ones(3))
    assert B.materialize().sum() == 0
    assert B.xtb().sum() == 0


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
