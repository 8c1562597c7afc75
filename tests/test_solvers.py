"""Closed-form solvers, baselines, and model persistence."""

import numpy as np
import pytest
import scipy.sparse as sp

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
from alignrec.solvers import popularity_scores, random_scores


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
    unmasked = predict(model, X, mask_train=False)
    assert unmasked[0, 0] == 0.0


def test_predict_restricts_to_candidates():
    model = ItemModel(theta=np.eye(3), solver="ease")
    X = sp.csr_matrix(np.array([[1.0, 1.0, 0.0]]))
    scores = predict(model, X, mask_train=False, candidates=[0, 2])
    assert scores[0, 1] == -np.inf
    assert scores[0, 0] == 1.0 and scores[0, 2] == 0.0


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


def test_model_top_k_keeps_largest_magnitudes(tmp_path):
    theta = np.array([
        [0.0, 3.0, -1.0],
        [2.0, 0.0, -5.0],
        [-4.0, 0.5, 0.0],
    ])
    model = ItemModel(theta=theta, solver="mslim")
    path = str(tmp_path / "model.bin")
    save_model(model, path, top_k=2)
    back = load_model(path)
    expected = np.zeros((3, 3))
    for j in range(3):
        keep = np.argsort(-np.abs(theta[:, j]), kind="stable")[:2]
        expected[keep, j] = theta[keep, j]
    np.testing.assert_array_equal(back.theta, expected)
    assert back.solver == "mslim"


def test_model_save_is_byte_deterministic(tmp_path, fitted):
    save_model(fitted, str(tmp_path / "a.bin"))
    save_model(fitted, str(tmp_path / "b.bin"))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.bin.json").read_bytes() == (tmp_path / "b.bin.json").read_bytes()


def test_model_sidecar_records_storage(tmp_path, fitted):
    import json

    path = str(tmp_path / "model.bin")
    save_model(fitted, path, top_k=3)
    sidecar = json.loads((tmp_path / "model.bin.json").read_text(encoding="utf-8"))
    assert sidecar["storage"] == "topk"
    assert sidecar["top_k"] == 3
    assert sidecar["n_items"] == 5
    assert "wall_time_s" in sidecar["diagnostics"]


def test_load_model_rejects_foreign_files(tmp_path):
    (tmp_path / "model.bin").write_bytes(b"NOTAMODEL")
    (tmp_path / "model.bin.json").write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match="magic"):
        load_model(str(tmp_path / "model.bin"))
