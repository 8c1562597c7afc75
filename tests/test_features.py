"""Metadata encoders, embedding files, and feature-block persistence."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp

from alignrec import (
    AttributeSpec,
    FeatureBlock,
    FeatureSet,
    FormatError,
    build_feature_set,
    load_embedding_block,
    multihot_encode,
    tfidf_encode,
)
from alignrec.features import (
    load_block,
    load_metadata_column,
    save_block,
    tokenize,
    write_embeddings_binary,
    write_embeddings_text,
)


# ---------------------------------------------------------------- tf-idf

def test_tokenize_lowercases_and_splits_on_non_alphanumerics():
    assert tokenize("Sci-Fi, Action 2!") == ["sci", "fi", "action", "2"]


def test_tfidf_two_document_values_are_exact():
    block = tfidf_encode(["a b", "a"])
    dense = block.dense()
    # df: a=2, b=1 -> columns [a, b]; idf_a = 1, idf_b = ln(3/2) + 1
    np.testing.assert_allclose(
        dense,
        [[0.5797386715376657, 0.8148024746671689], [1.0, 0.0]],
        atol=1e-12,
    )


def test_tfidf_rows_are_unit_or_zero():
    rng = np.random.default_rng(0)
    words = [f"w{j}" for j in range(30)]
    texts = [" ".join(rng.choice(words, size=rng.integers(0, 12))) for _ in range(50)]
    norms = np.linalg.norm(tfidf_encode(texts).dense(), axis=1)
    assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))


def test_tfidf_vocab_keeps_highest_document_frequency():
    block = tfidf_encode(["common rare", "common", "common other"], vocab_size=1)
    assert block.n_k == 1
    assert np.count_nonzero(block.dense()) == 3  # only 'common' survives


def test_tfidf_breaks_df_ties_lexicographically():
    block = tfidf_encode(["zeta alpha", "zeta alpha"], vocab_size=1)
    # both tokens have df=2; 'alpha' sorts first
    np.testing.assert_allclose(block.dense(), [[1.0], [1.0]])


def test_tfidf_empty_text_gives_zero_row():
    dense = tfidf_encode(["a", ""]).dense()
    assert dense[1].sum() == 0


def test_tfidf_rejects_bad_vocab_size():
    with pytest.raises(ValueError, match="vocab_size"):
        tfidf_encode(["a"], vocab_size=0)


# -------------------------------------------------------------- multi-hot

def test_multihot_columns_follow_first_appearance():
    block = multihot_encode([["x", "y"], ["y"], []], name="labels")
    np.testing.assert_allclose(block.dense(), [[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])


def test_multihot_counts_repeated_labels_once():
    block = multihot_encode([["x", "x"]])
    np.testing.assert_allclose(block.dense(), [[1.0]])


def test_multihot_visits_sets_in_sorted_order():
    block = multihot_encode([{"b", "a"}, {"a"}])
    np.testing.assert_allclose(block.dense(), [[1.0, 1.0], [1.0, 0.0]])


# ------------------------------------------------------------ feature set

def test_feature_set_concat_and_width():
    fs = FeatureSet(blocks=[multihot_encode([["x"], ["y"]], name="a"),
                            tfidf_encode(["p q", "q"], name="b")])
    assert fs.K == 2 + 2
    assert fs.concat().shape == (2, 4)


def test_feature_set_rejects_duplicate_names():
    b = multihot_encode([["x"]], name="a")
    with pytest.raises(ValueError, match="duplicate"):
        FeatureSet(blocks=[b, b])


def test_feature_set_rejects_mismatched_item_counts():
    with pytest.raises(ValueError, match="item count"):
        FeatureSet(blocks=[multihot_encode([["x"]], name="a"),
                           multihot_encode([["x"], ["y"]], name="b")])


def test_attribute_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        AttributeSpec(name="a", kind="onehot", path="x")


# -------------------------------------------------------------- embeddings

@pytest.fixture
def emb():
    rng = np.random.default_rng(3)
    ids = [f"i{j}" for j in range(5)]
    return ids, rng.standard_normal((5, 4))


def test_embedding_text_round_trip(tmp_path, emb):
    ids, m = emb
    path = str(tmp_path / "e.tsv")
    write_embeddings_text(path, ids, m)
    block = load_embedding_block(path, {i: r for r, i in enumerate(ids)})
    np.testing.assert_allclose(block.dense(), m, atol=0)
    assert block.missing == 0


def test_embedding_binary_round_trip(tmp_path, emb):
    ids, m = emb
    path = str(tmp_path / "e.bin")
    write_embeddings_binary(path, ids, m)
    block = load_embedding_block(path, {i: r for r, i in enumerate(ids)}, name="emb")
    np.testing.assert_allclose(block.dense(), m, atol=0)
    assert block.attribute == "emb"


def test_embedding_missing_items_get_zero_rows(tmp_path, emb, caplog):
    ids, m = emb
    path = str(tmp_path / "e.tsv")
    write_embeddings_text(path, ids[:3], m[:3])
    with caplog.at_level(logging.WARNING):
        block = load_embedding_block(path, {i: r for r, i in enumerate(ids)})
    assert block.missing == 2
    assert "2 of 5" in caplog.text
    np.testing.assert_allclose(block.dense()[3:], 0)


def test_embedding_rejects_total_mismatch(tmp_path, emb):
    ids, m = emb
    path = str(tmp_path / "e.tsv")
    write_embeddings_text(path, ids, m)
    with pytest.raises(ValueError, match="no embedding id matches"):
        load_embedding_block(path, {"other": 0})


def test_embedding_rejects_bad_header(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("id\t4\ni0\t1,2,3,4\n", encoding="utf-8")
    with pytest.raises(FormatError, match="item_id"):
        load_embedding_block(str(p), {"i0": 0})


def test_embedding_rejects_width_mismatch(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("item_id\t3\ni0\t1.0,2.0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="width 2"):
        load_embedding_block(str(p), {"i0": 0})


def test_embedding_rejects_truncated_binary(tmp_path, emb):
    ids, m = emb
    path = tmp_path / "e.bin"
    write_embeddings_binary(str(path), ids, m)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(FormatError, match="truncated"):
        load_embedding_block(str(path), {i: r for r, i in enumerate(ids)})


def test_embedding_rejects_zero_width_binary(tmp_path):
    # a dim-0 file would load as an (n, 0) block, whose similarities are all 0
    path = str(tmp_path / "e.bin")
    write_embeddings_binary(path, ["i0", "i1", "i2"], np.zeros((3, 0)))
    with pytest.raises(FormatError, match=r"e\.bin.*dim must be >= 1, got 0"):
        load_embedding_block(path, {"i0": 0, "i1": 1, "i2": 2})


# ------------------------------------------------------------- persistence

def test_block_round_trip_sparse(tmp_path):
    block = tfidf_encode(["a b c", "b", ""], name="text")
    prefix = str(tmp_path / "text")
    save_block(block, prefix)
    back = load_block(prefix)
    assert back.attribute == "text"
    assert sp.issparse(back.matrix)
    np.testing.assert_allclose(back.dense(), block.dense(), atol=0)


def test_block_round_trip_dense(tmp_path):
    block = FeatureBlock(attribute="emb", matrix=np.arange(6.0).reshape(3, 2), missing=1)
    prefix = str(tmp_path / "emb")
    save_block(block, prefix)
    back = load_block(prefix)
    assert back.missing == 1
    np.testing.assert_allclose(back.dense(), block.dense(), atol=0)


def test_block_save_is_byte_deterministic(tmp_path):
    block = tfidf_encode(["a b", "b"], name="t")
    save_block(block, str(tmp_path / "one"))
    save_block(block, str(tmp_path / "two"))
    for suffix in (".json", ".data.npy", ".indices.npy", ".indptr.npy"):
        assert (tmp_path / ("one" + suffix)).read_bytes() == \
            (tmp_path / ("two" + suffix)).read_bytes()


# --------------------------------------------------------- metadata column

def test_metadata_column_accumulates_values(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("item,value\ni0,x\ni0,y\ni2,z\n", encoding="utf-8")
    values = load_metadata_column(str(p), {"i0": 0, "i1": 1, "i2": 2})
    assert values == [["x", "y"], [], ["z"]]


def test_metadata_column_logs_unknown_items(tmp_path, caplog):
    p = tmp_path / "m.csv"
    p.write_text("item,value\nmystery,x\ni0,y\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        values = load_metadata_column(str(p), {"i0": 0})
    assert values == [["y"]]
    assert "1 rows referenced unknown items" in caplog.text


def test_metadata_column_rejects_bad_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("item,label\ni0,x\n", encoding="utf-8")
    with pytest.raises(FormatError, match="item,value"):
        load_metadata_column(str(p), {"i0": 0})


def test_build_feature_set_covers_all_kinds(tmp_path):
    (tmp_path / "text.csv").write_text(
        "item,value\ni0,space opera\ni1,space western\n", encoding="utf-8")
    (tmp_path / "genre.csv").write_text(
        "item,value\ni0,sf\ni1,sf\ni1,western\n", encoding="utf-8")
    write_embeddings_text(str(tmp_path / "emb.tsv"), ["i0", "i1"], np.eye(2))
    specs = [
        AttributeSpec(name="text", kind="text", path="text.csv", vocab_size=10),
        AttributeSpec(name="genre", kind="categorical", path="genre.csv"),
        AttributeSpec(name="emb", kind="embedding_file", path="emb.tsv"),
    ]
    fs = build_feature_set(specs, {"i0": 0, "i1": 1}, base_dir=str(tmp_path))
    assert [b.attribute for b in fs.blocks] == ["text", "genre", "emb"]
    assert fs.K == 3 + 2 + 2
    np.testing.assert_allclose(fs.blocks[2].dense(), np.eye(2), atol=0)
