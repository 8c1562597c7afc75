"""Item metadata encoders: tf-idf text, multi-hot categoricals, embeddings.

Every encoder returns a FeatureBlock whose rows align with the dataset's
item index; items without metadata get all-zero rows rather than being
dropped, so block shapes always agree.
"""

from __future__ import annotations

import csv
import logging
import os
import re
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import open_utf8, read_exact, read_item_id, read_json, write_json
from .errors import FormatError

log = logging.getLogger(__name__)

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

# binary embedding container magic
_EMB_MAGIC = b"AEMBED01"

_KINDS = ("text", "categorical", "embedding_file")


@dataclass
class AttributeSpec:
    """One metadata attribute and how to encode it.

    ``path`` points at the attribute's source file: an `item,value` CSV for
    text/categorical kinds, or an embedding file for embedding_file.
    """

    name: str
    kind: str
    path: str
    vocab_size: int = 1000

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"attribute kind must be one of {_KINDS}, got {self.kind!r}")


@dataclass
class FeatureBlock:
    attribute: str
    matrix: object  # csr matrix or float64 ndarray, shape (n_items, n_k)
    missing: int = 0

    @property
    def n_k(self):
        return self.matrix.shape[1]

    @property
    def n_items(self):
        return self.matrix.shape[0]

    def dense(self):
        m = self.matrix
        return m.toarray() if sp.issparse(m) else np.asarray(m, dtype=np.float64)


@dataclass
class FeatureSet:
    blocks: list = field(default_factory=list)

    def __post_init__(self):
        names = [b.attribute for b in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in feature set: {names}")
        dims = {b.n_items for b in self.blocks}
        if len(dims) > 1:
            raise ValueError(f"feature blocks disagree on item count: {sorted(dims)}")

    @property
    def K(self):
        return sum(b.n_k for b in self.blocks)

    @property
    def n_items(self):
        return self.blocks[0].n_items if self.blocks else 0

    def concat(self):
        """All blocks side by side as one sparse |I| x K matrix."""
        if not self.blocks:
            raise ValueError("empty feature set has no concatenation")
        return sp.hstack([sp.csr_matrix(b.matrix) for b in self.blocks], format="csr")


def tokenize(text):
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def tfidf_encode(texts, vocab_size=1000, name="text"):
    """tf-idf encode one string per item.

    The vocabulary keeps the ``vocab_size`` tokens with the highest document
    frequency (ties broken lexicographically); idf = ln((1+|I|)/(1+df)) + 1;
    rows are L2-normalized. Empty texts produce zero rows.
    """
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    docs = [tokenize(t) for t in texts]
    df = {}
    for toks in docs:
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    vocab = sorted(df, key=lambda t: (-df[t], t))[:vocab_size]
    col = {t: j for j, t in enumerate(vocab)}
    n = len(docs)
    idf = np.array([np.log((1 + n) / (1 + df[t])) + 1.0 for t in vocab])

    rows, cols, vals = [], [], []
    for i, toks in enumerate(docs):
        counts = {}
        for t in toks:
            j = col.get(t)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        if not counts:
            continue
        js = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        tf = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        w = tf * idf[js]
        w /= np.linalg.norm(w)
        rows.extend([i] * len(js))
        cols.extend(js.tolist())
        vals.extend(w.tolist())
    m = sp.csr_matrix((vals, (rows, cols)), shape=(n, max(len(vocab), 1)))
    return FeatureBlock(attribute=name, matrix=m)


def multihot_encode(categories, name="categories"):
    """Multi-hot encode per-item label collections.

    Columns are distinct labels in first-appearance order; unordered label
    collections (sets) are visited sorted so the order is reproducible.
    """
    col = {}
    per_item = []
    for labels in categories:
        if isinstance(labels, (set, frozenset)):
            labels = sorted(labels)
        seen = []
        for lab in labels:
            if lab not in col:
                col[lab] = len(col)
            seen.append(col[lab])
        per_item.append(sorted(set(seen)))
    rows = [i for i, js in enumerate(per_item) for _ in js]
    cols = [j for js in per_item for j in js]
    m = sp.csr_matrix(
        (np.ones(len(cols)), (rows, cols)),
        shape=(len(per_item), max(len(col), 1)),
    )
    return FeatureBlock(attribute=name, matrix=m)


def _load_embeddings_text(path):
    vecs = {}
    with open_utf8(path, newline=None) as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split("\t")
        if len(parts) != 2 or parts[0] != "item_id":
            raise FormatError(f"{path}: expected header 'item_id<TAB><dim>', got {header!r}")
        try:
            dim = int(parts[1])
        except ValueError:
            raise FormatError(f"{path}: embedding dim {parts[1]!r} is not an integer") from None
        if dim < 1:
            raise FormatError(f"{path}: embedding dim must be >= 1, got {dim}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                item_id, payload = line.split("\t")
            except ValueError:
                raise FormatError(f"{path}:{lineno}: expected 'id<TAB>v1,v2,...'") from None
            try:
                v = np.array([float(x) for x in payload.split(",")])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad embedding value in {payload!r}") from None
            if v.shape != (dim,):
                raise FormatError(
                    f"{path}:{lineno}: vector has width {v.shape[0]}, header says {dim}"
                )
            if not np.isfinite(v).all():
                raise FormatError(f"{path}:{lineno}: non-finite embedding value in {payload!r}")
            if item_id in vecs:
                raise FormatError(f"{path}:{lineno}: repeated id {item_id!r}")
            vecs[item_id] = v
    return vecs, dim


def _load_embeddings_binary(path):
    """Read a file written by write_embeddings_binary.

    A bad magic, a zero dim, a file that ends early, an id that is not
    UTF-8 or repeated, a NaN or infinite value, or bytes past the last row
    raise FormatError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_EMB_MAGIC))
        if magic != _EMB_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        n_rows, dim = struct.unpack("<QQ", read_exact(fh, 16, path))
        if dim < 1:
            raise FormatError(f"{path}: embedding dim must be >= 1, got {dim}")
        vecs = {}
        for _ in range(n_rows):
            item_id = read_item_id(fh, path)
            if item_id in vecs:
                raise FormatError(f"{path}: repeated id {item_id!r}")
            raw = read_exact(fh, 8 * dim, path)
            vecs[item_id] = np.frombuffer(raw, dtype="<f8").astype(np.float64)
            if not np.isfinite(vecs[item_id]).all():
                raise FormatError(f"{path}: non-finite embedding value for id {item_id!r}")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last embedding row")
    return vecs, dim


def load_embedding_block(path, item_index, name=None):
    """Load per-item dense vectors, aligned to ``item_index`` (id -> row).

    Items missing from the file get zero rows; the number of misses is
    logged and recorded on the block. Raises FormatError if no id matches
    at all.
    """
    with open(path, "rb") as fh:
        is_binary = fh.read(len(_EMB_MAGIC)) == _EMB_MAGIC
    vecs, dim = (_load_embeddings_binary if is_binary else _load_embeddings_text)(path)

    m = np.zeros((len(item_index), dim))
    matched = 0
    for item_id, row in item_index.items():
        v = vecs.get(item_id)
        if v is not None:
            m[row] = v
            matched += 1
    if matched == 0:
        raise FormatError(f"{path}: no embedding id matches the dataset items")
    missing = len(item_index) - matched
    if missing:
        log.warning("%s: %d of %d items have no embedding (zero rows)",
                    path, missing, len(item_index))
    return FeatureBlock(
        attribute=name or os.path.splitext(os.path.basename(path))[0],
        matrix=m,
        missing=missing,
    )


def write_embeddings_text(path, ids, matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"item_id\t{matrix.shape[1]}\n")
        for item_id, row in zip(ids, matrix):
            fh.write(item_id + "\t" + ",".join(repr(float(x)) for x in row) + "\n")


def write_embeddings_binary(path, ids, matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<QQ", matrix.shape[0], matrix.shape[1]))
        for item_id, row in zip(ids, matrix):
            raw = item_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(row.astype("<f8").tobytes())


def save_block(block, prefix):
    """Persist one feature block as plain .npy arrays plus a JSON meta file.

    .npy payloads carry no timestamps, so identical blocks serialize to
    identical bytes.
    """
    m = block.matrix
    meta = {
        "attribute": block.attribute,
        "missing": block.missing,
        "shape": [int(m.shape[0]), int(m.shape[1])],
        "kind": "sparse" if sp.issparse(m) else "dense",
    }
    if sp.issparse(m):
        m = m.tocsr()
        np.save(prefix + ".data.npy", m.data)
        np.save(prefix + ".indices.npy", m.indices)
        np.save(prefix + ".indptr.npy", m.indptr)
    else:
        np.save(prefix + ".values.npy", np.asarray(m, dtype=np.float64))
    write_json(prefix + ".json", meta)


def load_block(prefix):
    meta = read_json(prefix + ".json")
    shape = tuple(meta["shape"])
    if meta["kind"] == "sparse":
        m = sp.csr_matrix(
            (np.load(prefix + ".data.npy"), np.load(prefix + ".indices.npy"),
             np.load(prefix + ".indptr.npy")),
            shape=shape,
        )
    else:
        m = np.load(prefix + ".values.npy")
    return FeatureBlock(attribute=meta["attribute"], matrix=m, missing=meta["missing"])


def load_metadata_column(path, item_index):
    """Read an `item,value` CSV into per-item value lists.

    Repeated rows accumulate (multi-valued categoricals); unknown item ids
    are ignored with a logged count; missing items get empty lists.
    """
    values = [[] for _ in range(len(item_index))]
    unknown = 0
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["item", "value"]:
            raise FormatError(f"{path}: header must be item,value, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise FormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            r = item_index.get(row[0])
            if r is None:
                unknown += 1
                continue
            values[r].append(row[1])
    if unknown:
        log.warning("%s: %d rows referenced unknown items", path, unknown)
    return values


def build_feature_set(specs, item_index, base_dir="."):
    """Encode every attribute spec against one item index."""
    blocks = []
    for spec in specs:
        path = os.path.join(base_dir, spec.path)
        if spec.kind == "embedding_file":
            blocks.append(load_embedding_block(path, item_index, name=spec.name))
            continue
        values = load_metadata_column(path, item_index)
        if spec.kind == "text":
            texts = [" ".join(v) for v in values]
            blocks.append(tfidf_encode(texts, vocab_size=spec.vocab_size, name=spec.name))
        else:
            blocks.append(multihot_encode(values, name=spec.name))
    return FeatureSet(blocks=blocks)
