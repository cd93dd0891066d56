"""Idea vectors: deterministic hashed TF-IDF embedding and external-vector import.

The built-in vectorizer stands in for a trained document-embedding model: it
fits a vocabulary with smoothed IDF weights, feature-hashes tokens into a
fixed number of buckets with a signed, seeded 64-bit hash, and L2-normalizes
the result. Identical inputs give bitwise-identical vectors on any platform.
Externally computed vectors can be loaded from JSONL instead.
"""

from __future__ import annotations

import math
from collections import Counter
from hashlib import blake2b
from pathlib import Path
from typing import NamedTuple, Sequence

from ._np import np
from .corpus import _json_string, json_line, utf8_lines
from .errors import DataFormatError

DEFAULT_HASH_SEED = 9172023

# vectors: post ids and a 2-D float64 matrix with one row per id
Vectors = tuple[Sequence[str], "np.ndarray"]


def _hash64(token: str, seed: int, person: bytes) -> int:
    digest = blake2b(token.encode("utf-8"), digest_size=8,
                     key=seed.to_bytes(8, "big"), person=person)
    return int.from_bytes(digest.digest(), "big")


class VectorizerModel(NamedTuple):
    """Fitted vocabulary with IDF weights and hashing parameters.

    ``terms`` maps each vocabulary term to its hash bucket and its signed
    weight ``idf * sign``, hashed once by ``fit_vectorizer``.
    """

    dim: int
    min_count: int
    hash_seed: int
    idf: dict[str, float]
    terms: dict[str, tuple[int, float]]

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self.idf)


def fit_vectorizer(corpus_tokens: Sequence[Sequence[str]], dim: int,
                   min_count: int, hash_seed: int = DEFAULT_HASH_SEED) -> VectorizerModel:
    """Fit vocabulary and IDF weights over tokenized documents.

    A token is retained when its total occurrence count across the corpus is
    at least ``min_count``. idf(w) = ln((1+N)/(1+df(w))) + 1 with N the number
    of documents and df(w) the number of documents containing w.
    """
    if dim < 1:
        raise DataFormatError(f"dim must be >= 1, got {dim}")
    if min_count < 1:
        raise DataFormatError(f"min_count must be >= 1, got {min_count}")
    if not 0 <= hash_seed < 2**64:  # the BLAKE2 key is its 8 bytes
        raise DataFormatError(f"hash_seed must be in [0, 2**64), got {hash_seed}")
    totals: Counter[str] = Counter()
    df: Counter[str] = Counter()
    n_docs = 0
    for tokens in corpus_tokens:
        n_docs += 1
        totals.update(tokens)
        df.update(set(tokens))
    idf = {
        w: math.log((1 + n_docs) / (1 + df[w])) + 1.0
        for w, count in totals.items()
        if count >= min_count
    }
    # each term's bucket and signed weight idf * (+-1), hashed once
    terms = {token: (_hash64(token, hash_seed, b"bucket") % dim,
                     weight if _hash64(token, hash_seed, b"sign") & 1 else -weight)
             for token, weight in idf.items()}
    return VectorizerModel(dim, min_count, hash_seed, idf, terms)


def embed(model: VectorizerModel, tokens: Sequence[str]) -> np.ndarray:
    """Embed one token list as an L2-normalized vector (zero stays zero).

    Each in-vocabulary token contributes tf * idf * sign to its hash bucket;
    tokens are accumulated in sorted order so the float sum is reproducible.
    """
    acc = [0.0] * model.dim
    terms = model.terms
    tf = Counter(tokens)
    for token in sorted(tf):
        term = terms.get(token)
        if term is not None:
            bucket, weight = term
            # weight is idf * (+-1), so this is bitwise tf * idf * sign
            acc[bucket] += tf[token] * weight
    vec = np.array(acc)
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def embed_all(model: VectorizerModel, docs: Sequence[tuple[str, Sequence[str]]]) -> Vectors:
    """Embed (id, tokens) pairs as vectors: the ids and one row per id."""
    matrix = np.empty((len(docs), model.dim))
    for row, (_, tokens) in enumerate(docs):
        matrix[row] = embed(model, tokens)
    return [doc_id for doc_id, _ in docs], matrix


def load_external_vectors(path: str | Path) -> Vectors:
    """Load a vectors.jsonl file of {"id": ..., "vec": [...]} lines as vectors:
    the ids and a float64 matrix with one row per id, in ascending id order
    whatever the order of the lines.

    Each vec must be a non-empty list of JSON numbers (not strings or
    booleans), and all lines must share one dimension; a line that is not
    UTF-8, duplicate ids and non-finite values are fatal, each naming its line.
    The file is read twice: its line count sizes the one matrix, which the
    vectors then fill row by row.
    """
    with open(path, "rb") as fh:
        n_lines = sum(1 for _ in fh)
    ids: list[str] = []
    seen: set[str] = set()
    matrix = np.empty((0, 0))
    for lineno, line in utf8_lines(path):
        if not line.strip():
            continue
        try:
            obj = json_line(line)
            post_id = obj["id"]
            raw = obj["vec"]
            if not isinstance(post_id, str) or not isinstance(raw, list):
                raise ValueError("id must be a string and vec a list")
            # type() rather than isinstance(): bool is a subclass of int
            if not raw or not set(map(type, raw)) <= {int, float}:
                raise ValueError("vec must be a non-empty list of numbers")
            if ids and len(raw) != matrix.shape[1]:
                raise ValueError(f"dimension {len(raw)} != {matrix.shape[1]} seen earlier")
            if not ids:  # one row per line of the file, enough for every vector
                matrix = np.empty((n_lines, len(raw)))
            matrix[len(ids)] = raw
            if not np.isfinite(matrix[len(ids)]).all():
                raise ValueError(f"non-finite component for {post_id!r}")
            if post_id in seen:
                raise ValueError(f"duplicate id {post_id!r}")
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise DataFormatError(f"{path}:{lineno}: bad vector line ({exc})") from exc
        seen.add(post_id)
        ids.append(post_id)
    matrix = matrix[:len(ids)]
    if all(map(str.__lt__, ids, ids[1:])):  # already in id order, as every writer leaves it
        return ids, matrix
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[i] for i in order], matrix[order]


def write_vectors(path: str | Path, vectors: Vectors) -> None:
    """Write vectors as vectors.jsonl, one line per id in ascending id order.

    The bytes are those of ``json.dumps`` with compact separators: the id
    is escaped by its string encoder, and JSON writes a finite float by its
    ``repr``, so the components are joined directly. A non-finite component
    is written as ``nan``/``inf``, which ``load_external_vectors`` rejects.
    """
    ids, matrix = vectors
    with open(path, "w", encoding="utf-8") as fh:
        for row in sorted(range(len(ids)), key=ids.__getitem__):
            fh.write('{"id":%s,"vec":[%s]}\n' % (
                _json_string(ids[row]), ",".join(map(repr, matrix[row].tolist()))))
