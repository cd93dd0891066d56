"""Idea vectors: deterministic hashed TF-IDF embedding and external-vector import.

The built-in vectorizer stands in for a trained document-embedding model: it
fits a vocabulary with smoothed IDF weights, feature-hashes tokens into a
fixed number of buckets with a signed, seeded 64-bit hash, and L2-normalizes
the result. Identical inputs give bitwise-identical vectors on any platform.
Externally computed vectors can be loaded from JSONL instead.
"""

from __future__ import annotations

import functools
import io
import math
import os
import shutil
import tempfile
from collections import Counter
from contextlib import ExitStack
from hashlib import blake2b
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence

from . import _parts
from ._np import np
from .corpus import _json_string, json_line, utf8_lines
from .errors import DataFormatError

DEFAULT_HASH_SEED = 9172023

# The smallest part of a vectors file, in bytes, and of a matrix, in values,
# that is read or written on a process of its own: 20-55 ms of parsing and
# 10-25 ms of formatting on the VM ``_parts`` names, several times what a
# fork costs there.
READ_PART_BYTES = 1 << 20
WRITE_PART_VALUES = 1 << 15
# values a reader checks to be finite at once
_CHECK_VALUES = 1 << 15
_BLOCK = 1 << 20  # bytes read at a time to count lines

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
    return _embed_into(np.zeros(model.dim), model, tokens)


def embed_all(model: VectorizerModel, docs: Sequence[tuple[str, Sequence[str]]]) -> Vectors:
    """Embed (id, tokens) pairs as vectors: the ids and one row per id."""
    matrix = np.zeros((len(docs), model.dim))
    for row, (_, tokens) in zip(matrix, docs):
        _embed_into(row, model, tokens)
    return [doc_id for doc_id, _ in docs], matrix


def _embed_into(row: np.ndarray, model: VectorizerModel, tokens: Sequence[str]) -> np.ndarray:
    """``embed`` written into ``row``, a zeroed float64 vector: the sums of
    the buckets the tokens hash to are set, then the row is normalized."""
    terms = model.terms
    sums: dict[int, float] = {}
    tf = Counter(tokens)
    for token in sorted(tf):
        term = terms.get(token)
        if term is not None:
            bucket, weight = term
            # weight is idf * (+-1), so this is bitwise tf * idf * sign
            sums[bucket] = sums.get(bucket, 0.0) + tf[token] * weight
    if sums:
        row[list(sums)] = list(sums.values())
        norm = math.sqrt(row.dot(row))  # as np.linalg.norm computes it
        if norm > 0.0:
            row /= norm
    return row


class _Part(NamedTuple):
    """One part of a vectors file as read, up to its first bad line."""

    ids: list[str]
    lines: list[int]  # the line number of each id
    first: tuple[int, int] | None  # the line and dimension of the part's first vector
    error: str | None  # the DataFormatError text of its first bad line
    rows: np.ndarray | None  # part 0's matrix; a later part leaves its rows in its spool


def load_external_vectors(path: str | Path, threads: int = 1) -> Vectors:
    """Load a vectors.jsonl file of {"id": ..., "vec": [...]} lines as vectors:
    the ids and a float64 matrix with one row per id, in ascending id order
    whatever the order of the lines.

    Each vec must be a non-empty list of JSON numbers (not strings or
    booleans), and all lines must share one dimension; a line that is not
    UTF-8, duplicate ids and non-finite values are fatal, each naming its
    line. With several bad lines, the first one is named, at any ``threads``.

    A first pass counts the lines, which size the one matrix, and cuts the
    file at line starts into ``_parts.count(threads, file size,
    READ_PART_BYTES)`` parts. Part 0 is parsed here straight into the matrix;
    each later part is parsed by a forked process, which sends back its ids,
    their line numbers and its first bad line and leaves its rows in an
    unlinked temporary file, read from there into the matrix.
    """
    with open(path, "rb") as fh:
        spans = _line_spans(fh, threads)
    n_lines = sum(count for _, _, count in spans)
    ids: list[str] = []
    seen: set[str] = set()
    matrix = np.empty((0, 0))  # also loads numpy before the parts fork
    with ExitStack() as stack:
        spools = [None, *(stack.enter_context(tempfile.TemporaryFile()) for _ in spans[1:])]
        parts = _parts.run(functools.partial(_read_part, path), [
            (*span, n_lines if k == 0 else span[2], spool)
            for k, (span, spool) in enumerate(zip(spans, spools))])
        for k, (part, spool) in enumerate(zip(parts, spools)):
            if part.first is not None:
                lineno, dim = part.first
                if ids and dim != matrix.shape[1]:
                    raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                          f"(dimension {dim} != {matrix.shape[1]} seen earlier)")
                if not ids:
                    matrix = part.rows if part.rows is not None else np.empty((n_lines, dim))
            if not seen.isdisjoint(part.ids):
                post_id, lineno = next(
                    (i, line) for i, line in zip(part.ids, part.lines) if i in seen)
                raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                      f"(duplicate id {post_id!r})")
            if part.error is not None:
                raise DataFormatError(part.error)
            if spool is not None and part.ids:
                rows = matrix[len(ids):len(ids) + len(part.ids)]
                spool.seek(0)
                if spool.readinto(rows.data) != rows.nbytes:
                    raise ChildProcessError(f"{path}: part {k} left too few rows")
            if k + 1 < len(parts):  # later parts are checked against it
                seen.update(part.ids)
            ids += part.ids
    matrix = matrix[:len(ids)]
    if all(map(str.__lt__, ids, ids[1:])):  # already in id order, as every writer leaves it
        return ids, matrix
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[i] for i in order], matrix[order]


def _line_spans(fh: BinaryIO, threads: int) -> list[tuple[int, int, int]]:
    """``(byte offset, first line number, line count)`` of each part of an
    open file: ``_parts.count(threads, size, READ_PART_BYTES)`` parts of about
    equal size, cut at line starts; a part with no lines is left out."""
    size = os.fstat(fh.fileno()).st_size
    parts = _parts.count(threads, size, READ_PART_BYTES)
    cuts = [0]
    for k in range(1, parts):
        fh.seek(size * k // parts - 1)
        fh.readline()
        cuts.append(fh.tell())
    spans, first = [], 1
    for start, stop in zip(cuts, [*cuts[1:], None]):  # the last part runs to the end
        fh.seek(start)
        count, last = 0, b"\n"
        while block := fh.read(_BLOCK if stop is None else min(_BLOCK, stop - fh.tell())):
            count += block.count(b"\n")
            last = block
        count += not last.endswith(b"\n")  # a last line with no newline
        if count:
            spans.append((start, first, count))
        first += count
    return spans


def _read_part(path: str | Path,
               span: tuple[int, int, int, int, BinaryIO | None]) -> _Part:
    """Read ``count`` lines of a vectors file from byte ``offset``, numbered
    from ``first``, into a matrix of ``n_rows`` rows; a part with a ``spool``
    writes its rows there and returns none.

    Rows are checked to be finite about ``_CHECK_VALUES`` values at a time.
    Before a bad line is reported, the rows read ahead of it are checked, so
    the error and the ids returned are those of a line-by-line read that
    stops at the first bad line.
    """
    offset, first_line, count, n_rows, spool = span
    ids: list[str] = []
    lines: list[int] = []
    seen: set[str] = set()
    first = rows = error = None
    checked = 0  # rows checked to be finite

    def check() -> None:
        """Check the rows read since the last check; for the first one with a
        non-finite value, drop the ids from its line on and raise."""
        nonlocal checked
        finite = np.isfinite(rows[checked:len(ids)]).all(axis=1)
        if not finite.all():
            bad = checked + int(finite.argmin())
            lineno, post_id = lines[bad], ids[bad]
            del ids[bad:], lines[bad:]
            raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                  f"(non-finite component for {post_id!r})")
        checked = len(ids)

    try:
        for lineno, line in utf8_lines(path, offset, first_line, count):
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
                if first is None:
                    first = (lineno, len(raw))
                    rows = np.empty((n_rows, len(raw)))
                elif len(raw) != first[1]:
                    raise ValueError(f"dimension {len(raw)} != {first[1]} seen earlier")
                rows[len(ids)] = raw  # OverflowError for an int beyond float64
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad vector line ({exc})") from exc
            ids.append(post_id)
            lines.append(lineno)
            if post_id in seen:
                check()  # this line's own values come first
                del ids[-1], lines[-1]
                raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                      f"(duplicate id {post_id!r})")
            seen.add(post_id)
            if (len(ids) - checked) * first[1] >= _CHECK_VALUES:
                check()
        if checked < len(ids):
            check()
    except DataFormatError as exc:
        error = str(exc)
        if checked < len(ids):  # rows read before the bad line come first
            try:
                check()
            except DataFormatError as earlier:
                error = str(earlier)
    if spool is None:  # part 0: its rows are the matrix
        return _Part(ids, lines, first, error, rows)
    if error is None and ids:
        spool.write(rows[:len(ids)].data)
        spool.flush()
    return _Part(ids, lines, first, error, None)


def write_vectors(path: str | Path, vectors: Vectors, threads: int = 1) -> None:
    """Write vectors as vectors.jsonl, one line per id in ascending id order.

    The bytes are those of ``json.dumps`` with compact separators: the id
    is escaped by its string encoder, and JSON writes a finite float by its
    ``repr``, so the components are joined directly. A non-finite component
    is written as ``nan``/``inf``, which ``load_external_vectors`` rejects.
    In a float64 matrix of which fewer than half the values are nonzero, the
    zeros are written as one shared ``0.0`` string and only the nonzero
    values are formatted.

    The id-ordered rows are cut into ``_parts.count(threads, matrix.size,
    WRITE_PART_VALUES)`` parts. Part 0 is written here; each later part is
    written by a forked process to an unlinked temporary file beside
    ``path``, which is then appended, so the bytes do not depend on
    ``threads``.
    """
    ids, matrix = vectors
    order = sorted(range(len(ids)), key=ids.__getitem__)
    # the int64 view tells -0.0 from 0.0, so only the zeros repr writes as
    # "0.0" are shared
    sparse = (matrix.dtype == np.float64
              and 2 * np.count_nonzero(matrix.view(np.int64)) < matrix.size)
    parts = _parts.slices(len(order), _parts.count(threads, matrix.size, WRITE_PART_VALUES))
    with open(path, "wb") as out, ExitStack() as stack:
        spools = [out, *(stack.enter_context(tempfile.TemporaryFile(dir=Path(path).parent))
                         for _ in parts[1:])]
        _parts.run(functools.partial(_write_rows, ids, matrix, order, sparse),
                   list(zip(spools, parts)))
        for spool in spools[1:]:
            spool.seek(0)
            shutil.copyfileobj(spool, out)


def _write_rows(ids: Sequence[str], matrix: np.ndarray, order: list[int], sparse: bool,
                part: tuple[BinaryIO, slice]) -> None:
    """Write the lines of ``order[rows]`` to ``out``, as text. With
    ``sparse``, each row is a copy of a row of ``0.0`` strings with its
    nonzero cells (by their int64 view) set to their ``repr``."""
    out, rows = part
    text = io.TextIOWrapper(out, encoding="utf-8")
    zeros = ["0.0"] * matrix.shape[1]
    for row in order[rows]:
        if sparse:
            values = matrix[row]
            cols = np.flatnonzero(values.view(np.int64))
            cells = zeros.copy()
            for col, cell in zip(cols.tolist(), map(repr, values[cols].tolist())):
                cells[col] = cell
        else:
            cells = map(repr, matrix[row].tolist())
        text.write('{"id":%s,"vec":[%s]}\n' % (_json_string(ids[row]), ",".join(cells)))
    text.detach()  # flushed into out, which stays open
