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
import itertools
import math
import os
import shutil
import tempfile
from collections import Counter
from contextlib import ExitStack, closing
from hashlib import blake2b
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple, Sequence

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
# values a reader checks to be finite at once, and embed_all holds dense
_CHECK_VALUES = 1 << 15
_BLOCK = 1 << 20  # bytes read at a time to count lines

# rows of a CsrMatrix that the writer formats at a time: the floats and
# strings of 1,024 rows of perfbench's text took 4.4 MB, of 128 rows 0.6 MB
_WRITE_BATCH_ROWS = 128


class CsrMatrix:
    """A float64 matrix in compressed sparse row form: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the ascending columns
    ``indices[indptr[i]:indptr[i + 1]]`` and 0.0 everywhere else. No stored
    value is 0.0 by its int64 view, so a stored -0.0 keeps its sign."""

    __slots__ = ("data", "indices", "indptr", "shape")
    ndim = 2

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple[int, int]):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = shape

    def __len__(self) -> int:
        return self.shape[0]

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> CsrMatrix:
        """The rows of a 2-D float64 array, keeping each value whose int64
        view is nonzero."""
        stored = dense.view(np.int64) != 0
        indptr = np.zeros(len(dense) + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
        return cls(dense[stored], np.nonzero(stored)[1], indptr, dense.shape)

    @classmethod
    def stack(cls, parts: Sequence[CsrMatrix], dim: int) -> CsrMatrix:
        """The rows of ``parts``, one after another, of ``dim`` columns."""
        indptr = np.cumsum(np.concatenate(
            [np.zeros(1, np.intp), *(np.diff(part.indptr) for part in parts)]))
        return cls(np.concatenate([np.zeros(0), *(part.data for part in parts)]),
                   np.concatenate([np.zeros(0, np.intp), *(part.indices for part in parts)]),
                   indptr, (len(indptr) - 1, dim))

    def take(self, rows: np.ndarray) -> CsrMatrix:
        """The rows at the 1-D integer index ``rows``, in its order."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        at = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return CsrMatrix(self.data[at], self.indices[at], indptr, (len(rows), self.shape[1]))

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[np.repeat(np.arange(len(self)), np.diff(self.indptr)), self.indices] = self.data
        return dense


# vectors: post ids and a matrix with one row per id, either a 2-D float64
# array or a CsrMatrix, which hold the same values; read rows with dense_rows
Vectors = tuple[Sequence[str], "np.ndarray | CsrMatrix"]


def dense_rows(matrix: np.ndarray | CsrMatrix, rows) -> np.ndarray:
    """``matrix[rows]`` as a float64 array, for either kind of vector matrix.

    ``rows`` is a slice, an int or an integer index array of any shape; a
    slice of a float64 array is a view. This is the one reader of rows that
    knows both kinds.
    """
    if not isinstance(matrix, CsrMatrix):
        return np.asarray(matrix[rows], dtype=float)
    index = (np.arange(*rows.indices(len(matrix))) if isinstance(rows, slice)
             else np.asarray(rows, dtype=np.intp))
    return matrix.take(index.ravel()).toarray().reshape(*index.shape, matrix.shape[1])


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
    row = np.zeros(model.dim)
    sums = _bucket_sums(model, tokens)
    if sums:
        row[list(sums)] = list(sums.values())
        norm = math.sqrt(row.dot(row))  # as np.linalg.norm computes it
        if norm > 0.0:
            row /= norm
    return row


def embed_all(model: VectorizerModel, docs: Sequence[tuple[str, Sequence[str]]]) -> Vectors:
    """Embed (id, tokens) pairs as vectors: the ids and a CsrMatrix with one
    row per id, each bitwise the dense row ``embed`` gives.

    The rows are summed into one reused dense block of ``_CHECK_VALUES``
    values at a time, where each row's norm is taken (the order in which BLAS
    adds a dot product depends on the columns of its values) and its
    normalized nonzero values are kept.
    """
    block = np.zeros((max(1, _CHECK_VALUES // model.dim), model.dim))
    pieces = []
    for start in range(0, len(docs), len(block)):
        batch = docs[start:start + len(block)]
        chunk = block[:len(batch)]
        counts: list[int] = []
        cols: list[int] = []
        sums: list[float] = []
        for _, tokens in batch:
            bucket_sums = _bucket_sums(model, tokens)
            counts.append(len(bucket_sums))
            cols += bucket_sums
            sums += bucket_sums.values()
        chunk[np.repeat(np.arange(len(batch)), counts), cols] = sums
        norms = [math.sqrt(values.dot(values)) for values in chunk]  # as np.linalg.norm
        chunk /= np.array([norm if norm > 0.0 else 1.0 for norm in norms])[:, None]
        pieces.append(CsrMatrix.from_dense(chunk))
        chunk.fill(0.0)
    return [doc_id for doc_id, _ in docs], CsrMatrix.stack(pieces, model.dim)


def _bucket_sums(model: VectorizerModel, tokens: Sequence[str]) -> dict[int, float]:
    """Per hash bucket the tokens reach, the sum of their tf * idf * sign."""
    terms = model.terms
    sums: dict[int, float] = {}
    tf = Counter(tokens)
    for token in sorted(tf):
        term = terms.get(token)
        if term is not None:
            bucket, weight = term
            # weight is idf * (+-1), so this is bitwise tf * idf * sign
            sums[bucket] = sums.get(bucket, 0.0) + tf[token] * weight
    return sums


class _Part(NamedTuple):
    """One part of a vectors file as read, up to its first bad line."""

    ids: list[str]
    error: str | None  # the DataFormatError text of its first bad line
    rows: CsrMatrix | None  # a sparse file's rows; a dense file's are in the part's spool


def load_external_vectors(path: str | Path, threads: int = 1) -> Vectors:
    """Load a vectors.jsonl file of {"id": ..., "vec": [...]} lines as vectors:
    the ids and a matrix with one row per id, in ascending id order whatever
    the order of the lines. The first vector line fixes the dimension of
    every line and the kind of the matrix: a CsrMatrix if fewer than half its
    values are nonzero by their int64 view, else a float64 array, of which
    ``dense_rows`` reads the same bits.

    Each vec must be a non-empty list of JSON numbers (not strings or
    booleans); a line that is not UTF-8, a dimension unlike the first line's,
    duplicate ids and non-finite values are fatal, each naming its line. With
    several bad lines, the first one is named, at any ``threads``.

    A first pass counts the lines and cuts the file at line starts into
    ``_parts.count(threads, file size, READ_PART_BYTES)`` parts. Part 0 is
    parsed here; each later part is parsed by a forked process, which sends
    back its ids, its first bad line and, in a sparse file, its rows as CSR.
    In a dense file every part writes its rows to an unlinked temporary file,
    from which the matrix is filled.

    Ids are checked once, over the ids of the parts up to the first bad line:
    ids in ascending order are unique, as every writer leaves them; others
    are sorted, and of the ids equal to an earlier one the first in the file
    is a duplicate, whose line is found by reading the file again.
    """
    with open(path, "rb") as fh:
        spans = _line_spans(fh, threads)
    np.empty(0)  # loads numpy before the parts fork
    # the values of the first vector line, as an array: held through the read,
    # its list of Python floats kept 1 MB more of the heap resident
    with closing(_vector_lines(path, 0, 1, None, None)) as lines:
        first = np.array(next(lines, (None, None, []))[2])
    dim = len(first)
    if not dim:
        return [], np.empty((0, 0))
    sparse = 2 * np.count_nonzero(first.view(np.int64)) < dim
    with ExitStack() as stack:
        spools = [None if sparse else stack.enter_context(tempfile.TemporaryFile())
                  for _ in spans]
        parts = _parts.run(functools.partial(_read_part, path, dim),
                           [(*span, spool) for span, spool in zip(spans, spools)])
        ids: list[str] = []
        for part in parts:  # up to the first part with a bad line, which every id precedes
            ids += part.ids
            if part.error is not None:
                break
        order = None
        if not all(map(str.__lt__, ids, ids[1:])):  # every writer leaves ids ascending
            order = sorted(range(len(ids)), key=ids.__getitem__)
            # the first id in the file that equals an earlier one: sorted stably,
            # the later of two equal ids is the later in the file
            repeat = min((b for a, b in zip(order, order[1:]) if ids[a] == ids[b]), default=None)
            if repeat is not None:
                with closing(_vector_lines(path, 0, 1, None, None)) as lines:
                    lineno, post_id, _ = next(itertools.islice(lines, repeat, None))
                raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                      f"(duplicate id {post_id!r})")
        if part.error is not None:
            raise DataFormatError(part.error)
        if sparse:
            matrix = CsrMatrix.stack([part.rows for part in parts], dim)
        else:
            matrix = np.empty((len(ids), dim))
            start = 0
            for k, (part, spool) in enumerate(zip(parts, spools)):
                rows = matrix[start:start + len(part.ids)]
                spool.seek(0)
                if spool.readinto(rows.data) != rows.nbytes:
                    raise ChildProcessError(f"{path}: part {k} left too few rows")
                start += len(part.ids)
    if order is None:
        return ids, matrix
    index = np.array(order, dtype=np.intp)
    return [ids[i] for i in order], matrix.take(index) if sparse else matrix[index]


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


def _vector_lines(path: str | Path, offset: int, first: int, count: int | None,
                  dim: int | None) -> Iterator[tuple[int, str, list[float]]]:
    """``(lineno, id, values)`` for each non-blank line of a vectors file, read
    as ``utf8_lines(path, offset, first, count)`` reads it: the id a string
    and the values a list of ``dim`` floats (of any length if ``dim`` is
    None). A line that is not such a vector line raises DataFormatError
    naming it; its values are not checked to be finite."""
    for lineno, line in utf8_lines(path, offset, first, count):
        if not line.strip():
            continue
        try:
            obj = json_line(line)
            post_id = obj["id"]
            raw = obj["vec"]
            if not isinstance(post_id, str) or not isinstance(raw, list):
                raise ValueError("id must be a string and vec a list")
            # type() rather than isinstance(): bool is a subclass of int
            types = set(map(type, raw))
            if not raw or not types <= {int, float}:
                raise ValueError("vec must be a non-empty list of numbers")
            if dim is not None and len(raw) != dim:
                raise ValueError(f"dimension {len(raw)} != {dim} seen earlier")
            if int in types:
                raw = list(map(float, raw))  # OverflowError for an int beyond float64
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise DataFormatError(f"{path}:{lineno}: bad vector line ({exc})") from exc
        yield lineno, post_id, raw


def _read_part(path: str | Path, dim: int,
               span: tuple[int, int, int, BinaryIO | None]) -> _Part:
    """Read ``count`` lines of a vectors file of dimension ``dim`` from byte
    ``offset``, numbered from ``first``, keeping the rows as CSR if the file
    is sparse (there is no ``spool``), else writing them to ``spool``.

    Rows are parsed into a buffer and checked to be finite about
    ``_CHECK_VALUES`` values at a time, then kept. Before a bad line is
    reported, the rows read ahead of it are checked, so the error and the ids
    returned are those of a line-by-line read that stops at the first bad
    line. Ids are not checked here: ``load_external_vectors`` checks those of
    every part at once.
    """
    offset, first, count, spool = span
    ids: list[str] = []
    buffer = np.empty((max(1, _CHECK_VALUES // dim), dim))
    lines: list[int] = []  # the line number of each row in the buffer
    pieces: list[CsrMatrix] = []
    error = None

    def check() -> None:
        """Check and keep the rows in the buffer; for the first one with a
        non-finite value, drop the ids from its line on and raise."""
        rows = buffer[:len(lines)]
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            at = int(finite.argmin())
            bad = len(ids) - len(lines) + at  # its index in ids
            lineno, post_id = lines[at], ids[bad]
            del ids[bad:], lines[:]
            raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                  f"(non-finite component for {post_id!r})")
        if spool is None:
            pieces.append(CsrMatrix.from_dense(rows))
        else:
            spool.write(rows.data)
        lines.clear()

    try:
        for lineno, post_id, raw in _vector_lines(path, offset, first, count, dim):
            buffer[len(lines)] = raw
            ids.append(post_id)
            lines.append(lineno)
            if len(lines) == len(buffer):
                check()
    except DataFormatError as exc:
        error = str(exc)
    if lines:  # the rows left in the buffer; before a bad line, they come first
        try:
            check()
        except DataFormatError as exc:
            error = str(exc)
    if spool is not None:
        spool.flush()
        return _Part(ids, error, None)
    return _Part(ids, error, CsrMatrix.stack(pieces, dim))


def write_vectors(path: str | Path, vectors: Vectors, threads: int = 1) -> None:
    """Write vectors as vectors.jsonl, one line per id in ascending id order.

    The bytes are those of ``json.dumps`` with compact separators: the id
    is escaped by its string encoder, and JSON writes a finite float by its
    ``repr``, so the components are joined directly. A non-finite component
    is written as ``nan``/``inf``, which ``load_external_vectors`` rejects.
    The matrix is formatted as it is given: a row of a CsrMatrix is a row of
    shared ``0.0`` strings with only its stored values formatted, and gives
    the bytes of the same row of a float64 array.

    The id-ordered rows are cut into ``_parts.count(threads, values,
    WRITE_PART_VALUES)`` parts, where ``values`` are the values formatted:
    the stored values of a CsrMatrix, else every value. Part 0 is written
    here; each later part is written by a forked process to an unlinked
    temporary file beside ``path``, which is then appended, so the bytes do
    not depend on ``threads``.
    """
    ids, matrix = vectors
    order = sorted(range(len(ids)), key=ids.__getitem__)
    values = len(matrix.data) if isinstance(matrix, CsrMatrix) else matrix.size
    parts = _parts.slices(len(order), _parts.count(threads, values, WRITE_PART_VALUES))
    with open(path, "wb") as out, ExitStack() as stack:
        spools = [out, *(stack.enter_context(tempfile.TemporaryFile(dir=Path(path).parent))
                         for _ in parts[1:])]
        _parts.run(functools.partial(_write_rows, ids, matrix, order),
                   list(zip(spools, parts)))
        for spool in spools[1:]:
            spool.seek(0)
            shutil.copyfileobj(spool, out)


def _write_rows(ids: Sequence[str], matrix: np.ndarray | CsrMatrix, order: list[int],
                part: tuple[BinaryIO, slice]) -> None:
    """Write the lines of ``order[rows]`` to ``out``, as text. The rows of a
    CsrMatrix are taken ``_WRITE_BATCH_ROWS`` at a time, and each line is a
    copy of a row of ``0.0`` strings with its stored cells set to their
    ``repr``."""
    out, rows = part
    text = io.TextIOWrapper(out, encoding="utf-8")
    if isinstance(matrix, CsrMatrix):
        zeros = ["0.0"] * matrix.shape[1]
        part_order = order[rows]
        for start in range(0, len(part_order), _WRITE_BATCH_ROWS):
            batch = part_order[start:start + _WRITE_BATCH_ROWS]
            block = matrix.take(np.array(batch, dtype=np.intp))
            bounds = block.indptr.tolist()
            cols, cells = block.indices.tolist(), list(map(repr, block.data.tolist()))
            for row, lo, hi in zip(batch, bounds, bounds[1:]):
                line = zeros.copy()
                for col, cell in zip(cols[lo:hi], cells[lo:hi]):
                    line[col] = cell
                text.write('{"id":%s,"vec":[%s]}\n' % (_json_string(ids[row]), ",".join(line)))
    else:
        for row in order[rows]:
            text.write('{"id":%s,"vec":[%s]}\n' % (
                _json_string(ids[row]), ",".join(map(repr, matrix[row].tolist()))))
    text.detach()  # flushed into out, which stays open
