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
# array or, for mostly-zero rows, a CsrMatrix; read rows with dense_rows
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
    lines: list[int]  # the line number of each id
    first: tuple[int, int] | None  # the line and dimension of the part's first vector
    error: str | None  # the DataFormatError text of its first bad line
    nonzero: int  # values read that are not 0.0 by their int64 view
    # the part's rows: a CsrMatrix, part 0's dense matrix, or None for a later
    # part's dense rows, left in its spool
    rows: np.ndarray | CsrMatrix | None


def load_external_vectors(path: str | Path, threads: int = 1) -> Vectors:
    """Load a vectors.jsonl file of {"id": ..., "vec": [...]} lines as vectors:
    the ids and a matrix with one row per id, in ascending id order whatever
    the order of the lines. The matrix is a CsrMatrix when fewer than half
    the values are nonzero by their int64 view, as ``write_vectors`` decides,
    and a float64 array otherwise.

    Each vec must be a non-empty list of JSON numbers (not strings or
    booleans), and all lines must share one dimension; a line that is not
    UTF-8, duplicate ids and non-finite values are fatal, each naming its
    line. With several bad lines, the first one is named, at any ``threads``.

    A first pass counts the lines and cuts the file at line starts into
    ``_parts.count(threads, file size, READ_PART_BYTES)`` parts. Part 0 is
    parsed here; each later part is parsed by a forked process, which sends
    back its ids, their line numbers and its first bad line. A part parses
    about ``_CHECK_VALUES`` values at a time into one buffer, and its first
    buffer decides how it keeps them: as CSR if that buffer is mostly zero,
    else dense (in the one matrix for part 0; in an unlinked temporary file,
    read from there, for a later part). Parts that kept the other kind are
    converted when they are joined, so a mostly-zero file is never held as
    a dense matrix unless a part of it starts dense.
    """
    with open(path, "rb") as fh:
        spans = _line_spans(fh, threads)
    n_lines = sum(count for _, _, count in spans)
    ids: list[str] = []
    seen: set[str] = set()
    dim = 0
    np.empty(0)  # loads numpy before the parts fork
    with ExitStack() as stack:
        spools = [None, *(stack.enter_context(tempfile.TemporaryFile()) for _ in spans[1:])]
        parts = _parts.run(functools.partial(_read_part, path), [
            (*span, n_lines if k == 0 else span[2], spool)
            for k, (span, spool) in enumerate(zip(spans, spools))])
        for k, part in enumerate(parts):
            if part.first is not None:
                lineno, part_dim = part.first
                if ids and part_dim != dim:
                    raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                          f"(dimension {part_dim} != {dim} seen earlier)")
                dim = part_dim
            if not seen.isdisjoint(part.ids):
                post_id, lineno = next(
                    (i, line) for i, line in zip(part.ids, part.lines) if i in seen)
                raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                      f"(duplicate id {post_id!r})")
            if part.error is not None:
                raise DataFormatError(part.error)
            if k + 1 < len(parts):  # later parts are checked against it
                seen.update(part.ids)
            ids += part.ids
        if not ids:
            return [], np.empty((0, 0))
        sparse = 2 * sum(part.nonzero for part in parts) < len(ids) * dim
        matrix = _join(path, parts, spools, n_lines, dim, sparse)
    if all(map(str.__lt__, ids, ids[1:])):  # already in id order, as every writer leaves it
        return ids, matrix
    order = sorted(range(len(ids)), key=ids.__getitem__)
    if sparse:
        return [ids[i] for i in order], matrix.take(np.array(order, dtype=np.intp))
    return [ids[i] for i in order], matrix[order]


def _join(path: str | Path, parts: list[_Part], spools: list, n_lines: int, dim: int,
          sparse: bool) -> np.ndarray | CsrMatrix:
    """The rows of every part, one after another, as a CsrMatrix if
    ``sparse`` and else as one dense matrix."""
    def spooled(k: int, rows: np.ndarray) -> np.ndarray:
        spools[k].seek(0)
        if spools[k].readinto(rows.data) != rows.nbytes:
            raise ChildProcessError(f"{path}: part {k} left too few rows")
        return rows

    if sparse:
        return CsrMatrix.stack([
            part.rows if isinstance(part.rows, CsrMatrix)
            else CsrMatrix.from_dense(part.rows[:len(part.ids)] if k == 0
                                      else spooled(k, np.empty((len(part.ids), dim))))
            for k, part in enumerate(parts) if part.ids], dim)
    first = parts[0].rows
    matrix = first if isinstance(first, np.ndarray) else np.empty((n_lines, dim))
    start = 0
    for k, part in enumerate(parts):
        rows = matrix[start:start + len(part.ids)]
        if isinstance(part.rows, CsrMatrix):
            rows[:] = part.rows.toarray()
        elif k and part.ids:
            spooled(k, rows)
        start += len(part.ids)
    return matrix[:start]


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
    from ``first``; part 0 (with no ``spool``) keeps dense rows in a matrix
    of ``n_rows`` rows, a later part writes them to its ``spool``.

    Rows are parsed into a buffer and checked to be finite about
    ``_CHECK_VALUES`` values at a time, then kept (see
    ``load_external_vectors``). Before a bad line is reported, the rows read
    ahead of it are checked, so the error and the ids returned are those of
    a line-by-line read that stops at the first bad line.
    """
    offset, first_line, count, n_rows, spool = span
    ids: list[str] = []
    lines: list[int] = []
    seen: set[str] = set()
    first = buffer = dense = error = None
    pieces: list[CsrMatrix] | None = None  # the kept rows, when kept as CSR
    kept = nonzero = 0  # rows checked and kept; their nonzero values

    def check() -> None:
        """Check and keep the rows in the buffer; for the first one with a
        non-finite value, drop the ids from its line on and raise."""
        nonlocal kept, nonzero, dense, pieces
        rows = buffer[:len(ids) - kept]
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = kept + int(finite.argmin())
            lineno, post_id = lines[bad], ids[bad]
            del ids[bad:], lines[bad:]
            raise DataFormatError(f"{path}:{lineno}: bad vector line "
                                  f"(non-finite component for {post_id!r})")
        rows_nonzero = int(np.count_nonzero(rows.view(np.int64)))
        if not kept:  # the first rows decide the kind
            if 2 * rows_nonzero < rows.size:
                pieces = []
            elif spool is None:
                dense = np.empty((n_rows, rows.shape[1]))
        if pieces is not None:
            pieces.append(CsrMatrix.from_dense(rows))
        elif spool is None:
            dense[kept:len(ids)] = rows
        else:
            spool.write(rows.data)
        nonzero += rows_nonzero
        kept = len(ids)

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
                    buffer = np.empty((max(1, _CHECK_VALUES // len(raw)), len(raw)))
                elif len(raw) != first[1]:
                    raise ValueError(f"dimension {len(raw)} != {first[1]} seen earlier")
                buffer[len(ids) - kept] = raw  # OverflowError for an int beyond float64
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
            if len(ids) - kept == len(buffer):
                check()
        if kept < len(ids):
            check()
    except DataFormatError as exc:
        error = str(exc)
        if kept < len(ids):  # rows read before the bad line come first
            try:
                check()
            except DataFormatError as earlier:
                error = str(earlier)
    if error is not None or not ids:
        return _Part(ids, lines, first, error, nonzero, None)
    if pieces is not None:
        return _Part(ids, lines, first, error, nonzero, CsrMatrix.stack(pieces, first[1]))
    if spool is not None:
        spool.flush()
    return _Part(ids, lines, first, error, nonzero, dense)


def write_vectors(path: str | Path, vectors: Vectors, threads: int = 1) -> None:
    """Write vectors as vectors.jsonl, one line per id in ascending id order.

    The bytes are those of ``json.dumps`` with compact separators: the id
    is escaped by its string encoder, and JSON writes a finite float by its
    ``repr``, so the components are joined directly. A non-finite component
    is written as ``nan``/``inf``, which ``load_external_vectors`` rejects.
    A float64 array of which fewer than half the values are nonzero is
    written as a CsrMatrix: each row is a row of shared ``0.0`` strings with
    only its stored values formatted.

    The id-ordered rows are cut into ``_parts.count(threads, values,
    WRITE_PART_VALUES)`` parts, where ``values`` are the values formatted:
    the stored values of a CsrMatrix, else every value. Part 0 is written
    here; each later part is written by a forked process to an unlinked
    temporary file beside ``path``, which is then appended, so the bytes do
    not depend on ``threads``.
    """
    ids, matrix = vectors
    order = sorted(range(len(ids)), key=ids.__getitem__)
    # the int64 view tells -0.0 from 0.0, so only the zeros repr writes as
    # "0.0" are shared
    if (not isinstance(matrix, CsrMatrix) and matrix.dtype == np.float64
            and 2 * np.count_nonzero(matrix.view(np.int64)) < matrix.size):
        matrix = CsrMatrix.from_dense(matrix)
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
