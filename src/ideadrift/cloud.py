"""Windowed idea clouds: replay the post log, emit per-post eccentricities.

A post's idea cloud holds the vectors of posts made by its author's ego
neighborhood (the author plus followees) within the trailing window (default
5 days) strictly before the post. Its eccentricity is the L2 distance of its
vector from the cloud's centroid; self-eccentricity uses only the author's own
posts in the same window. A post whose cloud is empty gets an undefined (None)
value rather than 0.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

from ._np import np
from .corpus import (Corpus, PostColumns, SocialGraph, ego_neighborhood, post_columns,
                     utf8_lines)
from .embed import Vectors, dense_rows
from .errors import DataFormatError, check_positive

DEFAULT_WINDOW_SECONDS = 5 * 86400


class EccentricityRecord(NamedTuple):
    post_id: str
    author: str
    created_at: int
    likes: int
    eccentricity: float | None
    self_eccentricity: float | None
    cloud_size: int
    self_cloud_size: int


RECORD_FIELDS = EccentricityRecord._fields


class MissingVectorError(DataFormatError):
    """A post of the corpus has no row in the vectors."""


# Float64 values allowed in one temporary of the replay kernel (256 KiB). Work
# is split into chunks of this size, so peak memory does not grow with the
# corpus. Chunks are cut at post and segment boundaries, so no output bit
# depends on the size.
_CHUNK_VALUES = 1 << 15


def _window_bounds(times: tuple[int, ...], window_seconds: int):
    """Per post: the index range [lo, hi) of the time-sorted log that falls in
    its window [t - window, t), and its block number ``(t - t0) // window``.
    No window spans more than two blocks."""
    # offsets from the first post, exact Python ints, fit int64 unless the log
    # spans 2**63 s; a window longer than the span selects the same posts, so
    # clamping it keeps t - window inside int64 too
    t0, span = times[0], times[-1] - times[0]
    window = min(window_seconds, max(span, 1))
    try:
        t = np.fromiter((time - t0 for time in times), np.int64, len(times))
    except OverflowError:
        raise DataFormatError(f"post times span {span} s, more than int64 holds") from None
    lo = np.searchsorted(t, t - window, side="left")
    hi = np.searchsorted(t, t, side="left")
    return lo, hi, t // window


def _segment_prefix_sums(matrix, rows: np.ndarray, seg_first: np.ndarray,
                         seg_len: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``x - ref`` within each segment, where ``x`` is
    ``matrix[rows]``, gathered a chunk at a time.

    ``ref`` is the segment's first row. Segment s owns rows ``seg_first[s] + s``
    through ``seg_first[s] + s + seg_len[s]`` of the result: a zero row, then
    the running sums, so a sum over sorted positions [a, b) of segment s is
    ``out[b + s] - out[a + s]``. Sums restart at every segment, so their
    rounding error is bounded by one segment, not by the whole history.
    """
    n_seg = len(seg_first)
    out = np.empty((len(rows) + n_seg, matrix.shape[1]))
    out[seg_first + np.arange(n_seg)] = 0.0
    for length in np.unique(seg_len).tolist():
        segs = np.flatnonzero(seg_len == length)
        step = max(1, _CHUNK_VALUES // max(length * matrix.shape[1], 1))
        for i in range(0, len(segs), step):
            part = segs[i:i + step]
            pos = seg_first[part, None] + np.arange(length)
            dev = dense_rows(matrix, rows[pos])
            dev -= dev[:, :1].copy()
            np.cumsum(dev, axis=1, out=dev)
            out[pos + part[:, None] + 1] = dev
    return out


def _distances(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``|total / count|`` per row, NaN (undefined) where the count is zero."""
    norms = np.linalg.norm(total / np.maximum(count, 1)[:, None], axis=1)
    if not np.isfinite(norms).all():
        raise OverflowError("an eccentricity overflows float64")
    norms[count == 0] = np.nan
    return norms


def _part_sums(matrix, prefix, ref, v, seg, a, b):
    """``sum(v - x)`` over sorted positions [a, b) of segment ``seg``, row-wise;
    ``ref`` holds each segment's reference row of ``matrix``."""
    return ((b - a)[:, None] * (v - dense_rows(matrix, ref[seg]))
            - (prefix[b + seg] - prefix[a + seg]))


def _row_index(vectors: Vectors) -> dict[str, int]:
    """Map each post id to its matrix row. A matrix that is not 2-D, or whose
    row count differs from the id count, is a DataFormatError that names the
    first id left without a row."""
    ids, matrix = vectors
    n_rows = len(matrix) if np.ndim(matrix) == 2 else 0
    if n_rows != len(ids):
        unmatched = f", first without a row: {ids[n_rows]!r}" if n_rows < len(ids) else ""
        raise DataFormatError(f"vector matrix of shape {np.shape(matrix)} does not hold "
                              f"one row per id ({len(ids)} ids{unmatched})")
    return dict(zip(ids, range(len(ids))))


def _clouds(posts: PostColumns, graph: SocialGraph, vectors: Vectors, window_seconds: int):
    """Per post, in log order: eccentricity and self-eccentricity (float64,
    NaN where undefined), cloud size and self-cloud size (int64), as four
    arrays (see ``replay``). ``graph`` holds every author.

    Rows are gathered from the id-ordered matrix through ``src``, each post's
    row, a chunk at a time: no log-ordered copy of the matrix is made, so the
    only n x D array beside the matrix is the prefix sums. Set-up arrays are
    dropped once used."""
    row = _row_index(vectors)
    matrix = vectors[1]
    n = len(posts.ids)
    try:
        src = np.fromiter(map(row.__getitem__, posts.ids), np.int64, n)
    except KeyError as exc:
        raise MissingVectorError(f"no vector for post {exc.args[0]!r}") from None
    del row
    ecc, self_ecc = np.empty(n), np.empty(n)
    sizes, self_sizes = np.empty(n, np.int64), np.empty(n, np.int64)
    if n == 0:
        return ecc, self_ecc, sizes, self_sizes
    lo, hi, block = _window_bounds(posts.times, window_seconds)

    # ego neighborhoods by user code (codes follow sorted ids), flattened
    users = sorted(graph.users)
    code = {u: i for i, u in enumerate(users)}
    ego = [[code[u], *sorted(code[v] for v in graph.out_neighbors(u))] for u in users]
    ego_len = np.array([len(e) for e in ego])
    ego_start = np.cumsum(ego_len) - ego_len
    ego_flat = np.fromiter(itertools.chain.from_iterable(ego), np.int64, int(ego_len.sum()))
    author = np.fromiter(map(code.__getitem__, posts.authors), np.int64, n)
    del users, code, ego

    # sorted positions: by author, then log index; key = author * n + log index
    order = np.argsort(author, kind="stable")
    sorted_author, sorted_block = author[order], block[order]
    keys = sorted_author * n + order
    new_seg = np.ones(n, dtype=bool)
    new_seg[1:] = ((sorted_author[1:] != sorted_author[:-1])
                   | (sorted_block[1:] != sorted_block[:-1]))
    seg_first = np.flatnonzero(new_seg)
    seg_of = np.cumsum(new_seg) - 1
    del block, sorted_author, sorted_block, new_seg
    prefix = _segment_prefix_sums(matrix, src[order], seg_first, np.diff(seg_first, append=n))
    ref = src[order[seg_first]]
    del order

    # (post, ego member) pairs, a chunk of posts at a time
    pairs_before = np.cumsum(ego_len[author]) - ego_len[author]
    budget = max(1, _CHUNK_VALUES // max(matrix.shape[1], 1))
    start = 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(pairs_before, pairs_before[start] + budget)))
        count = ego_len[author[start:stop]]
        first = np.cumsum(count) - count  # each post's self pair
        post = np.repeat(np.arange(start, stop), count)
        member = ego_flat[np.repeat(ego_start[author[start:stop]] - first, count)
                          + np.arange(len(post))]
        lo_pos = np.searchsorted(keys, member * n + lo[post])
        hi_pos = np.searchsorted(keys, member * n + hi[post])
        # [lo_pos, hi_pos) spans at most two segments, split at mid
        late = seg_of[np.maximum(hi_pos - 1, 0)]
        mid = np.clip(seg_first[late], lo_pos, hi_pos)
        early = seg_of[np.minimum(lo_pos, n - 1)]
        v = dense_rows(matrix, src[post])
        total = (_part_sums(matrix, prefix, ref, v, early, lo_pos, mid)
                 + _part_sums(matrix, prefix, ref, v, late, mid, hi_pos))
        size = hi_pos - lo_pos
        sizes[start:stop] = np.add.reduceat(size, first)
        self_sizes[start:stop] = size[first]
        ecc[start:stop] = _distances(np.add.reduceat(total, first), sizes[start:stop])
        self_ecc[start:stop] = _distances(total[first], size[first])
        start = stop
    return ecc, self_ecc, sizes, self_sizes


def _optional(values: np.ndarray) -> list[float | None]:
    """The values as Python floats, None for NaN (an undefined value)."""
    return [None if v != v else v for v in values.tolist()]


def replay(
    corpus: Corpus | tuple[PostColumns, SocialGraph],
    vectors: Vectors,
    window_seconds: int = DEFAULT_WINDOW_SECONDS,
) -> list[EccentricityRecord]:
    """A list of one EccentricityRecord per post, in (created_at, id) order.

    Fan-in: each post reads the windowed sums of its ego members (itself first,
    then followees by id) from per-author prefix sums, instead of every post
    being pushed into every follower's cloud. Posts are sorted by (author,
    time) and cut into segments at block edges (see ``_window_bounds``); a
    window then covers at most two segments of one author, and each part
    adds ``n * (v - ref) - sum(x - ref)`` to ``sum(v - x)`` over the cloud,
    whose mean is the offset of ``v`` from the cloud's centroid. Rows are
    read from the id-ordered matrix as given, a chunk at a time, so the
    prefix sums are the only n x D array made. A ``window_seconds`` that is
    not finite and positive is a DataFormatError.

    The posts are a Corpus's, or a (PostColumns, graph) pair whose graph holds
    every author.
    """
    check_positive("window_seconds", window_seconds)
    posts, graph = corpus
    if not isinstance(posts, PostColumns):
        posts = post_columns(posts)
    # a sum that overflows leaves a non-finite distance, which _distances refuses
    with np.errstate(over="ignore", invalid="ignore"):
        ecc, self_ecc, sizes, self_sizes = _clouds(posts, graph, vectors, window_seconds)
    # built once _clouds has returned: its n x D prefix sums are freed by then,
    # and from dimension 24 up they, not the records, set the stage's peak
    return list(map(EccentricityRecord, *posts, _optional(ecc), _optional(self_ecc),
                    sizes.tolist(), self_sizes.tolist()))


def eccentricity_oracle(
    corpus: Corpus | tuple[PostColumns, SocialGraph],
    vectors: Vectors,
    window_seconds: int,
    post_id: str,
) -> tuple[float | None, float | None]:
    """Recompute (eccentricity, self_eccentricity) for one post by direct scan
    of the posts as given: a Corpus's posts, or the columns of a
    (PostColumns, graph) pair, in their order; nothing is sorted.

    Holds no incremental state: filters the whole post log by neighborhood
    membership and the half-open window [t - window, t). Each offset component
    is a ``math.fsum`` of the deviations v - x over the cloud size, so a large
    common vector offset costs no accuracy, and the scan order no bit.
    """
    posts, graph = corpus

    def log():
        """Each post as a row that starts with its id, author and time: a
        Corpus's Post rows as they are, or a PostColumns zipped."""
        return zip(*posts) if isinstance(posts, PostColumns) else posts

    target = next((post for post in log() if post[0] == post_id), None)
    if target is None:
        raise DataFormatError(f"unknown post id {post_id!r}")
    _, author, t = target[:3]
    row = _row_index(vectors)
    matrix = vectors[1]
    neighborhood = ego_neighborhood(graph, author)
    lo = t - window_seconds
    window = [post[:2] for post in log() if lo <= post[2] < t]
    cloud = dense_rows(matrix, [row[i] for i, a in window if a in neighborhood])
    own = dense_rows(matrix, [row[i] for i, a in window if a == author])
    vec = dense_rows(matrix, row[post_id])

    def distance(members: np.ndarray) -> float | None:
        if not len(members):
            return None
        mean = [math.fsum(d) / len(members) for d in zip(*(vec - x for x in members))]
        return math.sqrt(math.fsum(m * m for m in mean))

    return distance(cloud), distance(own)


def write_records_csv(records: Iterable[EccentricityRecord], path: str | Path) -> None:
    """Write records as CSV; undefined eccentricities become empty fields."""
    write_rows(path, RECORD_FIELDS, records)


def optional_float(text: str) -> float | None:
    """An empty CSV field is an undefined value; a non-finite one (nan, inf)
    raises ValueError, as no stage writes one."""
    if not text:
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """A count or a time in seconds, which no stage writes negative: a
    negative one raises ValueError."""
    value = int(text)
    if value < 0:
        raise ValueError(f"negative value {text!r}")
    return value


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV; a None field becomes an empty one."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def iter_rows(path: str | Path, row_type,
              parsers: Sequence[Callable[[str], object]]) -> Iterator:
    """Rows of a CSV file headed ``row_type._fields``, one at a time as they
    are asked for, each field parsed by the matching entry of ``parsers``;
    blank lines are skipped. Lines come from ``utf8_lines``, so a line that
    is not UTF-8 raises DataFormatError with file:line, as do a header that
    is not ``row_type._fields``, a row the CSV reader rejects (such as a
    field over its size limit), a row with the wrong field count and an
    unparsable field. The rows before a bad one have been yielded by then."""
    fields = row_type._fields
    reader = csv.reader(line for _, line in utf8_lines(path))
    try:
        header = next(reader, None)
        if header is None or tuple(header) != fields:
            raise DataFormatError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(fields):
                raise ValueError(f"{len(row)} fields, expected {len(fields)}")
            yield row_type._make([parse(cell) for parse, cell in zip(parsers, row)])
    except DataFormatError:
        raise
    except (csv.Error, ValueError) as exc:
        raise DataFormatError(
            f"{path}:{reader.line_num}: bad {row_type.__name__} row ({exc})") from exc


# the parser of each field of records.csv, in RECORD_FIELDS order
RECORD_PARSERS = (str, str, non_negative_int, non_negative_int, optional_float, optional_float,
                  non_negative_int, non_negative_int)


def read_records_csv(path: str | Path) -> list[EccentricityRecord]:
    return list(iter_rows(path, EccentricityRecord, RECORD_PARSERS))
