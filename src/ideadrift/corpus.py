"""Post log and follow graph: loading, validation, components, ego neighborhoods.

Input files are UTF-8 JSONL. posts.jsonl lines carry id, author, created_at
(integer epoch seconds), text, likes; edges.jsonl lines carry follower,
followee. Malformed lines, undecodable ones included, are skipped with a
file:line warning; structural problems (duplicate post ids, unreadable files)
are fatal.
"""

from __future__ import annotations

import json
import logging
import math
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._np import np
from .errors import DataFormatError

logger = logging.getLogger(__name__)

_raw_decode = json.JSONDecoder().raw_decode


class Post(NamedTuple):
    id: str
    author: str
    created_at: int
    text: str
    likes: int


_POST_TYPES = (str, str, int, str, int)  # Post's field types, in order
_POST_ORDER = itemgetter(2, 0)  # a post's (created_at, id), the log's sort key


class SocialGraph:
    """Immutable directed follow graph with precomputed adjacency.

    Nodes are user-id strings; an edge (a, b) means a follows b. Self-loops
    are never stored. Users with no edges are legal (isolated nodes).
    """

    __slots__ = ("_users", "_out")

    def __init__(self, users: Iterable[str], edges: Iterable[tuple[str, str]]):
        out: dict[str, set[str]] = {u: set() for u in users}
        for a, b in edges:
            if a == b:
                continue
            if a not in out or b not in out:
                raise DataFormatError(f"edge ({a!r}, {b!r}) references unknown user")
            out[a].add(b)
        self._users = frozenset(out)
        self._out = {u: frozenset(v) for u, v in out.items()}

    @property
    def users(self) -> frozenset[str]:
        return self._users

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for a, followees in self._out.items() for b in followees)

    def out_neighbors(self, u: str) -> frozenset[str]:
        """Users that u follows."""
        return self._out[u]

    def induced(self, keep: Iterable[str]) -> "SocialGraph":
        """Subgraph induced on ``keep`` (nodes restricted, edges filtered)."""
        keep = frozenset(keep)
        unknown = keep - self._users
        if unknown:
            raise DataFormatError(f"cannot induce on unknown users: {sorted(unknown)[:5]}")
        return SocialGraph(keep, ((a, b) for a in keep for b in self._out[a] & keep))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return self._out == other._out

    def __repr__(self) -> str:
        return f"SocialGraph(users={len(self._users)}, edges={len(self.edges)})"


class Corpus(NamedTuple):
    """A time-ordered post log plus the static follow graph behind it, as
    ``build_corpus`` makes it: sorted by (created_at, id), authors in the graph."""

    posts: tuple[Post, ...]
    graph: SocialGraph


def build_corpus(posts: Sequence[Post], graph: SocialGraph) -> Corpus:
    """Assemble a Corpus; authors absent from the graph become isolated nodes."""
    missing = {p.author for p in posts} - graph.users
    if missing:
        graph = SocialGraph(graph.users | missing, graph.edges)
    return Corpus(tuple(sorted(posts, key=_POST_ORDER)), graph)


def json_line(line: str) -> object:
    """``json.loads(line)``: the same value, or the same error.

    A line that starts with its value and ends in JSON whitespace is decoded
    by one C call; any other line goes through ``json.loads`` itself. A value
    nested too deeply to decode raises ValueError, not RecursionError.
    """
    try:
        try:
            obj, end = _raw_decode(line)
        except ValueError:
            return json.loads(line)
        if line[end:].strip(" \t\n\r"):
            return json.loads(line)
        return obj
    except RecursionError as exc:
        raise ValueError(f"nested too deeply: {exc}") from None


def utf8_lines(path: str | Path, offset: int = 0, first: int = 1,
               count: int | None = None) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for every line of a file, numbered from 1, blank
    lines included. Lines end at ``\n`` and are decoded strictly as UTF-8,
    one at a time; a line that is not UTF-8 raises DataFormatError with
    file:line.

    A part of the file is read from the line that starts at byte ``offset``,
    numbered from ``first``, for ``count`` lines (None: to the end).
    """
    with open(path, "rb") as fh:
        if offset:
            fh.seek(offset)
        for lineno, raw in enumerate(islice(fh, count), start=first):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: not UTF-8 ({exc})") from exc
            yield lineno, line


def _parse_post(line: str) -> Post:
    obj = json_line(line)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    post = Post._make(map(obj.get, Post._fields))
    # type() rather than isinstance(): bool is a subclass of int
    if tuple(map(type, post)) != _POST_TYPES:
        for key, typ in zip(Post._fields, _POST_TYPES):
            if key not in obj:
                raise ValueError(f"missing field {key!r}")
            if type(obj[key]) is not typ:
                raise ValueError(f"field {key!r} has wrong type")
    if post.created_at < 0:
        raise ValueError("created_at is negative")
    if post.likes < 0:
        raise ValueError("likes is negative")
    return post


def _parse_edge(line: str) -> tuple[str, str]:
    obj = json_line(line)
    follower, followee = obj["follower"], obj["followee"]
    if not isinstance(follower, str) or not isinstance(followee, str):
        raise ValueError("follower/followee must be strings")
    return follower, followee


def _parsed_lines(path: str | Path, kind: str,
                  parse: Callable[[str], object]) -> Iterator[tuple[int, object]]:
    """``(lineno, parse(line))`` for each non-blank line of a JSONL file.

    Lines are numbered from 1, blank ones included. A line that is not UTF-8
    (which ``utf8_lines`` would make fatal), or that ``parse`` rejects, is
    skipped with a ``file:line`` warning, and the number skipped is logged
    once the file is read. A file whose every
    non-blank line is skipped, such as one with lone-CR line endings read as
    one line, raises DataFormatError naming the first; an empty file yields
    nothing.
    """
    skipped = parsed = 0
    first_bad = ""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                item = parse(line)
            except (ValueError, KeyError, TypeError) as exc:
                skipped += 1
                logger.warning("%s:%d: skipping malformed %s line (%s)", path, lineno, kind, exc)
                first_bad = first_bad or f"line {lineno} ({exc})"
                continue
            parsed += 1
            yield lineno, item
    if skipped:
        logger.warning("%s: skipped %d malformed %s line(s)", path, skipped, kind)
        if not parsed:
            raise DataFormatError(f"{path}: no {kind} line parses; first malformed: {first_bad}")


def load_posts(path: str | Path) -> list[Post]:
    """Load a posts.jsonl file, sorted by (created_at, id).

    Malformed lines are skipped with a warning and counted; a duplicate post
    id is fatal.
    """
    posts: list[Post] = []
    seen: set[str] = set()
    for lineno, post in _parsed_lines(path, "post", _parse_post):
        if post.id in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate post id {post.id!r}")
        seen.add(post.id)
        posts.append(post)
    posts.sort(key=_POST_ORDER)
    return posts


def load_edges(path: str | Path) -> SocialGraph:
    """Load an edges.jsonl follow graph; duplicates deduplicated, self-loops dropped."""
    edges = [edge for _, edge in _parsed_lines(path, "edge", _parse_edge)]
    return SocialGraph({u for edge in edges for u in edge}, edges)


def largest_connected_component(g: SocialGraph) -> SocialGraph:
    """Induced subgraph on the largest weakly connected user set.

    Direction is ignored for connectivity. Ties between equally large
    components go to the one containing the lexicographically smallest
    user id. An empty graph maps to an empty graph.
    """
    if not g.users:
        return SocialGraph((), ())
    # union-find whose root is always the smallest id in its component
    root = {u: u for u in g.users}

    def find(u: str) -> str:
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for a, b in g.edges:
        ra, rb = sorted((find(a), find(b)))
        root[rb] = ra
    components: dict[str, list[str]] = {}
    for u in g.users:
        components.setdefault(find(u), []).append(u)
    _, best = min(components.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return g.induced(best)


def sample_users(g: SocialGraph, fraction: float, seed: int) -> SocialGraph:
    """Induced subgraph on ceil(fraction * |users|) users, drawn without replacement.

    The draw is made by a seeded generator over the sorted user list, so the
    same (graph, fraction, seed) always yields the same subgraph.
    """
    if not (0.0 < fraction <= 1.0):
        raise DataFormatError(f"fraction must be in (0, 1], got {fraction}")
    if seed < 0:
        raise DataFormatError(f"seed must be >= 0, got {seed}")
    ordered = sorted(g.users)
    if not ordered:
        return SocialGraph((), ())
    k = math.ceil(fraction * len(ordered))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(ordered), size=k, replace=False)
    return g.induced(ordered[i] for i in chosen)


def ego_neighborhood(g: SocialGraph, u: str) -> frozenset[str]:
    """The user plus everyone they follow. Followers-only links are excluded."""
    if u not in g.users:
        raise DataFormatError(f"unknown user {u!r}")
    return g.out_neighbors(u) | {u}


def write_posts_jsonl(posts: Iterable[Post], path: str | Path) -> None:
    """Write posts in their given order, one compact JSON object per line.

    Each line is formatted by hand, its strings escaped by the string encoder
    of ``json.dumps``, so the bytes are those of ``json.dumps(post_as_dict,
    separators=(",", ":"))``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for p in posts:
            fh.write('{"id":%s,"author":%s,"created_at":%d,"text":%s,"likes":%d}\n' % (
                _json_string(p.id), _json_string(p.author), p.created_at,
                _json_string(p.text), p.likes))


def write_edges_jsonl(g: SocialGraph, path: str | Path) -> None:
    """Write the edge set in sorted order, one compact JSON object per line,
    formatted as ``write_posts_jsonl`` formats its lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for follower, followee in sorted(g.edges):
            fh.write('{"follower":%s,"followee":%s}\n' % (
                _json_string(follower), _json_string(followee)))
