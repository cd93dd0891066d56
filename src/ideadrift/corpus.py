"""Post log and follow graph: loading, validation, components, ego neighborhoods.

Input files are JSONL. posts.jsonl lines carry id, author, created_at (integer
epoch seconds), text, likes; edges.jsonl lines carry follower, followee.
Malformed lines are skipped with a warning; structural problems (duplicate
post ids, unreadable files) are fatal.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Post:
    id: str
    author: str
    created_at: int
    text: str
    likes: int


class SocialGraph:
    """Immutable directed follow graph with precomputed adjacency.

    Nodes are user-id strings; an edge (a, b) means a follows b. Self-loops
    are never stored. Users with no edges are legal (isolated nodes).
    """

    __slots__ = ("_users", "_edges", "_out")

    def __init__(self, users: Iterable[str], edges: Iterable[tuple[str, str]]):
        self._users = frozenset(users)
        edge_set = set()
        for a, b in edges:
            if a == b:
                continue
            if a not in self._users or b not in self._users:
                raise DataFormatError(f"edge ({a!r}, {b!r}) references unknown user")
            edge_set.add((a, b))
        self._edges = frozenset(edge_set)
        out: dict[str, set[str]] = {u: set() for u in self._users}
        for a, b in self._edges:
            out[a].add(b)
        self._out = {u: frozenset(v) for u, v in out.items()}

    @property
    def users(self) -> frozenset[str]:
        return self._users

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    def out_neighbors(self, u: str) -> frozenset[str]:
        """Users that u follows."""
        return self._out[u]

    def with_users(self, extra: Iterable[str]) -> "SocialGraph":
        """Copy of the graph with additional isolated users added."""
        extra = set(extra) - self._users
        if not extra:
            return self
        return SocialGraph(self._users | extra, self._edges)

    def induced(self, keep: Iterable[str]) -> "SocialGraph":
        """Subgraph induced on ``keep`` (nodes restricted, edges filtered)."""
        keep = frozenset(keep)
        unknown = keep - self._users
        if unknown:
            raise DataFormatError(f"cannot induce on unknown users: {sorted(unknown)[:5]}")
        edges = [(a, b) for a, b in self._edges if a in keep and b in keep]
        return SocialGraph(keep, edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return self._users == other._users and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._users, self._edges))

    def __repr__(self) -> str:
        return f"SocialGraph(users={len(self._users)}, edges={len(self._edges)})"


@dataclass(frozen=True)
class Corpus:
    """A time-ordered post log plus the static follow graph behind it."""

    posts: tuple[Post, ...]
    graph: SocialGraph

    def __post_init__(self):
        for p, q in zip(self.posts, self.posts[1:]):
            if (p.created_at, p.id) >= (q.created_at, q.id):
                raise DataFormatError(
                    f"posts not sorted by (created_at, id): {p.id!r} before {q.id!r}"
                )
        missing = {p.author for p in self.posts} - self.graph.users
        if missing:
            raise DataFormatError(
                f"post authors missing from graph: {sorted(missing)[:5]}"
            )


def build_corpus(posts: Sequence[Post], graph: SocialGraph) -> Corpus:
    """Assemble a Corpus; authors absent from the graph become isolated nodes."""
    graph = graph.with_users(p.author for p in posts)
    ordered = tuple(sorted(posts, key=lambda p: (p.created_at, p.id)))
    return Corpus(posts=ordered, graph=graph)


def _parse_post(obj) -> Post:
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    for key, typ in (("id", str), ("author", str), ("created_at", int),
                     ("text", str), ("likes", int)):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        value = obj[key]
        if not isinstance(value, typ) or isinstance(value, bool):
            raise ValueError(f"field {key!r} has wrong type")
    if obj["created_at"] < 0:
        raise ValueError("created_at is negative")
    if obj["likes"] < 0:
        raise ValueError("likes is negative")
    return Post(id=obj["id"], author=obj["author"], created_at=obj["created_at"],
                text=obj["text"], likes=obj["likes"])


def load_posts(path: str | Path) -> list[Post]:
    """Load a posts.jsonl file, sorted by (created_at, id).

    Malformed lines are skipped with a warning and counted; a duplicate post
    id is fatal.
    """
    posts: list[Post] = []
    seen: set[str] = set()
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                post = _parse_post(json.loads(line))
            except (json.JSONDecodeError, ValueError) as exc:
                skipped += 1
                logger.warning("%s:%d: skipping malformed post line (%s)", path, lineno, exc)
                continue
            if post.id in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate post id {post.id!r}")
            seen.add(post.id)
            posts.append(post)
    if skipped:
        logger.warning("%s: skipped %d malformed post line(s)", path, skipped)
    posts.sort(key=lambda p: (p.created_at, p.id))
    return posts


def load_edges(path: str | Path) -> SocialGraph:
    """Load an edges.jsonl follow graph; duplicates deduplicated, self-loops dropped."""
    users: set[str] = set()
    edges: set[tuple[str, str]] = set()
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                follower, followee = obj["follower"], obj["followee"]
                if not isinstance(follower, str) or not isinstance(followee, str):
                    raise ValueError("follower/followee must be strings")
            except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
                skipped += 1
                logger.warning("%s:%d: skipping malformed edge line (%s)", path, lineno, exc)
                continue
            users.add(follower)
            users.add(followee)
            if follower != followee:
                edges.add((follower, followee))
    if skipped:
        logger.warning("%s: skipped %d malformed edge line(s)", path, skipped)
    return SocialGraph(users, edges)


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
    """Write posts in their given order, one compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in posts:
            fh.write(json.dumps(
                {"id": p.id, "author": p.author, "created_at": p.created_at,
                 "text": p.text, "likes": p.likes},
                separators=(",", ":")) + "\n")


def write_edges_jsonl(g: SocialGraph, path: str | Path) -> None:
    """Write the edge set in sorted order, one compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for follower, followee in sorted(g.edges):
            fh.write(json.dumps({"follower": follower, "followee": followee},
                                separators=(",", ":")) + "\n")
