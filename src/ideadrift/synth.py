"""Seeded synthetic corpora with planted effects.

Three modes share one RNG draw schedule (graph, post times, user means, drift
direction, per-post noise, like draws, text), so a zero-strength effect run
is byte-identical to the null run under the same seed:

* null: no planted structure, likes uniform on [0, like_max].
* attention-coupling: likes = floor((like_max+1) * u^k) with u uniform and
  the exponent k monotone decreasing in the post's planted deviation from
  its neighborhood's generative center, so expected likes rise with
  deviation; strength scales the exponent range. k = 1 (uniform) at
  strength 0.
* elevator-drift: every user's generative mean translates along one shared
  direction at `effect_strength` units per day; likes uniform.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from ._np import np
from .corpus import (Corpus, Post, SocialGraph, build_corpus,
                     write_edges_jsonl, write_posts_jsonl)
from .embed import Vectors, write_vectors
from .errors import DataFormatError

EFFECTS = ("null", "attention-coupling", "elevator-drift")

# attention-coupling like model: likes = floor((like_max + 1) * u^k) with
# u uniform and k = exp(strength * (A - B * q)), q the deviation quantile.
# At strength 1 the bottom half of posts expects < 10 likes and only the top
# couple of percent expects > 100, echoing a heavy-tailed like distribution;
# strength 0 collapses to k = 1, i.e. the null mode's uniform likes.
_LIKE_EXP_BASE = 6.5
_LIKE_EXP_SLOPE = 5.25

_WORDS = (
    "anchor", "autumn", "basket", "bridge", "candle", "canyon", "carpet",
    "cedar", "cellar", "circle", "copper", "corner", "cotton", "cradle",
    "crystal", "desert", "ember", "engine", "falcon", "feather", "fiddle",
    "flint", "forest", "garden", "garnet", "glacier", "hammer", "harbor",
    "hollow", "hornet", "island", "jacket", "jungle", "kettle", "ladder",
    "lantern", "lemon", "linen", "magnet", "mantle", "marble", "meadow",
    "mirror", "mountain", "needle", "nickel", "orchard", "oyster", "paddle",
    "pebble", "pepper", "pillar", "pinecone", "pocket", "prairie", "quarry",
    "rabbit", "ribbon", "river", "saddle", "shadow", "shelter", "signal",
    "silver", "spiral", "spruce", "stable", "summit", "tangle", "thicket",
    "thunder", "timber", "trellis", "tunnel", "valley", "velvet", "walnut",
    "willow", "winter", "zephyr",
)


# numpy's largest Poisson mean (np.random.Generator.poisson refuses more)
_POISSON_LAM_MAX = 2**63 - 1 - math.sqrt(2**63 - 1) * 10


class _SynthFields(NamedTuple):
    n_users: int
    follow_prob: float
    n_days: float
    posts_per_user_per_day: float
    dim: int
    seed: int
    effect: str = "null"
    effect_strength: float = 0.0
    user_spread: float = 4.0
    post_noise: float = 0.25
    like_max: int = 500


class SynthConfig(_SynthFields):
    """Generation settings, refused when constructed unless ``gen_corpus``
    can draw with them. (``_make`` and ``_replace`` skip the checks.)"""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_users < 1 or self.dim < 1 or self.like_max < 1:
            raise DataFormatError("n_users, dim and like_max must be positive")
        if self.n_days <= 0 or self.posts_per_user_per_day <= 0:
            raise DataFormatError("n_days and posts_per_user_per_day must be positive")
        if not (0.0 <= self.follow_prob <= 1.0):
            raise DataFormatError(f"follow_prob must be in [0, 1], got {self.follow_prob}")
        if self.effect not in EFFECTS:
            raise DataFormatError(f"effect must be one of {EFFECTS}, got {self.effect!r}")
        if self.effect_strength < 0:
            raise DataFormatError("effect_strength must be >= 0")
        if self.seed < 0:
            raise DataFormatError(f"seed must be >= 0, got {self.seed}")
        for name in ("user_spread", "post_noise"):
            # numpy refuses a normal scale whose sign bit is set, -0.0 included
            if math.copysign(1.0, getattr(self, name)) < 0:
                raise DataFormatError(
                    f"{name} must be >= 0 and not -0.0, got {getattr(self, name)}")
        if not 0.5 < self.n_days * 86400 <= 2**63:  # times: [0, round(seconds)) as int64
            raise DataFormatError(f"n_days must span 1 to 2**63 seconds, got {self.n_days}")
        if not self.posts_per_user_per_day * self.n_days <= _POISSON_LAM_MAX:
            raise DataFormatError("posts_per_user_per_day * n_days, the mean posts per "
                                  f"user, is above numpy's Poisson limit {_POISSON_LAM_MAX:.4g}")
        return self


class SynthDetails(NamedTuple):
    """Generation internals exposed for verification against planted effects.

    Per-post arrays are aligned with the corpus post order. planted_deviation
    is each post's distance from its author's neighborhood generative center.
    """

    user_means: np.ndarray        # n_users x dim generative centers
    drift_direction: np.ndarray   # unit vector shared by all users
    author_index: np.ndarray      # per post, index into user_means
    times_days: np.ndarray        # per post, creation time in days
    planted_deviation: np.ndarray


def gen_corpus(cfg: SynthConfig) -> tuple[Corpus, Vectors, SynthDetails]:
    """Generate a corpus, its post vectors and the generation internals.
    Same config, same bytes."""
    rng = np.random.default_rng(cfg.seed)
    users = [f"u{i:05d}" for i in range(cfg.n_users)]

    edges = []
    out_index: list[list[int]] = []
    for i in range(cfg.n_users):
        row = rng.random(cfg.n_users) < cfg.follow_prob
        row[i] = False
        followees = np.flatnonzero(row)
        out_index.append(list(followees))
        edges.extend((users[i], users[j]) for j in followees)
    graph = SocialGraph(users, edges)

    total_seconds = int(round(cfg.n_days * 86400))
    counts = rng.poisson(cfg.posts_per_user_per_day * cfg.n_days, size=cfg.n_users)
    post_meta: list[tuple[int, int]] = []  # (created_at, author index)
    for i in range(cfg.n_users):
        times = rng.integers(0, total_seconds, size=counts[i])
        post_meta.extend((int(t), i) for t in times)
    post_meta.sort()
    n_posts = len(post_meta)

    mu = rng.normal(0.0, cfg.user_spread, size=(cfg.n_users, cfg.dim))
    raw_dir = rng.normal(0.0, 1.0, size=cfg.dim)
    drift_dir = raw_dir / np.linalg.norm(raw_dir)
    noise = rng.normal(0.0, cfg.post_noise, size=(n_posts, cfg.dim))
    like_u = rng.random(n_posts)
    word_counts = rng.integers(3, 9, size=n_posts)
    word_picks = rng.integers(0, len(_WORDS), size=int(word_counts.sum()))

    t_days = np.asarray([t for t, _ in post_meta], dtype=float) / 86400.0
    author_idx = np.asarray([i for _, i in post_meta], dtype=int)
    drift_rate = cfg.effect_strength if cfg.effect == "elevator-drift" else 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # vectors checked below
        vectors = (mu[author_idx]
                   + drift_rate * t_days[:, None] * drift_dir[None, :]
                   + noise)
        nb_center = np.empty_like(mu)
        for i in range(cfg.n_users):
            nb_center[i] = mu[[i, *out_index[i]]].mean(axis=0)
        deviation = np.linalg.norm(vectors - nb_center[author_idx], axis=1)
    if not np.isfinite(vectors).all():
        raise DataFormatError("post vectors overflow float64: user_spread, post_noise "
                              "or strength is too large")
    if cfg.effect == "attention-coupling" and cfg.effect_strength > 0 and n_posts:
        order = np.argsort(deviation, kind="stable")
        quantile = np.empty(n_posts)
        quantile[order] = (np.arange(n_posts) + 0.5) / n_posts
        exponent = np.exp(cfg.effect_strength
                          * (_LIKE_EXP_BASE - _LIKE_EXP_SLOPE * quantile))
    else:
        exponent = np.ones(n_posts)
    likes = np.minimum(
        np.floor((cfg.like_max + 1) * like_u**exponent), cfg.like_max
    ).astype(int)

    posts = []
    word_pos = 0
    for idx, (t, i) in enumerate(post_meta):
        n_words = int(word_counts[idx])
        words = [_WORDS[w] for w in word_picks[word_pos:word_pos + n_words]]
        word_pos += n_words
        posts.append(Post(
            id=f"p{idx:07d}",
            author=users[i],
            created_at=t,
            text=" ".join(words),
            likes=int(likes[idx]),
        ))
    details = SynthDetails(user_means=mu, drift_direction=drift_dir,
                           author_index=author_idx, times_days=t_days,
                           planted_deviation=deviation)
    return build_corpus(posts, graph), ([p.id for p in posts], vectors), details


def write_corpus_files(
    corpus: Corpus,
    vectors: Vectors,
    posts_path: str | Path,
    edges_path: str | Path,
    vectors_path: str | Path,
) -> None:
    """Emit posts.jsonl / edges.jsonl / vectors.jsonl in canonical order."""
    write_posts_jsonl(corpus.posts, posts_path)
    write_edges_jsonl(corpus.graph, edges_path)
    write_vectors(vectors_path, vectors)
