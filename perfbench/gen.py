"""Seeded input generators for the benchmark workloads.

Both generators rewrite files that ``ideadrift synth`` produced, so every
workload starts from the same Gaussian user-mean corpus:

* ``add_hubs`` appends a few high-rate hub accounts that a large share of
  users follow. Hub posts follow synth's model (user mean drawn from
  N(0, user_spread^2), post vector = mean + N(0, post_noise^2), uniform post
  times and likes), only at ``rate_mult`` times the base posting rate.
* ``zipf_text`` replaces every post's text with words drawn from a Zipfian
  distribution over a large generated vocabulary whose words carry English
  suffixes, so Porter stemming has real suffixes to strip.

The same arguments give byte-identical output files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# distinct stream tags keep each generator's draws independent of synth's
_HUB_STREAM = 0x4855_4253
_TEXT_STREAM = 0x5A49_5046

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "br", "cl", "cr", "dr", "fl", "gr", "pl",
           "pr", "sh", "sl", "st", "str", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oa", "ou")
_CODAS = ("", "", "b", "ck", "d", "l", "m", "n", "nd", "nt", "p", "r",
          "rt", "s", "st", "t")
# suffixes the 1980 Porter rules act on, plus bare roots
_SUFFIXES = ("", "", "", "s", "es", "ed", "ing", "ly", "er", "ation",
             "ational", "ness", "ful", "ive", "ize", "izer", "ization",
             "ous", "ousness", "ment", "ement", "ent", "ance", "ence",
             "able", "ible", "al", "ism", "ist", "iti", "ity", "ic",
             "ical", "icate", "iveness", "fulness", "ator", "alli",
             "entli", "eli", "ousli", "ate", "ant", "ion")


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def add_hubs(posts_in: Path, edges_in: Path, vectors_in: Path,
             posts_out: Path, edges_out: Path, vectors_out: Path, *,
             seed: int, n_hubs: int, reach: float, rate_mult: float,
             n_days: float, posts_per_day: float, user_spread: float = 4.0,
             post_noise: float = 0.25, like_max: int = 500) -> dict:
    """Write the base corpus plus ``n_hubs`` hub accounts; return counts."""
    posts = _jsonl(posts_in)
    edges = _jsonl(edges_in)
    vectors = _jsonl(vectors_in)
    users = sorted({p["author"] for p in posts}
                   | {e["follower"] for e in edges} | {e["followee"] for e in edges})
    dim = len(vectors[0]["vec"])
    rng = np.random.default_rng([seed, _HUB_STREAM])

    hubs = [f"h{i:03d}" for i in range(n_hubs)]
    follows = rng.random((len(users), n_hubs)) < reach
    hub_edges = [{"follower": users[u], "followee": hubs[h]}
                 for u, h in zip(*np.nonzero(follows))]

    total_seconds = int(round(n_days * 86400))
    counts = rng.poisson(rate_mult * posts_per_day * n_days, size=n_hubs)
    means = rng.normal(0.0, user_spread, size=(n_hubs, dim))
    hub_posts, hub_vectors = [], []
    for h, hub in enumerate(hubs):
        times = rng.integers(0, total_seconds, size=counts[h])
        vecs = means[h] + rng.normal(0.0, post_noise, size=(counts[h], dim))
        likes = rng.integers(0, like_max + 1, size=counts[h])
        for j in range(counts[h]):
            post_id = f"{hub}p{j:06d}"
            hub_posts.append({"id": post_id, "author": hub,
                              "created_at": int(times[j]),
                              "text": "hub update", "likes": int(likes[j])})
            hub_vectors.append({"id": post_id,
                                "vec": [float(x) for x in vecs[j]]})

    _write_jsonl(posts_out, posts + hub_posts)
    _write_jsonl(edges_out, edges + hub_edges)
    _write_jsonl(vectors_out, vectors + hub_vectors)
    return {"hub_posts": len(hub_posts), "hub_edges": len(hub_edges)}


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct lowercase words: one or two syllables plus a suffix."""
    words: dict[str, None] = {}
    while len(words) < size:
        n_syll = 1 + int(rng.integers(0, 2))
        root = "".join(_ONSETS[rng.integers(len(_ONSETS))]
                       + _VOWELS[rng.integers(len(_VOWELS))]
                       + _CODAS[rng.integers(len(_CODAS))]
                       for _ in range(n_syll))
        words.setdefault(root + _SUFFIXES[rng.integers(len(_SUFFIXES))])
    return list(words)


def zipf_text(posts_in: Path, posts_out: Path, *, seed: int, vocab_size: int,
              exponent: float, words_per_post: int) -> dict:
    """Rewrite every post's text as Zipfian draws; return vocabulary stats."""
    posts = _jsonl(posts_in)
    rng = np.random.default_rng([seed, _TEXT_STREAM])
    vocab = _vocabulary(rng, vocab_size)
    weights = 1.0 / np.arange(1, vocab_size + 1) ** exponent
    lengths = rng.poisson(words_per_post, size=len(posts)) + 1
    picks = rng.choice(vocab_size, size=int(lengths.sum()), p=weights / weights.sum())
    pos = 0
    for post, n in zip(posts, lengths):
        post["text"] = " ".join(vocab[i] for i in picks[pos:pos + n])
        pos += n
    _write_jsonl(posts_out, posts)
    return {"words": int(lengths.sum()), "distinct_words": int(np.unique(picks).size)}
