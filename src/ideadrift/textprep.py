"""Deterministic text normalization for embedding.

Pipeline: lowercase, fold accented letters to ASCII, replace punctuation and
digits with spaces, split on whitespace, drop stopwords, Porter-stem the rest.
Stopwords are matched literally on the lowercased unstemmed tokens, so lists
should contain surface forms ("the", not "th").
"""

from __future__ import annotations

import functools
import re
import unicodedata
from pathlib import Path

from .corpus import utf8_lines
from .porter import stem

_NON_LETTER = re.compile(r"[^a-z\s]+")

TokenList = list[str]


@functools.lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list."""
    return load_stopwords(Path(__file__).parent / "data" / "stopwords_en.txt")


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a one-word-per-line UTF-8 stopword file; an undecodable line is fatal."""
    return frozenset({line.strip().lower() for _, line in utf8_lines(path)} - {""})


def _fold_ascii(text: str) -> str:
    # é -> e etc.; characters with no ASCII letter mapping are dropped later
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def clean(text: str, stopwords: frozenset[str] | set[str]) -> TokenList:
    """Normalize text into an ordered list of lowercase alphabetic stems."""
    folded = _fold_ascii(text.lower())
    words = _NON_LETTER.sub(" ", folded).split()
    return [stem(w) for w in words if w not in stopwords]
