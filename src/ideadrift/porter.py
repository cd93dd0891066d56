"""Porter stemming, original 1980 algorithm.

Self-contained so that stemming needs no runtime downloads and behaves
identically on every platform. Words of length <= 2 are returned unchanged.
Expects lowercase alphabetic input. ``stem`` is memoized with a fixed bound,
so a corpus pays for each distinct word once.
"""

from __future__ import annotations

import functools

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant unless preceded by a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in the [C](VC)^m[V] form of the stem."""
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending where the final consonant is not w, x, y."""
    return (len(word) >= 3
            and _is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs, longest suffix first; within a step only the
# longest matching suffix is ever considered.
_STEP2_RULES = (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"),
    ("tional", "tion"), ("biliti", "ble"),
    ("entli", "ent"), ("ousli", "ous"), ("ation", "ate"),
    ("alism", "al"), ("aliti", "al"), ("iviti", "ive"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"),
    ("eli", "e"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""),
    ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic", "ou",
)


def _replace_longest(word: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + repl
            return word
    return word


def _step2(word: str) -> str:
    return _replace_longest(word, _STEP2_RULES, 0)


def _step3(word: str) -> str:
    return _replace_longest(word, _STEP3_RULES, 0)


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=1 << 16)
def stem(word: str) -> str:
    """Stem one lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
