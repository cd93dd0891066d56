"""Porter stemming, original 1980 algorithm.

Self-contained so that stemming needs no runtime downloads and behaves
identically on every platform. Words of length <= 2 are returned unchanged.
Expects lowercase alphabetic input. ``stem`` is memoized with a fixed bound,
so a corpus pays for each distinct word once.

As in the paper, a word is read as its form, a [C](VC)^m[V] string of
consonant and vowel classes (``_form``), and steps 1a, 2, 3 and 4 are tables
of suffix rules, of which only the longest matching one applies
(``_replace_longest``).
"""

from __future__ import annotations

import functools


def _form(word: str) -> str:
    """One class per letter: "v" for a, e, i, o, u and for a y that follows
    a consonant, "c" for any other letter. The form of a prefix is a prefix
    of the form."""
    classes = []
    cls = "v"  # so that a leading y is a consonant
    for ch in word:
        cls = "v" if ch in "aeiou" or (ch == "y" and cls == "c") else "c"
        classes.append(cls)
    return "".join(classes)


def _measure(stem: str) -> int:
    """m, the number of VC sequences in the [C](VC)^m[V] form of the stem."""
    return _form(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _form(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _form(word).endswith("c")


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending where the final consonant is not w, x, y."""
    return _form(word).endswith("cvc") and word[-1] not in "wxy"


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


# (suffix, replacement) rules, longest suffix first; within a step only the
# longest matching suffix is ever considered.
_STEP1A_RULES = (("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", ""))

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

_STEP4_RULES = tuple((suffix, "") for suffix in (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic", "ou",
))


def _replace_longest(word: str, rules, min_measure: int) -> str:
    """Apply the first rule whose suffix ends ``word``, if what precedes the
    suffix has a measure above ``min_measure``."""
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + repl
            return word
    return word


def _step4(word: str) -> str:
    # (s|t)ion is the one conditioned rule; no longer suffix ends in "ion",
    # so checking it first leaves which rule is longest unchanged
    if word.endswith("ion") and not word.endswith(("sion", "tion")):
        return word
    return _replace_longest(word, _STEP4_RULES, 1)


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
    word = _replace_longest(word, _STEP1A_RULES, -1)  # step 1a has no condition
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2_RULES, 0)
    word = _replace_longest(word, _STEP3_RULES, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
