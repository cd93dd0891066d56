"""Porter stemming, original 1980 algorithm.

Self-contained so that stemming needs no runtime downloads and behaves
identically on every platform. Words of length <= 2 are returned unchanged.
Expects lowercase alphabetic input. ``stem`` is memoized with a fixed bound,
so a process pays for each distinct word once.

As in the paper, a word is read as its form, a [C](VC)^m[V] string of
consonant and vowel classes, and steps 1a, 2, 3 and 4 are tables of suffix
rules, of which only the longest matching one applies (``_replace_longest``).
The form is computed once per word (``_form``) and carried through the steps
beside the word: the form of a prefix is a prefix of the form, and no
replacement contains a y, the one letter whose class depends on its
neighbour, so a replacement's form is its own. Each table is keyed by the
last letter of its suffixes, so a step tries only the suffixes that can end
the word.
"""

from __future__ import annotations

import functools

# "v" for a, e, i, o, u; "c" for every other ASCII character, y included
# until ``_form`` looks at what precedes it
_CLASSES = {code: "v" if chr(code) in "aeiou" else "c" for code in range(128)}


def _form(word: str) -> str:
    """One class per letter: "v" for a, e, i, o, u and for a y that follows
    a consonant, "c" for any other letter (so a leading y is a consonant)."""
    form = word.translate(_CLASSES)
    if not word.isascii():  # the table maps ASCII only; the rest are consonants
        form = "".join(cls if cls in "vc" else "c" for cls in form)
    if "y" not in word:
        return form
    classes = list(form)
    at = word.find("y", 1)
    while at > 0:
        if classes[at - 1] == "c":
            classes[at] = "v"
        at = word.find("y", at + 1)
    return "".join(classes)


def _table(*rules: tuple[str, str]) -> dict[str, tuple[tuple[str, str, str], ...]]:
    """(suffix, replacement) rules, longest suffix first, as
    {last letter: ((suffix, replacement, form of the replacement), ...)}."""
    table: dict[str, list[tuple[str, str, str]]] = {}
    for suffix, repl in rules:
        table.setdefault(suffix[-1], []).append((suffix, repl, repl.translate(_CLASSES)))
    return {last: tuple(entries) for last, entries in table.items()}


# within a step only the longest matching suffix is ever considered
_STEP1A = _table(("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", ""))

_STEP2 = _table(
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"),
    ("tional", "tion"), ("biliti", "ble"),
    ("entli", "ent"), ("ousli", "ous"), ("ation", "ate"),
    ("alism", "al"), ("aliti", "al"), ("iviti", "ive"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"),
    ("eli", "e"),
)

_STEP3 = _table(
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""),
    ("ful", ""),
)

_STEP4 = _table(*((suffix, "") for suffix in (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic", "ou",
)))


def _replace_longest(word: str, form: str, table, min_measure: int) -> tuple[str, str]:
    """Apply the longest rule whose suffix ends ``word``, if the measure of
    what precedes the suffix is above ``min_measure``."""
    for suffix, repl, repl_form in table.get(word[-1], ()):
        if word.endswith(suffix):
            n = len(word) - len(suffix)
            if form.count("vc", 0, n) > min_measure:
                return word[:n] + repl, form[:n] + repl_form
            break
    return word, form


def _step1b(word: str, form: str) -> tuple[str, str]:
    if word.endswith("eed"):
        if form.count("vc", 0, len(word) - 3) > 0:
            return word[:-1], form[:-1]
        return word, form
    if word.endswith("ed") and "v" in form[:-2]:
        word, form = word[:-2], form[:-2]
    elif word.endswith("ing") and "v" in form[:-3]:
        word, form = word[:-3], form[:-3]
    else:
        return word, form
    if word.endswith(("at", "bl", "iz")):
        return word + "e", form + "v"
    if len(word) >= 2 and word[-1] == word[-2] and form[-1] == "c":  # double consonant
        if word[-1] not in "lsz":
            return word[:-1], form[:-1]
    elif form.count("vc") == 1 and form.endswith("cvc") and word[-1] not in "wxy":
        return word + "e", form + "v"
    return word, form


@functools.lru_cache(maxsize=1 << 16)
def stem(word: str) -> str:
    """Stem one lowercase word."""
    if len(word) <= 2:
        return word
    form = _form(word)
    word, form = _replace_longest(word, form, _STEP1A, -1)  # step 1a has no condition
    word, form = _step1b(word, form)
    if word[-1] == "y" and "v" in form[:-1]:  # step 1c
        word, form = word[:-1] + "i", form[:-1] + "v"
    word, form = _replace_longest(word, form, _STEP2, 0)
    word, form = _replace_longest(word, form, _STEP3, 0)
    # step 4: (s|t)ion is the one conditioned rule; no longer suffix ends in
    # "ion", so checking it first leaves which rule is longest unchanged
    if not word.endswith("ion") or word.endswith(("sion", "tion")):
        word, form = _replace_longest(word, form, _STEP4, 1)
    if word[-1] == "e":  # step 5a
        m = form.count("vc", 0, len(word) - 1)
        # a stem of measure 1 that ends consonant-vowel-consonant, the last
        # consonant not w, x or y, keeps its e
        if m > 1 or m == 1 and not (form.endswith("cvc", 0, len(word) - 1)
                                    and word[-2] not in "wxy"):
            word, form = word[:-1], form[:-1]
    if word.endswith("ll") and form.count("vc") > 1:  # step 5b
        word = word[:-1]
    return word
