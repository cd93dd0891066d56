import hashlib
import os
import random
import re
import string

import pytest
from hypothesis import given, strategies as st

from ideadrift import textprep
from ideadrift.errors import DataFormatError
from ideadrift.porter import stem
from ideadrift.textprep import clean, clean_all, default_stopwords, load_stopwords

# classic input/output pairs of the original algorithm, one per rule family
PORTER_VECTORS = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing",
    "conflated": "conflat", "troubled": "troubl", "sized": "size",
    "hopping": "hop", "tanned": "tan", "falling": "fall", "hissing": "hiss",
    "fizzed": "fizz", "failing": "fail", "filing": "file",
    "happy": "happi", "sky": "sky",
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "conformabli": "conform", "radicalli": "radic", "differentli": "differ",
    "vileli": "vile", "analogousli": "analog", "vietnamization": "vietnam",
    "predication": "predic", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "goodness": "good",
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop", "adjustable": "adjust",
    "defensible": "defens", "irritant": "irrit", "replacement": "replac",
    "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
    "homologou": "homolog", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog", "effective": "effect",
    "bowdlerize": "bowdler", "probate": "probat", "rate": "rate",
    "cease": "ceas", "controll": "control", "roll": "roll",
    "generalizations": "gener", "oscillators": "oscil",
}


@pytest.mark.parametrize("word,expected", sorted(PORTER_VECTORS.items()))
def test_porter_reference_vectors(word, expected):
    assert stem(word) == expected


def test_short_words_unchanged():
    for w in ("a", "is", "as", "by"):
        assert stem(w) == w


# every suffix some rule of the 1980 algorithm tests for, plus "ll" (step 5b)
RULE_SUFFIXES = (
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "y", "at", "bl", "iz",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli",
    "ousli", "ization", "ation", "ator", "alism", "iveness", "fulness",
    "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize", "e", "ll",
)


def golden_vocabulary() -> list[str]:
    """50,000 distinct words, each a random 1-8-letter stem plus 0-3 rule
    suffixes."""
    rng = random.Random(23)
    words = {}
    while len(words) < 50_000:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 8)))
        word += "".join(rng.choices(RULE_SUFFIXES, k=rng.randint(0, 3)))
        words[word] = None
    return list(words)


def test_stems_of_generated_vocabulary_are_pinned():
    # the digest pins the stems of the golden vocabulary, so a rewrite of
    # the rules must leave every one unchanged
    digest = hashlib.sha256("\n".join(map(stem, golden_vocabulary())).encode()).hexdigest()
    assert digest == "2397b5c00cc837ae3fab6de70f8535552bbf982fcac58ceec13413a959192475"


# The oracle: the 1980 rules applied one by one, each condition reading the
# form of the word as it stands, rebuilt letter by letter at every call.
def oracle_form(word: str) -> str:
    classes = []
    cls = "v"  # so that a leading y is a consonant
    for ch in word:
        cls = "v" if ch in "aeiou" or (ch == "y" and cls == "c") else "c"
        classes.append(cls)
    return "".join(classes)


def oracle_measure(stem: str) -> int:
    return oracle_form(stem).count("vc")


def oracle_ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and oracle_form(word).endswith("c")


def oracle_ends_cvc(word: str) -> bool:
    return oracle_form(word).endswith("cvc") and word[-1] not in "wxy"


def oracle_replace_longest(word: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:  # longest suffix first
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            return stem + repl if oracle_measure(stem) > min_measure else word
    return word


def oracle_step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if oracle_measure(word[:-3]) > 0 else word
    if word.endswith("ed") and "v" in oracle_form(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and "v" in oracle_form(word[:-3]):
        stripped = word[:-3]
    else:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if oracle_ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if oracle_measure(stripped) == 1 and oracle_ends_cvc(stripped):
        return stripped + "e"
    return stripped


ORACLE_STEP1A = (("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", ""))
ORACLE_STEP2 = (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("tional", "tion"), ("biliti", "ble"), ("entli", "ent"),
    ("ousli", "ous"), ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
    ("iviti", "ive"), ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"), ("eli", "e"),
)
ORACLE_STEP3 = (("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
                ("ical", "ic"), ("ness", ""), ("ful", ""))
ORACLE_STEP4 = tuple((suffix, "") for suffix in (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion", "ism",
    "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou"))


def oracle_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    word = oracle_replace_longest(word, ORACLE_STEP1A, -1)
    word = oracle_step1b(word)
    if word.endswith("y") and "v" in oracle_form(word[:-1]):
        word = word[:-1] + "i"
    word = oracle_replace_longest(word, ORACLE_STEP2, 0)
    word = oracle_replace_longest(word, ORACLE_STEP3, 0)
    # (s|t)ion is the one conditioned rule of step 4
    if not word.endswith("ion") or word.endswith(("sion", "tion")):
        word = oracle_replace_longest(word, ORACLE_STEP4, 1)
    if word.endswith("e"):
        m = oracle_measure(word[:-1])
        if m > 1 or (m == 1 and not oracle_ends_cvc(word[:-1])):
            word = word[:-1]
    if oracle_measure(word) > 1 and oracle_ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]
    return word


Y_EDGE_WORDS = ("y", "yy", "yyy", "syzygy", "sayyid", "toyed", "enjoying", "happily",
                "cry", "yelled")


def test_stem_equals_oracle_on_golden_vocabulary():
    words = golden_vocabulary()
    assert [stem.__wrapped__(w) for w in words] == [oracle_stem(w) for w in words]


@pytest.mark.parametrize("word", Y_EDGE_WORDS)
def test_stem_equals_oracle_on_y_edges(word):
    # y is the one letter whose class depends on the letter before it
    assert stem.__wrapped__(word) == oracle_stem(word)
    for suffix in ("s", "ed", "ing", "ness", "ful", "ement"):
        assert stem.__wrapped__(word + suffix) == oracle_stem(word + suffix)


@given(st.text(alphabet="abcdeilnostyz", max_size=14) | st.text(max_size=8))
def test_stem_equals_oracle_on_generated_words(word):
    assert stem.__wrapped__(word) == oracle_stem(word)


class TestClean:
    def test_punctuation_digits_and_stemming(self):
        assert clean("Running, 123 dogs!", frozenset()) == ["run", "dog"]

    def test_stopwords_matched_after_lowercasing(self):
        assert clean("the THE The", frozenset({"the"})) == []

    def test_empty(self):
        assert clean("", frozenset()) == []
        assert clean("   \t\n", frozenset()) == []

    def test_accent_folding(self):
        assert clean("café", frozenset()) == ["cafe"]

    def test_non_ascii_dropped(self):
        assert clean("夏 snow", frozenset()) == ["snow"]

    def test_order_preserved_and_repeats_kept(self):
        assert clean("dog cat dog", frozenset()) == ["dog", "cat", "dog"]

    def test_stopwords_removed_before_stemming(self):
        # "doing" stems to "do"; with surface stopword "doing" it disappears,
        # while the bare stem "do" in the list would not catch it
        assert clean("doing", frozenset({"doing"})) == []
        assert clean("doing", frozenset({"do"})) == ["do"]


@given(st.text())
def test_clean_output_is_lowercase_alpha(text):
    for token in clean(text, frozenset()):
        assert re.fullmatch(r"[a-z]+", token)


@given(st.text())
def test_clean_deterministic(text):
    stops = default_stopwords()
    assert clean(text, stops) == clean(text, stops)


@given(st.lists(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                        max_size=12), max_size=8))
def test_stopword_drop_happens_before_stemming(words):
    stops = default_stopwords()
    survivors = [w for w in words if w not in stops]
    assert clean(" ".join(words), stops) == [stem(w) for w in survivors]


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=16))
def test_cached_stem_equals_uncached(word):
    assert stem(word) == stem.__wrapped__(word)


@pytest.mark.xfail(reason="Porter stemming is not idempotent in general: "
                          "'agreed' -> 'agre' -> 'agr'", strict=True)
def test_restemming_is_identity():
    text = "agreed terms"
    once = clean(text, frozenset())
    assert clean(" ".join(once), frozenset()) == once


def test_restemming_stable_on_common_words():
    text = "running dogs quickly became happy engineers testing software"
    once = clean(text, frozenset())
    assert clean(" ".join(once), frozenset()) == once


def test_default_stopwords_bundled():
    stops = default_stopwords()
    assert {"the", "a", "and", "is"} <= stops
    assert all(w == w.lower() for w in stops)


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("Foo\nbar\n\n")
    assert load_stopwords(path) == {"foo", "bar"}


def test_load_stopwords_undecodable_line_fatal(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_bytes(b"foo\r\nb\xffr\r\n")
    with pytest.raises(DataFormatError, match=r"stops\.txt:2: not UTF-8"):
        load_stopwords(path)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n_texts", [0, 1, 2, 7])
def test_clean_all_is_clean_of_each_text_at_any_part_count(monkeypatch, threads, n_texts):
    monkeypatch.setattr(textprep, "CLEAN_PART_CHARS", 1)
    rng = random.Random(n_texts)
    words = ["The", "running", "café", "ponies", "2023", "agreed!", "relational", "a"]
    texts = [" ".join(rng.choices(words, k=rng.randrange(0, 12))) for _ in range(n_texts)]
    stopwords = default_stopwords()
    assert clean_all(texts, stopwords, threads) == [clean(t, stopwords) for t in texts]
