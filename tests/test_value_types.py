"""The value types: immutable NamedTuples, each checked by the function that builds it."""

import numpy as np
import pytest

from ideadrift.corpus import SocialGraph, build_corpus
from ideadrift.embed import fit_vectorizer
from ideadrift.pca import PcaModel
from ideadrift.stats import bin_summary
from ideadrift.synth import SynthConfig, SynthDetails


def one_of_each():
    summary = bin_summary({"low": [1.0, 2.0, 4.0], "high": [3.0, 5.0, 6.0]})
    return {
        "Corpus": build_corpus([], SocialGraph((), ())),
        "SynthConfig": SynthConfig(n_users=2, follow_prob=0.5, n_days=1,
                                   posts_per_user_per_day=1, dim=2, seed=0),
        "SynthDetails": SynthDetails(*[np.zeros(1)] * 5),
        "VectorizerModel": fit_vectorizer([["a"]], dim=4, min_count=1),
        "PcaModel": PcaModel(mean=np.zeros(2), components=np.eye(2),
                             explained_variance=np.ones(2)),
        "BinStats": summary.bins[0],
        "PairTest": summary.tests[0],
        "BinSummary": summary,
    }


@pytest.mark.parametrize("name", ["Corpus", "SynthConfig", "SynthDetails", "VectorizerModel",
                                  "PcaModel", "BinStats", "PairTest", "BinSummary"])
def test_fields_cannot_be_assigned(name):
    value = one_of_each()[name]
    assert type(value).__name__ == name and isinstance(value, tuple)
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):  # nor can an attribute be added
        value.extra = None


def test_pca_model_by_keyword_has_k_and_dim():
    model = PcaModel(mean=np.zeros(5), components=np.zeros((3, 5)),
                     explained_variance=np.ones(3))
    assert (model.k, model.dim) == (3, 5)


def test_vectorizer_terms_golden():
    # each term's (bucket, idf * sign), pinned: the hashing and the sign rule are fixed
    model = fit_vectorizer([["apple", "pear", "apple"], ["pear", "plum"], ["fig"]],
                           dim=8, min_count=1)
    assert model.terms == {"apple": (6, -1.6931471805599454),
                           "pear": (4, 1.2876820724517808),
                           "plum": (1, -1.6931471805599454),
                           "fig": (1, -1.6931471805599454)}
    seeded = fit_vectorizer([["apple", "pear", "apple"], ["pear", "plum"], ["fig"]],
                            dim=8, min_count=1, hash_seed=7)
    assert seeded.terms == {"apple": (1, 1.6931471805599454),
                            "pear": (2, 1.2876820724517808),
                            "plum": (4, -1.6931471805599454),
                            "fig": (2, -1.6931471805599454)}
    assert model.vocabulary == frozenset(model.idf) == {"apple", "pear", "plum", "fig"}
