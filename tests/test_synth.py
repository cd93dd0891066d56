import numpy as np
import pytest

from ideadrift.errors import DataFormatError
from ideadrift.synth import SynthConfig, gen_corpus, write_corpus_files


def small_cfg(**overrides):
    base = dict(n_users=40, follow_prob=0.08, n_days=6, posts_per_user_per_day=3,
                dim=8, seed=17, effect="null", effect_strength=0.0)
    base.update(overrides)
    return SynthConfig(**base)


def corpora_equal(a, b):
    corpus_a, (ids_a, matrix_a), _ = a
    corpus_b, (ids_b, matrix_b), _ = b
    return (corpus_a.posts == corpus_b.posts
            and corpus_a.graph == corpus_b.graph
            and ids_a == ids_b
            and np.array_equal(matrix_a, matrix_b))


class TestDeterminism:
    def test_same_config_same_corpus(self):
        assert corpora_equal(gen_corpus(small_cfg()), gen_corpus(small_cfg()))

    def test_same_config_same_files(self, tmp_path):
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            corpus, vectors, _ = gen_corpus(small_cfg())
            write_corpus_files(corpus, vectors, d / "posts.jsonl",
                               d / "edges.jsonl", d / "vectors.jsonl")
        for name in ("posts.jsonl", "edges.jsonl", "vectors.jsonl"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes())

    def test_different_seed_differs(self):
        assert not corpora_equal(gen_corpus(small_cfg(seed=1)),
                                 gen_corpus(small_cfg(seed=2)))


class TestZeroStrengthDegeneracy:
    def test_attention_zero_matches_null(self):
        null = gen_corpus(small_cfg(effect="null"))
        zero = gen_corpus(small_cfg(effect="attention-coupling",
                                    effect_strength=0.0))
        assert corpora_equal(null, zero)

    def test_elevator_zero_matches_null(self):
        null = gen_corpus(small_cfg(effect="null"))
        zero = gen_corpus(small_cfg(effect="elevator-drift",
                                    effect_strength=0.0))
        assert corpora_equal(null, zero)


class TestNullMode:
    def test_no_deviation_likes_correlation(self):
        cfg = SynthConfig(n_users=500, follow_prob=0.02, n_days=10,
                          posts_per_user_per_day=4, dim=16, seed=5,
                          effect="null")
        corpus, _, details = gen_corpus(cfg)
        assert len(corpus.posts) >= 10_000
        likes = np.array([p.likes for p in corpus.posts], dtype=float)
        r = np.corrcoef(details.planted_deviation, likes)[0, 1]
        assert abs(r) < 0.05

    def test_likes_within_cap(self):
        corpus, _, _ = gen_corpus(small_cfg(like_max=500))
        assert all(0 <= p.likes <= 500 for p in corpus.posts)


class TestAttentionCoupling:
    def test_expected_likes_increase_with_deviation(self):
        cfg = SynthConfig(n_users=300, follow_prob=0.03, n_days=10,
                          posts_per_user_per_day=4, dim=16, seed=8,
                          effect="attention-coupling", effect_strength=1.0)
        corpus, _, details = gen_corpus(cfg)
        likes = np.array([p.likes for p in corpus.posts], dtype=float)
        order = np.argsort(details.planted_deviation)
        thirds = np.array_split(likes[order], 3)
        means = [t.mean() for t in thirds]
        assert means[0] < means[1] < means[2]


class TestElevatorDrift:
    def test_per_user_displacement_tracks_strength(self):
        strength = 1.5
        cfg = SynthConfig(n_users=80, follow_prob=0.05, n_days=10,
                          posts_per_user_per_day=6, dim=16, seed=3,
                          effect="elevator-drift", effect_strength=strength)
        corpus, vectors, details = gen_corpus(cfg)
        by_id = dict(zip(*vectors))
        checked = 0
        for u in range(cfg.n_users):
            mask = details.author_index == u
            if mask.sum() < 50:
                continue
            t = details.times_days[mask]
            ids = [corpus.posts[i].id for i in np.flatnonzero(mask)]
            proj = np.array([by_id[i] for i in ids]) @ details.drift_direction
            slope = np.polyfit(t, proj, 1)[0]
            assert slope == pytest.approx(strength, rel=0.2)
            assert slope > 0
            checked += 1
        assert checked > 50

    def test_direction_shared_across_users(self):
        cfg = small_cfg(effect="elevator-drift", effect_strength=2.0)
        _, _, details = gen_corpus(cfg)
        assert np.linalg.norm(details.drift_direction) == pytest.approx(1.0)


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        dict(n_users=0), dict(dim=0), dict(follow_prob=1.5),
        dict(follow_prob=-0.1), dict(n_days=0), dict(posts_per_user_per_day=0),
        dict(effect="banana"), dict(effect_strength=-1.0),
        # values numpy cannot draw with: a negative or -0.0 normal scale, a
        # time span beyond int64 seconds or under one second, a huge Poisson mean
        dict(user_spread=-1.0), dict(post_noise=-0.5), dict(user_spread=-0.0),
        dict(post_noise=-0.0), dict(n_days=1e300), dict(n_days=1e-9),
        dict(posts_per_user_per_day=1e300),
        dict(seed=-1),
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(DataFormatError):
            small_cfg(**overrides)

    def test_posts_sorted_and_ids_unique(self):
        corpus, _, _ = gen_corpus(small_cfg())
        keys = [(p.created_at, p.id) for p in corpus.posts]
        assert keys == sorted(keys)
        assert len({p.id for p in corpus.posts}) == len(corpus.posts)

    def test_text_is_clean_alpha_words(self):
        corpus, _, _ = gen_corpus(small_cfg())
        for p in corpus.posts[:50]:
            assert p.text
            assert all(w.isalpha() and w.islower() for w in p.text.split())
