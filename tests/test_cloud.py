import bisect
import math
import tracemalloc

import numpy as np
import pytest

from ideadrift import cloud
from ideadrift.cloud import (
    RECORD_FIELDS, eccentricity_oracle, read_records_csv, replay, write_records_csv,
)
from ideadrift.corpus import (
    Post, SocialGraph, build_corpus, ego_neighborhood, iter_posts, load_edges, load_posts,
    post_columns, with_authors, write_edges_jsonl, write_posts_jsonl,
)
from ideadrift.embed import CsrMatrix
from ideadrift.errors import DataFormatError
from ideadrift.synth import SynthConfig, gen_corpus

DAY = 86400
WINDOW = 5 * DAY


def corpus_of(posts, users, edges):
    return build_corpus(posts, SocialGraph(users, edges))


def three_user_example():
    users = ["a", "b", "c"]
    edges = [(u, v) for u in users for v in users if u != v]
    posts = [
        Post("p1", "b", 1 * DAY, "", 0),
        Post("p2", "c", 2 * DAY, "", 0),
        Post("p3", "a", 3 * DAY, "", 0),
    ]
    vectors = (["p1", "p2", "p3"], np.array([[0.0], [2.0], [4.0]]))
    return corpus_of(posts, users, edges), vectors


class TestReplayWorkedExamples:
    def test_three_user_hand_replay(self):
        corpus, vectors = three_user_example()
        records = replay(corpus, vectors, WINDOW)
        by_id = {r.post_id: r for r in records}
        third = by_id["p3"]
        assert third.eccentricity == 3.0
        assert third.self_eccentricity is None
        assert third.cloud_size == 2
        assert by_id["p2"].eccentricity == 2.0
        assert by_id["p1"].eccentricity is None

    def test_records_are_a_list_that_slices(self):
        corpus, vectors = three_user_example()
        records = replay(corpus, vectors, WINDOW)
        assert type(records) is list and len(records) == 3
        assert sum(r.eccentricity is not None for r in records) == 2
        assert [records[i] for i in range(-3, 0)] == records
        assert records[1:3] == [records[1], records[2]]
        assert [r.post_id for r in records[1:3]] == ["p2", "p3"]
        with pytest.raises(IndexError):
            records[3]

    def test_window_boundary_half_open(self):
        corpus = corpus_of([Post("q1", "b", 0, "", 0),
                            Post("q2", "a", 432001, "", 0)],
                           ["a", "b"], [("a", "b")])
        vectors = (["q1", "q2"], np.array([[1.0], [5.0]]))
        records = replay(corpus, vectors, 432000)
        assert records[1].eccentricity is None
        assert records[1].cloud_size == 0

    def test_post_exactly_window_old_still_counts(self):
        corpus = corpus_of([Post("q1", "b", 1, "", 0),
                            Post("q2", "a", 432001, "", 0)],
                           ["a", "b"], [("a", "b")])
        vectors = (["q1", "q2"], np.array([[1.0], [5.0]]))
        records = replay(corpus, vectors, 432000)
        assert records[1].eccentricity == 4.0

    def test_first_post_everything_undefined(self):
        corpus = corpus_of([Post("p1", "a", 0, "", 0)], ["a"], [])
        records = replay(corpus, (["p1"], np.array([[1.0]])), WINDOW)
        (r,) = records
        assert r.eccentricity is None and r.self_eccentricity is None
        assert r.cloud_size == 0 and r.self_cloud_size == 0

    def test_same_timestamp_posts_do_not_see_each_other(self):
        corpus = corpus_of([Post("p1", "a", 100, "", 0),
                            Post("p2", "b", 100, "", 0)],
                           ["a", "b"], [("a", "b"), ("b", "a")])
        vectors = (["p1", "p2"], np.array([[0.0], [9.0]]))
        records = replay(corpus, vectors, WINDOW)
        assert records[0].eccentricity is None
        assert records[1].eccentricity is None

    def test_followers_do_not_contribute_to_cloud(self):
        # x follows u, so x's posts never enter u's knowledge base
        corpus = corpus_of([Post("p1", "x", 0, "", 0),
                            Post("p2", "u", 100, "", 0)],
                           ["u", "x"], [("x", "u")])
        vectors = (["p1", "p2"], np.array([[3.0], [1.0]]))
        records = replay(corpus, vectors, WINDOW)
        assert records[1].eccentricity is None
        # while u's post lands in x's base
        oracle = eccentricity_oracle(corpus, vectors, WINDOW, "p2")
        assert oracle == (None, None)

    def test_missing_vector_fatal_with_id(self):
        corpus = corpus_of([Post("p9", "a", 0, "", 0)], ["a"], [])
        with pytest.raises(DataFormatError, match="p9"):
            replay(corpus, (["p1"], np.zeros((1, 2))), WINDOW)

    def test_missing_vector_is_a_missing_vector_error(self):
        corpus = corpus_of([Post("p9", "a", 0, "", 0)], ["a"], [])
        with pytest.raises(cloud.MissingVectorError, match="no vector for post 'p9'"):
            replay(corpus, (["p1"], np.zeros((1, 2))), WINDOW)

    def test_dimension_mismatch_fatal_with_id(self):
        corpus = corpus_of([Post("p1", "a", 0, "", 0), Post("p2", "a", 1, "", 0)], ["a"], [])
        # one row for two ids leaves p2 without a vector of the common dimension
        with pytest.raises(DataFormatError, match="p2"):
            replay(corpus, (["p1", "p2"], np.zeros((1, 2))), WINDOW)
        with pytest.raises(DataFormatError, match="p2"):
            eccentricity_oracle(corpus, (["p1", "p2"], np.zeros((1, 2))), WINDOW, "p2")
        # a 1-D matrix gives no post a vector dimension
        with pytest.raises(DataFormatError, match=r"shape \(2,\)"):
            replay(corpus, (["p1", "p2"], np.zeros(2)), WINDOW)

    @pytest.mark.parametrize("window", [0, -1, float("nan"), float("inf"), float("-inf")])
    def test_non_positive_window_fatal(self, window):
        corpus, vectors = three_user_example()
        with pytest.raises(DataFormatError, match="window"):
            replay(corpus, vectors, window)


class TestOracle:
    def test_agrees_on_worked_example(self):
        corpus, vectors = three_user_example()
        assert eccentricity_oracle(corpus, vectors, WINDOW, "p3") == (3.0, None)

    def test_agrees_on_window_boundary(self):
        corpus = corpus_of([Post("q1", "b", 0, "", 0),
                            Post("q2", "a", 432001, "", 0)],
                           ["a", "b"], [("a", "b")])
        vectors = (["q1", "q2"], np.array([[1.0], [5.0]]))
        assert eccentricity_oracle(corpus, vectors, 432000, "q2") == (None, None)

    def test_unknown_post_fatal(self):
        corpus, vectors = three_user_example()
        with pytest.raises(DataFormatError):
            eccentricity_oracle(corpus, vectors, WINDOW, "nope")

    @pytest.mark.parametrize("seed", range(6))
    def test_replay_matches_oracle_on_random_corpora(self, seed):
        cfg = SynthConfig(n_users=20, follow_prob=0.2, n_days=8,
                          posts_per_user_per_day=2.5, dim=4, seed=seed,
                          effect="null")
        corpus, vectors, _ = gen_corpus(cfg)
        records = replay(corpus, vectors, WINDOW)
        for r in records:
            ecc, self_ecc = eccentricity_oracle(corpus, vectors, WINDOW, r.post_id)
            for got, want in ((r.eccentricity, ecc), (r.self_eccentricity, self_ecc)):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestColumnLoad:
    """The stage's load, posts streamed into columns, replays as a Corpus does."""

    def test_replay_and_oracle_equal_on_both_loads(self, tmp_path):
        corpus, vectors = TestReplayInvariants._random_case(13)
        posts = list(corpus.posts)
        # file order is not log order; the non-ASCII text's post ties with
        # the last post and sorts after it by id; the other new post's author
        # is not in the edges file
        posts.append(Post("\u00fcber", posts[-1].author, posts[-1].created_at,
                          "caf\u00e9 \u2615 \U0001f600", 3))
        posts.append(Post("new", "\u00e9l\u00e8ve", posts[0].created_at, "", 0))
        vectors = ([*vectors[0], "\u00fcber", "new"], np.vstack([vectors[1], vectors[1][:2]]))
        write_posts_jsonl(posts[::-1], tmp_path / "posts.jsonl")
        write_edges_jsonl(corpus.graph, tmp_path / "edges.jsonl")
        full = build_corpus(load_posts(tmp_path / "posts.jsonl"),
                            load_edges(tmp_path / "edges.jsonl"))
        columns = post_columns(iter_posts(tmp_path / "posts.jsonl"))
        log = (columns, with_authors(load_edges(tmp_path / "edges.jsonl"), columns.authors))
        assert columns.ids == tuple(p.id for p in full.posts)
        want = list(replay(full, vectors, WINDOW))
        assert list(replay(log, vectors, WINDOW)) == want
        assert want[-1].post_id == "\u00fcber" and want[-1].eccentricity is not None
        assert [r.cloud_size for r in want if r.author == "\u00e9l\u00e8ve"] == [0]
        for post in full.posts[::7] + full.posts[-1:]:
            assert (eccentricity_oracle(log, vectors, WINDOW, post.id)
                    == eccentricity_oracle(full, vectors, WINDOW, post.id))


class TestReplayInvariants:
    @staticmethod
    def _random_case(seed):
        cfg = SynthConfig(n_users=15, follow_prob=0.25, n_days=7,
                          posts_per_user_per_day=3, dim=3, seed=seed,
                          effect="null")
        return gen_corpus(cfg)[:2]

    def test_translation_invariance(self):
        corpus, vectors = self._random_case(7)
        shift = np.array([13.0, -4.0, 0.5])
        shifted = (vectors[0], vectors[1] + shift)
        base = replay(corpus, vectors, WINDOW)
        moved = replay(corpus, shifted, WINDOW)
        for r1, r2 in zip(base, moved):
            for a, b in ((r1.eccentricity, r2.eccentricity),
                         (r1.self_eccentricity, r2.self_eccentricity)):
                assert (a is None) == (b is None)
                if a is not None:
                    assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_cloud_membership_window(self):
        # every final knowledge-base entry obeys the window relative to the
        # last event that touched the base, and the cloud counted for a post
        # never includes the post itself or anything at/after its timestamp
        corpus, vectors = self._random_case(55)
        records = replay(corpus, vectors, WINDOW)
        posts = {p.id: p for p in corpus.posts}
        for r in records:
            neighborhood = ego_neighborhood(corpus.graph, r.author)
            eligible = [p for p in corpus.posts
                        if p.author in neighborhood
                        and r.created_at - WINDOW <= p.created_at < r.created_at]
            assert r.cloud_size == len(eligible)
            assert all(p.id != r.post_id for p in eligible)

    def test_records_emitted_in_input_order(self):
        corpus, vectors = self._random_case(3)
        records = replay(corpus, vectors, WINDOW)
        assert [r.post_id for r in records] == [p.id for p in corpus.posts]


class TestChunks:
    """The kernel works through posts and segments a chunk of
    ``_CHUNK_VALUES`` floats at a time."""

    @staticmethod
    def _case(n_users, posts_per_user, dim, seed):
        # about 10 followees per user, posts at random times over 10 days;
        # vector rows are in id order, which is not the log order
        rng = np.random.default_rng(seed)
        users = [f"u{i:03d}" for i in range(n_users)]
        edges = sorted({(u, users[j]) for i, u in enumerate(users)
                        for j in rng.choice(n_users, 10, replace=False).tolist() if j != i})
        times = rng.integers(0, 10 * DAY, (n_users, posts_per_user)).tolist()
        posts = [Post(f"p{i:03d}_{k:03d}", u, times[i][k], "", 0)
                 for i, u in enumerate(users) for k in range(posts_per_user)]
        ids = sorted(p.id for p in posts)
        return corpus_of(posts, users, edges), (ids, rng.normal(size=(len(ids), dim)))

    @pytest.mark.parametrize("chunk", [1 << 8, 1 << 12])
    def test_records_do_not_depend_on_chunk_size(self, monkeypatch, chunk):
        # 1,200 posts with about 11 ego members each, at dim 24: a chunk holds
        # one post at 1 << 8, about 15 at 1 << 12 and about 120 at the default,
        # so the pairs and the segment sums are cut at many different places
        corpus, vectors = self._case(40, 30, 24, 1)
        want = replay(corpus, vectors, WINDOW)
        monkeypatch.setattr(cloud, "_CHUNK_VALUES", chunk)
        assert replay(corpus, vectors, WINDOW) == want

    def test_kernel_holds_one_n_by_d_array(self):
        # 5,000 posts at dim 256: one n x D array is 9.8 MiB, 40 chunks. The
        # prefix sums are the one such array the kernel makes; a log-ordered
        # copy of the matrix would be a second. Measured: 1.42 arrays, and
        # 2.87 with the copy and 1 MiB chunks.
        corpus, vectors = self._case(50, 100, 256, 2)
        tracemalloc.start()
        try:
            cloud._clouds(post_columns(corpus.posts), corpus.graph, vectors, WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * vectors[1].nbytes


class TestLongHorizon:
    """A year of hourly posts at a large vector offset, against exact sums."""

    USERS = ("a", "b", "c")
    EDGES = (("a", "b"), ("a", "c"), ("b", "c"))

    @classmethod
    def _case(cls):
        rng = np.random.default_rng(2023)
        posts = [Post(f"{u}{h}", u, h * 3600 + k * 1200, "", 0)
                 for k, u in enumerate(cls.USERS) for h in range(365 * 24)]
        vectors = ([p.id for p in posts],
                   np.array([1e6 + rng.standard_normal(4) for _ in posts]))
        return corpus_of(posts, cls.USERS, cls.EDGES), vectors

    @staticmethod
    def _exact(vec, cloud):
        # deviations v - x are exact here (Sterbenz); fsum rounds each sum once
        if not cloud:
            return None
        mean = [math.fsum(d) / len(cloud) for d in zip(*(vec - x for x in cloud))]
        return math.sqrt(math.fsum(m * m for m in mean))

    def test_matches_exact_sums_over_a_year(self):
        corpus, vectors = self._case()
        records = replay(corpus, vectors, WINDOW)
        by_id = dict(zip(*vectors))
        by_author = {u: [p for p in corpus.posts if p.author == u] for u in self.USERS}
        times = {u: [p.created_at for p in ps] for u, ps in by_author.items()}

        def window_of(u, t):
            lo = bisect.bisect_left(times[u], t - WINDOW)
            return [by_id[p.id] for p in by_author[u][lo:bisect.bisect_left(times[u], t)]]

        picks = np.random.default_rng(7).choice(len(records), size=80, replace=False)
        for i in sorted(picks.tolist()) + [len(records) - 1]:
            r = records[i]
            vec = by_id[r.post_id]
            own = window_of(r.author, r.created_at)
            cloud = [x for u in ego_neighborhood(corpus.graph, r.author)
                     for x in window_of(u, r.created_at)]
            assert r.cloud_size == len(cloud) and r.self_cloud_size == len(own)
            for got, want in ((r.eccentricity, self._exact(vec, cloud)),
                              (r.self_eccentricity, self._exact(vec, own))):
                assert (got is None) == (want is None)
                if want is not None:
                    assert abs(got - want) <= 1e-12 * want

    def test_oracle_matches_exact_sums(self):
        corpus, vectors = self._case()
        by_id = dict(zip(*vectors))
        for post in corpus.posts[-3::-2000]:
            vec = by_id[post.id]
            lo = post.created_at - WINDOW
            neighborhood = ego_neighborhood(corpus.graph, post.author)
            window = [p for p in corpus.posts if lo <= p.created_at < post.created_at]
            cloud = [by_id[p.id] for p in window if p.author in neighborhood]
            own = [by_id[p.id] for p in window if p.author == post.author]
            got = eccentricity_oracle(corpus, vectors, WINDOW, post.id)
            for g, want in zip(got, (self._exact(vec, cloud), self._exact(vec, own))):
                assert abs(g - want) <= 1e-15 * want

    def test_times_beyond_int64_replay_the_same(self):
        corpus, vectors = TestReplayInvariants._random_case(11)
        shift = 10 ** 20
        moved = corpus_of([Post(p.id, p.author, p.created_at + shift, p.text, p.likes)
                           for p in corpus.posts],
                          corpus.graph.users, corpus.graph.edges)
        for r1, r2 in zip(replay(corpus, vectors, WINDOW), replay(moved, vectors, WINDOW)):
            assert r2.created_at == r1.created_at + shift
            assert ((r1.eccentricity, r1.self_eccentricity, r1.cloud_size, r1.self_cloud_size)
                    == (r2.eccentricity, r2.self_eccentricity, r2.cloud_size,
                        r2.self_cloud_size))

    def test_times_beyond_int64_agree_with_oracle(self):
        corpus, vectors = TestReplayInvariants._random_case(5)
        shift = 2 ** 63
        moved = corpus_of([Post(p.id, p.author, p.created_at + shift, p.text, p.likes)
                           for p in corpus.posts],
                          corpus.graph.users, corpus.graph.edges)
        for r in replay(moved, vectors, WINDOW):
            want = eccentricity_oracle(moved, vectors, WINDOW, r.post_id)
            for got, exact in zip((r.eccentricity, r.self_eccentricity), want):
                assert (got is None) == (exact is None)
                if exact is not None:
                    assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t0", [0, -2 ** 70])
    def test_log_spanning_int64_rejected(self, t0):
        corpus, vectors = three_user_example()
        times = (t0, t0 + 1, t0 + 2 ** 63)
        moved = corpus_of([Post(p.id, p.author, t, p.text, p.likes)
                           for p, t in zip(corpus.posts, times)],
                          corpus.graph.users, corpus.graph.edges)
        with pytest.raises(DataFormatError, match="int64"):
            replay(moved, vectors, WINDOW)


class TestRecordsCsv:
    def test_roundtrip_preserves_values_and_undefined(self, tmp_path):
        corpus, vectors = three_user_example()
        records = replay(corpus, vectors, WINDOW)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_undefined_serialized_as_empty(self, tmp_path):
        corpus, vectors = three_user_example()
        records = replay(corpus, vectors, WINDOW)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        first_data_row = path.read_text().splitlines()[1]
        assert first_data_row.split(",")[4] == ""

    def test_header_checked(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            read_records_csv(path)

    @pytest.mark.parametrize("row", [
        "p2,a,notanint,0,,,0,0",     # bad int
        "p2,a,5,0,notafloat,,1,0",   # bad float
        "p2,a,5,0",                  # short row
        "p2,a,5,0,,,1,0,x,y",        # extra fields
        "p2,a,-100,0,,,1,0",         # negative created_at
        "p2,a,5,-7,,,1,0",           # negative likes
        "p2,a,5,0,,,-3,0",           # negative cloud_size
        "p2,a,5,0,,,1,-1",           # negative self_cloud_size
    ], ids=["bad-int", "bad-float", "short-row", "extra-fields", "negative-created-at",
            "negative-likes", "negative-cloud-size", "negative-self-cloud-size"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "records.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\np1,a,0,0,,,0,0\n" + row + "\n")
        with pytest.raises(DataFormatError, match=f"{path}:3:"):
            read_records_csv(path)


class TestCsrVectors:
    """Replay and the oracle read a CsrMatrix as they read its dense rows."""

    @staticmethod
    def sparse_corpus():
        cfg = SynthConfig(n_users=25, follow_prob=0.2, n_days=6,
                          posts_per_user_per_day=3, dim=12, seed=31, effect="null")
        corpus, (ids, matrix), _ = gen_corpus(cfg)
        rng = np.random.default_rng(31)
        dense = np.where(rng.random(matrix.shape) < 0.2, matrix, 0.0)
        dense[::7] = 0.0  # all-zero rows
        dense[3::11, 5] = -0.0
        return corpus, (ids, dense), (ids, CsrMatrix.from_dense(dense))

    def test_replay_records_equal(self):
        corpus, dense, csr = self.sparse_corpus()
        assert replay(corpus, csr, WINDOW) == replay(corpus, dense, WINDOW)

    def test_oracle_equal(self):
        corpus, dense, csr = self.sparse_corpus()
        for post in corpus.posts[::9]:
            assert (eccentricity_oracle(corpus, csr, WINDOW, post.id)
                    == eccentricity_oracle(corpus, dense, WINDOW, post.id))
