import json
import re

import pytest

from ideadrift.corpus import (
    Post, SocialGraph, build_corpus, ego_neighborhood, json_line,
    largest_connected_component, load_edges, load_posts, sample_users,
    write_edges_jsonl, write_posts_jsonl,
)
from ideadrift.errors import DataFormatError


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


POST = {"id": "p1", "author": "a", "created_at": 0, "text": "hi", "likes": 0}
OBJ = json.dumps(POST)
# nested past the interpreter's recursion limit
DEEP = "[" * 100_000


class TestJsonLine:
    @pytest.mark.parametrize("line", [
        OBJ + "\n", "  " + OBJ + " \r\n", "\t" + OBJ, "\x0c" + OBJ, OBJ + " 1",
        OBJ + "}", OBJ + "\x0c\n", "\ufeff" + OBJ, "", "\n", "NaN", "-Infinity",
        '"\ud800"', '"\\ud800"', "[1, 2", "1 2",
    ], ids=["newline", "whitespace-around", "tab-before", "formfeed-before",
            "extra-value", "extra-brace", "formfeed-after", "bom", "empty", "blank",
            "nan", "minus-infinity", "lone-surrogate", "escaped-lone-surrogate",
            "truncated", "two-values"])
    def test_same_as_json_loads(self, line):
        try:
            expected = json.loads(line)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                json_line(line)
            assert str(raised.value) == str(exc)
        else:
            # repr, so that NaN equals NaN
            assert repr(json_line(line)) == repr(expected)

    def test_nested_too_deeply_is_value_error(self):
        with pytest.raises(RecursionError):
            json.loads(DEEP)
        with pytest.raises(ValueError, match="nested too deeply"):
            json_line(DEEP)


class TestLoadPosts:
    def test_single_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [POST])
        posts = load_posts(path)
        assert posts == [Post("p1", "a", 0, "hi", 0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text("")
        assert load_posts(path) == []

    def test_blank_lines_only(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text("\n  \n\r\n")
        assert load_posts(path) == []

    def test_no_line_parses_is_fatal(self, tmp_path, caplog):
        # lines end at \n only, so a lone-CR file is one line that does not parse
        path = tmp_path / "posts.jsonl"
        path.write_bytes(b"\n" + b"\r".join(
            json.dumps(dict(POST, id=f"p{i}")).encode() for i in range(3)) + b"\r")
        with caplog.at_level("WARNING"), pytest.raises(
                DataFormatError, match=f"^{re.escape(str(path))}: no post line parses; "
                                         "first malformed: line 2 "):
            load_posts(path)
        assert f"{path}:2: skipping malformed post line" in caplog.text

    def test_tie_broken_by_id(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [dict(POST, id="p2"), dict(POST, id="p1")])
        assert [p.id for p in load_posts(path)] == ["p1", "p2"]

    def test_sorted_by_time_then_id(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [dict(POST, id="z", created_at=5),
                           dict(POST, id="a", created_at=9),
                           dict(POST, id="m", created_at=5)])
        loaded = load_posts(path)
        keys = [(p.created_at, p.id) for p in loaded]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("bad", [
        "not json",
        json.dumps({"id": "x", "author": "a", "created_at": 0, "text": "t"}),
        json.dumps(dict(POST, created_at="0")),
        json.dumps(dict(POST, likes=-1)),
        json.dumps(dict(POST, created_at=-5)),
        json.dumps(dict(POST, likes=True)),
        json.dumps([1, 2, 3]),
    ])
    def test_malformed_lines_skipped_with_warning(self, tmp_path, caplog, bad):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(POST) + "\n" + bad + "\n")
        with caplog.at_level("WARNING"):
            posts = load_posts(path)
        assert len(posts) == 1
        assert any("malformed" in r.message for r in caplog.records)

    def test_duplicate_id_fatal(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [POST, dict(POST, created_at=3)])
        with pytest.raises(DataFormatError, match="duplicate"):
            load_posts(path)

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_posts(tmp_path / "missing.jsonl")

    def test_post_is_immutable(self):
        post = Post("p1", "a", 0, "hi", 0)
        with pytest.raises(AttributeError):
            post.likes = 1

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_warning_names_the_line(self, tmp_path, caplog, newline):
        path = tmp_path / "posts.jsonl"
        lines = [json.dumps(POST).encode(), b"", b"not json", b"\xff"]
        path.write_bytes(newline.join(lines) + newline)
        with caplog.at_level("WARNING"):
            assert load_posts(path) == [Post("p1", "a", 0, "hi", 0)]
        assert [r.getMessage().split(" (")[0] for r in caplog.records] == [
            f"{path}:3: skipping malformed post line",
            f"{path}:4: skipping malformed post line",
            f"{path}: skipped 2 malformed post line(s)",
        ]


class TestLoadEdges:
    def test_dedup(self, tmp_path):
        path = tmp_path / "edges.jsonl"
        write_jsonl(path, [{"follower": "a", "followee": "b"}] * 2)
        g = load_edges(path)
        assert g.edges == {("a", "b")}

    def test_self_loop_dropped_user_kept(self, tmp_path):
        path = tmp_path / "edges.jsonl"
        write_jsonl(path, [{"follower": "a", "followee": "a"}])
        g = load_edges(path)
        assert g.edges == frozenset()
        assert g.users == {"a"}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.jsonl"
        path.write_text("")
        g = load_edges(path)
        assert g.users == frozenset() and g.edges == frozenset()

    @pytest.mark.parametrize("bad", [
        b'{"follower": "a"}', b'{"follower": "\xff", "followee": "b"}', DEEP.encode(),
    ], ids=["missing-key", "not-utf8", "nested-too-deeply"])
    def test_malformed_skipped(self, tmp_path, caplog, bad):
        path = tmp_path / "edges.jsonl"
        path.write_bytes(bad + b'\n{"follower": "a", "followee": "b"}\n')
        with caplog.at_level("WARNING"):
            g = load_edges(path)
        assert g.users == {"a", "b"} and g.edges == {("a", "b")}
        assert f"{path}:1: skipping malformed edge line" in caplog.text

    def test_no_line_parses_is_fatal(self, tmp_path):
        path = tmp_path / "edges.jsonl"
        path.write_bytes(b'{"follower": "a"}\n\n{"followee": "b"}\n')
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: no edge line "
                                                  "parses; first malformed: line 1 "):
            load_edges(path)


# non-ASCII, quote, backslash, every C0 control, DEL, a lone surrogate,
# U+2028 and an emoji
AWKWARD = ["caf\u00e9", 'say "hi"', "back\\slash", "".join(map(chr, range(32))),
           "del\x7f", "lone\ud800", "line\u2028sep", "emoji\U0001f600"]


class TestWriterBytes:
    def test_posts_are_compact_json_dumps(self, tmp_path):
        posts = [Post(f"p{i}{s}", s, i, s * 2, 7 * i) for i, s in enumerate(AWKWARD)]
        write_posts_jsonl(posts, tmp_path / "posts.jsonl")
        assert (tmp_path / "posts.jsonl").read_bytes() == "".join(
            json.dumps({"id": p.id, "author": p.author, "created_at": p.created_at,
                        "text": p.text, "likes": p.likes}, separators=(",", ":")) + "\n"
            for p in posts).encode()

    def test_edges_are_compact_json_dumps(self, tmp_path):
        edges = list(zip(AWKWARD, AWKWARD[1:] + AWKWARD[:1]))
        write_edges_jsonl(SocialGraph(AWKWARD, edges), tmp_path / "edges.jsonl")
        assert (tmp_path / "edges.jsonl").read_bytes() == "".join(
            json.dumps({"follower": a, "followee": b}, separators=(",", ":")) + "\n"
            for a, b in sorted(edges)).encode()


class TestSocialGraph:
    def test_self_loop_on_unknown_user_dropped(self):
        g = SocialGraph("ab", [("a", "b"), ("z", "z")])
        assert g.users == {"a", "b"} and g.edges == {("a", "b")}

    def test_edge_to_unknown_user_fatal(self):
        with pytest.raises(DataFormatError, match="unknown user"):
            SocialGraph("ab", [("a", "z")])

    def test_equality_and_edges(self):
        g = SocialGraph("abc", [("a", "b"), ("a", "b"), ("b", "a")])
        assert g.edges == {("a", "b"), ("b", "a")}
        assert g == SocialGraph("cba", [("b", "a"), ("a", "b")])
        assert g != SocialGraph("ab", [("b", "a"), ("a", "b")])
        assert g != SocialGraph("abc", [("a", "b")])


class TestLargestConnectedComponent:
    def test_basic(self):
        g = SocialGraph("abcde", [("a", "b"), ("b", "c"), ("d", "e")])
        assert largest_connected_component(g).users == {"a", "b", "c"}

    def test_direction_ignored(self):
        # chain a->b<-c is weakly connected
        g = SocialGraph("abc", [("a", "b"), ("c", "b")])
        assert largest_connected_component(g).users == {"a", "b", "c"}

    def test_single_user(self):
        g = SocialGraph("a", [])
        assert largest_connected_component(g).users == {"a"}

    def test_tie_breaks_to_smallest_member(self):
        g = SocialGraph("abcd", [("c", "d"), ("a", "b")])
        assert largest_connected_component(g).users == {"a", "b"}

    def test_empty_graph(self):
        g = SocialGraph((), ())
        lcc = largest_connected_component(g)
        assert lcc.users == frozenset()

    def test_induced_edges_only(self):
        g = SocialGraph("abcd", [("a", "b"), ("b", "a"), ("c", "d")])
        lcc = largest_connected_component(g)
        assert lcc.edges == {("a", "b"), ("b", "a")}

    def test_no_larger_component_exists(self):
        g = SocialGraph("abcdefg", [("a", "b"), ("c", "d"), ("d", "e"), ("f", "g")])
        lcc = largest_connected_component(g)
        sizes = [3, 2, 2]
        assert len(lcc.users) == max(sizes)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_against_plain_bfs(self, seed):
        import random

        rng = random.Random(seed)
        users = [f"u{i}" for i in range(60)]
        edges = {(rng.choice(users), rng.choice(users)) for _ in range(50)}
        edges = {(a, b) for a, b in edges if a != b}
        g = SocialGraph(users, edges)
        lcc = largest_connected_component(g)

        undirected = {u: set() for u in users}
        for a, b in edges:
            undirected[a].add(b)
            undirected[b].add(a)

        def component(start):
            seen, frontier = {start}, [start]
            while frontier:
                node = frontier.pop()
                for nxt in undirected[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return frozenset(seen)

        components = {component(u) for u in users}
        best_size = max(len(c) for c in components)
        best = min((c for c in components if len(c) == best_size), key=min)
        assert lcc.users == best


class TestSampleUsers:
    def test_full_fraction_is_identity(self):
        g = SocialGraph("abc", [("a", "b")])
        assert sample_users(g, 1.0, seed=0) == g

    def test_ceiling_count(self):
        g = SocialGraph([f"u{i}" for i in range(10)], [])
        assert len(sample_users(g, 0.1, seed=1).users) == 1
        assert len(sample_users(g, 0.11, seed=1).users) == 2

    def test_deterministic(self):
        g = SocialGraph([f"u{i}" for i in range(40)],
                        [(f"u{i}", f"u{i+1}") for i in range(39)])
        assert sample_users(g, 0.5, seed=7) == sample_users(g, 0.5, seed=7)

    def test_fraction_out_of_range(self):
        g = SocialGraph("ab", [])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(DataFormatError):
                sample_users(g, bad, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataFormatError, match="seed must be >= 0, got -3"):
            sample_users(SocialGraph("ab", []), 0.5, seed=-3)


class TestEgoNeighborhood:
    def test_followees_plus_self(self):
        g = SocialGraph("uvwx", [("u", "v"), ("u", "w"), ("x", "u")])
        assert ego_neighborhood(g, "u") == {"u", "v", "w"}

    def test_no_out_edges(self):
        g = SocialGraph("uv", [("v", "u")])
        assert ego_neighborhood(g, "u") == {"u"}

    def test_mutual(self):
        g = SocialGraph("uv", [("u", "v"), ("v", "u")])
        assert ego_neighborhood(g, "u") == {"u", "v"}
        assert ego_neighborhood(g, "v") == {"u", "v"}

    def test_unknown_user_fatal(self):
        g = SocialGraph("uv", [("u", "v")])
        with pytest.raises(DataFormatError):
            ego_neighborhood(g, "zz")

    def test_size_is_outdegree_plus_one(self):
        g = SocialGraph("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "a")])
        for u in "abcd":
            assert len(ego_neighborhood(g, u)) == len(g.out_neighbors(u)) + 1


class TestCorpusAssembly:
    def test_missing_authors_become_isolated_nodes(self):
        posts = [Post("p1", "lonely", 0, "", 0)]
        c = build_corpus(posts, SocialGraph("ab", [("a", "b")]))
        assert "lonely" in c.graph.users
        assert c.graph.out_neighbors("lonely") == frozenset()

    def test_posts_sorted(self):
        posts = [Post("p2", "a", 5, "", 0), Post("p1", "a", 5, "", 0)]
        c = build_corpus(posts, SocialGraph("a", []))
        assert [p.id for p in c.posts] == ["p1", "p2"]
