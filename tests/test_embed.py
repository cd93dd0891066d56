import functools
import json
import math
import os
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ideadrift import embed as embed_module
from ideadrift.embed import (
    _hash64, embed, embed_all, fit_vectorizer, load_external_vectors, write_vectors,
)
from ideadrift.errors import DataFormatError


@pytest.fixture(params=[1, 2, 3], ids=["1-part", "2-parts", "3-parts"])
def parts(request, monkeypatch):
    """Vector reads and writes in the test on up to this many parts: the
    minimum part sizes drop to one byte and one value, and the test module's
    reader and writer are called with ``threads`` set to the count."""
    monkeypatch.setattr(embed_module, "READ_PART_BYTES", 1)
    monkeypatch.setattr(embed_module, "WRITE_PART_VALUES", 1)
    for name in ("load_external_vectors", "write_vectors"):
        monkeypatch.setitem(globals(), name, functools.partial(
            getattr(embed_module, name), threads=request.param))
    return request.param


class TestFitVectorizer:
    def test_min_count_filters_by_total_occurrences(self):
        model = fit_vectorizer([["a", "b"], ["a", "c"]], dim=4, min_count=2)
        assert model.vocabulary == {"a"}

    def test_idf_closed_form(self):
        # N=2 docs, df(a)=2: ln(3/3) + 1 = 1.0
        model = fit_vectorizer([["a", "b"], ["a", "c"]], dim=4, min_count=1)
        assert model.idf["a"] == pytest.approx(1.0)
        # df(b)=1: ln(3/2) + 1
        assert model.idf["b"] == pytest.approx(math.log(3 / 2) + 1)

    def test_repeated_token_counts_toward_min_count(self):
        model = fit_vectorizer([["a", "a"]], dim=4, min_count=2)
        assert model.vocabulary == {"a"}

    def test_empty_corpus(self):
        model = fit_vectorizer([], dim=4, min_count=1)
        assert model.vocabulary == frozenset()

    def test_document_order_irrelevant(self):
        docs = [["a", "b"], ["b", "c", "c"], ["a"]]
        m1 = fit_vectorizer(docs, dim=8, min_count=1)
        m2 = fit_vectorizer(docs[::-1], dim=8, min_count=1)
        assert m1.idf == m2.idf
        assert m1.vocabulary == m2.vocabulary

    def test_bad_params(self):
        with pytest.raises(DataFormatError):
            fit_vectorizer([], dim=0, min_count=1)
        with pytest.raises(DataFormatError):
            fit_vectorizer([], dim=4, min_count=0)


class TestEmbed:
    def test_out_of_vocabulary_gives_zero_vector(self):
        model = fit_vectorizer([["a"]], dim=4, min_count=1)
        assert_array_equal(embed(model, ["zzz"]), np.zeros(4))

    def test_deterministic(self):
        model = fit_vectorizer([["a", "b", "c"]], dim=16, min_count=1)
        v1 = embed(model, ["a", "c", "a"])
        v2 = embed(model, ["a", "c", "a"])
        assert_array_equal(v1, v2)

    def test_single_token_gives_signed_unit_vector(self):
        model = fit_vectorizer([["a"]], dim=64, min_count=1)
        v = embed(model, ["a"])
        nonzero = v[v != 0]
        assert nonzero.shape == (1,)
        assert nonzero[0] in (1.0, -1.0)

    def test_norm_is_zero_or_one(self):
        rng = np.random.default_rng(0)
        docs = [[f"w{rng.integers(30)}" for _ in range(rng.integers(1, 12))]
                for _ in range(40)]
        model = fit_vectorizer(docs, dim=8, min_count=1)
        for doc in docs:
            norm = np.linalg.norm(embed(model, doc))
            assert norm == pytest.approx(1.0, abs=1e-12) or norm == 0.0

    def test_hash_seed_changes_vectors(self):
        docs = [["a", "b", "c", "d"]]
        m1 = fit_vectorizer(docs, dim=32, min_count=1, hash_seed=1)
        m2 = fit_vectorizer(docs, dim=32, min_count=1, hash_seed=2)
        assert not np.array_equal(embed(m1, docs[0]), embed(m2, docs[0]))
        assert np.linalg.norm(embed(m2, docs[0])) == pytest.approx(1.0, abs=1e-12)

    def test_term_table_gives_bitwise_direct_hash_result(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(40)]
        docs = [list(rng.choice(words, size=rng.integers(1, 30))) for _ in range(25)]
        # dim 5 makes many terms share a bucket, so the summation order matters
        model = fit_vectorizer(docs, dim=5, min_count=2, hash_seed=123)
        for doc in docs + [["unseen", "w1", "w1"]]:
            expected = np.zeros(model.dim)
            tf = Counter(doc)
            for token in sorted(tf):
                if token in model.idf:
                    bucket = _hash64(token, model.hash_seed, b"bucket") % model.dim
                    sign = 1.0 if _hash64(token, model.hash_seed, b"sign") & 1 else -1.0
                    expected[bucket] += tf[token] * model.idf[token] * sign
            norm = float(np.linalg.norm(expected))
            if norm > 0.0:
                expected /= norm
            got = embed(model, doc)
            assert np.array_equal(np.frombuffer(got.tobytes(), dtype=np.uint8),
                                  np.frombuffer(expected.tobytes(), dtype=np.uint8))

    def test_embed_all(self):
        model = fit_vectorizer([["a"], ["b"]], dim=8, min_count=1)
        ids, matrix = embed_all(model, [("d1", ["a"]), ("d2", ["b"])])
        assert ids == ["d1", "d2"]
        assert isinstance(matrix, embed_module.CsrMatrix) and matrix.shape == (2, 8)
        assert_array_equal(matrix.toarray(), [embed(model, ["a"]), embed(model, ["b"])])


@pytest.mark.usefixtures("parts")
class TestExternalVectors:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id":"p1","vec":[1.0,0.0]}\n')
        ids, matrix = load_external_vectors(path)
        assert ids == ["p1"]
        assert_allclose(matrix, [[1.0, 0.0]])

    def test_inconsistent_dims_fatal(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id":"p1","vec":[1.0,0.0]}\n{"id":"p2","vec":[1.0,0.0,3.0]}\n')
        with pytest.raises(DataFormatError, match=r"vectors\.jsonl:2: .*dimension"):
            load_external_vectors(path)

    def test_duplicate_id_fatal(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id":"p1","vec":[1.0]}\n{"id":"p1","vec":[2.0]}\n')
        with pytest.raises(DataFormatError, match="duplicate"):
            load_external_vectors(path)

    def test_non_finite_fatal(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id":"p1","vec":[1.0,"NaN"]}\n')
        with pytest.raises(DataFormatError, match=r"vectors\.jsonl:1: "):
            load_external_vectors(path)

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "minus-inf", "float-overflow", "int-overflow"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        # the row is checked with the whole matrix, after the later line 4
        # was read and before the rows are sorted by id
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id":"p2","vec":[1.0,2.0]}\n\n'
                        '{"id":"p3","vec":[1.0,' + value + ']}\n'
                        '{"id":"p1","vec":[3.0,4.0]}\n')
        with pytest.raises(DataFormatError, match=r"vectors\.jsonl:3: "):
            load_external_vectors(path)

    @pytest.mark.parametrize("later", [b"{", b'{"id":"p1","vec":[1.0,2.0]}', b"\xff"],
                             ids=["malformed", "duplicate-id", "not-utf8"])
    def test_non_finite_row_named_before_a_later_bad_line(self, tmp_path, later):
        # rows are checked to be finite in batches; a later bad line in the
        # same batch must not hide the earlier row
        path = tmp_path / "vectors.jsonl"
        path.write_bytes(b'{"id":"p1","vec":[1.0,2.0]}\n{"id":"p2","vec":[1e400,2.0]}\n'
                         + later + b"\n")
        with pytest.raises(DataFormatError, match=r"vectors\.jsonl:2: .*non-finite"):
            load_external_vectors(path)

    @pytest.mark.parametrize("vec", [
        b'["1.5","2"]', b"[true,false]", b"[]", b"[true,1.5]", b"[1.0,\xff]",
        b"[" * 100_000,
    ], ids=["strings", "booleans", "empty", "mixed-bool", "not-utf8", "nested-too-deeply"])
    def test_non_number_or_empty_vec_fatal(self, tmp_path, vec):
        path = tmp_path / "vectors.jsonl"
        # alone in the file, so no dimension check can catch it; the blank
        # first line is skipped but still counted
        path.write_bytes(b'\n{"id":"p1","vec":' + vec + b"}\n")
        with pytest.raises(DataFormatError, match=r"vectors\.jsonl:2: "):
            load_external_vectors(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("")
        ids, matrix = load_external_vectors(path)
        assert ids == [] and matrix.shape == (0, 0)

    @pytest.mark.parametrize("order", [(2, 0, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)])
    def test_lines_in_any_order_come_back_in_id_order(self, tmp_path, order):
        ids = ["p1", "p10", "p2"]  # ascending as strings
        matrix = np.random.default_rng(2).standard_normal((3, 4))
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(
            '{"id":"%s","vec":[%s]}\n' % (ids[i], ",".join(map(repr, matrix[i].tolist())))
            for i in order))
        loaded_ids, loaded = load_external_vectors(path)
        assert loaded_ids == ids
        assert loaded.tobytes() == matrix.tobytes()

    def test_write_then_load(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        original = (["p2", "p1"], np.array([[0.25, -1.5], [1e-17, 3.0]]))
        write_vectors(path, original)
        loaded = dict(zip(*load_external_vectors(path)))
        for key, vec in zip(*original):
            assert_array_equal(loaded[key], vec)
        # ids are emitted sorted
        ids = [json.loads(line)["id"] for line in path.read_text().splitlines()]
        assert ids == sorted(ids)


@pytest.mark.usefixtures("parts")
class TestVectorBytes:
    def test_exact_jsonl_bytes(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, (['x"\\é', "b", "a"], np.array([
            [1e16, 1e22, 1.0],
            [0.1 + 0.2, -0.0, 5e-324],
            [0.25, -1.5, 3.0],
        ])))
        assert path.read_bytes() == (
            b'{"id":"a","vec":[0.25,-1.5,3.0]}\n'
            b'{"id":"b","vec":[0.30000000000000004,-0.0,5e-324]}\n'
            rb'{"id":"x\"\\\u00e9","vec":[1e+16,1e+22,1.0]}' b"\n"
        )

    def test_mostly_zero_matrix_writes_json_dumps_lines(self, tmp_path):
        rng = np.random.default_rng(28)
        matrix = np.where(rng.random((40, 9)) < 0.1, rng.standard_normal((40, 9)), 0.0)
        matrix[3] = 0.0
        for row, value in ((5, -0.0), (6, 5e-324), (7, -5e-324), (8, 0.0)):
            matrix[row] = 0.0
            matrix[row, 4] = value
        assert 2 * np.count_nonzero(matrix) < matrix.size
        ids = [f"p{i:02d}" for i in range(len(matrix))]
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, (ids, matrix))
        lines = path.read_text().splitlines()
        assert lines == [json.dumps({"id": i, "vec": row}, separators=(",", ":"))
                         for i, row in zip(ids, matrix.tolist())]
        assert lines[3].endswith('"vec":[%s]}' % ",".join(["0.0"] * 9))
        assert "-0.0" in lines[5] and "5e-324" in lines[6] and "-5e-324" in lines[7]

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_other_dtypes_keep_their_bytes(self, tmp_path, dtype):
        # each component is written as the repr of its Python scalar: ints
        # as ints, float32 values widened to the double they hold
        matrix = np.zeros((4, 6), dtype=dtype)
        matrix[1, 2] = 3
        matrix[2, 0] = -7
        if dtype is np.float32:
            matrix[3, 5] = 0.1
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, (["a", "b", "c", "d"], matrix))
        assert path.read_text() == "".join(
            '{"id":"%s","vec":[%s]}\n' % (i, ",".join(map(repr, row)))
            for i, row in zip("abcd", matrix.tolist()))
        if dtype is np.int64:
            assert path.read_text().splitlines()[0] == '{"id":"a","vec":[0,0,0,0,0,0]}'
        else:
            assert "0.10000000149011612" in path.read_text()

    def test_nan_row_is_rejected_on_read(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, (["m", "n"], np.array([[1.0, 2.0], [1.0, np.nan]])))
        with pytest.raises(DataFormatError, match=r"vectors\.jsonl:2: "):
            load_external_vectors(path)


@pytest.mark.usefixtures("parts")
class TestVectorMatrix:
    def test_read_holds_one_matrix(self, tmp_path):
        import tracemalloc

        path = tmp_path / "vectors.jsonl"
        matrix = np.random.default_rng(3).standard_normal((5000, 64))
        write_vectors(path, ([f"p{i:05d}" for i in range(len(matrix))], matrix))
        tracemalloc.start()
        try:
            ids, loaded = load_external_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == matrix.tobytes()
        assert peak < 1.6 * matrix.nbytes

    def test_blank_lines_leave_no_rows(self, tmp_path):
        ids = ["p1", "p2", "p3", "p4"]
        matrix = np.random.default_rng(4).standard_normal((4, 3))
        lines = ['{"id":"%s","vec":[%s]}\n' % (i, ",".join(map(repr, row.tolist())))
                 for i, row in zip(ids, matrix)]
        compact, spaced = tmp_path / "compact.jsonl", tmp_path / "spaced.jsonl"
        compact.write_text("".join(lines))
        spaced.write_text("\n" + "\n \n".join(lines) + "\n\n\n")
        for path in (compact, spaced):
            loaded_ids, loaded = load_external_vectors(path)
            assert loaded_ids == ids
            assert loaded.shape == (4, 3)
            assert loaded.tobytes() == matrix.tobytes()


def read_outcome(path, threads):
    """What the reader gives at ``threads`` parts: ids and matrix bytes, or
    the error text."""
    try:
        ids, matrix = embed_module.load_external_vectors(path, threads)
    except DataFormatError as exc:
        return str(exc)
    return ids, matrix.tobytes()


def part_first_lines(path, threads):
    with open(path, "rb") as fh:
        return [first for _, first, _ in embed_module._line_spans(fh, threads)]


def vector_line(post_id, vec, width=40):
    """A vectors line padded with spaces to ``width`` bytes, so that equal
    widths put each cut where the test wants it."""
    line = '{"id":"%s","vec":[%s]}' % (post_id, ",".join(vec))
    assert len(line) < width
    return line.ljust(width - 1) + "\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestVectorParts:
    """Cases that only a read cut into parts has: each gives the bytes or
    the error of the one-part read, at 2 and 3 parts."""

    @pytest.fixture(autouse=True)
    def small_parts(self, monkeypatch):
        monkeypatch.setattr(embed_module, "READ_PART_BYTES", 1)

    def same_at_any_part_count(self, path):
        outcomes = [read_outcome(path, threads) for threads in (1, 2, 3)]
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        return outcomes[0]

    def test_id_duplicated_across_parts(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(vector_line(i, ["1.0"]) for i in ("p1", "p2", "p3", "p1")))
        assert part_first_lines(path, 2) == [1, 3]
        assert self.same_at_any_part_count(path) == (
            f"{path}:4: bad vector line (duplicate id 'p1')")

    def test_duplicate_comes_before_a_later_bad_line_of_its_part(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(vector_line(i, v) for i, v in (
            ("p1", ["1.0"]), ("p2", ["2.0"]), ("p1", ["3.0"]), ("p4", ["1e400"]))))
        assert part_first_lines(path, 2) == [1, 3]
        assert self.same_at_any_part_count(path) == (
            f"{path}:3: bad vector line (duplicate id 'p1')")

    def test_dimension_change_at_a_parts_first_line(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(vector_line(i, v) for i, v in (
            ("p1", ["1.0", "2.0"]), ("p2", ["1.0", "2.0"]),
            ("p3", ["1.0", "2.0", "3.0"]), ("p4", ["1.0", "2.0", "3.0"]))))
        assert part_first_lines(path, 2) == [1, 3]
        assert self.same_at_any_part_count(path) == (
            f"{path}:3: bad vector line (dimension 3 != 2 seen earlier)")

    def test_dimension_change_after_an_empty_part(self, tmp_path):
        # part 0 holds only blank lines, so part 1's dimension is the file's
        path = tmp_path / "vectors.jsonl"
        path.write_text(" " * 38 + "\n" + "\n" * 2 + " " * 36 + "\r\n"
                        + vector_line("p1", ["1.0", "2.0", "3.0"])
                        + vector_line("p2", ["4.0", "5.0", "6.0"]))
        assert part_first_lines(path, 2) == [1, 5]
        ids, matrix = self.same_at_any_part_count(path)
        assert ids == ["p1", "p2"]
        assert matrix == np.arange(1.0, 7.0).tobytes()

    def test_non_finite_row_at_a_parts_first_line_before_its_duplicate_id(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(vector_line(i, v) for i, v in (
            ("p1", ["1.0"]), ("p2", ["2.0"]), ("p1", ["1e400"]), ("p4", ["3.0"]))))
        assert part_first_lines(path, 2) == [1, 3]
        assert self.same_at_any_part_count(path) == (
            f"{path}:3: bad vector line (non-finite component for 'p1')")

    @pytest.mark.parametrize("pad", range(12))
    def test_blank_and_crlf_lines_at_every_cut(self, tmp_path, pad):
        # the padding moves the cuts across the blank lines, the space-only
        # line and the CRLF-ended vector line
        matrix = np.random.default_rng(pad).standard_normal((4, 2))
        rows = ['{"id":"p%d","vec":[%s]}' % (i, ",".join(map(repr, row.tolist())))
                for i, row in enumerate(matrix)]
        path = tmp_path / "vectors.jsonl"
        path.write_bytes((" " * pad + "\n\n" + rows[2] + "\r\n \n\r\n" + rows[0] + "\n\n"
                          + rows[3] + "\r\n\n" + rows[1]).encode())
        ids, loaded = self.same_at_any_part_count(path)
        assert ids == ["p0", "p1", "p2", "p3"]
        assert loaded == matrix.tobytes()

    @pytest.mark.parametrize("bad, expected_line", [(1, 1), (2, 2), (3, 3)],
                             ids=["part-0", "part-0-last-line", "child-part"])
    def test_first_bad_line_wins(self, tmp_path, bad, expected_line):
        # every line from ``bad`` on is bad in its own way: the first is named
        lines = [vector_line("p1", ["1.0"]), vector_line("p2", ["2.0"]),
                 vector_line("p3", ["3.0"]), vector_line("p4", ["4.0"])]
        broken = [vector_line("p1", ['"x"']), vector_line("p5", ["1.0", "2.0"]),
                  vector_line("p2", ["5.0"]), "{" + " " * 38 + "\n"]
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(lines[:bad - 1] + broken[bad - 1:]))
        assert part_first_lines(path, 2) == [1, 3]
        error = self.same_at_any_part_count(path)
        assert error.startswith(f"{path}:{expected_line}: bad vector line (")

    def test_not_utf8_in_a_child_part(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_bytes("".join(vector_line(f"p{i}", ["1.0"]) for i in range(3)).encode()
                         + b'{"id":"\xff"}' + b" " * 25 + b"\n")
        assert part_first_lines(path, 2) == [1, 3]
        assert self.same_at_any_part_count(path).startswith(f"{path}:4: not UTF-8")

    def test_large_file_at_every_part_count(self, tmp_path):
        matrix = np.random.default_rng(9).standard_normal((3000, 7))
        ids = [f"p{i:04d}" for i in range(len(matrix))]
        path = tmp_path / "vectors.jsonl"
        embed_module.write_vectors(path, (ids, matrix))
        assert self.same_at_any_part_count(path) == (ids, matrix.tobytes())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestWriteParts:
    def test_bytes_equal_at_any_part_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embed_module, "WRITE_PART_VALUES", 1)
        rng = np.random.default_rng(10)
        matrix = rng.standard_normal((1001, 5)) * 10.0 ** rng.integers(-30, 30, (1001, 1))
        ids = [f"p{i}" for i in rng.permutation(len(matrix))]
        outputs = []
        for threads in (1, 2, 3):
            path = tmp_path / f"t{threads}.jsonl"
            embed_module.write_vectors(path, (ids, matrix), threads)
            outputs.append(path.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert sorted(os.listdir(tmp_path)) == ["t1.jsonl", "t2.jsonl", "t3.jsonl"]

    def test_write_error_in_a_child_part(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embed_module, "WRITE_PART_VALUES", 1)
        real = embed_module._write_rows

        def failing(*args):
            if args[-1][1].start:  # the part's slice of rows
                raise OSError("no space left")
            real(*args)

        monkeypatch.setattr(embed_module, "_write_rows", failing)
        with pytest.raises(OSError, match="no space left"):
            embed_module.write_vectors(tmp_path / "v.jsonl",
                                       (["a", "b", "c"], np.ones((3, 2))), 3)


class TestHashSeedBounds:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_outside_64_bits_rejected(self, seed):
        with pytest.raises(DataFormatError, match="hash_seed"):
            fit_vectorizer([["a"]], dim=4, min_count=1, hash_seed=seed)

    def test_largest_accepted(self):
        model = fit_vectorizer([["a"]], dim=4, min_count=1, hash_seed=2**64 - 1)
        assert model.hash_seed == 2**64 - 1


def mostly_zero(rng, n, d, density=0.1):
    """An n x d float64 matrix about ``density`` nonzero, with a stored -0.0,
    an all-zero row and a row of one denormal, if n allows."""
    matrix = np.where(rng.random((n, d)) < density, rng.standard_normal((n, d)), 0.0)
    for row, value in ((0, -0.0), (1, None), (2, 5e-324)):
        if row < n:
            matrix[row] = 0.0
            if value is not None:
                matrix[row, d // 2] = value
    return matrix


def as_dense(matrix):
    return embed_module.dense_rows(matrix, slice(None))


class TestCsrMatrix:
    def test_from_dense_matches_scipy(self):
        sparse = pytest.importorskip("scipy.sparse")
        dense = mostly_zero(np.random.default_rng(40), 50, 13)
        csr = embed_module.CsrMatrix.from_dense(dense)
        oracle = sparse.csr_array(dense)  # drops 0.0 and -0.0 alike
        assert csr.shape == oracle.shape and len(csr) == 50
        assert np.signbit(csr.data).sum() == np.signbit(dense).sum()  # -0.0 is stored
        keep = csr.data != 0.0
        assert_array_equal(csr.data[keep], oracle.data)
        assert_array_equal(csr.indices[keep], oracle.indices)
        assert csr.toarray().tobytes() == dense.tobytes()

    def test_take_and_stack(self):
        dense = mostly_zero(np.random.default_rng(41), 30, 7)
        csr = embed_module.CsrMatrix.from_dense(dense)
        rows = np.array([29, 0, 1, 1, 17])
        assert csr.take(rows).toarray().tobytes() == dense[rows].tobytes()
        halves = [embed_module.CsrMatrix.from_dense(dense[:12]),
                  embed_module.CsrMatrix.from_dense(dense[12:])]
        assert embed_module.CsrMatrix.stack(halves, 7).toarray().tobytes() == dense.tobytes()
        assert embed_module.CsrMatrix.stack([], 7).shape == (0, 7)

    @pytest.mark.parametrize("rows", [slice(None), slice(3, 9), 4,
                                      np.array([[5, 0], [2, 2]]), np.array([], dtype=int)],
                             ids=["all", "slice", "int", "2-d", "empty"])
    def test_dense_rows_reads_either_kind_alike(self, rows):
        dense = mostly_zero(np.random.default_rng(42), 12, 5)
        csr = embed_module.CsrMatrix.from_dense(dense)
        got = embed_module.dense_rows(csr, rows)
        assert got.shape == dense[rows].shape
        assert got.tobytes() == embed_module.dense_rows(dense, rows).tobytes()


class TestSparseEmbed:
    def test_rows_are_bitwise_embed(self):
        docs = [["apple", "pie", "apple"], ["unseen"], [], ["pie", "crust", "apple"],
                ["crust"] * 3]
        model = fit_vectorizer([docs[0], docs[3]], dim=4, min_count=1)
        ids, matrix = embed_all(model, [(f"d{i}", doc) for i, doc in enumerate(docs)])
        want = np.array([embed(model, doc) for doc in docs])
        assert matrix.toarray().tobytes() == want.tobytes()
        assert np.diff(matrix.indptr)[1] == 0  # an out-of-vocabulary row stores nothing

    def test_cancelled_bucket_is_not_stored(self):
        # dim 1 puts every term in bucket 0; two terms of opposite sign and
        # equal idf cancel to 0.0, which the dense row holds and CSR leaves out
        model = fit_vectorizer([["a", "b", "c", "d", "e", "f"]], dim=1, min_count=1)
        signs = {t: w > 0 for t, (_, w) in model.terms.items()}
        plus = next(t for t, s in signs.items() if s)
        minus = next(t for t, s in signs.items() if not s)
        _, matrix = embed_all(model, [("d", [plus, minus])])
        assert embed(model, [plus, minus]).tobytes() == np.zeros(1).tobytes()
        assert len(matrix.data) == 0 and matrix.toarray().tobytes() == np.zeros((1, 1)).tobytes()

    def test_peak_memory_below_a_quarter_of_the_dense_matrix(self):
        import tracemalloc

        rng = np.random.default_rng(43)
        vocabulary = [f"w{i}" for i in range(2000)]
        docs = [(f"p{i:05d}", [vocabulary[j] for j in rng.integers(0, 2000, 6)])
                for i in range(5000)]
        model = fit_vectorizer([tokens for _, tokens in docs], dim=300, min_count=1)
        tracemalloc.start()
        try:
            _, matrix = embed_all(model, docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000 * 300 * 8 / 4


@pytest.mark.usefixtures("parts")
class TestSparseVectorFiles:
    def test_mostly_zero_file_reads_as_csr(self, tmp_path):
        dense = mostly_zero(np.random.default_rng(44), 200, 9)
        ids = [f"p{i:03d}" for i in range(len(dense))]
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, (ids, dense))
        loaded_ids, matrix = load_external_vectors(path)
        assert loaded_ids == ids and isinstance(matrix, embed_module.CsrMatrix)
        assert matrix.toarray().tobytes() == dense.tobytes()
        assert np.signbit(matrix.data).any()  # the -0.0 kept its sign

    def test_half_nonzero_file_reads_dense(self, tmp_path):
        dense = np.zeros((4, 2))
        dense[:, 0] = [1.0, -0.0, 2.0, 3.0]  # half the values, -0.0 among them
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, (list("abcd"), dense))
        _, matrix = load_external_vectors(path)
        assert isinstance(matrix, np.ndarray) and matrix.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("dense_rows", ["first", "last"])
    def test_parts_that_start_the_other_kind(self, tmp_path, monkeypatch, dense_rows):
        # a few checked values at a time, so each part's first rows decide
        # its kind, and the whole file decides the matrix's
        monkeypatch.setattr(embed_module, "_CHECK_VALUES", 8)
        rng = np.random.default_rng(45)
        dense = mostly_zero(rng, 60, 4)
        full = rng.standard_normal((20, 4))
        for matrix in (np.concatenate((full, dense)) if dense_rows == "first"
                       else np.concatenate((dense, full)),
                       np.concatenate((dense[:10], rng.standard_normal((60, 4))))):
            ids = [f"p{i:03d}" for i in range(len(matrix))]
            path = tmp_path / "vectors.jsonl"
            write_vectors(path, (ids, matrix))
            loaded_ids, loaded = load_external_vectors(path)
            sparse = 2 * np.count_nonzero(matrix.view(np.int64)) < matrix.size
            assert isinstance(loaded, embed_module.CsrMatrix) == sparse
            assert loaded_ids == ids and as_dense(loaded).tobytes() == matrix.tobytes()

    def test_csr_lines_out_of_order_come_back_in_id_order(self, tmp_path):
        dense = mostly_zero(np.random.default_rng(46), 30, 8)
        ids = [f"p{i:02d}" for i in range(len(dense))]
        order = np.random.default_rng(47).permutation(len(dense))
        path = tmp_path / "vectors.jsonl"
        path.write_text("".join(
            json.dumps({"id": ids[i], "vec": dense[i].tolist()}, separators=(",", ":")) + "\n"
            for i in order))
        loaded_ids, loaded = load_external_vectors(path)
        assert loaded_ids == ids and loaded.toarray().tobytes() == dense.tobytes()

    def test_csr_and_dense_write_the_same_bytes(self, tmp_path):
        dense = mostly_zero(np.random.default_rng(48), 70, 11)
        ids = [f"p{i}" for i in np.random.default_rng(49).permutation(len(dense))]
        csr = embed_module.CsrMatrix.from_dense(dense)
        write_vectors(tmp_path / "csr.jsonl", (ids, csr))
        lines = (tmp_path / "csr.jsonl").read_text().splitlines()
        by_id = dict(zip(ids, dense.tolist()))
        assert lines == [json.dumps({"id": i, "vec": by_id[i]}, separators=(",", ":"))
                         for i in sorted(ids)]

    def test_reader_peak_below_a_quarter_of_the_dense_matrix(self, tmp_path):
        import tracemalloc

        dense = mostly_zero(np.random.default_rng(50), 5000, 300, density=0.02)
        ids = [f"p{i:05d}" for i in range(len(dense))]
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, (ids, dense))
        tracemalloc.start()
        try:
            _, matrix = load_external_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense.nbytes / 4
        assert as_dense(matrix).tobytes() == dense.tobytes()


class TestWritePartSizes:
    def test_csr_parts_count_stored_values(self, tmp_path, monkeypatch):
        counted = []
        real = embed_module._parts.count

        def count(threads, size, min_size):
            counted.append(size)
            return real(threads, size, min_size)

        monkeypatch.setattr(embed_module._parts, "count", count)
        dense = mostly_zero(np.random.default_rng(51), 40, 30)
        ids = [f"p{i}" for i in range(len(dense))]
        write_vectors(tmp_path / "a.jsonl", (ids, dense), threads=2)
        write_vectors(tmp_path / "b.jsonl", (ids, embed_module.CsrMatrix.from_dense(dense)),
                      threads=2)
        write_vectors(tmp_path / "c.jsonl", (ids, dense + 1.0), threads=2)
        assert counted == [np.count_nonzero(dense.view(np.int64))] * 2 + [dense.size]
