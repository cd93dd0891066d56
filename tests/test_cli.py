import argparse
import ast
import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ideadrift
from ideadrift import cloud, dynamics, embed, stats, textprep
from ideadrift.cli import build_parser, main
from ideadrift.errors import DataFormatError

DAY = 86400


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture
def worked_example(tmp_path):
    """Three mutual followers; the third post sits at distance 3 from its cloud."""
    users = ["a", "b", "c"]
    write_jsonl(tmp_path / "posts.jsonl", [
        {"id": "p1", "author": "b", "created_at": 1 * DAY, "text": "", "likes": 0},
        {"id": "p2", "author": "c", "created_at": 2 * DAY, "text": "", "likes": 0},
        {"id": "p3", "author": "a", "created_at": 3 * DAY, "text": "", "likes": 5},
    ])
    write_jsonl(tmp_path / "edges.jsonl", [
        {"follower": u, "followee": v} for u in users for v in users if u != v
    ])
    write_jsonl(tmp_path / "vectors.jsonl", [
        {"id": "p1", "vec": [0.0]}, {"id": "p2", "vec": [2.0]},
        {"id": "p3", "vec": [4.0]},
    ])
    return tmp_path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestEccentricityStage:
    def test_worked_example_through_cli(self, worked_example):
        out = worked_example / "records.csv"
        code = main(["eccentricity",
                     "--posts", str(worked_example / "posts.jsonl"),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(worked_example / "vectors.jsonl"),
                     "--out", str(out)])
        assert code == 0
        rows = {r["post_id"]: r for r in read_csv(out)}
        assert rows["p3"]["eccentricity"] == "3.0"
        assert rows["p3"]["self_eccentricity"] == ""
        assert rows["p1"]["eccentricity"] == ""
        assert (worked_example / "records.csv.manifest.json").exists()

    def test_missing_input_exit_2(self, worked_example, tmp_path, caplog):
        code = main(["eccentricity", "--posts", str(tmp_path / "nope.jsonl"),
                     "--edges", str(tmp_path / "nope.jsonl"),
                     "--vectors", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        # a directory given as an input file
        directory = tmp_path / "posts_dir"
        directory.mkdir()
        code = main(["eccentricity", "--posts", str(directory),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(worked_example / "vectors.jsonl"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert str(directory) in caplog.text
        # a FIFO is refused before anything opens it, so the stage cannot block
        fifo = tmp_path / "posts.fifo"
        os.mkfifo(fifo)
        code = main(["eccentricity", "--posts", str(fifo),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(worked_example / "vectors.jsonl"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert f"input is not a regular file: {fifo}" in caplog.text

    def test_data_error_exit_2(self, worked_example, tmp_path):
        # vector file missing one post id
        write_jsonl(worked_example / "partial.jsonl", [{"id": "p1", "vec": [0.0]}])
        code = main(["eccentricity",
                     "--posts", str(worked_example / "posts.jsonl"),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(worked_example / "partial.jsonl"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2

    def test_missing_vector_names_the_vectors_file(self, worked_example, tmp_path, caplog):
        partial = worked_example / "partial.jsonl"
        write_jsonl(partial, [{"id": "p2", "vec": [0.0]}, {"id": "p3", "vec": [1.0]}])
        code = main(["eccentricity",
                     "--posts", str(worked_example / "posts.jsonl"),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(partial), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert f"{partial}: no vector for post 'p1'" in caplog.text

    def test_rerun_byte_identical(self, worked_example):
        args = ["eccentricity",
                "--posts", str(worked_example / "posts.jsonl"),
                "--edges", str(worked_example / "edges.jsonl"),
                "--vectors", str(worked_example / "vectors.jsonl"),
                "--out", str(worked_example / "records.csv")]
        assert main(args) == 0
        first = (worked_example / "records.csv").read_bytes()
        first_manifest = (worked_example / "records.csv.manifest.json").read_bytes()
        assert main(args) == 0
        assert (worked_example / "records.csv").read_bytes() == first
        assert (worked_example / "records.csv.manifest.json").read_bytes() == first_manifest


class TestGraphStages:
    def test_ingest_reports_and_canonicalizes(self, tmp_path, caplog):
        write_jsonl(tmp_path / "posts.jsonl", [
            {"id": "p2", "author": "a", "created_at": 5, "text": "x", "likes": 0},
            {"id": "p1", "author": "b", "created_at": 5, "text": "y", "likes": 1},
        ])
        (tmp_path / "posts.jsonl").write_text(
            (tmp_path / "posts.jsonl").read_text() + "garbage\n")
        write_jsonl(tmp_path / "edges.jsonl", [
            {"follower": "a", "followee": "b"},
            {"follower": "a", "followee": "b"},
        ])
        code = main(["ingest", "--posts", str(tmp_path / "posts.jsonl"),
                     "--edges", str(tmp_path / "edges.jsonl"),
                     "--out-posts", str(tmp_path / "out_posts.jsonl"),
                     "--out-edges", str(tmp_path / "out_edges.jsonl")])
        assert code == 0
        ids = [json.loads(l)["id"]
               for l in (tmp_path / "out_posts.jsonl").read_text().splitlines()]
        assert ids == ["p1", "p2"]
        edges = (tmp_path / "out_edges.jsonl").read_text().splitlines()
        assert len(edges) == 1

    def test_ingest_skips_undecodable_post_line(self, tmp_path, caplog):
        posts = tmp_path / "posts.jsonl"
        write_jsonl(posts, [{"id": "p1", "author": "a", "created_at": 0, "text": "", "likes": 0}])
        posts.write_bytes(posts.read_bytes() + b'{"id": "p2", "author": "\xff"}\n')
        write_jsonl(tmp_path / "edges.jsonl", [{"follower": "a", "followee": "b"}])
        assert main(["ingest", "--posts", str(posts), "--edges", str(tmp_path / "edges.jsonl"),
                     "--out-posts", str(tmp_path / "out_posts.jsonl"),
                     "--out-edges", str(tmp_path / "out_edges.jsonl")]) == 0
        assert f"{posts}:2: skipping malformed post line" in caplog.text
        assert f"{posts}: skipped 1 malformed post line(s)" in caplog.text
        assert len((tmp_path / "out_posts.jsonl").read_text().splitlines()) == 1

    def test_ingest_skips_deeply_nested_post_line(self, tmp_path, caplog):
        posts = tmp_path / "posts.jsonl"
        write_jsonl(posts, [{"id": "p1", "author": "a", "created_at": 0, "text": "", "likes": 0}])
        posts.write_text(posts.read_text() + "[" * 100_000 + "\n")
        write_jsonl(tmp_path / "edges.jsonl", [{"follower": "a", "followee": "b"}])
        assert main(["ingest", "--posts", str(posts), "--edges", str(tmp_path / "edges.jsonl"),
                     "--out-posts", str(tmp_path / "out_posts.jsonl"),
                     "--out-edges", str(tmp_path / "out_edges.jsonl")]) == 0
        assert f"{posts}:2: skipping malformed post line (nested too deeply" in caplog.text
        assert len((tmp_path / "out_posts.jsonl").read_text().splitlines()) == 1

    def test_ingest_lone_cr_posts_exit_2(self, tmp_path, caplog):
        # lines end at \n only, so a lone-CR file is one line that does not parse
        posts = tmp_path / "posts.jsonl"
        posts.write_bytes(b"\r".join(
            json.dumps({"id": f"p{i}", "author": "a", "created_at": i, "text": "x",
                        "likes": 0}).encode() for i in range(3)) + b"\r")
        write_jsonl(tmp_path / "edges.jsonl", [{"follower": "a", "followee": "b"}])
        out_posts = tmp_path / "out_posts.jsonl"
        assert main(["ingest", "--posts", str(posts), "--edges", str(tmp_path / "edges.jsonl"),
                     "--out-posts", str(out_posts),
                     "--out-edges", str(tmp_path / "out_edges.jsonl")]) == 2
        assert f"{posts}: no post line parses; first malformed: line 1" in caplog.text
        assert not out_posts.exists()

    def test_corpus_stages_never_import_numpy(self, tmp_path):
        write_jsonl(tmp_path / "posts.jsonl", [
            {"id": f"p{i}", "author": f"u{i % 3}", "created_at": i, "text": "x", "likes": i}
            for i in range(6)])
        write_jsonl(tmp_path / "edges.jsonl", [{"follower": "u0", "followee": "u1"}])
        script = (
            "import sys\n"
            "from ideadrift.cli import main\n"
            "for stage, src, dst in (('ingest', '', 'ok_'), ('lcc', 'ok_', 'lcc_')):\n"
            "    assert main([stage, *(arg for key in ('posts', 'edges') for arg in (\n"
            "        f'--{key}', f'{src}{key}.jsonl', f'--out-{key}', f'{dst}{key}.jsonl'))]) == 0\n"
            "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=blas_env(1),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert (tmp_path / "lcc_posts.jsonl").read_text().count("\n") == 4
        assert proc.stdout.strip() == "False"

    def test_dynamics_and_report_never_import_numpy(self, tmp_path):
        cloud.write_records_csv(
            [cloud.EccentricityRecord(f"p{i}", f"u{i % 3}", 3600 * i, i, 0.5 * i,
                                      None if i % 4 else 0.25 * i, 1, int(i % 4 == 0))
             for i in range(30)], tmp_path / "records.csv")
        (tmp_path / "summary.json").write_text(
            '{"bins": [{"label": "all", "n": 30, "mean": 7.25}], "tests": []}')
        (tmp_path / "distributions.csv").write_text("bin,grid_x,density\n")
        script = (
            "import sys\n"
            "from ideadrift.cli import main\n"
            "assert main(['dynamics', '--records', 'records.csv', '--out', 'dynamics.csv']) == 0\n"
            "print('numpy' in sys.modules)\n"
            "assert main(['report', '--summary', 'summary.json', '--distributions',\n"
            "             'distributions.csv', '--dynamics', 'dynamics.csv',\n"
            "             '--out-dir', 'report']) == 0\n"
            "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=blas_env(1),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["False", "False"]
        comparison = json.loads((tmp_path / "report" / "report.json").read_text())[
            "gscore_comparison"]
        assert (comparison["n_ecc"], comparison["n_self"]) == (3, 3)

    def test_corpus_stages_never_import_dataclasses(self, tmp_path):
        write_jsonl(tmp_path / "posts.jsonl", [
            {"id": f"p{i}", "author": f"u{i % 3}", "created_at": i, "text": "x", "likes": i}
            for i in range(6)])
        write_jsonl(tmp_path / "edges.jsonl", [{"follower": "u0", "followee": "u1"}])
        script = (
            "import sys\n"
            "from ideadrift.cli import main\n"
            "print('dataclasses' in sys.modules)\n"
            "for stage, src, dst in (('ingest', '', 'ok_'), ('lcc', 'ok_', 'lcc_')):\n"
            "    assert main([stage, *(arg for key in ('posts', 'edges') for arg in (\n"
            "        f'--{key}', f'{src}{key}.jsonl', f'--out-{key}', f'{dst}{key}.jsonl'))]) == 0\n"
            "print('dataclasses' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=blas_env(1),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert (tmp_path / "lcc_posts.jsonl").read_text().count("\n") == 4
        assert proc.stdout.split() == ["False", "False"]

    def test_lcc_stage_filters_posts(self, tmp_path):
        write_jsonl(tmp_path / "posts.jsonl", [
            {"id": "p1", "author": "a", "created_at": 0, "text": "", "likes": 0},
            {"id": "p2", "author": "d", "created_at": 1, "text": "", "likes": 0},
        ])
        write_jsonl(tmp_path / "edges.jsonl", [
            {"follower": "a", "followee": "b"},
            {"follower": "b", "followee": "c"},
            {"follower": "d", "followee": "e"},
        ])
        code = main(["lcc", "--posts", str(tmp_path / "posts.jsonl"),
                     "--edges", str(tmp_path / "edges.jsonl"),
                     "--out-posts", str(tmp_path / "lcc_posts.jsonl"),
                     "--out-edges", str(tmp_path / "lcc_edges.jsonl")])
        assert code == 0
        ids = [json.loads(l)["id"]
               for l in (tmp_path / "lcc_posts.jsonl").read_text().splitlines()]
        assert ids == ["p1"]

    def test_sample_stage_deterministic(self, tmp_path):
        write_jsonl(tmp_path / "posts.jsonl", [])
        write_jsonl(tmp_path / "edges.jsonl", [
            {"follower": f"u{i}", "followee": f"u{i+1}"} for i in range(30)
        ])
        outputs = []
        for run in ("a", "b"):
            out_posts = tmp_path / f"{run}_posts.jsonl"
            out_edges = tmp_path / f"{run}_edges.jsonl"
            assert main(["sample", "--posts", str(tmp_path / "posts.jsonl"),
                         "--edges", str(tmp_path / "edges.jsonl"),
                         "--fraction", "0.5", "--seed", "9",
                         "--out-posts", str(out_posts),
                         "--out-edges", str(out_edges)]) == 0
            outputs.append(out_edges.read_bytes())
        assert outputs[0] == outputs[1]


class TestEmbedAndPcaStages:
    def test_embed_then_pca(self, tmp_path):
        posts = [{"id": f"p{i}", "author": "a", "created_at": i,
                  "text": text, "likes": 0}
                 for i, text in enumerate([
                     "the quick brown fox jumps over the lazy dog",
                     "pack my box with five dozen liquor jugs",
                     "how vexingly quick daft zebras jump",
                     "the five boxing wizards jump quickly",
                     "quick zephyrs blow vexing daft jim",
                     "jumping foxes and lazy dogs running quickly",
                 ])]
        write_jsonl(tmp_path / "posts.jsonl", posts)
        code = main(["embed", "--posts", str(tmp_path / "posts.jsonl"),
                     "--dim", "16", "--min-count", "1",
                     "--out", str(tmp_path / "vectors.jsonl")])
        assert code == 0
        lines = (tmp_path / "vectors.jsonl").read_text().splitlines()
        assert len(lines) == 6
        assert all(len(json.loads(l)["vec"]) == 16 for l in lines)

        code = main(["pca", "--vectors", str(tmp_path / "vectors.jsonl"),
                     "--variance", "0.9",
                     "--out", str(tmp_path / "reduced.jsonl"),
                     "--model-out", str(tmp_path / "pca.json")])
        assert code == 0
        model = json.loads((tmp_path / "pca.json").read_text())
        reduced_dim = len(json.loads(
            (tmp_path / "reduced.jsonl").read_text().splitlines()[0])["vec"])
        assert reduced_dim == len(model["explained_variance"]) <= 16

    def test_pca_fits_rows_in_id_order(self, tmp_path):
        # the fit's last bits depend on row order: the file's line order must not
        matrix = (np.random.default_rng(5).standard_normal((300, 40))
                  * np.linspace(1.0, 5.0, 40) + 1e3)
        embed.write_vectors(tmp_path / "sorted.jsonl",
                            ([f"p{i:03d}" for i in range(len(matrix))], matrix))
        lines = (tmp_path / "sorted.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "reversed.jsonl").write_text("".join(reversed(lines)))
        outputs = []
        for name in ("sorted", "reversed"):
            out = tmp_path / name
            assert main(["pca", "--vectors", str(tmp_path / f"{name}.jsonl"),
                         "--variance", "0.9", "--out", str(out / "reduced.jsonl"),
                         "--model-out", str(out / "pca_model.json")]) == 0
            outputs.append([(out / f).read_bytes()
                            for f in ("reduced.jsonl", "pca_model.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_outputs_do_not_depend_on_threads(self, tmp_path, monkeypatch):
        # parts as small as one byte, value or character, so every stage splits
        monkeypatch.setattr(embed, "READ_PART_BYTES", 1)
        monkeypatch.setattr(embed, "WRITE_PART_VALUES", 1)
        monkeypatch.setattr(textprep, "CLEAN_PART_CHARS", 1)
        words = "the quick brown fox jumps over lazy dogs running quickly".split()
        write_jsonl(tmp_path / "posts.jsonl", [
            {"id": f"p{i:02d}", "author": "a", "created_at": i, "likes": 0,
             "text": " ".join(words[(i * j) % len(words)] for j in range(1, 8))}
            for i in range(40)])
        outputs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            out.mkdir()
            monkeypatch.chdir(out)  # the manifests record relative input paths
            assert main(["--threads", threads, "embed", "--posts", "../posts.jsonl",
                         "--dim", "16", "--min-count", "2", "--out", "vectors.jsonl"]) == 0
            assert main(["--threads", threads, "pca", "--vectors", "vectors.jsonl",
                         "--variance", "0.9", "--out", "reduced.jsonl",
                         "--model-out", "pca.json"]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 5
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_embed_custom_stopwords(self, tmp_path):
        write_jsonl(tmp_path / "posts.jsonl", [
            {"id": "p0", "author": "a", "created_at": 0,
             "text": "alpha beta gamma", "likes": 0},
            {"id": "p1", "author": "a", "created_at": 1,
             "text": "alpha beta delta", "likes": 0},
        ])
        (tmp_path / "stops.txt").write_text("alpha\n")
        code = main(["embed", "--posts", str(tmp_path / "posts.jsonl"),
                     "--stopwords", str(tmp_path / "stops.txt"),
                     "--dim", "8", "--min-count", "1",
                     "--out", str(tmp_path / "vectors.jsonl")])
        assert code == 0


class TestFullPipeline:
    def run_pipeline(self, root, seed=4, effect="elevator-drift", strength="1.0",
                     weighting="proportional-gap", threads=None):
        root.mkdir(parents=True, exist_ok=True)
        prefix = [] if threads is None else ["--threads", str(threads)]
        steps = [
            prefix + ["synth", "--n-users", "60", "--follow-prob", "0.15",
                      "--n-days", "8", "--posts-per-day", "4",
                      "--synth-dim", "8", "--seed", str(seed),
                      "--effect", effect, "--strength", strength,
                      "--out-posts", str(root / "posts.jsonl"),
                      "--out-edges", str(root / "edges.jsonl"),
                      "--out-vectors", str(root / "vectors.jsonl")],
            prefix + ["eccentricity", "--posts", str(root / "posts.jsonl"),
                      "--edges", str(root / "edges.jsonl"),
                      "--vectors", str(root / "vectors.jsonl"),
                      "--out", str(root / "records.csv")],
            prefix + ["dynamics", "--records", str(root / "records.csv"),
                      "--fg-weighting", weighting,
                      "--out", str(root / "dynamics.csv")],
            prefix + ["distributions", "--records", str(root / "records.csv"),
                      "--bins", "10,100",
                      "--out-csv", str(root / "distributions.csv"),
                      "--out-summary", str(root / "summary.json")],
            prefix + ["report", "--summary", str(root / "summary.json"),
                      "--distributions", str(root / "distributions.csv"),
                      "--dynamics", str(root / "dynamics.csv"),
                      "--out-dir", str(root / "report")],
        ]
        for step in steps:
            assert main(step) == 0, step

    def test_elevator_drift_end_to_end(self, tmp_path):
        self.run_pipeline(tmp_path / "run")
        rows = read_csv(tmp_path / "run" / "dynamics.csv")
        g_self = [float(r["g_self"]) for r in rows if r["g_self"]]
        assert len(g_self) > 30
        assert np.mean(g_self) > 0

        report = json.loads((tmp_path / "run" / "report" / "report.json").read_text())
        assert report["gscore_comparison"]["mean_g_self"] > report[
            "gscore_comparison"]["mean_g_ecc"]
        assert (tmp_path / "run" / "report" / "fg_scatter.csv").exists()
        assert (tmp_path / "run" / "report" / "densities.csv").exists()

    def test_single_bin_report(self, tmp_path):
        root = tmp_path / "run"
        root.mkdir()
        self.run_pipeline(root)
        # rebin everything into one bucket and regenerate the report
        assert main(["distributions", "--records", str(root / "records.csv"),
                     "--bins", "", "--out-csv", str(root / "single.csv"),
                     "--out-summary", str(root / "single.json")]) == 0
        summary = json.loads((root / "single.json").read_text())
        assert [b["label"] for b in summary["bins"]] == ["all"]
        assert summary["tests"] == []
        assert main(["report", "--summary", str(root / "single.json"),
                     "--distributions", str(root / "single.csv"),
                     "--dynamics", str(root / "dynamics.csv"),
                     "--out-dir", str(root / "single_report")]) == 0
        report = json.loads((root / "single_report" / "report.json").read_text())
        assert report["popularity"]["tests"] == []

    def test_thread_flag_does_not_change_outputs(self, tmp_path):
        self.run_pipeline(tmp_path / "t1", threads=1)
        self.run_pipeline(tmp_path / "t4", threads=4)
        for rel in ("records.csv", "dynamics.csv", "distributions.csv",
                    "summary.json", "report/report.json",
                    "report/fg_scatter.csv"):
            assert ((tmp_path / "t1" / rel).read_bytes()
                    == (tmp_path / "t4" / rel).read_bytes()), rel


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(threads):
    """The test's environment with BLAS set to ``threads`` threads and the
    imported package's directory first on PYTHONPATH."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_VARS})
    package_root = str(Path(ideadrift.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class TestBlasThreads:
    def test_pca_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # a multithreaded SVD changes the last bits at 2000 x 300, not at 2000 x 100
        matrix = np.random.default_rng(11).standard_normal((2000, 300))
        embed.write_vectors(tmp_path / "vectors.jsonl",
                            ([f"p{i:04d}" for i in range(len(matrix))], matrix))
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "ideadrift.cli", "pca",
                 "--vectors", str(tmp_path / "vectors.jsonl"), "--variance", "0.9",
                 "--out", str(out / "reduced.jsonl"), "--model-out", str(out / "pca.json")],
                env=blas_env(threads), capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append([(out / name).read_bytes() for name in ("reduced.jsonl", "pca.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_cli_import_starts_no_blas_thread(self):
        script = ("import ideadrift.cli\n"
                  "for line in open('/proc/self/status'):\n"
                  "    if line.startswith('Threads:'):\n"
                  "        print(line.split()[1])\n")
        proc = subprocess.run([sys.executable, "-c", script], env=blas_env(2),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "1"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_kernel_numpy_import_starts_no_blas_thread():
    # importing the CLI no longer loads numpy; the first kernel that runs does
    script = ("import sys\n"
              "import ideadrift.cli\n"
              "from ideadrift import corpus\n"
              "assert 'numpy' not in sys.modules\n"
              "corpus.sample_users(corpus.SocialGraph('abcd', ()), 0.5, 0)\n"
              "assert 'numpy' in sys.modules\n"
              "for line in open('/proc/self/status'):\n"
              "    if line.startswith('Threads:'):\n"
              "        print(line.split()[1])\n")
    proc = subprocess.run([sys.executable, "-c", script], env=blas_env(2),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "1"


def test_numpy_is_named_only_in_np_module():
    # every module takes numpy as `from ._np import np`, which loads it lazily;
    # a top-level `import numpy` elsewhere would load it in every stage
    package = Path(ideadrift.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "_np.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "numpy" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "numpy", path.name
                assert "TYPE_CHECKING" not in (a.name for a in node.names), path.name
                if node.level == 1 and node.module == "_np":
                    imported.update(a.asname or a.name for a in node.names)
            names = (getattr(node, "id", None), getattr(node, "attr", None))
            assert "TYPE_CHECKING" not in names, path.name
        uses_np = any(isinstance(node, ast.Name) and node.id == "np" for node in ast.walk(tree))
        assert "np" in imported or not uses_np, f"{path.name} uses np without importing it"


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        config = {"n_users": 12, "follow_prob": 0.2, "n_days": 3.0,
                  "posts_per_day": 2.0, "synth_dim": 4, "seed": 2,
                  "effect": "null", "strength": 0.0}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["--config", str(tmp_path / "config.json"), "synth",
                     "--out-posts", str(tmp_path / "posts.jsonl"),
                     "--out-edges", str(tmp_path / "edges.jsonl"),
                     "--out-vectors", str(tmp_path / "vectors.jsonl")]) == 0
        authors = {json.loads(l)["author"] for l in
                   (tmp_path / "posts.jsonl").read_text().splitlines()}
        assert all(a.startswith("u000") for a in authors)

        assert main(["--config", str(tmp_path / "config.json"), "synth",
                     "--n-users", "3", "--seed", "5",
                     "--out-posts", str(tmp_path / "posts2.jsonl"),
                     "--out-edges", str(tmp_path / "edges2.jsonl"),
                     "--out-vectors", str(tmp_path / "vectors2.jsonl")]) == 0
        authors = {json.loads(l)["author"] for l in
                   (tmp_path / "posts2.jsonl").read_text().splitlines()}
        assert authors <= {"u00000", "u00001", "u00002"}

    def test_invalid_config_exit_2(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        code = main(["--config", str(tmp_path / "bad.json"), "synth",
                     "--out-posts", str(tmp_path / "p.jsonl"),
                     "--out-edges", str(tmp_path / "e.jsonl"),
                     "--out-vectors", str(tmp_path / "v.jsonl")])
        assert code == 2

    def test_config_nested_too_deeply_exit_2(self, tmp_path, caplog):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000)
        assert main(["--config", str(config), "synth",
                     "--out-posts", str(tmp_path / "p.jsonl"),
                     "--out-edges", str(tmp_path / "e.jsonl"),
                     "--out-vectors", str(tmp_path / "v.jsonl")]) == 2
        assert f"{config}: invalid JSON (maximum recursion depth exceeded" in caplog.text

    @pytest.mark.parametrize(("config", "args"), [
        ({"seed": "abc"}, ["synth", "--out-posts", "p.jsonl", "--out-edges", "e.jsonl",
                           "--out-vectors", "v.jsonl"]),
        ({"seed": 1.5}, ["synth", "--out-posts", "p.jsonl", "--out-edges", "e.jsonl",
                         "--out-vectors", "v.jsonl"]),
        ({"n_users": 12.9}, ["synth", "--out-posts", "p.jsonl", "--out-edges", "e.jsonl",
                             "--out-vectors", "v.jsonl"]),
        ({"seed": True}, ["synth", "--out-posts", "p.jsonl", "--out-edges", "e.jsonl",
                          "--out-vectors", "v.jsonl"]),
        ({"window_days": "five"}, ["eccentricity", "--posts", "posts.jsonl",
                                   "--edges", "edges.jsonl", "--vectors", "vectors.jsonl",
                                   "--out", "records.csv"]),
        ({"bins": ["a"]}, ["distributions", "--records", "records.csv",
                           "--out-csv", "d.csv", "--out-summary", "s.json"]),
        ({"bins": [1.5]}, ["distributions", "--records", "records.csv",
                           "--out-csv", "d.csv", "--out-summary", "s.json"]),
        ({"window-days": 3}, ["eccentricity", "--posts", "posts.jsonl",
                              "--edges", "edges.jsonl", "--vectors", "vectors.jsonl",
                              "--out", "records.csv"]),
        # one bin, so no pair is tested and no test method runs
        ({"p_method": "tabel"}, ["distributions", "--records", "records.csv", "--bins", "",
                                 "--out-csv", "d.csv", "--out-summary", "s.json"]),
        # no user, so no score is weighted
        ({"fg_weighting": "nope"}, ["dynamics", "--records", "empty.csv", "--out", "dyn.csv"]),
        ({"threads": 1.5}, ["distributions", "--records", "records.csv",
                            "--out-csv", "d.csv", "--out-summary", "s.json"]),
        ({"threads": True}, ["distributions", "--records", "records.csv",
                             "--out-csv", "d.csv", "--out-summary", "s.json"]),
        ({"threads": "abc"}, ["distributions", "--records", "records.csv",
                              "--out-csv", "d.csv", "--out-summary", "s.json"]),
    ], ids=["synth-seed", "synth-seed-fraction", "synth-n-users-fraction", "synth-seed-bool",
            "eccentricity-window-days", "distributions-bins-word",
            "distributions-bins-fraction", "unknown-key", "p-method-choice",
            "fg-weighting-choice", "threads-fraction", "threads-bool", "threads-word"])
    def test_bad_config_value_exit_2(self, worked_example, monkeypatch, caplog,
                                     config, args):
        monkeypatch.chdir(worked_example)
        cloud.write_records_csv([cloud.EccentricityRecord("p1", "a", 0, 3, 1.0, None, 1, 0)],
                                "records.csv")
        cloud.write_records_csv([], "empty.csv")
        Path("config.json").write_text(json.dumps(config))
        assert main(["--config", "config.json", *args]) == 2
        [key] = config
        assert key in caplog.text

    def test_config_shared_across_stages(self, worked_example):
        config = worked_example / "config.json"
        config.write_text(json.dumps({"window_days": 2, "p_method": "permutation",
                                      "dim": 8, "threads": 2, "preset": "experiment"}))
        out = worked_example / "records.csv"
        assert main(["--config", str(config), "eccentricity",
                     "--posts", str(worked_example / "posts.jsonl"),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(worked_example / "vectors.jsonl"),
                     "--out", str(out)]) == 0
        assert json.loads(Path(str(out) + ".manifest.json").read_text())["config"] == {
            "window_days": 2.0}

    def test_manifest_contains_hashes_and_config(self, worked_example):
        out = worked_example / "records.csv"
        assert main(["eccentricity",
                     "--posts", str(worked_example / "posts.jsonl"),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(worked_example / "vectors.jsonl"),
                     "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["stage"] == "eccentricity"
        assert manifest["config"]["window_days"] == 5.0
        assert set(manifest["inputs"]) == {"posts", "edges", "vectors"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small synthetic pipeline run: every file a stage can take as input."""
    root = tmp_path_factory.mktemp("small_run")
    steps = [
        ["synth", "--n-users", "12", "--follow-prob", "0.3", "--n-days", "4",
         "--posts-per-day", "2", "--synth-dim", "4", "--seed", "3",
         "--out-posts", str(root / "posts.jsonl"),
         "--out-edges", str(root / "edges.jsonl"),
         "--out-vectors", str(root / "vectors.jsonl")],
        ["eccentricity", "--posts", str(root / "posts.jsonl"),
         "--edges", str(root / "edges.jsonl"),
         "--vectors", str(root / "vectors.jsonl"),
         "--out", str(root / "records.csv")],
        ["dynamics", "--records", str(root / "records.csv"),
         "--out", str(root / "dynamics.csv")],
        ["distributions", "--records", str(root / "records.csv"),
         "--out-csv", str(root / "distributions.csv"),
         "--out-summary", str(root / "summary.json")],
    ]
    for step in steps:
        assert main(step) == 0, step
    (root / "stops.txt").write_text("the\n")
    return root


def manifest_of(path):
    return json.loads(Path(str(path) + ".manifest.json").read_text())


class TestManifestInputs:
    CORPUS = ["--posts", "{run}/posts.jsonl", "--edges", "{run}/edges.jsonl",
              "--out-posts", "{out}/posts.jsonl", "--out-edges", "{out}/edges.jsonl"]
    SYNTH_CONFIG = {"n_users": 3, "follow_prob": 0.05, "n_days": 10.0,
                    "posts_per_user_per_day": 3.0, "dim": 16, "seed": 0,
                    "effect": "null", "effect_strength": 0.0, "user_spread": 4.0,
                    "post_noise": 0.25, "like_max": 500}
    # case -> (arguments, primary output, recorded inputs, recorded config)
    CASES = {
        "ingest": (["ingest", *CORPUS], "posts.jsonl", {"posts", "edges"}, {}),
        "lcc": (["lcc", *CORPUS], "posts.jsonl", {"posts", "edges"}, {}),
        "sample": (["sample", *CORPUS, "--fraction", "0.5"], "posts.jsonl",
                   {"posts", "edges"}, {"fraction": 0.5, "seed": 0}),
        "embed": (["embed", "--posts", "{run}/posts.jsonl", "--dim", "8",
                   "--out", "{out}/vec.jsonl"], "vec.jsonl", {"posts"},
                  {"dim": 8, "min_count": 10, "hash_seed": 9172023}),
        "embed-stopwords": (["embed", "--posts", "{run}/posts.jsonl",
                             "--stopwords", "{run}/stops.txt", "--dim", "8",
                             "--out", "{out}/vec.jsonl"], "vec.jsonl",
                            {"posts", "stopwords"},
                            {"dim": 8, "min_count": 10, "hash_seed": 9172023}),
        "pca": (["pca", "--vectors", "{run}/vectors.jsonl", "--out", "{out}/pca.jsonl",
                 "--model-out", "{out}/model.json"], "pca.jsonl", {"vectors"},
                {"variance": 0.9}),
        "dynamics": (["dynamics", "--records", "{run}/records.csv",
                      "--out", "{out}/dyn.csv"], "dyn.csv", {"records"},
                     {"fg_weighting": "inverse-gap", "min_gap": 1.0}),
        "distributions": (["distributions", "--records", "{run}/records.csv",
                           "--out-csv", "{out}/d.csv", "--out-summary", "{out}/s.json"],
                          "d.csv", {"records"},
                          {"bins": [10, 100], "bandwidth": 5.0, "p_method": "table",
                           "n_perm": 9999, "seed": 0}),
        "report": (["report", "--summary", "{run}/summary.json",
                    "--distributions", "{run}/distributions.csv",
                    "--dynamics", "{run}/dynamics.csv", "--out-dir", "{out}"],
                   "report.json", {"summary", "distributions", "dynamics"}, {}),
        "synth": (["synth", "--n-users", "3", "--out-posts", "{out}/posts.jsonl",
                   "--out-edges", "{out}/edges.jsonl",
                   "--out-vectors", "{out}/vectors.jsonl"], "posts.jsonl", set(),
                  SYNTH_CONFIG),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_inputs_are_the_files_the_stage_read(self, small_run, tmp_path, case):
        template, primary, expected, config = self.CASES[case]
        args = [a.format(run=small_run, out=tmp_path) for a in template]
        assert main(args) == 0
        manifest = manifest_of(tmp_path / primary)
        assert set(manifest["inputs"]) == expected
        for name, entry in manifest["inputs"].items():
            assert entry["path"] == args[args.index(f"--{name}") + 1]
            assert len(entry["sha256"]) == 64
        assert manifest["config"] == config

    def test_input_hash_is_of_the_bytes_read(self, small_run, tmp_path):
        # ingest canonicalizes a line-reversed posts file over itself: the
        # manifest records the bytes it read, not the ones it wrote
        posts = tmp_path / "posts.jsonl"
        read = b"".join(reversed((small_run / "posts.jsonl").read_bytes().splitlines(True)))
        posts.write_bytes(read)
        assert main(["ingest", "--posts", str(posts), "--edges", str(small_run / "edges.jsonl"),
                     "--out-posts", str(posts), "--out-edges", str(tmp_path / "edges.jsonl")]) == 0
        assert posts.read_bytes() != read
        recorded = manifest_of(posts)["inputs"]["posts"]["sha256"]
        assert recorded == hashlib.sha256(read).hexdigest()


class TestOutputPathKind:
    CORPUS = ["--posts", "{run}/posts.jsonl", "--edges", "{run}/edges.jsonl",
              "--out-posts", "{out}/p.jsonl", "--out-edges", "{out}/e.jsonl"]
    # case -> (arguments, the output flag that names an existing directory)
    CASES = {
        "ingest-out-posts": (["ingest", *CORPUS], "--out-posts"),
        "ingest-out-edges": (["ingest", *CORPUS], "--out-edges"),
        "lcc-out-edges": (["lcc", *CORPUS], "--out-edges"),
        "sample-out-posts": (["sample", *CORPUS, "--fraction", "0.5"], "--out-posts"),
        "embed-out": (["embed", "--posts", "{run}/posts.jsonl", "--dim", "8",
                       "--out", "{out}/v.jsonl"], "--out"),
        "pca-out": (["pca", "--vectors", "{run}/vectors.jsonl", "--out", "{out}/pca.jsonl",
                     "--model-out", "{out}/model.json"], "--out"),
        "pca-model-out": (["pca", "--vectors", "{run}/vectors.jsonl",
                           "--out", "{out}/pca.jsonl", "--model-out", "{out}/model.json"],
                          "--model-out"),
        "eccentricity-out": (["eccentricity", "--posts", "{run}/posts.jsonl",
                              "--edges", "{run}/edges.jsonl", "--vectors", "{run}/vectors.jsonl",
                              "--out", "{out}/r.csv"], "--out"),
        "dynamics-out": (["dynamics", "--records", "{run}/records.csv",
                          "--out", "{out}/dyn.csv"], "--out"),
        "distributions-out-csv": (["distributions", "--records", "{run}/records.csv",
                                   "--out-csv", "{out}/d.csv", "--out-summary", "{out}/s.json"],
                                  "--out-csv"),
        "distributions-out-summary": (["distributions", "--records", "{run}/records.csv",
                                       "--out-csv", "{out}/d.csv",
                                       "--out-summary", "{out}/s.json"], "--out-summary"),
        "synth-out-vectors": (["synth", "--n-users", "3", "--out-posts", "{out}/p.jsonl",
                               "--out-edges", "{out}/e.jsonl",
                               "--out-vectors", "{out}/v.jsonl"], "--out-vectors"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_is_a_directory_exit_2(self, small_run, tmp_path, caplog, capsys, case):
        template, flag = self.CASES[case]
        taken = tmp_path / "taken"
        taken.mkdir()
        args = [a.format(run=small_run, out=tmp_path) for a in template]
        args[args.index(flag) + 1] = str(taken)
        assert main(args) == 2
        assert f"output is a directory: {taken}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert not any(taken.iterdir())

    def test_report_out_dir_is_a_file_exit_2(self, small_run, tmp_path, caplog, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["report", "--summary", str(small_run / "summary.json"),
                     "--distributions", str(small_run / "distributions.csv"),
                     "--dynamics", str(small_run / "dynamics.csv"),
                     "--out-dir", str(taken)]) == 2
        assert f"output directory is not a directory: {taken}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text() == "kept\n"


class TestOutputUnderAFile:
    @pytest.mark.parametrize("case", sorted(TestOutputPathKind.CASES))
    @pytest.mark.parametrize("below", ["out.x", "sub/out.x"])
    def test_output_under_a_file_exit_2(self, small_run, tmp_path, caplog, capsys, case, below):
        template, flag = TestOutputPathKind.CASES[case]
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        args = [a.format(run=small_run, out=tmp_path) for a in template]
        args[args.index(flag) + 1] = str(taken / below)
        assert main(args) == 2
        assert f"output is under a file, not a directory: {taken / below}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("below", ["rep", "sub/rep"])
    def test_report_out_dir_under_a_file_exit_2(self, small_run, tmp_path, caplog, capsys,
                                                below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["report", "--summary", str(small_run / "summary.json"),
                     "--distributions", str(small_run / "distributions.csv"),
                     "--dynamics", str(small_run / "dynamics.csv"),
                     "--out-dir", str(taken / below)]) == 2
        assert f"output directory is not a directory: {taken / below}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text() == "kept\n"


class TestDistributionsSettings:
    @pytest.mark.parametrize(("flags", "message"), [
        (["--p-method", "permutation", "--n-perm", "0", "--seed", "-5"],
         "n_perm must be at least 1, got 0"),
        (["--seed", "-5"], "seed must be >= 0, got -5"),
        (["--bandwidth", "-1"], "bandwidth must be positive, got -1.0"),
        (["--bandwidth", "0"], "bandwidth must be positive, got 0.0"),
    ], ids=["n-perm", "seed", "bandwidth-negative", "bandwidth-zero"])
    @pytest.mark.parametrize("likes", [[], [0, 0, 0], [0, 0, 500, 500]],
                             ids=["no-sample", "no-testable-pair", "testable-pair"])
    def test_bad_setting_exit_2(self, tmp_path, caplog, capsys, likes, flags, message):
        records = tmp_path / "records.csv"
        cloud.write_records_csv(
            [cloud.EccentricityRecord(f"p{i}", "a", i, n, float(i), None, 1, 0)
             for i, n in enumerate(likes)], records)
        out = tmp_path / "out"
        assert main(["distributions", "--records", str(records), *flags,
                     "--out-csv", str(out / "d.csv"), "--out-summary", str(out / "s.json")]) == 2
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestDynamicsSettings:
    @pytest.mark.parametrize(("flags", "message"), [
        (["--min-gap", "-1"], "min_gap must be positive, got -1.0"),
        (["--min-gap", "0"], "min_gap must be positive, got 0.0"),
    ], ids=["min-gap-negative", "min-gap-zero"])
    @pytest.mark.parametrize("times", [[], [0, 60]], ids=["header-only", "two-points"])
    def test_bad_setting_exit_2(self, tmp_path, caplog, capsys, times, flags, message):
        records = tmp_path / "records.csv"
        cloud.write_records_csv(
            [cloud.EccentricityRecord(f"p{i}", "a", t, 0, 1.0, None, 1, 0)
             for i, t in enumerate(times)], records)
        out = tmp_path / "out"
        assert main(["dynamics", "--records", str(records), *flags,
                     "--out", str(out / "dyn.csv")]) == 2
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestSynthManifest:
    def test_post_noise_recorded_in_config(self, tmp_path):
        configs = []
        for noise in ("0.25", "0.5"):
            out = tmp_path / noise
            assert main(["synth", "--n-users", "3", "--post-noise", noise,
                         "--out-posts", str(out / "posts.jsonl"),
                         "--out-edges", str(out / "edges.jsonl"),
                         "--out-vectors", str(out / "vectors.jsonl")]) == 0
            configs.append(manifest_of(out / "posts.jsonl")["config"])
        assert [c["post_noise"] for c in configs] == [0.25, 0.5]
        assert configs[0] != configs[1]


    def test_config_golden(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--n-users", "3", "--follow-prob", "0.5", "--n-days", "2",
                     "--posts-per-day", "1.5", "--synth-dim", "4", "--seed", "5",
                     "--effect", "elevator-drift", "--strength", "0.5",
                     "--user-spread", "2", "--post-noise", "0.125",
                     "--out-posts", str(out / "posts.jsonl"),
                     "--out-edges", str(out / "edges.jsonl"),
                     "--out-vectors", str(out / "vectors.jsonl")]) == 0
        text = (out / "posts.jsonl.manifest.json").read_text()
        assert text[:text.index("}") + 1] == (
            '{\n'
            '  "config": {\n'
            '    "dim": 4,\n'
            '    "effect": "elevator-drift",\n'
            '    "effect_strength": 0.5,\n'
            '    "follow_prob": 0.5,\n'
            '    "like_max": 500,\n'
            '    "n_days": 2.0,\n'
            '    "n_users": 3,\n'
            '    "post_noise": 0.125,\n'
            '    "posts_per_user_per_day": 1.5,\n'
            '    "seed": 5,\n'
            '    "user_spread": 2.0\n'
            '  }')

    @pytest.mark.parametrize(("flags", "field"), [
        (["--user-spread", "-1"], "user_spread"),
        (["--user-spread", "-0"], "user_spread"),
        (["--post-noise", "-0.5"], "post_noise"),
        (["--n-days", "1e300"], "n_days"),
        (["--n-days", "1e-9", "--posts-per-day", "1e12"], "n_days"),
        (["--posts-per-day", "1e300"], "posts_per_user_per_day"),
    ], ids=["user-spread-negative", "user-spread-minus-zero", "post-noise-negative",
            "n-days-huge", "n-days-under-a-second", "posts-per-day-huge"])
    def test_undrawable_config_exit_2(self, tmp_path, caplog, capsys, flags, field):
        out = tmp_path / "out"
        assert main(["synth", "--n-users", "3", *flags,
                     "--out-posts", str(out / "posts.jsonl"),
                     "--out-edges", str(out / "edges.jsonl"),
                     "--out-vectors", str(out / "vectors.jsonl")]) == 2
        assert field in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBadRecordRows:
    @pytest.mark.parametrize(("stage", "row"), [
        ("dynamics", b"p2,a,notanint,0,,,0,0"),
        ("distributions", b"p2,a,notanint,0,,,0,0"),
        ("dynamics", b"p2,a,5,0,,,1,0,x,y"),
        ("distributions", b"p2,a,5,0,,,1,0,x,y"),
        ("dynamics", b"p2,\xff,5,0,,,1,0"),
        ("distributions", b"p2,\xff,5,0,,,1,0"),
        ("dynamics", b"p" + b"x" * 200_000 + b",a,5,0,,,1,0"),
        ("distributions", b"p" + b"x" * 200_000 + b",a,5,0,,,1,0"),
        ("dynamics", b"p2,a,5,0,nan,,1,0"),
        ("distributions", b"p2,a,5,0,nan,,1,0"),
        ("dynamics", b"p2,a,5,0,1.5,-inf,1,1"),
        ("distributions", b"p2,a,5,0,inf,,1,0"),
    ], ids=["dynamics", "distributions", "dynamics-extra-fields",
            "distributions-extra-fields", "dynamics-not-utf8", "distributions-not-utf8",
            "dynamics-oversized-field", "distributions-oversized-field",
            "dynamics-nan", "distributions-nan", "dynamics-inf", "distributions-inf"])
    def test_malformed_row_exit_2(self, tmp_path, caplog, stage, row):
        records = tmp_path / "records.csv"
        records.write_bytes(
            b"post_id,author,created_at,likes,eccentricity,self_eccentricity,"
            b"cloud_size,self_cloud_size\n"
            b"p1,a,0,0,,,0,0\n" + row + b"\n")
        args = (["dynamics", "--out", str(tmp_path / "dyn.csv")]
                if stage == "dynamics" else
                ["distributions", "--out-csv", str(tmp_path / "d.csv"),
                 "--out-summary", str(tmp_path / "s.json")])
        assert main([*args, "--records", str(records)]) == 2
        assert f"{records}:3:" in caplog.text

    def test_lone_cr_line_endings_exit_2(self, tmp_path, caplog):
        # lines end at \n only, so a lone-CR file is one line the CSV reader refuses
        records = tmp_path / "records.csv"
        records.write_bytes(
            b"post_id,author,created_at,likes,eccentricity,self_eccentricity,"
            b"cloud_size,self_cloud_size\rp1,a,0,0,,,0,0\r")
        assert main(["dynamics", "--out", str(tmp_path / "dyn.csv"),
                     "--records", str(records)]) == 2
        assert f"{records}:1:" in caplog.text


def _many_records(path, n):
    """``n`` records of 40 authors, each eccentricity defined, likes in every
    default bin; written as ``eccentricity`` writes them."""
    rng = np.random.default_rng(5)
    cloud.write_records_csv(
        [cloud.EccentricityRecord(f"post{i:06d}", f"user{i % 40:03d}", 1_700_000_000 + 97 * i,
                                  int(likes), float(e), float(se), 9, 3)
         for i, (likes, e, se) in enumerate(zip(rng.integers(0, 300, n),
                                                rng.uniform(0.0, 20.0, n),
                                                rng.uniform(0.0, 20.0, n)))], path)
    return path


STREAMED_STAGES = {
    "dynamics": ["dynamics", "--out", "{out}/dyn.csv"],
    "distributions": ["distributions", "--out-csv", "{out}/d.csv",
                      "--out-summary", "{out}/s.json"],
}


class TestStreamedRecords:
    """``dynamics`` and ``distributions`` read records.csv a row at a time."""

    # Both stages' peaks hold the 1 MiB block the input hash reads. On 6,000
    # records, streaming dynamics peaked at 1.6 MB, and reading every record
    # first at 2.9 MB; distributions at 1.6 MB, against 6.4 MB when it held
    # the records and summed the kde in 4 MiB blocks.
    @pytest.mark.parametrize("stage", sorted(STREAMED_STAGES))
    def test_peak_memory_holds_no_record_per_post(self, tmp_path, stage):
        records = _many_records(tmp_path / "records.csv", 6000)
        args = ["--log-level", "ERROR", "--threads", "1",
                *(arg.format(out=tmp_path / "out") for arg in STREAMED_STAGES[stage]),
                "--records", str(records)]
        assert main(args) == 0  # first-call caches are not counted below
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("stage", sorted(STREAMED_STAGES))
    def test_bad_row_mid_file_exit_2_and_write_nothing(self, tmp_path, caplog, stage):
        records = _many_records(tmp_path / "records.csv", 3000)
        lines = records.read_bytes().splitlines(keepends=True)
        lines[1500] = b"post001499,user019,5,0,notafloat,,1,0\n"
        records.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        assert main([*(arg.format(out=out) for arg in STREAMED_STAGES[stage]),
                     "--records", str(records)]) == 2
        assert f"{records}:1501: bad EccentricityRecord row" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(("stage", "flags", "message"), [
        ("distributions", ["--bins", "100,10"], "thresholds must be strictly ascending"),
        ("dynamics", ["--min-gap", "0"], "min_gap must be positive"),
    ], ids=["bins", "min-gap"])
    def test_bad_setting_reported_before_a_bad_row(self, tmp_path, caplog, stage, flags,
                                                   message):
        records = tmp_path / "records.csv"
        records.write_text(",".join(cloud.RECORD_FIELDS) + "\np1,a,notanint,0,,,0,0\n")
        out = tmp_path / "out"
        assert main([*(arg.format(out=out) for arg in STREAMED_STAGES[stage]), *flags,
                     "--records", str(records)]) == 2
        assert message in caplog.text
        assert "bad EccentricityRecord row" not in caplog.text

    def test_report_bad_density_row_mid_file_exit_2(self, tmp_path, caplog):
        summary, densities = tmp_path / "summary.json", tmp_path / "distributions.csv"
        summary.write_text('{"bins": []}\n')
        densities.write_text("bin,grid_x,density\n"
                             + "".join(f"low,{i}.5,0.25\n" for i in range(2000))
                             + "low,7.5,x\n"
                             + "".join(f"high,{i}.5,0.25\n" for i in range(2000)))
        dynamics.write_dynamics_csv([], tmp_path / "dynamics.csv")
        out = tmp_path / "report"
        assert main(["report", "--summary", str(summary), "--distributions", str(densities),
                     "--dynamics", str(tmp_path / "dynamics.csv"),
                     "--out-dir", str(out)]) == 2
        assert f"{densities}:2002: bad _DensityRow row" in caplog.text
        assert not out.exists()


class TestPermutationCount:
    @pytest.mark.parametrize("n_perm", ["0", "-1"])
    def test_no_draw_exit_2(self, tmp_path, caplog, n_perm):
        records = tmp_path / "records.csv"
        cloud.write_records_csv(
            [cloud.EccentricityRecord(f"p{i}", "a", i, 200 * (i % 2), float(i), None, 1, 0)
             for i in range(24)], records)
        out = tmp_path / "d.csv"
        assert main(["distributions", "--records", str(records), "--bins", "10",
                     "--p-method", "permutation", "--n-perm", n_perm,
                     "--out-csv", str(out), "--out-summary", str(tmp_path / "s.json")]) == 2
        assert f"n_perm must be at least 1, got {n_perm}" in caplog.text
        assert not out.exists()

    @staticmethod
    def three_bins(path):
        rng = np.random.default_rng(4)
        cloud.write_records_csv(
            [cloud.EccentricityRecord(f"p{i:03d}", "a", i, likes, round(float(ecc), 1),
                                      None, 1, 0)
             for i, (likes, ecc) in enumerate(
                 (likes, rng.normal(likes ** 0.5, 2.0))
                 for likes in (5, 50, 500) for _ in range(40))], path)

    def test_worker_error_exit_2(self, tmp_path, caplog, monkeypatch):
        # only the last pair fails, after the first two were handed out
        real = stats.ad_test_2sample

        def failing_test(x, y, **kwargs):
            if float(np.mean(x)) > 4.0:
                raise DataFormatError("medium-high pair failed")
            return real(x, y, **kwargs)

        self.three_bins(tmp_path / "records.csv")
        monkeypatch.setattr(stats, "ad_test_2sample", failing_test)
        before = threading.active_count()
        out = tmp_path / "d.csv"
        assert main(["distributions", "--records", str(tmp_path / "records.csv"),
                     "--bins", "10,100", "--out-csv", str(out),
                     "--out-summary", str(tmp_path / "s.json")]) == 2
        assert "medium-high pair failed" in caplog.text
        assert not out.exists()
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_bytes_do_not_depend_on_usable_cpus(self, tmp_path):
        cpus = os.sched_getaffinity(0)
        outputs = []
        for name, pin, flags in (("one", {min(cpus)}, []), ("all", None, []),
                                 ("flag", None, ["--threads", "1"])):
            root = tmp_path / name
            root.mkdir()
            self.three_bins(root / "records.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "ideadrift.cli", *flags, "distributions",
                 "--records", "records.csv", "--bins", "10,100", "--p-method", "permutation",
                 "--n-perm", "300", "--seed", "2", "--out-csv", "d.csv",
                 "--out-summary", "s.json"],
                cwd=root, env=blas_env(1), capture_output=True, text=True,
                preexec_fn=pin and (lambda: os.sched_setaffinity(0, pin)))
            assert proc.returncode == 0, proc.stderr[-2000:]
            threads = 1 if pin or flags else min(3, len(cpus))
            assert f"3 pairwise tests on {threads} workers" in proc.stderr
            outputs.append([(root / file).read_bytes()
                            for file in ("d.csv", "s.json", "d.csv.manifest.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_one_thread_runs_every_pair_in_the_caller(self, tmp_path, monkeypatch):
        real = stats.ad_test_2sample
        calls = []

        def recording_test(x, y, **kwargs):
            calls.append((os.getpid(), threading.current_thread() is threading.main_thread(),
                          threading.active_count()))
            return real(x, y, **kwargs)

        self.three_bins(tmp_path / "records.csv")
        monkeypatch.setattr(stats, "ad_test_2sample", recording_test)
        before = threading.active_count()
        assert main(["--threads", "1", "distributions", "--records",
                     str(tmp_path / "records.csv"), "--bins", "10,100",
                     "--out-csv", str(tmp_path / "d.csv"),
                     "--out-summary", str(tmp_path / "s.json")]) == 0
        assert calls == [(os.getpid(), True, before)] * 3


class TestCsvBytes:
    def test_rows_written_as_exact_csv_text(self, tmp_path):
        cloud.write_records_csv([
            cloud.EccentricityRecord("p1", "a", 0, 0, None, None, 0, 0),
            cloud.EccentricityRecord("p2", "b", 12345678901234567890, 3, 0.1 + 0.2, 1.5, 2, 1),
        ], tmp_path / "records.csv")
        assert (tmp_path / "records.csv").read_bytes() == (
            b"post_id,author,created_at,likes,eccentricity,self_eccentricity,"
            b"cloud_size,self_cloud_size\r\n"
            b"p1,a,0,0,,,0,0\r\n"
            b"p2,b,12345678901234567890,3,0.30000000000000004,1.5,2,1\r\n")

        dynamics.write_dynamics_csv([
            dynamics.UserDynamics("u", 1, None, None, None, None, None),
            dynamics.UserDynamics("v", 2, 0.1 + 0.2, -0.5, 1e-20, 2.0, 86400.0),
        ], tmp_path / "dynamics.csv")
        assert (tmp_path / "dynamics.csv").read_bytes() == (
            b"user,n,f_ecc,g_ecc,f_self,g_self,mean_gap_seconds\r\n"
            b"u,1,,,,,\r\n"
            b"v,2,0.30000000000000004,-0.5,1e-20,2.0,86400.0\r\n")

        (tmp_path / "summary.json").write_text(json.dumps({
            "bins": [{"label": "0-9", "n": 2, "mean": 0.1 + 0.2},
                     {"label": "10+", "n": 0, "mean": None}],
            "tests": []}))
        (tmp_path / "distributions.csv").write_text("bin,grid_x,density\n")
        assert main(["report", "--summary", str(tmp_path / "summary.json"),
                     "--distributions", str(tmp_path / "distributions.csv"),
                     "--dynamics", str(tmp_path / "dynamics.csv"),
                     "--out-dir", str(tmp_path / "report")]) == 0
        assert (tmp_path / "report" / "fg_scatter.csv").read_bytes() == (
            b"user,f_ecc,g_ecc,f_self,g_self\r\n"
            b"u,,,,\r\n"
            b"v,0.30000000000000004,-0.5,1e-20,2.0\r\n")
        assert (tmp_path / "report" / "bin_means.csv").read_bytes() == (
            b"bin,n,mean_eccentricity\r\n"
            b"0-9,2,0.30000000000000004\r\n"
            b"10+,0,\r\n")

    def test_distributions_csv_skips_empty_bin(self, tmp_path):
        records = tmp_path / "records.csv"
        cloud.write_records_csv(
            [cloud.EccentricityRecord(f"p{i}", "a", i, 200 * (i % 2), 0.1 * i + 1 / 3, None, 1, 0)
             for i in range(6)], records)
        out = tmp_path / "d.csv"
        assert main(["distributions", "--records", str(records), "--bins", "10,100",
                     "--out-csv", str(out), "--out-summary", str(tmp_path / "s.json")]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert [(b["label"], b["n"]) for b in summary["bins"]] == [
            ("low", 3), ("medium", 0), ("high", 3)]

        header, *lines, end = out.read_bytes().split(b"\r\n")
        assert header == b"bin,grid_x,density"
        assert end == b""
        rows = [line.decode().split(",") for line in lines]
        assert {label for label, _, _ in rows} == {"low", "high"}
        assert len(rows) == 2 * 512
        for _, x, d in rows:
            assert x == repr(float(x)) and d == repr(float(d))


class TestReportSummary:
    @pytest.mark.parametrize("text", ['{"bins": [', '{"bins": [{"n": 1}]}',
                                      '{"bins": ' + "[" * 100_000],
                             ids=["truncated", "bin-without-label", "nested-too-deeply"])
    def test_bad_summary_exit_2(self, tmp_path, caplog, text):
        summary = tmp_path / "summary.json"
        summary.write_text(text)
        (tmp_path / "distributions.csv").write_text("bin,grid_x,density\n")
        dynamics.write_dynamics_csv([], tmp_path / "dynamics.csv")
        assert main(["report", "--summary", str(summary),
                     "--distributions", str(tmp_path / "distributions.csv"),
                     "--dynamics", str(tmp_path / "dynamics.csv"),
                     "--out-dir", str(tmp_path / "report")]) == 2
        assert str(summary) in caplog.text

    @pytest.mark.parametrize(("bins", "index"), [
        ('[{"label": {"x": 1}, "n": "many", "mean": [1, 2]}]', 0),
        ('[{"label": "low", "n": 2, "mean": 0.5}, {"label": "high", "n": -3, "mean": true}]', 1),
        ('[{"label": "low", "n": true, "mean": 0.5}]', 0),
        ('[{"label": "low", "n": 2.0, "mean": 0.5}]', 0),
        ('[{"label": "low", "n": 2, "mean": "0.5"}]', 0),
        ('[{"label": "low", "n": 2, "mean": 1}]', 0),
        ('[{"label": "low", "n": 2}]', 0),
        ('[{"label": "low", "n": 2, "mean": null}, ["low", 2, 0.5]]', 1),
    ], ids=["wrong-types", "negative-n-bool-mean", "bool-n", "float-n", "str-mean",
            "int-mean", "no-mean", "not-an-object"])
    def test_mistyped_bin_entry_exit_2(self, tmp_path, caplog, bins, index):
        summary = tmp_path / "summary.json"
        summary.write_text('{"bins": ' + bins + ', "tests": []}')
        (tmp_path / "distributions.csv").write_text("bin,grid_x,density\n")
        dynamics.write_dynamics_csv([], tmp_path / "dynamics.csv")
        assert main(["report", "--summary", str(summary),
                     "--distributions", str(tmp_path / "distributions.csv"),
                     "--dynamics", str(tmp_path / "dynamics.csv"),
                     "--out-dir", str(tmp_path / "report")]) == 2
        assert f"{summary}: bins entry {index} needs a str label" in caplog.text
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("bins", ['{"label": "low"}', '"low"', "3"],
                             ids=["object", "string", "number"])
    def test_bins_not_a_list_exit_2(self, tmp_path, caplog, bins):
        summary = tmp_path / "summary.json"
        summary.write_text('{"bins": ' + bins + "}")
        (tmp_path / "distributions.csv").write_text("bin,grid_x,density\n")
        dynamics.write_dynamics_csv([], tmp_path / "dynamics.csv")
        assert main(["report", "--summary", str(summary),
                     "--distributions", str(tmp_path / "distributions.csv"),
                     "--dynamics", str(tmp_path / "dynamics.csv"),
                     "--out-dir", str(tmp_path / "report")]) == 2
        assert f"{summary}: bins must be a list" in caplog.text

    @pytest.mark.parametrize("field", ["nan", "-inf"])
    def test_non_finite_dynamics_field_exit_2(self, tmp_path, caplog, field):
        summary = tmp_path / "summary.json"
        summary.write_text('{"bins": []}')
        (tmp_path / "distributions.csv").write_text("bin,grid_x,density\n")
        dyn = tmp_path / "dynamics.csv"
        dyn.write_text("user,n,f_ecc,g_ecc,f_self,g_self,mean_gap_seconds\n"
                       "a,3,0.5,0.25,,,60.0\n"
                       f"b,3,0.5,{field},,,60.0\n")
        assert main(["report", "--summary", str(summary),
                     "--distributions", str(tmp_path / "distributions.csv"),
                     "--dynamics", str(dyn),
                     "--out-dir", str(tmp_path / "report")]) == 2
        assert f"{dyn}:3:" in caplog.text


class TestPresets:
    def embed(self, run, out, *prefix):
        assert main([*prefix, "embed", "--posts", str(run / "posts.jsonl"),
                     "--out", str(out)]) == 0
        dims = {len(json.loads(line)["vec"]) for line in out.read_text().splitlines()}
        return dims, manifest_of(out)["config"]

    def test_experiment_preset_flag(self, small_run, tmp_path):
        dims, config = self.embed(small_run, tmp_path / "v.jsonl",
                                  "--preset", "experiment")
        assert dims == {90}
        assert config["min_count"] == 7

    def test_experiment_preset_from_config_file(self, small_run, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps({"preset": "experiment"}))
        dims, config = self.embed(small_run, tmp_path / "v.jsonl",
                                  "--config", str(tmp_path / "config.json"))
        assert dims == {90}
        assert config["min_count"] == 7

    @pytest.mark.parametrize("preset", ["nope", ["x"]], ids=["unknown", "list"])
    def test_unknown_preset_in_config_exit_2(self, small_run, tmp_path, preset):
        (tmp_path / "config.json").write_text(json.dumps({"preset": preset}))
        assert main(["--config", str(tmp_path / "config.json"), "embed",
                     "--posts", str(small_run / "posts.jsonl"),
                     "--out", str(tmp_path / "v.jsonl")]) == 2


class TestNonFiniteSettings:
    SYNTH = ["synth", "--out-posts", "p.jsonl", "--out-edges", "e.jsonl",
             "--out-vectors", "v.jsonl"]
    ECCENTRICITY = ["eccentricity", "--posts", "posts.jsonl", "--edges", "edges.jsonl",
                    "--vectors", "vectors.jsonl", "--out", "out.csv"]
    DISTRIBUTIONS = ["distributions", "--records", "records.csv",
                     "--out-csv", "d.csv", "--out-summary", "s.json"]

    @pytest.mark.parametrize(("args", "key"), [
        ([*ECCENTRICITY, "--window-days", "nan"], "window_days"),
        ([*ECCENTRICITY, "--window-days", "inf"], "window_days"),
        # finite in days, infinite in seconds
        ([*ECCENTRICITY, "--window-days", "1e305"], "window_days"),
        ([*SYNTH, "--n-days", "inf"], "n_days"),
        ([*DISTRIBUTIONS, "--bandwidth", "nan"], "bandwidth"),
        ([*DISTRIBUTIONS, "--bandwidth", "inf"], "bandwidth"),
        (["dynamics", "--records", "records.csv", "--min-gap", "nan", "--out", "dyn.csv"],
         "min_gap"),
        ([*SYNTH, "--strength", "nan", "--effect", "attention-coupling"], "strength"),
        ([*SYNTH, "--user-spread", "inf"], "user_spread"),
    ], ids=["window-days-nan", "window-days-inf", "window-days-huge", "n-days-inf", "bandwidth-nan",
            "bandwidth-inf", "min-gap-nan", "strength-nan", "user-spread-inf"])
    def test_non_finite_exit_2(self, worked_example, monkeypatch, caplog, args, key):
        monkeypatch.chdir(worked_example)
        cloud.write_records_csv([cloud.EccentricityRecord("p1", "a", 0, 3, 1.0, None, 1, 0),
                                 cloud.EccentricityRecord("p2", "a", 9, 3, 2.0, None, 1, 0)],
                                "records.csv")
        assert main(args) == 2
        assert f"bad {key} value" in caplog.text


class TestParser:
    # each subcommand's long options, written out so that a flag the stage
    # table drops or renames fails here
    FLAGS = {
        None: {"--config", "--preset", "--threads", "--log-level"},
        "ingest": {"--posts", "--edges", "--out-posts", "--out-edges"},
        "lcc": {"--posts", "--edges", "--out-posts", "--out-edges"},
        "sample": {"--posts", "--edges", "--out-posts", "--out-edges", "--fraction", "--seed"},
        "embed": {"--posts", "--stopwords", "--dim", "--min-count", "--hash-seed", "--out"},
        "pca": {"--vectors", "--variance", "--out", "--model-out"},
        "eccentricity": {"--posts", "--edges", "--vectors", "--window-days", "--out"},
        "dynamics": {"--records", "--fg-weighting", "--min-gap", "--out"},
        "distributions": {"--records", "--bins", "--bandwidth", "--p-method", "--n-perm",
                          "--seed", "--out-csv", "--out-summary"},
        "synth": {"--n-users", "--follow-prob", "--n-days", "--posts-per-day", "--synth-dim",
                  "--seed", "--effect", "--strength", "--user-spread", "--post-noise",
                  "--out-posts", "--out-edges", "--out-vectors"},
        "report": {"--summary", "--distributions", "--dynamics", "--out-dir"},
    }

    def test_each_subcommand_keeps_its_flags(self):
        def long_options(parser):
            return {option for action in parser._actions for option in action.option_strings
                    if option.startswith("--") and option != "--help"}

        parser = build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: long_options(stage) for name, stage in sub.choices.items()}
        assert {None: long_options(parser), **flags} == self.FLAGS

    def test_unknown_log_level_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "nope", "report", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'NOPE'" in capsys.readouterr().err


class TestVectorReaderStages:
    def test_vectors_from_stdin(self, worked_example):
        # the reader opens its file twice, once to count lines; /dev/stdin
        # redirected from a file reopens that file
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin")
        args = [sys.executable, "-m", "ideadrift.cli", "eccentricity",
                "--posts", "posts.jsonl", "--edges", "edges.jsonl"]
        assert subprocess.run([*args, "--vectors", "vectors.jsonl", "--out", "plain.csv"],
                              cwd=worked_example, env=blas_env(1)).returncode == 0
        with open(worked_example / "vectors.jsonl", "rb") as stdin:
            proc = subprocess.run([*args, "--vectors", "/dev/stdin", "--out", "stdin.csv"],
                                  cwd=worked_example, env=blas_env(1), stdin=stdin,
                                  capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert ((worked_example / "stdin.csv").read_bytes()
                == (worked_example / "plain.csv").read_bytes())

    @pytest.mark.parametrize("text", ["", '{"id":"p1","vec":[1.0,2.0]}\n'],
                             ids=["empty", "one-line"])
    def test_pca_under_two_rows_exit_2(self, tmp_path, caplog, text):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text(text)
        out = tmp_path / "out"
        assert main(["pca", "--vectors", str(vectors), "--out", str(out / "reduced.jsonl"),
                     "--model-out", str(out / "pca.json")]) == 2
        rows = text.count("\n")
        assert f"need at least 2 rows to fit, got {rows}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", '{"id":"p1","vec":[1.0,2.0]}\n'],
                             ids=["empty", "one-line"])
    def test_pca_under_two_rows_names_the_vectors_file(self, tmp_path, caplog, text):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text(text)
        out = tmp_path / "out"
        assert main(["pca", "--vectors", str(vectors), "--out", str(out / "reduced.jsonl"),
                     "--model-out", str(out / "pca.json")]) == 2
        assert f"{vectors}: need at least 2 rows to fit, got {text.count(chr(10))}" in caplog.text


class TestSeedBounds:
    @pytest.mark.parametrize(("args", "message"), [
        (["synth", "--seed", "-1", "--out-posts", "{out}/p.jsonl",
          "--out-edges", "{out}/e.jsonl", "--out-vectors", "{out}/v.jsonl"],
         "seed must be >= 0, got -1"),
        (["sample", "--seed", "-3", "--posts", "{run}/posts.jsonl",
          "--edges", "{run}/edges.jsonl", "--out-posts", "{out}/p.jsonl",
          "--out-edges", "{out}/e.jsonl"],
         "seed must be >= 0, got -3"),
        (["distributions", "--p-method", "permutation", "--seed", "-2",
          "--records", "{run}/records.csv", "--out-csv", "{out}/d.csv",
          "--out-summary", "{out}/s.json"],
         "seed must be >= 0, got -2"),
        (["embed", "--hash-seed", "-1", "--posts", "{run}/posts.jsonl",
          "--out", "{out}/v.jsonl"],
         "hash_seed must be in [0, 2**64), got -1"),
        (["embed", "--hash-seed", str(2**64), "--posts", "{run}/posts.jsonl",
          "--out", "{out}/v.jsonl"],
         f"hash_seed must be in [0, 2**64), got {2**64}"),
        (["--threads", "0", "distributions", "--records", "{run}/records.csv",
          "--out-csv", "{out}/d.csv", "--out-summary", "{out}/s.json"],
         "threads must be at least 1, got 0"),
        (["--threads", "-1", "distributions", "--records", "{run}/records.csv",
          "--out-csv", "{out}/d.csv", "--out-summary", "{out}/s.json"],
         "threads must be at least 1, got -1"),
    ], ids=["synth", "sample", "distributions", "embed-negative", "embed-65-bits",
            "threads-zero", "threads-negative"])
    def test_bad_seed_exit_2(self, small_run, tmp_path, caplog, capsys, args, message):
        out = tmp_path / "out"
        assert main([arg.format(run=small_run, out=out) for arg in args]) == 2
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


def _overflowing_replay(root):
    """c's cloud holds a and b, whose offsets from c overflow float64."""
    write_jsonl(root / "posts.jsonl", [
        {"id": "a", "author": "u", "created_at": 0, "text": "", "likes": 0},
        {"id": "b", "author": "u", "created_at": 10, "text": "", "likes": 0},
        {"id": "c", "author": "v", "created_at": 20, "text": "", "likes": 0},
    ])
    write_jsonl(root / "edges.jsonl", [{"follower": "v", "followee": "u"}])
    write_jsonl(root / "vectors.jsonl", [
        {"id": "a", "vec": [1e308, 0.0]}, {"id": "b", "vec": [1e308, 1.0]},
        {"id": "c", "vec": [-1e308, 2.0]}])


def _huge_mean_records(root):
    cloud.write_records_csv(
        [cloud.EccentricityRecord(f"p{i}", "a", i, 0 if i % 2 else 200,
                                  1.5e308 if i % 2 else 1.0, None, 1, 0) for i in range(8)],
        root / "records.csv")


def _alternating_records(root):
    cloud.write_records_csv(
        [cloud.EccentricityRecord(f"p{i}", "a", 60 * i, 0, 1.7e308 if i % 2 else 1.0,
                                  None, 1, 0) for i in range(6)],
        root / "records.csv")


def _infinite_summary(root):
    (root / "summary.json").write_text(
        '{"bins": [{"label": "low", "n": 4, "mean": Infinity}]}\n')
    (root / "distributions.csv").write_text("bin,grid_x,density\n")
    dynamics.write_dynamics_csv([], root / "dynamics.csv")


def _non_finite_densities(root):
    (root / "summary.json").write_text('{"bins": []}\n')
    (root / "distributions.csv").write_text("bin,grid_x,density\nlow,0.5,inf\n")
    dynamics.write_dynamics_csv([], root / "dynamics.csv")


class TestNoNonFiniteOutput:
    # finite inputs whose results overflow float64: each stage stops before
    # it writes, and says which input or setting
    @pytest.mark.parametrize(("make", "args", "named"), [
        (_overflowing_replay,
         ["eccentricity", "--posts", "{inp}/posts.jsonl", "--edges", "{inp}/edges.jsonl",
          "--vectors", "{inp}/vectors.jsonl", "--out", "{out}/records.csv"],
         "{inp}/vectors.jsonl"),
        (_overflowing_replay,
         ["pca", "--vectors", "{inp}/vectors.jsonl", "--out", "{out}/reduced.jsonl",
          "--model-out", "{out}/pca.json"],
         "{inp}/vectors.jsonl"),
        (lambda root: None,
         ["distributions", "--records", "{run}/records.csv", "--bandwidth", "1e308",
          "--out-csv", "{out}/d.csv", "--out-summary", "{out}/s.json"],
         "bandwidth"),
        (_huge_mean_records,
         ["distributions", "--records", "{inp}/records.csv", "--bins", "10",
          "--out-csv", "{out}/d.csv", "--out-summary", "{out}/s.json"],
         "{inp}/records.csv"),
        (_alternating_records,
         ["dynamics", "--records", "{inp}/records.csv", "--out", "{out}/dyn.csv"],
         "{inp}/records.csv"),
        (_infinite_summary,
         ["report", "--summary", "{inp}/summary.json",
          "--distributions", "{inp}/distributions.csv", "--dynamics", "{inp}/dynamics.csv",
          "--out-dir", "{out}"],
         "{inp}/summary.json"),
        # report copies distributions.csv into densities.csv
        (_non_finite_densities,
         ["report", "--summary", "{inp}/summary.json",
          "--distributions", "{inp}/distributions.csv", "--dynamics", "{inp}/dynamics.csv",
          "--out-dir", "{out}"],
         "{inp}/distributions.csv:2:"),
        (lambda root: None,
         ["synth", "--n-users", "20", "--seed", "1", "--user-spread", "1e308",
          "--out-posts", "{out}/p.jsonl", "--out-edges", "{out}/e.jsonl",
          "--out-vectors", "{out}/v.jsonl"],
         "user_spread"),
    ], ids=["eccentricity", "pca", "distributions-bandwidth", "distributions-mean",
            "dynamics", "report", "report-densities", "synth"])
    def test_overflow_exit_2(self, small_run, tmp_path, caplog, capsys, make, args, named):
        inp, out = tmp_path / "in", tmp_path / "out"
        inp.mkdir()
        make(inp)
        paths = dict(run=small_run, inp=inp, out=out)
        assert main([arg.format(**paths) for arg in args]) == 2
        assert named.format(**paths) in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()
