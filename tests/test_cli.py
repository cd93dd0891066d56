import csv
import json
from pathlib import Path

import numpy as np
import pytest

from ideadrift import cloud, dynamics
from ideadrift.cli import main

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

    def test_missing_input_exit_2(self, tmp_path):
        code = main(["eccentricity", "--posts", str(tmp_path / "nope.jsonl"),
                     "--edges", str(tmp_path / "nope.jsonl"),
                     "--vectors", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2

    def test_data_error_exit_2(self, worked_example, tmp_path):
        # vector file missing one post id
        write_jsonl(worked_example / "partial.jsonl", [{"id": "p1", "vec": [0.0]}])
        code = main(["eccentricity",
                     "--posts", str(worked_example / "posts.jsonl"),
                     "--edges", str(worked_example / "edges.jsonl"),
                     "--vectors", str(worked_example / "partial.jsonl"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2

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

    @pytest.mark.parametrize(("config", "args"), [
        ({"seed": "abc"}, ["synth", "--out-posts", "p.jsonl", "--out-edges", "e.jsonl",
                           "--out-vectors", "v.jsonl"]),
        ({"window_days": "five"}, ["eccentricity", "--posts", "posts.jsonl",
                                   "--edges", "edges.jsonl", "--vectors", "vectors.jsonl",
                                   "--out", "records.csv"]),
    ], ids=["synth-seed", "eccentricity-window-days"])
    def test_bad_config_value_exit_2(self, worked_example, monkeypatch, caplog,
                                     config, args):
        monkeypatch.chdir(worked_example)
        Path("config.json").write_text(json.dumps(config))
        assert main(["--config", "config.json", *args]) == 2
        [key] = config
        assert key in caplog.text

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
    CASES = {
        "ingest": (["ingest", *CORPUS], "posts.jsonl", {"posts", "edges"}),
        "lcc": (["lcc", *CORPUS], "posts.jsonl", {"posts", "edges"}),
        "sample": (["sample", *CORPUS, "--fraction", "0.5"], "posts.jsonl",
                   {"posts", "edges"}),
        "embed": (["embed", "--posts", "{run}/posts.jsonl", "--dim", "8",
                   "--out", "{out}/vec.jsonl"], "vec.jsonl", {"posts"}),
        "embed-stopwords": (["embed", "--posts", "{run}/posts.jsonl",
                             "--stopwords", "{run}/stops.txt", "--dim", "8",
                             "--out", "{out}/vec.jsonl"], "vec.jsonl",
                            {"posts", "stopwords"}),
        "pca": (["pca", "--vectors", "{run}/vectors.jsonl", "--out", "{out}/pca.jsonl",
                 "--model-out", "{out}/model.json"], "pca.jsonl", {"vectors"}),
        "dynamics": (["dynamics", "--records", "{run}/records.csv",
                      "--out", "{out}/dyn.csv"], "dyn.csv", {"records"}),
        "distributions": (["distributions", "--records", "{run}/records.csv",
                           "--out-csv", "{out}/d.csv", "--out-summary", "{out}/s.json"],
                          "d.csv", {"records"}),
        "report": (["report", "--summary", "{run}/summary.json",
                    "--distributions", "{run}/distributions.csv",
                    "--dynamics", "{run}/dynamics.csv", "--out-dir", "{out}"],
                   "report.json", {"summary", "distributions", "dynamics"}),
        "synth": (["synth", "--n-users", "3", "--out-posts", "{out}/posts.jsonl",
                   "--out-edges", "{out}/edges.jsonl",
                   "--out-vectors", "{out}/vectors.jsonl"], "posts.jsonl", set()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_inputs_are_the_files_the_stage_read(self, small_run, tmp_path, case):
        template, primary, expected = self.CASES[case]
        args = [a.format(run=small_run, out=tmp_path) for a in template]
        assert main(args) == 0
        manifest = manifest_of(tmp_path / primary)
        assert set(manifest["inputs"]) == expected
        for name, entry in manifest["inputs"].items():
            assert entry["path"] == args[args.index(f"--{name}") + 1]
            assert len(entry["sha256"]) == 64


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


class TestBadRecordRows:
    @pytest.mark.parametrize(("stage", "row"), [
        ("dynamics", "p2,a,notanint,0,,,0,0"),
        ("distributions", "p2,a,notanint,0,,,0,0"),
        ("dynamics", "p2,a,5,0,,,1,0,x,y"),
        ("distributions", "p2,a,5,0,,,1,0,x,y"),
    ], ids=["dynamics", "distributions", "dynamics-extra-fields",
            "distributions-extra-fields"])
    def test_malformed_row_exit_2(self, tmp_path, caplog, stage, row):
        records = tmp_path / "records.csv"
        records.write_text(
            "post_id,author,created_at,likes,eccentricity,self_eccentricity,"
            "cloud_size,self_cloud_size\n"
            "p1,a,0,0,,,0,0\n"
            f"{row}\n")
        args = (["dynamics", "--out", str(tmp_path / "dyn.csv")]
                if stage == "dynamics" else
                ["distributions", "--out-csv", str(tmp_path / "d.csv"),
                 "--out-summary", str(tmp_path / "s.json")])
        assert main([*args, "--records", str(records)]) == 2
        assert f"{records}:3:" in caplog.text


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

    def test_unknown_preset_in_config_exit_2(self, small_run, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps({"preset": "nope"}))
        assert main(["--config", str(tmp_path / "config.json"), "embed",
                     "--posts", str(small_run / "posts.jsonl"),
                     "--out", str(tmp_path / "v.jsonl")]) == 2
