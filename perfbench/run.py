"""End-to-end benchmark of the ideadrift pipeline.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop driven from this one process: its stage
sequence runs through the real ``ideadrift`` CLI, one fresh process per
stage and one process at a time, over and over until ``--seconds`` have
passed (at least ``MIN_SEQUENCES`` times). Inputs are generated from ``--seed`` during an
untimed set-up that is repeated ``SETUP_REPEATS`` times; the program only
ever sees the generated files. Every stage's wall time, CPU time and peak
RSS come from ``os.wait4`` on its pid; ``posts_per_s`` and ``setup_s`` scale
wall times to a nominal CPU speed read between stages (see ``reference``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
runs the stage sequence once through ``traced_stage.py`` and prints the
per-layer metrics (see README.md for the metric -> layer -> workload map).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark exits
with code 2, printing no result, when the checkout holds no ideadrift
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen  # the benchmark's own generators, next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The acceptance-8 corpus shape (3000 users, 146,831 posts) takes ~30 s per
# replay sequence; these sizes keep several sequences inside one run while
# the same per-user degree (12 followees) and post rate keep its shape.
SYNTH = {"n_users": 300, "follow_prob": 0.04, "n_days": 14.0,
         "posts_per_day": 3.5, "synth_dim": 24,
         "effect": "attention-coupling", "strength": 1.0}
# the text path is ~10x costlier per post than replay, so it uses fewer users
TEXT_USERS = 45
TEXT = {"vocab_size": 20000, "exponent": 1.07, "words_per_post": 40}
EMBED = {"dim": 300, "min_count": 10}
# the hub base is smaller than replay-uniform's so that a sequence stays near
# 4 s; 20 hubs keep push/pull above 3 at this size
HUB_USERS = 200
HUBS = {"n_hubs": 20, "reach": 0.3, "rate_mult": 10.0}
N_PERM = 500
WINDOW_SECONDS = 5 * 86400
SETUP_REPEATS = 3
MIN_SEQUENCES = 3
ORACLE_CHECKS = 16
ORACLE_RTOL = 1e-9
RUN_BUDGET_S = 170.0
# the nominal CPU speed, as the time of one reference() run: a typical
# reading on the 2-vCPU Xeon VM the benchmark was defined on, where single
# runs take 0.026-0.050 s; timed walls are scaled to that speed
REF_S = 0.040
# reference() runs per speed reading; the speed flips between two levels
# several times a second, so one reading averages a few runs
REF_READINGS = 2

STAGE_NAMES = ("synth", "ingest", "lcc", "eccentricity", "dynamics",
               "distributions", "report", "embed", "pca")
LAYER_TIMES = (
    "cloud.replay", "cloud.write_records_csv", "cloud.read_records_csv",
    "corpus.load_posts", "corpus.load_edges", "corpus.build_corpus",
    "corpus.largest_connected_component",
    "embed.load_external_vectors", "embed.write_vectors",
    "textprep.clean", "embed.fit_vectorizer", "embed.embed_all",
    "pca.fit_pca", "pca.transform",
    "stats.ad_test_2sample", "stats.kde", "stats.bin_by_popularity",
    "stats.mann_whitney", "dynamics.user_dynamics",
    "synth.gen_corpus", "synth.write_corpus_files",
)


def thread_caps() -> dict[str, str]:
    n = str(len(os.sched_getaffinity(0)))
    return {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


_REF_DOC = json.dumps([{"id": i, "author": f"u{i % 97}", "t": 1.7e9 + i,
                         "vec": [i * 0.5, -i * 0.25, 1.0 / (i + 1)]} for i in range(200)])


def reference() -> float:
    """Wall time of a fixed interpreter-bound job (JSON parsing and dict
    updates, like the replay stages), run in this process between stages.

    On a shared host each vCPU flips between two speeds about 1.7x apart
    several times a second, and the share of time spent at the slow one
    drifts over tens of seconds to minutes, so runs of the same code a few
    minutes apart differ by 25 % and more. Readings taken just before and
    after a stage say how fast the CPU ran it; the stage's time at the
    nominal speed is its wall time x REF_S / the mean of those readings.
    """
    t0 = time.perf_counter()
    for _ in range(80):
        acc: dict[str, float] = {}
        for row in json.loads(_REF_DOC):
            acc[row["author"]] = acc.get(row["author"], 0.0) + sum(row["vec"]) * row["t"]
    return time.perf_counter() - t0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_hashes(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawn: float
    reap: float
    ref_s: float
    trace: dict | None = None

    @property
    def nominal_s(self) -> float:
        """Wall time scaled to the nominal CPU speed (see reference())."""
        return self.wall_s * REF_S / self.ref_s


@dataclass
class Bench:
    """Process runner plus the operation ledger behind ops_failed_frac."""

    work: Path
    deadline: float
    env: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    last_ref: float | None = None
    ref_spent: float = 0.0

    def calibrate(self) -> float:
        """Take a CPU-speed reading: the mean time of REF_READINGS reference()
        runs on each CPU this process may use, kept as the latest reading."""
        cpus = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times += [reference() for _ in range(REF_READINGS)]
        finally:
            # stage processes inherit this process's affinity
            os.sched_setaffinity(0, cpus)
        self.ref_spent += sum(times)
        self.last_ref = statistics.fmean(times)
        return self.last_ref

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def stage(self, stage: str, args: list[str], trace_to: Path | None = None) -> StageRun:
        """Run one CLI stage in a fresh process and reap it with wait4."""
        if trace_to is None:
            argv = [sys.executable, "-m", "ideadrift.cli"]
        else:
            argv = [sys.executable, str(HERE / "traced_stage.py"), str(trace_to),
                    f"{self.work.name}/{stage}", "--"]
        argv += ["--log-level", "WARNING", stage, *args]
        log = self.work / "logs" / f"{stage}.stderr"
        log.parent.mkdir(parents=True, exist_ok=True)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 2, str(log),
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        before = self.last_ref or self.calibrate()
        spawn = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        watchdog = threading.Timer(max(self.deadline - spawn, 1.0), os.kill,
                                   (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            watchdog.cancel()
        reap = time.monotonic()
        after = self.calibrate()
        code = os.waitstatus_to_exitcode(status)
        self.check(code == 0, f"{stage} exited {code}: {log.read_text()[-400:]}")
        trace = None
        if trace_to is not None and code == 0:
            trace = json.loads(trace_to.read_text())
        return StageRun(stage, code, reap - spawn, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, spawn, reap,
                        (before + after) / 2, trace)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def synth_args(out: Path, seed: int, n_users: int) -> list[str]:
    cfg = dict(SYNTH, n_users=n_users)
    return ["--n-users", str(cfg["n_users"]), "--follow-prob", str(cfg["follow_prob"]),
            "--n-days", str(cfg["n_days"]), "--posts-per-day", str(cfg["posts_per_day"]),
            "--synth-dim", str(cfg["synth_dim"]), "--effect", cfg["effect"],
            "--strength", str(cfg["strength"]), "--seed", str(seed),
            "--out-posts", str(out / "posts.jsonl"), "--out-edges", str(out / "edges.jsonl"),
            "--out-vectors", str(out / "vectors.jsonl")]


def replay_stages(inp: Path, out: Path, full: bool) -> list[tuple[str, list[str]]]:
    stages = [
        ("ingest", ["--posts", str(inp / "posts.jsonl"), "--edges", str(inp / "edges.jsonl"),
                    "--out-posts", str(out / "ingest_posts.jsonl"),
                    "--out-edges", str(out / "ingest_edges.jsonl")]),
        ("lcc", ["--posts", str(out / "ingest_posts.jsonl"),
                 "--edges", str(out / "ingest_edges.jsonl"),
                 "--out-posts", str(out / "lcc_posts.jsonl"),
                 "--out-edges", str(out / "lcc_edges.jsonl")]),
        ("eccentricity", ["--posts", str(out / "lcc_posts.jsonl"),
                          "--edges", str(out / "lcc_edges.jsonl"),
                          "--vectors", str(inp / "vectors.jsonl"),
                          "--out", str(out / "records.csv")]),
    ]
    if full:
        stages += [
            ("dynamics", ["--records", str(out / "records.csv"),
                          "--out", str(out / "dynamics.csv")]),
            ("distributions", ["--records", str(out / "records.csv"), "--p-method", "table",
                               "--out-csv", str(out / "distributions.csv"),
                               "--out-summary", str(out / "summary.json")]),
            ("report", ["--summary", str(out / "summary.json"),
                        "--distributions", str(out / "distributions.csv"),
                        "--dynamics", str(out / "dynamics.csv"),
                        "--out-dir", str(out / "report")]),
        ]
    return stages


@dataclass
class Workload:
    name: str
    # set-up steps after synth: (bench, input dir, seed) -> generator facts
    prepare: Callable[[Bench, Path, int], dict]
    stages: Callable[[Path, Path], list[tuple[str, list[str]]]]
    n_inputs: Callable[[Path], int]
    synth_users: int = SYNTH["n_users"]


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def prepare_none(bench, inp, seed):
    return {}


def prepare_hubs(bench, inp, seed):
    base = {n: inp / f"base_{n}.jsonl" for n in ("posts", "edges", "vectors")}
    for n, p in base.items():
        (inp / f"{n}.jsonl").replace(p)
    info = gen.add_hubs(base["posts"], base["edges"], base["vectors"],
                        inp / "posts.jsonl", inp / "edges.jsonl", inp / "vectors.jsonl",
                        seed=seed, n_days=SYNTH["n_days"],
                        posts_per_day=SYNTH["posts_per_day"], **HUBS)
    for p in base.values():
        p.unlink()
    return info


def prepare_text(bench, inp, seed):
    (inp / "posts.jsonl").replace(inp / "synth_posts.jsonl")
    info = gen.zipf_text(inp / "synth_posts.jsonl", inp / "posts.jsonl", seed=seed, **TEXT)
    for name in ("synth_posts.jsonl", "edges.jsonl", "vectors.jsonl"):
        (inp / name).unlink()
    return info


def prepare_records(bench, inp, seed):
    """records.csv of the replay-uniform corpus, through untraced CLI stages."""
    # synth's follow graph is one component at 12 followees per user, so
    # lcc would keep every post; it is left out to keep set-up short
    bench.stage("eccentricity", ["--posts", str(inp / "posts.jsonl"),
                                 "--edges", str(inp / "edges.jsonl"),
                                 "--vectors", str(inp / "vectors.jsonl"),
                                 "--out", str(inp / "records.csv")])
    for p in inp.iterdir():
        if p.name != "records.csv":
            p.unlink()
    return {"n_perm": N_PERM}


def text_stages(inp, out):
    return [("embed", ["--posts", str(inp / "posts.jsonl"), "--dim", str(EMBED["dim"]),
                       "--min-count", str(EMBED["min_count"]),
                       "--out", str(out / "vectors300.jsonl")]),
            ("pca", ["--vectors", str(out / "vectors300.jsonl"), "--variance", "0.9",
                     "--out", str(out / "reduced.jsonl"),
                     "--model-out", str(out / "pca_model.json")])]


def permutation_stages(inp, out):
    return [("distributions", ["--records", str(inp / "records.csv"),
                               "--p-method", "permutation", "--n-perm", str(N_PERM),
                               "--seed", "1", "--out-csv", str(out / "distributions.csv"),
                               "--out-summary", str(out / "summary.json")])]


WORKLOADS = {w.name: w for w in (
    Workload("replay-uniform", prepare_none, lambda i, o: replay_stages(i, o, full=True),
             lambda i: count_lines(i / "posts.jsonl")),
    Workload("replay-hubs", prepare_hubs, lambda i, o: replay_stages(i, o, full=False),
             lambda i: count_lines(i / "posts.jsonl"), synth_users=HUB_USERS),
    Workload("text", prepare_text, text_stages, lambda i: count_lines(i / "posts.jsonl"),
             synth_users=TEXT_USERS),
    Workload("stats-permutation", prepare_records, permutation_stages,
             lambda i: count_lines(i / "records.csv") - 1),
)}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def import_program():
    """The checkout's ideadrift modules, for checks made in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ideadrift import cloud, corpus, embed, stats
    return cloud, corpus, embed, stats


def check_oracle(bench: Bench, posts: Path, edges: Path, vectors: Path,
                 records_csv: Path, seed: int) -> tuple[int, float]:
    """Compare K seeded records with the brute-force oracle."""
    cloud, corpus, embed, _ = import_program()
    c = corpus.build_corpus(corpus.load_posts(posts), corpus.load_edges(edges))
    vecs = embed.load_external_vectors(vectors)
    records = cloud.read_records_csv(records_csv)
    picks = np.random.default_rng(seed).choice(len(records), size=ORACLE_CHECKS,
                                               replace=False)
    worst = 0.0
    for i in sorted(picks):
        r = records[i]
        want = cloud.eccentricity_oracle(c, vecs, WINDOW_SECONDS, r.post_id)
        ok = True
        for got, exp in zip((r.eccentricity, r.self_eccentricity), want):
            if (got is None) != (exp is None):
                ok = False
            elif got is not None:
                err = abs(got - exp) / max(abs(exp), 1e-300)
                worst = max(worst, err)
                ok = ok and err <= ORACLE_RTOL
        bench.check(ok, f"oracle mismatch on {r.post_id}")
    return ORACLE_CHECKS, worst


def check_outputs(bench: Bench, wl: Workload, inp: Path, out: Path, seed: int) -> dict:
    """Workload-specific output checks; returns computed per-layer counts."""
    counts: dict[str, float] = {}
    if wl.name.startswith("replay-"):
        counts["cloud.oracle_checks"], counts["cloud.oracle_max_rel_err"] = check_oracle(
            bench, out / "lcc_posts.jsonl", out / "lcc_edges.jsonl",
            inp / "vectors.jsonl", out / "records.csv", seed)
    if wl.name == "replay-uniform":
        bins = json.loads((out / "summary.json").read_text())["bins"]
        means = [b["mean"] for b in bins]
        bench.check(all(a < b for a, b in zip(means, means[1:])),
                    f"mean eccentricity does not rise across like bins: {means}")
    if wl.name == "text":
        n_posts = wl.n_inputs(inp)
        model = json.loads((out / "pca_model.json").read_text())
        k = len(model["components"])
        rows = [json.loads(line) for line in open(out / "reduced.jsonl", encoding="utf-8")]
        bench.check(len(rows) == n_posts and 1 <= k <= EMBED["dim"]
                    and all(len(r["vec"]) == k for r in rows),
                    f"pca output: {len(rows)} rows of dim {k} for {n_posts} posts")
    if wl.name == "stats-permutation":
        for test in json.loads((out / "summary.json").read_text())["tests"]:
            scaled = test["p_raw"] * (N_PERM + 1)
            bench.check(1 - 1e-6 <= scaled <= N_PERM + 1 + 1e-6
                        and abs(scaled - round(scaled)) < 1e-6,
                        f"permutation p-value {test['p_raw']} is not k/{N_PERM + 1}")
    return counts


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def push_pull(posts: Path, edges: Path) -> tuple[int, int]:
    """KnowledgeBase adds a fan-out replay makes, and the (post, source
    window) pairs a fan-in replay would read: followers (resp. followees)
    of the author, plus the author's neighborhood and self bases."""
    indeg: dict[str, int] = {}
    outdeg: dict[str, int] = {}
    with open(edges, encoding="utf-8") as fh:
        for line in fh:
            e = json.loads(line)
            outdeg[e["follower"]] = outdeg.get(e["follower"], 0) + 1
            indeg[e["followee"]] = indeg.get(e["followee"], 0) + 1
    push = pull = 0
    with open(posts, encoding="utf-8") as fh:
        for line in fh:
            author = json.loads(line)["author"]
            push += indeg.get(author, 0) + 2
            pull += outdeg.get(author, 0) + 2
    return push, pull


def ad_statistic_evals(summary: dict, p_method: str, n_perm: int) -> int:
    """Split statistics the Anderson-Darling tests evaluate, from bin sizes."""
    limit = import_program()[3].EXACT_SPLIT_LIMIT
    sizes = {b["label"]: b["n"] for b in summary["bins"]}
    total = 0
    for test in summary["tests"]:
        n_x, n_y = (sizes[label] for label in test["pair"])
        total += 1
        if p_method == "permutation":
            splits = math.comb(n_x + n_y, n_x)
            total += splits if splits <= limit else n_perm
    return total


def manifest_bytes(out: Path) -> int:
    total = 0
    for manifest in out.rglob("*.manifest.json"):
        for entry in json.loads(manifest.read_text())["inputs"].values():
            total += os.path.getsize(entry["path"])
    return total


def span_totals(trace: dict) -> tuple[dict[str, float], float]:
    """Per-name time outside same-name ancestors, and top-level span time."""
    spans = trace["spans"]
    totals: dict[str, float] = {}
    top = 0.0
    for name, start, end, parent, _ in spans:
        p, nested = parent, False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            totals[name] = totals.get(name, 0.0) + end - start
        if parent is None:
            top += end - start
    for name, agg in trace["aggregate"].items():
        totals[name] = totals.get(name, 0.0) + agg["total_s"]
    return totals, top


def layer_metrics(bench: Bench, traced: list[StageRun], untraced_wall: float,
                  extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    totals: dict[str, float] = {}
    counters: dict[str, float] = {}
    stem = {"calls": 0, "distinct": 0}
    startups = []
    for s in STAGE_NAMES:
        m[f"cli.{s}.self_s"] = (0.0, "s")
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            m[f"stage.{s}.{key}"] = (0.0, unit)
    for run in traced:
        if run.trace is None:
            continue
        t, top = span_totals(run.trace)
        for name, value in t.items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in run.trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        agg = run.trace["aggregate"].get("porter.stem")
        if agg:
            stem["calls"] += agg["calls"]
            stem["distinct"] += agg["distinct"]
        startup = run.trace["import_end"] - run.spawn
        self_s = run.wall_s - startup - top
        startups.append(startup)
        bench.check(startup > 0 and self_s >= 0,
                    f"{run.stage}: spans exceed the stage wall time")
        m[f"cli.{run.stage}.self_s"] = (self_s, "s")
        m[f"stage.{run.stage}.wall_s"] = (run.wall_s, "s")
        m[f"stage.{run.stage}.cpu_s"] = (run.cpu_s, "s")
        m[f"stage.{run.stage}.peak_rss_mb"] = (run.peak_rss_mb, "MB")
    for name in LAYER_TIMES:
        m[f"{name}_s"] = (totals.get(name, 0.0), "s")
    m["corpus.write_s"] = (totals.get("corpus.write_posts_jsonl", 0.0)
                           + totals.get("corpus.write_edges_jsonl", 0.0), "s")
    m["porter.stem_s"] = (totals.get("porter.stem", 0.0), "s")
    m["porter.stem_calls"] = (stem["calls"], "count")
    m["porter.distinct_ratio"] = (stem["distinct"] / stem["calls"] if stem["calls"] else 0.0,
                                  "ratio")
    for name, unit in (("corpus.posts_parsed", "count"), ("embed.vector_bytes_read", "bytes"),
                       ("embed.vector_bytes_written", "bytes"), ("pca.k", "count")):
        m[name] = (counters.get(name, 0), unit)
    m["cli.startup_s"] = (statistics.median(startups) if startups else 0.0, "s")
    traced_wall = sum(r.wall_s for r in traced if r.stage != "synth")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    units = {"cloud.push_adds": "count", "cloud.pull_pairs": "count",
             "cloud.defined_ratio": "ratio", "cloud.oracle_checks": "count",
             "cloud.oracle_max_rel_err": "ratio", "pca.svd_flops": "flop",
             "stats.ad_statistic_evals": "count", "cli.manifest_bytes_hashed": "bytes"}
    for name, unit in units.items():
        m[name] = (extra.get(name, 0), unit)
    return m


def write_trace(path: Path, traced: list[StageRun]) -> None:
    """All spans of a traced run, with each stage's spawn and reap times."""
    stages = [{"stage": r.stage, "spawn": r.spawn, "reap": r.reap, **r.trace}
              for r in traced if r.trace is not None]
    path.write_text(json.dumps({"stages": stages}))


def computed_counts(wl: Workload, inp: Path, out: Path) -> dict[str, float]:
    c: dict[str, float] = {"cli.manifest_bytes_hashed": manifest_bytes(out)}
    if wl.name.startswith("replay-"):
        c["cloud.push_adds"], c["cloud.pull_pairs"] = push_pull(
            out / "lcc_posts.jsonl", out / "lcc_edges.jsonl")
        with open(out / "records.csv", encoding="utf-8") as fh:
            next(fh)
            rows = [line.split(",") for line in fh]
        c["cloud.defined_ratio"] = sum(1 for r in rows if r[4]) / len(rows)
    if wl.name == "text":
        n, d = wl.n_inputs(inp), EMBED["dim"]
        # thin SVD with U and V by R-SVD (Golub & Van Loan, Table 8.6.1)
        c["pca.svd_flops"] = 6 * n * d * d + 20 * d ** 3
    if wl.name in ("replay-uniform", "stats-permutation"):
        summary = json.loads((out / "summary.json").read_text())
        method, n_perm = (("table", 0) if wl.name == "replay-uniform"
                          else ("permutation", N_PERM))
        c["stats.ad_statistic_evals"] = ad_statistic_evals(summary, method, n_perm)
    return c


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------

def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "thread_caps": thread_caps()}


def setup(bench: Bench, wl: Workload, seed: int, repeats: int,
          trace_dir: Path | None) -> tuple[Path, list[float], list[StageRun], dict]:
    """Generate the workload's inputs ``repeats`` times; return set-up times
    scaled to the nominal CPU speed, without the reference() runs."""
    inp = bench.work / "input"
    times, synth_runs, first, info = [], [], None, {}
    for i in range(repeats):
        if inp.exists():
            shutil.rmtree(inp)
        inp.mkdir(parents=True)
        before = bench.last_ref or bench.calibrate()
        spent = bench.ref_spent
        t0 = time.monotonic()
        run = bench.stage("synth", synth_args(inp, seed, wl.synth_users),
                          trace_to=None if trace_dir is None else trace_dir / "synth.json")
        if run.code != 0:
            raise RuntimeError("synth failed")
        synth_runs.append(run)
        info = wl.prepare(bench, inp, seed)
        elapsed = time.monotonic() - t0 - (bench.ref_spent - spent)
        times.append(elapsed * REF_S / ((before + bench.calibrate()) / 2))
        hashes = tree_hashes(inp)
        if first is None:
            first = hashes
        else:
            bench.check(hashes == first, f"set-up {i} inputs differ from set-up 0")
    return inp, times, synth_runs if trace_dir is not None else [], info


def run_sequence(bench: Bench, wl: Workload, inp: Path, out: Path,
                 trace_dir: Path | None = None) -> list[StageRun] | None:
    runs = []
    for stage, args in wl.stages(inp, out):
        trace_to = None if trace_dir is None else trace_dir / f"{stage}.json"
        run = bench.stage(stage, args, trace_to=trace_to)
        runs.append(run)
        if run.code != 0:
            return None
    return runs


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[Bench, dict]:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{wl.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = dict(os.environ, **thread_caps())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    bench = Bench(work=work, deadline=time.monotonic() + RUN_BUDGET_S, env=env)
    metrics: dict[str, tuple[float, str]] = {}
    try:
        trace_dir = work / "trace" if trace else None
        if trace_dir is not None:
            trace_dir.mkdir()
        repeats = 1 if trace else SETUP_REPEATS
        inp, setup_times, traced, info = setup(bench, wl, seed, repeats, trace_dir)
        n_inputs = wl.n_inputs(inp)
        print("params", json.dumps({"workload": wl.name, "seed": seed,
                                     "synth": dict(SYNTH, n_users=wl.synth_users),
                                     "hubs": HUBS, "text": TEXT, "embed": EMBED,
                                     "n_perm": N_PERM, "inputs": n_inputs,
                                     "generator": info}, sort_keys=True))
        out = work / "out"
        rates, raw_rates, rss, walls, first = [], [], [], [], None
        start = time.monotonic()
        while len(rates) < MIN_SEQUENCES or time.monotonic() - start < seconds:
            runs = run_sequence(bench, wl, inp, out)
            if runs is None:
                break
            rates.append(n_inputs / sum(r.nominal_s for r in runs))
            walls.append(sum(r.wall_s for r in runs))
            raw_rates.append(n_inputs / walls[-1])
            rss.append(max(r.peak_rss_mb for r in runs))
            hashes = tree_hashes(out)
            if first is None:
                first = hashes
            else:
                bench.check(hashes == first, "outputs differ between repeated sequences")
        if rates and bench.failed == 0:
            extra = check_outputs(bench, wl, inp, out, seed)
            if trace_dir is not None:
                traced += run_sequence(bench, wl, inp, out, trace_dir) or []
                bench.check(tree_hashes(out) == first, "traced outputs differ from untraced")
                extra.update(computed_counts(wl, inp, out))
                metrics = layer_metrics(bench, traced, statistics.median(walls), extra)
                write_trace(WORK / f"{wl.name}-s{seed}.trace.json", traced)
        print(f"sequences {len(rates)}; posts_per_s "
              + " ".join(f"{r:.1f}" for r in rates) + "; unscaled "
              + " ".join(f"{r:.1f}" for r in raw_rates), file=sys.stderr)
        if raw_rates:
            print(f"{'posts_per_s (unscaled wall time)':36s} "
                  f"{statistics.harmonic_mean(raw_rates):.6g} posts/s")
        metrics.update({
            # inputs over the whole timed window (a harmonic mean of the
            # sequences' rates), each stage's wall time scaled to the nominal
            # CPU speed by the reference() readings around it
            "posts_per_s": (statistics.harmonic_mean(rates) if rates else 0.0, "posts/s"),
            "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        })
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        bench.check(False, f"benchmark aborted: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return bench, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ideadrift" / "cli.py").is_file():
        print(f"no ideadrift sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running stage is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print("env", json.dumps(environment(), sort_keys=True))
    bench, metrics = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    for note in bench.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{'ops_failed_frac':36s} {frac:.6g} ratio ({bench.failed}/{bench.attempted})")
    end_to_end = ("posts_per_s", "peak_rss_mb", "setup_s")
    wanted = [n for n in metrics if (n in end_to_end) != bool(args.trace)]
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
