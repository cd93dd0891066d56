"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (visible with pytest -s); thresholds
and tolerances are asserted exactly as configured, with no slack added at
runtime.
"""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ideadrift
from ideadrift.cli import main
from ideadrift.cloud import eccentricity_oracle, replay
from ideadrift.dynamics import fg_scores, user_dynamics
from ideadrift.pca import fit_pca, transform
from ideadrift.stats import (
    ad_test_2sample, bin_by_popularity, bin_summary, kde, mann_whitney,
)
from ideadrift.synth import SynthConfig, gen_corpus

from test_stats import exhaustive_ad_p, exhaustive_mw_p

WINDOW = 5 * 86400


def _verdict(number, description, checks):
    ok = all(checks.values())
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed: {failed}"


def test_acceptance_1_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for seed in range(25):
        cfg = SynthConfig(n_users=20, follow_prob=0.15, n_days=5,
                          posts_per_user_per_day=5, dim=8, seed=seed,
                          effect="null")
        corpus, vectors, _ = gen_corpus(cfg)
        records = replay(corpus, vectors, WINDOW)
        for r in records:
            ecc, self_ecc = eccentricity_oracle(corpus, vectors, WINDOW, r.post_id)
            for got, want in ((r.eccentricity, ecc),
                              (r.self_eccentricity, self_ecc)):
                checked += 1
                if (got is None) != (want is None):
                    mismatches += 1
                elif want is not None and abs(got - want) > 1e-9 * (1 + want):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(1, f"replay matches direct-scan oracle on {checked} values "
                f"across 25 corpora in {elapsed:.1f}s",
             {"all values match": mismatches == 0,
              "runtime under 10s": elapsed < 10.0})


def test_acceptance_2_worked_example_through_cli(tmp_path):
    day = 86400
    users = ["a", "b", "c"]
    with open(tmp_path / "posts.jsonl", "w") as fh:
        for pid, author, t in (("p1", "b", day), ("p2", "c", 2 * day),
                               ("p3", "a", 3 * day)):
            fh.write(json.dumps({"id": pid, "author": author, "created_at": t,
                                 "text": "", "likes": 0}) + "\n")
    with open(tmp_path / "edges.jsonl", "w") as fh:
        for u in users:
            for v in users:
                if u != v:
                    fh.write(json.dumps({"follower": u, "followee": v}) + "\n")
    with open(tmp_path / "vectors.jsonl", "w") as fh:
        for pid, x in (("p1", 0.0), ("p2", 2.0), ("p3", 4.0)):
            fh.write(json.dumps({"id": pid, "vec": [x]}) + "\n")
    code = main(["eccentricity", "--posts", str(tmp_path / "posts.jsonl"),
                 "--edges", str(tmp_path / "edges.jsonl"),
                 "--vectors", str(tmp_path / "vectors.jsonl"),
                 "--out", str(tmp_path / "records.csv")])
    with open(tmp_path / "records.csv", newline="") as fh:
        rows = {r["post_id"]: r for r in csv.DictReader(fh)}
    _verdict(2, "3-user hand replay through the CLI gives eccentricity 3.0, "
                "self undefined",
             {"exit code 0": code == 0,
              "eccentricity exactly 3.0": rows["p3"]["eccentricity"] == "3.0",
              "self undefined": rows["p3"]["self_eccentricity"] == ""})


def test_acceptance_3_numerical_hygiene():
    rng = np.random.default_rng(0)
    checks = {}

    kde_ok = True
    for n, h in ((1, 5.0), (10, 5.0), (500, 5.0), (200, 0.5)):
        samples = rng.normal(0, 12, n)
        grid = np.linspace(samples.min() - 6 * h, samples.max() + 6 * h, 1024)
        integral = np.trapezoid(kde(samples, h, grid), grid)
        kde_ok &= abs(integral - 1.0) <= 1e-3
    checks["KDE integrates to 1 +- 1e-3"] = kde_ok

    data = rng.normal(0, 1, (40, 6)) * np.geomspace(3, 0.2, 6)
    model = fit_pca(data, 1.0)
    recon_ok = model.k == 6
    for v in data:
        rebuilt = model.mean + model.components.T @ transform(model, v)
        recon_ok &= np.linalg.norm(rebuilt - v) <= 1e-9 * (1 + np.linalg.norm(v))
    checks["full-rank PCA reconstructs within 1e-9"] = recon_ok

    total = np.var(data, axis=0, ddof=1).sum()
    retain_ok = True
    for fraction in (0.5, 0.9, 0.99, 1.0):
        kept = fit_pca(data, fraction).explained_variance.sum()
        retain_ok &= kept / total >= fraction - 1e-9
    checks["PCA retains requested variance"] = retain_ok

    _verdict(3, "KDE normalization and PCA reconstruction/retention", checks)


def test_acceptance_4_statistical_test_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    mw_ok = True
    for n in range(1, 12):
        for m in range(n, 13 - n):
            for values in ("distinct", "ties"):
                if values == "distinct":
                    pool = rng.permutation(np.arange(n + m, dtype=float))
                else:
                    pool = rng.integers(0, 3, n + m).astype(float)
                x, y = pool[:n], pool[n:]
                _, p = mann_whitney(x, y)
                mw_ok &= p == exhaustive_mw_p(x, y)

    ad_ok = True
    for nx in range(2, 5):
        for ny in range(nx, 9 - nx):
            for values in ("distinct", "ties"):
                if values == "distinct":
                    pool = rng.permutation(np.arange(nx + ny, dtype=float))
                else:
                    pool = rng.integers(0, 3, nx + ny).astype(float)
                    if np.unique(pool).size < 2:
                        pool[0] += 1.0
                x, y = pool[:nx], pool[nx:]
                _, p = ad_test_2sample(x, y, p_method="permutation")
                ad_ok &= p == exhaustive_ad_p(x, y)

    _, p_sep = ad_test_2sample([1, 2, 3, 4], [101, 102, 103, 104],
                               p_method="permutation")
    elapsed = time.perf_counter() - start
    _verdict(4, f"exact test p-values match enumeration oracles in {elapsed:.1f}s",
             {"Mann-Whitney exact == oracle for all n+m <= 12": mw_ok,
              "AD permutation == oracle for pooled <= 8": ad_ok,
              "separated 4v4 gives p = 1/70": p_sep == pytest.approx(1 / 70, rel=1e-12),
              "runtime under 30s": elapsed < 30.0})


def test_acceptance_5_popularity_coupling_reproduction():
    start = time.perf_counter()
    cfg = SynthConfig(n_users=1000, follow_prob=0.02, n_days=10,
                      posts_per_user_per_day=5, dim=16, seed=11,
                      effect="attention-coupling", effect_strength=1.0)
    corpus, vectors, _ = gen_corpus(cfg)
    records = replay(corpus, vectors, WINDOW)
    bins = bin_by_popularity(records, (10, 100))
    summary = bin_summary(bins, bandwidth=5.0)
    means = {b.label: b.mean for b in summary.bins}
    low_high = next(t for t in summary.tests
                    if (t.label_a, t.label_b) == ("low", "high"))

    corpus2, vectors2, _ = gen_corpus(cfg)
    records2 = replay(corpus2, vectors2, WINDOW)
    deterministic = records2 == records and corpus2.posts == corpus.posts

    elapsed = time.perf_counter() - start
    _verdict(5, f"planted attention coupling recovers the popularity pattern "
                f"(n={len(records)}, {elapsed:.0f}s)",
             {"means strictly increase low->medium->high":
                  means["low"] < means["medium"] < means["high"],
              "low-vs-high Bonferroni p < 0.01": low_high.p_bonferroni < 0.01,
              "deterministic under fixed seed": deterministic,
              "at least ~50k posts": len(records) >= 45_000,
              "runtime under 120s": elapsed < 120.0})


def test_acceptance_6_shared_drift_reproduction():
    start = time.perf_counter()
    cfg = SynthConfig(n_users=300, follow_prob=0.15, n_days=10,
                      posts_per_user_per_day=5, dim=16, seed=23,
                      effect="elevator-drift", effect_strength=1.0)
    corpus, vectors, _ = gen_corpus(cfg)
    posts_per_user = len(corpus.posts) / cfg.n_users
    records = replay(corpus, vectors, WINDOW)
    rows = user_dynamics(records, weighting="proportional-gap")
    g_self = np.array([r.g_self for r in rows if r.g_self is not None])
    g_ecc = np.array([r.g_ecc for r in rows if r.g_ecc is not None])
    f_ecc = np.array([r.f_ecc for r in rows if r.f_ecc is not None])
    _, p = mann_whitney(g_self, g_ecc)
    elapsed = time.perf_counter() - start
    _verdict(6, f"shared drift is visible in self scores, masked in "
                f"neighborhood scores ({elapsed:.0f}s)",
             {">= 30 posts per user": posts_per_user >= 30,
              ">= 90% of users have positive self drift":
                  (g_self > 0).mean() >= 0.90,
              "median neighborhood G within 0.1 * median F of zero":
                  abs(np.median(g_ecc)) <= 0.1 * np.median(f_ecc),
              "Mann-Whitney p < 0.01": p < 0.01,
              "self mean above neighborhood mean": g_self.mean() > g_ecc.mean(),
              "runtime under 120s": elapsed < 120.0})


def test_acceptance_7_dynamics_properties():
    rng = np.random.default_rng(7)
    bound_ok = reversal_ok = shift_ok = scale_ok = True
    for case in range(1000):
        length = int(rng.integers(2, 20))
        values = rng.uniform(0, 10, length)
        if case % 2 == 0:
            gaps = np.full(length - 1, float(rng.integers(1, 5)) * 3600)
        else:
            gaps = rng.integers(1, 100_000, length - 1).astype(float)
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        series = list(zip(times, values))

        f, g = fg_scores(series)
        bound_ok &= abs(g) <= f + 1e-12 and (g == 0.0 if f == 0.0 else True)

        if case % 2 == 0:  # equal-gap grid
            f_rev, g_rev = fg_scores(list(zip(times, values[::-1])))
            reversal_ok &= abs(f_rev - f) <= 1e-12 and abs(g_rev + g) <= 1e-12

        shift = float(rng.uniform(-5, 5))
        f_shift, g_shift = fg_scores(list(zip(times, values + shift)))
        shift_ok &= abs(f_shift - f) <= 1e-12 and abs(g_shift - g) <= 1e-12

        scale = float(rng.uniform(0.1, 10))
        f_scale, g_scale = fg_scores(list(zip(times, values * scale)))
        scale_ok &= (abs(f_scale - scale * f) <= 1e-12 * (1 + scale * f)
                     and abs(g_scale - scale * g) <= 1e-12 * (1 + abs(scale * g)))
    _verdict(7, "F/G invariants over 1000 random series",
             {"|G| <= F and F=0 => G=0": bound_ok,
              "value reversal negates G, preserves F (equal gaps)": reversal_ok,
              "constant shift leaves scores unchanged": shift_ok,
              "positive scaling scales both linearly": scale_ok})


def _run_pipeline(root: Path, threads: int) -> float:
    """Run synth -> ingest -> lcc -> eccentricity -> dynamics ->
    distributions -> report with relative paths inside ``root``.

    The children run with ``cwd=root``, so a relative ``PYTHONPATH`` would no
    longer find the package; they get the absolute directory holding the
    ``ideadrift`` this test imported, ahead of any existing entries."""
    root.mkdir(parents=True)
    package_root = str(Path(ideadrift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    steps = [
        ["synth", "--n-users", "3000", "--follow-prob", "0.004",
         "--n-days", "14", "--posts-per-day", "3.5", "--synth-dim", "24",
         "--seed", "1", "--effect", "attention-coupling", "--strength", "1.0",
         "--out-posts", "posts.jsonl", "--out-edges", "edges.jsonl",
         "--out-vectors", "vectors.jsonl"],
        ["ingest", "--posts", "posts.jsonl", "--edges", "edges.jsonl",
         "--out-posts", "posts_ok.jsonl", "--out-edges", "edges_ok.jsonl"],
        ["lcc", "--posts", "posts_ok.jsonl", "--edges", "edges_ok.jsonl",
         "--out-posts", "posts_lcc.jsonl", "--out-edges", "edges_lcc.jsonl"],
        ["eccentricity", "--posts", "posts_lcc.jsonl",
         "--edges", "edges_lcc.jsonl", "--vectors", "vectors.jsonl",
         "--out", "records.csv"],
        ["dynamics", "--records", "records.csv", "--out", "dynamics.csv"],
        ["distributions", "--records", "records.csv", "--bins", "10,100",
         "--out-csv", "distributions.csv", "--out-summary", "summary.json"],
        ["report", "--summary", "summary.json",
         "--distributions", "distributions.csv", "--dynamics", "dynamics.csv",
         "--out-dir", "report"],
    ]
    start = time.perf_counter()
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "ideadrift.cli", "--threads", str(threads)]
            + step,
            cwd=root, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (step, proc.stderr[-2000:])
    return time.perf_counter() - start


def _relative_files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def test_acceptance_8_determinism_and_scale(tmp_path):
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    elapsed = _run_pipeline(run1, threads=1)
    _run_pipeline(run2, threads=4)
    files1, files2 = _relative_files(run1), _relative_files(run2)
    only_one = sorted(files1 ^ files2)
    differing = sorted(rel for rel in files1 & files2
                       if (run1 / rel).read_bytes() != (run2 / rel).read_bytes())
    with open(run1 / "posts.jsonl", encoding="utf-8") as fh:
        n_posts = sum(1 for _ in fh)
    _verdict(8, f"pipeline on {n_posts} posts / 3000 users ran in {elapsed:.0f}s; "
                f"{len(files1)} outputs compared at thread counts 1 and 4",
             {f"same output files in both runs (only in one: {only_one})":
                  not only_one,
              f"byte-identical outputs (differing: {differing})": not differing,
              "scale matches analysis corpus": 140_000 <= n_posts <= 154_000,
              "runtime under 5 minutes": elapsed < 300.0})
