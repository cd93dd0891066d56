"""Pipeline CLI: reproducible batch stages with file boundaries.

Every stage is a pure function of its input files and configuration: rerunning
with identical inputs produces byte-identical outputs, and each stage writes a
manifest (input hashes, effective config, package version) next to its primary
output. Logs go to stderr; data only to the declared output files.

Exit codes: 0 success, 2 missing input or invalid configuration, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__, cloud, corpus, dynamics, embed, pca, stats, synth, textprep
from .errors import DataFormatError, InvariantError

logger = logging.getLogger("ideadrift")

# defaults per dataset regime: social-media suits large corpora with wide
# like ranges; experiment suits small controlled corpora with few likes
PRESETS = {
    "social-media": {"dim": 300, "min_count": 10, "bins": "10,100"},
    "experiment": {"dim": 90, "min_count": 7, "bins": "2"},
}

DEFAULTS = {
    "window_days": 5.0,
    "variance": 0.9,
    "bandwidth": 5.0,
    "fg_weighting": "inverse-gap",
    "min_gap": 1.0,
    "p_method": "table",
    "n_perm": stats.DEFAULT_N_PERM,
    "seed": 0,
    "hash_seed": embed.DEFAULT_HASH_SEED,
    "fraction": 0.1,
    "n_users": 100,
    "follow_prob": 0.05,
    "n_days": 10.0,
    "posts_per_day": 3.0,
    "synth_dim": 16,
    "effect": "null",
    "strength": 0.0,
}


class _Settings:
    """Layered parameter lookup: CLI flag > config file > preset > default."""

    def __init__(self, args: argparse.Namespace):
        self.cli = {k: v for k, v in vars(args).items() if v is not None}
        self.file: dict = {}
        config_path = self.cli.get("config")
        if config_path:
            try:
                with open(config_path, encoding="utf-8") as fh:
                    self.file = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{config_path}: invalid config JSON ({exc})") from exc
            if not isinstance(self.file, dict):
                raise DataFormatError(f"{config_path}: config must be a JSON object")
        preset_name = self.get("preset", "social-media")
        if preset_name not in PRESETS:
            raise DataFormatError(f"unknown preset {preset_name!r}")
        self.preset = PRESETS[preset_name]

    def get(self, key: str, default=None):
        if key in self.cli:
            return self.cli[key]
        if key in self.file:
            return self.file[key]
        if hasattr(self, "preset") and key in self.preset:
            return self.preset[key]
        if key in DEFAULTS:
            return DEFAULTS[key]
        return default

    def require_path(self, key: str) -> Path:
        value = self.get(key)
        if value is None:
            raise DataFormatError(f"missing required input --{key.replace('_', '-')}")
        path = Path(value)
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {path}")
        return path

    def out_path(self, key: str) -> Path:
        value = self.get(key)
        if value is None:
            raise DataFormatError(f"missing required output --{key.replace('_', '-')}")
        path = Path(value)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(primary_output: Path, stage: str, inputs: dict[str, Path],
                    config: dict) -> None:
    manifest = {
        "stage": stage,
        "version": __version__,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in inputs.items()},
        "config": config,
    }
    path = Path(str(primary_output) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parse_bins(raw) -> tuple[int, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(int(v) for v in raw)
    try:
        return tuple(int(part) for part in str(raw).split(",") if part.strip())
    except ValueError as exc:
        raise DataFormatError(f"bad --bins value {raw!r}") from exc


def _load_corpus(settings: _Settings) -> corpus.Corpus:
    posts_path = settings.require_path("posts")
    edges_path = settings.require_path("edges")
    posts = corpus.load_posts(posts_path)
    graph = corpus.load_edges(edges_path)
    return corpus.build_corpus(posts, graph)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_ingest(settings: _Settings) -> None:
    c = _load_corpus(settings)
    out_posts = settings.out_path("out_posts")
    out_edges = settings.out_path("out_edges")
    corpus.write_posts_jsonl(c.posts, out_posts)
    corpus.write_edges_jsonl(c.graph, out_edges)
    logger.info("ingest: %d posts, %d users, %d edges",
                len(c.posts), len(c.graph.users), len(c.graph.edges))
    _write_manifest(out_posts, "ingest",
                    {"posts": settings.require_path("posts"),
                     "edges": settings.require_path("edges")},
                    {})


def _filter_to_users(c: corpus.Corpus, keep: frozenset[str],
                     subgraph: corpus.SocialGraph) -> corpus.Corpus:
    posts = [p for p in c.posts if p.author in keep]
    return corpus.Corpus(posts=tuple(posts), graph=subgraph)


def stage_lcc(settings: _Settings) -> None:
    c = _load_corpus(settings)
    component = corpus.largest_connected_component(c.graph)
    filtered = _filter_to_users(c, component.users, component)
    out_posts = settings.out_path("out_posts")
    out_edges = settings.out_path("out_edges")
    corpus.write_posts_jsonl(filtered.posts, out_posts)
    corpus.write_edges_jsonl(filtered.graph, out_edges)
    logger.info("lcc: kept %d/%d users, %d/%d posts",
                len(component.users), len(c.graph.users),
                len(filtered.posts), len(c.posts))
    _write_manifest(out_posts, "lcc",
                    {"posts": settings.require_path("posts"),
                     "edges": settings.require_path("edges")},
                    {})


def stage_sample(settings: _Settings) -> None:
    c = _load_corpus(settings)
    fraction = float(settings.get("fraction"))
    seed = int(settings.get("seed"))
    subgraph = corpus.sample_users(c.graph, fraction, seed)
    filtered = _filter_to_users(c, subgraph.users, subgraph)
    out_posts = settings.out_path("out_posts")
    out_edges = settings.out_path("out_edges")
    corpus.write_posts_jsonl(filtered.posts, out_posts)
    corpus.write_edges_jsonl(filtered.graph, out_edges)
    logger.info("sample: kept %d/%d users, %d/%d posts",
                len(subgraph.users), len(c.graph.users),
                len(filtered.posts), len(c.posts))
    _write_manifest(out_posts, "sample",
                    {"posts": settings.require_path("posts"),
                     "edges": settings.require_path("edges")},
                    {"fraction": fraction, "seed": seed})


def stage_embed(settings: _Settings) -> None:
    posts_path = settings.require_path("posts")
    posts = corpus.load_posts(posts_path)
    stopwords_value = settings.get("stopwords")
    if stopwords_value:
        stopwords = textprep.load_stopwords(settings.require_path("stopwords"))
    else:
        stopwords = textprep.default_stopwords()
    dim = int(settings.get("dim"))
    min_count = int(settings.get("min_count"))
    hash_seed = int(settings.get("hash_seed"))
    tokens = {p.id: textprep.clean(p.text, stopwords) for p in posts}
    model = embed.fit_vectorizer([tokens[p.id] for p in posts], dim=dim,
                                 min_count=min_count, hash_seed=hash_seed)
    vectors = embed.embed_all(model, ((p.id, tokens[p.id]) for p in posts))
    out = settings.out_path("out")
    embed.write_vectors(out, vectors)
    logger.info("embed: %d posts, vocabulary %d, dim %d",
                len(posts), len(model.vocabulary), dim)
    inputs = {"posts": posts_path}
    if stopwords_value:
        inputs["stopwords"] = settings.require_path("stopwords")
    _write_manifest(out, "embed", inputs,
                    {"dim": dim, "min_count": min_count, "hash_seed": hash_seed})


def stage_pca(settings: _Settings) -> None:
    vectors_path = settings.require_path("vectors")
    vectors = embed.load_external_vectors(vectors_path)
    if len(vectors) < 2:
        raise DataFormatError("pca needs at least 2 vectors")
    variance = float(settings.get("variance"))
    ids = sorted(vectors)
    matrix = np.asarray([vectors[i] for i in ids])
    model = pca.fit_pca(matrix, variance)
    reduced = pca.transform(model, matrix)
    out = settings.out_path("out")
    embed.write_vectors(out, {i: reduced[row] for row, i in enumerate(ids)})
    model_out = settings.out_path("model_out")
    pca.save_model(model, model_out)
    logger.info("pca: %d -> %d dimensions (%.1f%% variance retained)",
                model.dim, model.k,
                100 * float(model.explained_variance.sum())
                / max(float(np.var(matrix, axis=0, ddof=1).sum()), 1e-300))
    _write_manifest(out, "pca", {"vectors": vectors_path}, {"variance": variance})


def stage_eccentricity(settings: _Settings) -> None:
    c = _load_corpus(settings)
    vectors_path = settings.require_path("vectors")
    vectors = embed.load_external_vectors(vectors_path)
    window_days = float(settings.get("window_days"))
    window_seconds = int(round(window_days * 86400))
    records = cloud.replay(c, vectors, window_seconds)
    out = settings.out_path("out")
    cloud.write_records_csv(records, out)
    defined = sum(1 for r in records if r.eccentricity is not None)
    logger.info("eccentricity: %d records, %d with defined eccentricity",
                len(records), defined)
    _write_manifest(out, "eccentricity",
                    {"posts": settings.require_path("posts"),
                     "edges": settings.require_path("edges"),
                     "vectors": vectors_path},
                    {"window_days": window_days})


def stage_dynamics(settings: _Settings) -> None:
    records_path = settings.require_path("records")
    records = cloud.read_records_csv(records_path)
    weighting = str(settings.get("fg_weighting"))
    min_gap = float(settings.get("min_gap"))
    rows = dynamics.user_dynamics(records, min_gap=min_gap, weighting=weighting)
    out = settings.out_path("out")
    dynamics.write_dynamics_csv(rows, out)
    logger.info("dynamics: %d users, %d with defined neighborhood scores",
                len(rows), sum(1 for r in rows if r.f_ecc is not None))
    _write_manifest(out, "dynamics", {"records": records_path},
                    {"fg_weighting": weighting, "min_gap": min_gap})


def stage_distributions(settings: _Settings) -> None:
    records_path = settings.require_path("records")
    records = cloud.read_records_csv(records_path)
    thresholds = _parse_bins(settings.get("bins"))
    bandwidth = float(settings.get("bandwidth"))
    p_method = str(settings.get("p_method"))
    n_perm = int(settings.get("n_perm"))
    seed = int(settings.get("seed"))
    binning = stats.PopularityBinning.from_thresholds(thresholds)
    bins = stats.bin_by_popularity(records, binning)
    summary = stats.bin_summary(bins, bandwidth=bandwidth, p_method=p_method,
                                n_perm=n_perm, seed=seed)
    out_csv = settings.out_path("out_csv")
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "grid_x", "density"])
        for row in summary.bins:
            if row.curve is None:
                continue
            for x, d in zip(row.curve.grid, row.curve.density):
                writer.writerow([row.label, repr(float(x)), repr(float(d))])
    out_summary = settings.out_path("out_summary")
    payload = {
        "bandwidth": bandwidth,
        "thresholds": list(thresholds),
        "bins": [{"label": b.label, "n": b.n, "mean": b.mean}
                 for b in summary.bins],
        "tests": [{"pair": [t.label_a, t.label_b], "A2": t.a2,
                   "p_raw": t.p_raw, "p_bonferroni": t.p_bonferroni}
                  for t in summary.tests],
        "notices": summary.notices,
    }
    with open(out_summary, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for notice in summary.notices:
        logger.warning("distributions: %s", notice)
    logger.info("distributions: %d bins, %d pairwise tests",
                len(summary.bins), len(summary.tests))
    _write_manifest(out_csv, "distributions", {"records": records_path},
                    {"bins": list(thresholds), "bandwidth": bandwidth,
                     "p_method": p_method, "n_perm": n_perm, "seed": seed})


def stage_synth(settings: _Settings) -> None:
    cfg = synth.SynthConfig(
        n_users=int(settings.get("n_users")),
        follow_prob=float(settings.get("follow_prob")),
        n_days=float(settings.get("n_days")),
        posts_per_user_per_day=float(settings.get("posts_per_day")),
        dim=int(settings.get("synth_dim")),
        seed=int(settings.get("seed")),
        effect=str(settings.get("effect")),
        effect_strength=float(settings.get("strength")),
        user_spread=float(settings.get("user_spread", 4.0)),
        post_noise=float(settings.get("post_noise", 0.25)),
    )
    c, vectors = synth.gen_corpus(cfg)
    out_posts = settings.out_path("out_posts")
    out_edges = settings.out_path("out_edges")
    out_vectors = settings.out_path("out_vectors")
    synth.write_corpus_files(c, vectors, out_posts, out_edges, out_vectors)
    logger.info("synth: %d users, %d posts, effect=%s strength=%s",
                cfg.n_users, len(c.posts), cfg.effect, cfg.effect_strength)
    _write_manifest(out_posts, "synth", {}, {
        "n_users": cfg.n_users, "follow_prob": cfg.follow_prob,
        "n_days": cfg.n_days, "posts_per_user_per_day": cfg.posts_per_user_per_day,
        "dim": cfg.dim, "seed": cfg.seed, "effect": cfg.effect,
        "effect_strength": cfg.effect_strength,
    })


def stage_report(settings: _Settings) -> None:
    summary_path = settings.require_path("summary")
    distributions_path = settings.require_path("distributions")
    dynamics_path = settings.require_path("dynamics")
    with open(summary_path, encoding="utf-8") as fh:
        popularity = json.load(fh)
    rows = dynamics.read_dynamics_csv(dynamics_path)
    out_dir = Path(settings.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    scatter_path = out_dir / "fg_scatter.csv"
    fmt = lambda v: "" if v is None else repr(v)
    with open(scatter_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "f_ecc", "g_ecc", "f_self", "g_self"])
        for d in rows:
            writer.writerow([d.user, fmt(d.f_ecc), fmt(d.g_ecc),
                             fmt(d.f_self), fmt(d.g_self)])

    densities_path = out_dir / "densities.csv"
    shutil.copyfile(distributions_path, densities_path)

    means_path = out_dir / "bin_means.csv"
    with open(means_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "n", "mean_eccentricity"])
        for entry in popularity.get("bins", []):
            writer.writerow([entry["label"], entry["n"],
                             "" if entry["mean"] is None else repr(entry["mean"])])

    g_ecc = [d.g_ecc for d in rows if d.g_ecc is not None]
    g_self = [d.g_self for d in rows if d.g_self is not None]
    comparison = None
    if len(g_ecc) >= 1 and len(g_self) >= 1:
        u, p = stats.mann_whitney(g_self, g_ecc)
        comparison = {
            "n_self": len(g_self), "n_ecc": len(g_ecc),
            "mean_g_self": float(np.mean(g_self)),
            "mean_g_ecc": float(np.mean(g_ecc)),
            "mannwhitney_u": u, "p": p,
        }
    report = {"popularity": popularity, "gscore_comparison": comparison}
    report_path = out_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    logger.info("report: wrote %s, %s, %s, %s", report_path, scatter_path,
                densities_path, means_path)
    _write_manifest(report_path, "report",
                    {"summary": summary_path,
                     "distributions": distributions_path,
                     "dynamics": dynamics_path},
                    {})


STAGES = {
    "ingest": stage_ingest,
    "lcc": stage_lcc,
    "sample": stage_sample,
    "embed": stage_embed,
    "pca": stage_pca,
    "eccentricity": stage_eccentricity,
    "dynamics": stage_dynamics,
    "distributions": stage_distributions,
    "synth": stage_synth,
    "report": stage_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ideadrift",
        description="Idea eccentricity pipeline over post logs and follow graphs.",
    )
    parser.add_argument("--config", help="JSON config file mirroring the flags; "
                                         "flags override file values")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="default dim/min-count/bins bundle (default: social-media)")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--log-level", default="INFO")
    sub = parser.add_subparsers(dest="stage", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text)

    p = add("ingest", "validate and canonicalize posts/edges files")
    p.add_argument("--posts"), p.add_argument("--edges")
    p.add_argument("--out-posts"), p.add_argument("--out-edges")

    p = add("lcc", "restrict to the largest weakly connected component")
    p.add_argument("--posts"), p.add_argument("--edges")
    p.add_argument("--out-posts"), p.add_argument("--out-edges")

    p = add("sample", "seeded user sampling with induced subgraph")
    p.add_argument("--posts"), p.add_argument("--edges")
    p.add_argument("--fraction", type=float), p.add_argument("--seed", type=int)
    p.add_argument("--out-posts"), p.add_argument("--out-edges")

    p = add("embed", "clean text and compute hashed TF-IDF vectors")
    p.add_argument("--posts"), p.add_argument("--stopwords")
    p.add_argument("--dim", type=int), p.add_argument("--min-count", type=int)
    p.add_argument("--hash-seed", type=int)
    p.add_argument("--out")

    p = add("pca", "reduce vectors to a target variance fraction")
    p.add_argument("--vectors"), p.add_argument("--variance", type=float)
    p.add_argument("--out"), p.add_argument("--model-out")

    p = add("eccentricity", "replay the log and emit per-post eccentricities")
    p.add_argument("--posts"), p.add_argument("--edges"), p.add_argument("--vectors")
    p.add_argument("--window-days", type=float)
    p.add_argument("--out")

    p = add("dynamics", "per-user F/G-scores from an eccentricity CSV")
    p.add_argument("--records")
    p.add_argument("--fg-weighting", choices=sorted(dynamics.WEIGHTINGS))
    p.add_argument("--min-gap", type=float)
    p.add_argument("--out")

    p = add("distributions", "popularity bins, KDE curves, pairwise AD tests")
    p.add_argument("--records"), p.add_argument("--bins")
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--p-method", choices=["table", "permutation"])
    p.add_argument("--n-perm", type=int), p.add_argument("--seed", type=int)
    p.add_argument("--out-csv"), p.add_argument("--out-summary")

    p = add("synth", "generate a seeded synthetic corpus with planted effects")
    p.add_argument("--n-users", type=int), p.add_argument("--follow-prob", type=float)
    p.add_argument("--n-days", type=float), p.add_argument("--posts-per-day", type=float)
    p.add_argument("--synth-dim", type=int), p.add_argument("--seed", type=int)
    p.add_argument("--effect", choices=sorted(synth.EFFECTS))
    p.add_argument("--strength", type=float)
    p.add_argument("--user-spread", type=float), p.add_argument("--post-noise", type=float)
    p.add_argument("--out-posts"), p.add_argument("--out-edges")
    p.add_argument("--out-vectors")

    p = add("report", "aggregate distributions and dynamics into one report")
    p.add_argument("--summary"), p.add_argument("--distributions")
    p.add_argument("--dynamics"), p.add_argument("--out-dir")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        settings = _Settings(args)
        STAGES[args.stage](settings)
    except FileNotFoundError as exc:
        logger.error("%s", exc)
        return 2
    except DataFormatError as exc:
        logger.error("%s", exc)
        return 2
    except InvariantError as exc:
        logger.error("invariant failure: %s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
