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
import dataclasses
import hashlib
import json
import logging
import shutil
import sys
from pathlib import Path
from typing import Callable

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
    "preset": "social-media",
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
    "user_spread": 4.0,
    "post_noise": 0.25,
}


class _Settings:
    """Layered parameter lookup: CLI flag > config file > preset > default.

    Every input file a stage resolves through ``require_path`` is recorded in
    ``inputs``, which the stage's manifest then hashes.
    """

    def __init__(self, args: argparse.Namespace):
        cli = {k: v for k, v in vars(args).items() if v is not None}
        file: dict = {}
        config_path = cli.get("config")
        if config_path:
            try:
                with open(config_path, encoding="utf-8") as fh:
                    file = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{config_path}: invalid config JSON ({exc})") from exc
            if not isinstance(file, dict):
                raise DataFormatError(f"{config_path}: config must be a JSON object")
        self.layers = [cli, file, DEFAULTS]
        preset_name = self.get("preset")
        if preset_name not in PRESETS:
            raise DataFormatError(f"unknown preset {preset_name!r}")
        self.layers.insert(2, PRESETS[preset_name])
        self.inputs: dict[str, Path] = {}

    def get(self, key: str):
        for layer in self.layers:
            if key in layer:
                return layer[key]
        return None

    def value(self, key: str, kind: Callable):
        """The setting ``key`` converted by ``kind`` (``int``, ``float``)."""
        raw = self.get(key)
        try:
            return kind(raw)
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"bad {key} value {raw!r}: expected {kind.__name__}") from exc

    def require_path(self, key: str) -> Path:
        value = self.get(key)
        if value is None:
            raise DataFormatError(f"missing required input --{key.replace('_', '-')}")
        path = Path(value)
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {path}")
        self.inputs[key] = path
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


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(primary_output: Path, stage: str, settings: _Settings,
                    config: dict) -> None:
    """Write ``<primary_output>.manifest.json`` over the inputs the stage read."""
    _write_json(Path(str(primary_output) + ".manifest.json"), {
        "stage": stage,
        "version": __version__,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in settings.inputs.items()},
        "config": config,
    })


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

def _corpus_stage(settings: _Settings, stage: str,
                  select: Callable[[corpus.SocialGraph], corpus.SocialGraph],
                  config: dict) -> None:
    """Keep the users ``select`` picks from the corpus graph, with their posts."""
    c = _load_corpus(settings)
    graph = select(c.graph)
    keep = graph.users
    posts = [p for p in c.posts if p.author in keep]
    out_posts = settings.out_path("out_posts")
    out_edges = settings.out_path("out_edges")
    corpus.write_posts_jsonl(posts, out_posts)
    corpus.write_edges_jsonl(graph, out_edges)
    logger.info("%s: kept %d/%d users, %d/%d posts, %d edges", stage,
                len(keep), len(c.graph.users), len(posts), len(c.posts),
                len(graph.edges))
    _write_manifest(out_posts, stage, settings, config)


def stage_ingest(settings: _Settings) -> None:
    _corpus_stage(settings, "ingest", lambda graph: graph, {})


def stage_lcc(settings: _Settings) -> None:
    _corpus_stage(settings, "lcc", corpus.largest_connected_component, {})


def stage_sample(settings: _Settings) -> None:
    config = {"fraction": settings.value("fraction", float), "seed": settings.value("seed", int)}
    _corpus_stage(settings, "sample",
                  lambda graph: corpus.sample_users(graph, **config), config)


def stage_embed(settings: _Settings) -> None:
    posts = corpus.load_posts(settings.require_path("posts"))
    if settings.get("stopwords"):
        stopwords = textprep.load_stopwords(settings.require_path("stopwords"))
    else:
        stopwords = textprep.default_stopwords()
    dim = settings.value("dim", int)
    min_count = settings.value("min_count", int)
    hash_seed = settings.value("hash_seed", int)
    tokens = {p.id: textprep.clean(p.text, stopwords) for p in posts}
    model = embed.fit_vectorizer([tokens[p.id] for p in posts], dim=dim,
                                 min_count=min_count, hash_seed=hash_seed)
    vectors = embed.embed_all(model, ((p.id, tokens[p.id]) for p in posts))
    out = settings.out_path("out")
    embed.write_vectors(out, vectors)
    logger.info("embed: %d posts, vocabulary %d, dim %d",
                len(posts), len(model.vocabulary), dim)
    _write_manifest(out, "embed", settings,
                    {"dim": dim, "min_count": min_count, "hash_seed": hash_seed})


def stage_pca(settings: _Settings) -> None:
    vectors = embed.load_external_vectors(settings.require_path("vectors"))
    if len(vectors) < 2:
        raise DataFormatError("pca needs at least 2 vectors")
    variance = settings.value("variance", float)
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
    _write_manifest(out, "pca", settings, {"variance": variance})


def stage_eccentricity(settings: _Settings) -> None:
    c = _load_corpus(settings)
    vectors = embed.load_external_vectors(settings.require_path("vectors"))
    window_days = settings.value("window_days", float)
    window_seconds = int(round(window_days * 86400))
    records = cloud.replay(c, vectors, window_seconds)
    out = settings.out_path("out")
    cloud.write_records_csv(records, out)
    defined = sum(1 for r in records if r.eccentricity is not None)
    logger.info("eccentricity: %d records, %d with defined eccentricity",
                len(records), defined)
    _write_manifest(out, "eccentricity", settings, {"window_days": window_days})


def stage_dynamics(settings: _Settings) -> None:
    records = cloud.read_records_csv(settings.require_path("records"))
    weighting = str(settings.get("fg_weighting"))
    min_gap = settings.value("min_gap", float)
    rows = dynamics.user_dynamics(records, min_gap=min_gap, weighting=weighting)
    out = settings.out_path("out")
    dynamics.write_dynamics_csv(rows, out)
    logger.info("dynamics: %d users, %d with defined neighborhood scores",
                len(rows), sum(1 for r in rows if r.f_ecc is not None))
    _write_manifest(out, "dynamics", settings,
                    {"fg_weighting": weighting, "min_gap": min_gap})


def stage_distributions(settings: _Settings) -> None:
    records = cloud.read_records_csv(settings.require_path("records"))
    thresholds = _parse_bins(settings.get("bins"))
    bandwidth = settings.value("bandwidth", float)
    p_method = str(settings.get("p_method"))
    n_perm = settings.value("n_perm", int)
    seed = settings.value("seed", int)
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
            writer.writerows((row.label, x, d) for x, d in
                             zip(row.curve.grid.tolist(), row.curve.density.tolist()))
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
    _write_json(out_summary, payload)
    for notice in summary.notices:
        logger.warning("distributions: %s", notice)
    logger.info("distributions: %d bins, %d pairwise tests",
                len(summary.bins), len(summary.tests))
    _write_manifest(out_csv, "distributions", settings,
                    {"bins": list(thresholds), "bandwidth": bandwidth,
                     "p_method": p_method, "n_perm": n_perm, "seed": seed})


def stage_synth(settings: _Settings) -> None:
    cfg = synth.SynthConfig(
        n_users=settings.value("n_users", int),
        follow_prob=settings.value("follow_prob", float),
        n_days=settings.value("n_days", float),
        posts_per_user_per_day=settings.value("posts_per_day", float),
        dim=settings.value("synth_dim", int),
        seed=settings.value("seed", int),
        effect=str(settings.get("effect")),
        effect_strength=settings.value("strength", float),
        user_spread=settings.value("user_spread", float),
        post_noise=settings.value("post_noise", float),
    )
    c, vectors = synth.gen_corpus(cfg)
    out_posts = settings.out_path("out_posts")
    out_edges = settings.out_path("out_edges")
    out_vectors = settings.out_path("out_vectors")
    synth.write_corpus_files(c, vectors, out_posts, out_edges, out_vectors)
    logger.info("synth: %d users, %d posts, effect=%s strength=%s",
                cfg.n_users, len(c.posts), cfg.effect, cfg.effect_strength)
    _write_manifest(out_posts, "synth", settings, dataclasses.asdict(cfg))


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
    with open(scatter_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "f_ecc", "g_ecc", "f_self", "g_self"])
        writer.writerows((d.user, d.f_ecc, d.g_ecc, d.f_self, d.g_self) for d in rows)

    densities_path = out_dir / "densities.csv"
    shutil.copyfile(distributions_path, densities_path)

    means_path = out_dir / "bin_means.csv"
    with open(means_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "n", "mean_eccentricity"])
        writer.writerows((b["label"], b["n"], b["mean"]) for b in popularity.get("bins", []))

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
    _write_json(report_path, report)
    logger.info("report: wrote %s, %s, %s, %s", report_path, scatter_path,
                densities_path, means_path)
    _write_manifest(report_path, "report", settings, {})


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

    def add(name: str, help_text: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=list(parents))

    corpus_io = argparse.ArgumentParser(add_help=False)
    corpus_io.add_argument("--posts"), corpus_io.add_argument("--edges")
    corpus_io.add_argument("--out-posts"), corpus_io.add_argument("--out-edges")

    add("ingest", "validate and canonicalize posts/edges files", corpus_io)
    add("lcc", "restrict to the largest weakly connected component", corpus_io)
    p = add("sample", "seeded user sampling with induced subgraph", corpus_io)
    p.add_argument("--fraction", type=float), p.add_argument("--seed", type=int)

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
