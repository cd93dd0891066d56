"""Pipeline CLI: reproducible batch stages with file boundaries.

Every stage is a pure function of its input files and configuration: rerunning
with identical inputs produces byte-identical outputs, and each stage writes a
manifest (input hashes, effective config, package version) next to its primary
output. Logs go to stderr; data only to the declared output files.

Exit codes: 0 success, 2 missing input, an output path of the wrong kind (a
directory for a file, a file for a directory) or named by two outputs of the
stage, or invalid configuration or data.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import shutil
import sys
from collections import ChainMap
from pathlib import Path
from typing import Callable, NamedTuple

# One BLAS thread, whatever the caller set: a multithreaded SVD changes the
# last bits of pca output with the thread count. Set before numpy loads BLAS,
# which no import does: ``_np.np`` loads numpy when a kernel first reads it.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from . import __version__, _parts, cloud, corpus, dynamics, embed, pca, stats, synth, textprep  # noqa: E402
from ._np import pairwise_sum  # noqa: E402
from .errors import DataFormatError  # noqa: E402

logger = logging.getLogger("ideadrift")

# defaults per dataset regime: social-media suits large corpora with wide
# like ranges; experiment suits small controlled corpora with few likes
PRESETS = {
    "social-media": {"dim": 300, "min_count": 10, "bins": "10,100"},
    "experiment": {"dim": 90, "min_count": 7, "bins": "2"},
}

DEFAULTS = {
    "preset": "social-media",
    "window_days": cloud.DEFAULT_WINDOW_SECONDS / 86400,
    "variance": 0.9,
    "bandwidth": stats.DEFAULT_BANDWIDTH,
    "fg_weighting": "inverse-gap",
    "min_gap": dynamics.DEFAULT_MIN_GAP_SECONDS,
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


class _Settings(ChainMap):
    """Layered parameter lookup: CLI flag > config file > preset > default.

    ``require_path`` hashes each input file as it resolves it, before the
    stage reads it, and records its path and SHA-256 in ``inputs`` for the
    stage's manifest; so an output written over an input does not change the
    input's recorded hash. A config file may hold any key some stage declares
    in ``STAGES``, plus ``preset`` and ``threads``.
    ``threads`` is the number of workers a stage may compute on (see
    ``--threads``), the usable CPUs by default; like ``preset``, it is read
    once here and recorded nowhere.
    """

    def __init__(self, args: argparse.Namespace):
        cli = {k: v for k, v in vars(args).items() if v is not None}
        file = _read_json_object(_input_file(cli["config"])) if cli.get("config") else {}
        known = {"preset", "threads"}.union(
            *((*files, *kinds) for _, _, files, kinds in STAGES.values()))
        unknown = sorted(set(file) - known)
        if unknown:
            raise DataFormatError(f"{cli['config']}: unknown keys {', '.join(unknown)}")
        super().__init__(cli, file, DEFAULTS)
        preset = self.values(preset=one_of(*PRESETS))["preset"]
        self.maps.insert(2, PRESETS[preset])
        self.threads = (self.values(threads=integer)["threads"] if "threads" in self
                        else _parts.usable_cpus())
        if self.threads < 1:
            raise DataFormatError(f"threads must be at least 1, got {self.threads}")
        self.inputs: dict[str, dict[str, str]] = {}
        self.outputs: dict[Path, str] = {}  # each resolved output path, by its flag

    def values(self, **kinds: Callable) -> dict:
        """``{key: kind(setting)}``: the config a stage runs with and records."""
        config = {}
        for key, kind in kinds.items():
            raw = self.get(key)
            try:
                config[key] = kind(raw)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataFormatError(
                    f"bad {key} value {raw!r}: expected {kind.__name__}") from exc
        return config

    def require_path(self, key: str) -> Path:
        value = self.get(key)
        if value is None:
            raise DataFormatError(f"missing required input --{key.replace('_', '-')}")
        path = _input_file(value)
        self.inputs[key] = {"path": str(path), "sha256": _sha256(path)}
        return path

    def out_path(self, key: str, primary: bool = False) -> Path:
        """The output path of ``key``, its directory made. A directory at the
        path, or at the manifest path of the stage's ``primary`` output, and
        a file that an earlier output of the stage or that manifest already
        names are refused before the stage writes anything."""
        flag = "--" + key.replace("_", "-")
        value = self.get(key)
        if value is None:
            raise DataFormatError(f"missing required output {flag}")
        path = _output_file(Path(value))
        claims = {path: flag}
        if primary:
            claims[_output_file(_manifest_path(path))] = f"the manifest of {flag}"
        for claim, name in claims.items():
            earlier = self.outputs.setdefault(claim.resolve(), name)
            if earlier != name:
                raise DataFormatError(f"{name} and {earlier} name the same file: {claim}")
        _make_dir(path.parent, f"output is under a file, not a directory: {path}")
        return path


def _input_file(value) -> Path:
    """The path ``value``, which must name a regular file."""
    path = Path(value)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    if not path.is_file():
        raise DataFormatError(f"input is not a regular file: {path}")
    return path


def _output_file(path: Path) -> Path:
    """``path``, which must not be a directory."""
    if path.is_dir():
        raise DataFormatError(f"output is a directory: {path}")
    return path


def _make_dir(path: Path, error: str) -> None:
    """``mkdir -p path``; a file at ``path`` or above it raises DataFormatError(error)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise DataFormatError(error) from None


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


def _read_json_object(path) -> dict:
    """The JSON object in ``path``; anything else, or a non-finite number,
    raises DataFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=finite, parse_float=finite)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    return payload


def _manifest_path(primary_output: Path) -> Path:
    return Path(str(primary_output) + ".manifest.json")


def _write_manifest(primary_output: Path, stage: str, settings: _Settings,
                    config: dict) -> None:
    """Write ``<primary_output>.manifest.json`` over the inputs the stage read."""
    _write_json(_manifest_path(primary_output), {
        "stage": stage,
        "version": __version__,
        "inputs": settings.inputs,
        "config": config,
    })


def integer(raw) -> int:
    """An int parsed from ``str(raw)``, as a flag is, so that a JSON float or
    boolean is refused rather than truncated."""
    return int(str(raw))


def int_list(raw) -> tuple[int, ...]:
    """Integers from a comma-separated string or a list, each item parsed alike."""
    parts = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    return tuple(integer(part) for part in parts if str(part).strip())


def finite(raw) -> float:
    """A float that is neither NaN nor +-inf."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def days(raw) -> float:
    """A finite number of days that is still finite in seconds."""
    value = finite(raw)
    finite(value * 86400)
    return value


def one_of(*names: str) -> Callable[[object], str]:
    """A converter that accepts exactly one of ``names``."""
    def check(raw) -> str:
        if raw not in names:
            raise ValueError(f"{raw!r} is not one of {names}")
        return raw
    check.__name__ = f"one of {', '.join(names)}"
    return check


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _corpus_stage(settings: _Settings, stage: str,
                  select: Callable[[corpus.SocialGraph], corpus.SocialGraph],
                  config: dict) -> None:
    """Keep the users ``select`` picks from the corpus graph, with their posts."""
    posts_path, edges_path = settings.require_path("posts"), settings.require_path("edges")
    c = corpus.build_corpus(corpus.load_posts(posts_path), corpus.load_edges(edges_path))
    graph = select(c.graph)
    keep = graph.users
    posts = [p for p in c.posts if p.author in keep]
    out_posts = settings.out_path("out_posts", primary=True)
    out_edges = settings.out_path("out_edges")
    corpus.write_posts_jsonl(posts, out_posts)
    corpus.write_edges_jsonl(graph, out_edges)
    logger.info("%s: kept %d/%d users, %d/%d posts, %d edges", stage,
                len(keep), len(c.graph.users), len(posts), len(c.posts),
                len(graph.edges))
    _write_manifest(out_posts, stage, settings, config)


def stage_ingest(settings: _Settings, config: dict) -> None:
    _corpus_stage(settings, "ingest", lambda graph: graph, config)


def stage_lcc(settings: _Settings, config: dict) -> None:
    _corpus_stage(settings, "lcc", corpus.largest_connected_component, config)


def stage_sample(settings: _Settings, config: dict) -> None:
    _corpus_stage(settings, "sample",
                  lambda graph: corpus.sample_users(graph, **config), config)


def stage_embed(settings: _Settings, config: dict) -> None:
    posts = corpus.load_posts(settings.require_path("posts"))
    if settings.get("stopwords"):
        stopwords = textprep.load_stopwords(settings.require_path("stopwords"))
    else:
        stopwords = textprep.default_stopwords()
    tokens = textprep.clean_all([p.text for p in posts], stopwords, settings.threads)
    model = embed.fit_vectorizer(tokens, **config)
    vectors = embed.embed_all(model, list(zip([p.id for p in posts], tokens)))
    out = settings.out_path("out", primary=True)
    embed.write_vectors(out, vectors, settings.threads)
    logger.info("embed: %d posts, vocabulary %d, dim %d",
                len(posts), len(model.vocabulary), config["dim"])
    _write_manifest(out, "embed", settings, config)


def stage_pca(settings: _Settings, config: dict) -> None:
    vectors_path = settings.require_path("vectors")
    ids, matrix = embed.load_external_vectors(vectors_path, settings.threads)
    if len(ids) < 2:
        raise DataFormatError(f"{vectors_path}: need at least 2 rows to fit, got {len(ids)}")
    model = pca.fit_pca(matrix, config["variance"])
    reduced = pca.transform(model, matrix)
    del matrix  # not held while the outputs are written
    out, model_out = settings.out_path("out", primary=True), settings.out_path("model_out")
    embed.write_vectors(out, (ids, reduced), settings.threads)
    pca.save_model(model, model_out)
    logger.info("pca: %d -> %d dimensions (%.1f%% variance retained)",
                model.dim, model.k,
                100 * float(model.explained_variance.sum())
                / max(model.total_variance, 1e-300))
    _write_manifest(out, "pca", settings, config)


def stage_eccentricity(settings: _Settings, config: dict) -> None:
    # posts are read a line at a time into the columns replay reads: no text is kept
    posts_path, edges_path = settings.require_path("posts"), settings.require_path("edges")
    posts = corpus.post_columns(corpus.iter_posts(posts_path))
    graph = corpus.with_authors(corpus.load_edges(edges_path), posts.authors)
    vectors_path = settings.require_path("vectors")
    vectors = embed.load_external_vectors(vectors_path, settings.threads)
    try:
        records = cloud.replay((posts, graph), vectors,
                               int(round(config["window_days"] * 86400)))
    except cloud.MissingVectorError as exc:
        raise DataFormatError(f"{vectors_path}: {exc}") from None
    out = settings.out_path("out", primary=True)
    cloud.write_records_csv(records, out)
    logger.info("eccentricity: %d records, %d with defined eccentricity",
                len(records), sum(r.eccentricity is not None for r in records))
    _write_manifest(out, "eccentricity", settings, config)


def _records(settings: _Settings):
    """The rows of ``--records``, parsed one at a time as the stage asks for
    them, so that no stage holds a record per post."""
    return cloud.iter_rows(settings.require_path("records"), cloud.EccentricityRecord,
                           cloud.RECORD_PARSERS)


def stage_dynamics(settings: _Settings, config: dict) -> None:
    rows = dynamics.user_dynamics(_records(settings), min_gap=config["min_gap"],
                                  weighting=config["fg_weighting"])
    out = settings.out_path("out", primary=True)
    dynamics.write_dynamics_csv(rows, out)
    logger.info("dynamics: %d users, %d with defined neighborhood scores",
                len(rows), sum(1 for r in rows if r.f_ecc is not None))
    _write_manifest(out, "dynamics", settings, config)


class _DensityRow(NamedTuple):  # one row of distributions.csv
    bin: str
    grid_x: float
    density: float


def stage_distributions(settings: _Settings, config: dict) -> None:
    bins = stats.bin_by_popularity(_records(settings), config["bins"])
    summary = stats.bin_summary(bins, **{k: v for k, v in config.items() if k != "bins"},
                                threads=settings.threads)
    out_csv = settings.out_path("out_csv", primary=True)
    out_summary = settings.out_path("out_summary")
    cloud.write_rows(out_csv, _DensityRow._fields,
                     ((row.label, x, d) for row in summary.bins if row.density is not None
                      for x, d in zip(summary.grid.tolist(), row.density.tolist())))
    payload = {
        "bandwidth": config["bandwidth"],
        "thresholds": config["bins"],
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
    logger.info("distributions: %d bins, %d pairwise tests on %d workers",
                len(summary.bins), len(summary.tests), summary.threads)
    _write_manifest(out_csv, "distributions", settings, config)


def stage_synth(settings: _Settings, config: dict) -> None:
    # the settings whose flag names differ from their SynthConfig fields
    fields = {"posts_per_day": "posts_per_user_per_day", "synth_dim": "dim",
              "strength": "effect_strength"}
    cfg = synth.SynthConfig(**{fields.get(key, key): value for key, value in config.items()})
    c, vectors, _ = synth.gen_corpus(cfg)
    out_posts = settings.out_path("out_posts", primary=True)
    out_edges = settings.out_path("out_edges")
    out_vectors = settings.out_path("out_vectors")
    synth.write_corpus_files(c, vectors, out_posts, out_edges, out_vectors)
    logger.info("synth: %d users, %d posts, effect=%s strength=%s",
                cfg.n_users, len(c.posts), cfg.effect, cfg.effect_strength)
    _write_manifest(out_posts, "synth", settings, cfg._asdict())


def _bin_means(path: Path, bins) -> list[tuple[str, int, float | None]]:
    """(label, n, mean) of each entry of a summary's ``bins`` list, as
    ``distributions`` writes them: a str label, an int n of at least 0 and a
    float or null mean; anything else raises DataFormatError."""
    if not isinstance(bins, list):
        raise DataFormatError(f"{path}: bins must be a list")
    rows = []
    for index, entry in enumerate(bins):
        if not (isinstance(entry, dict) and {"label", "n", "mean"} <= entry.keys()
                and isinstance(entry["label"], str)
                and type(entry["n"]) is int and entry["n"] >= 0
                and (entry["mean"] is None or type(entry["mean"]) is float)):
            raise DataFormatError(f"{path}: bins entry {index} needs a str label, an int "
                                  f"n >= 0 and a float or null mean")
        rows.append((entry["label"], entry["n"], entry["mean"]))
    return rows


def stage_report(settings: _Settings, config: dict) -> None:
    summary_path = settings.require_path("summary")
    distributions_path = settings.require_path("distributions")
    dynamics_path = settings.require_path("dynamics")
    popularity = _read_json_object(summary_path)
    bin_means = _bin_means(summary_path, popularity.get("bins", []))
    rows = dynamics.read_dynamics_csv(dynamics_path)
    # checked row by row, keeping none, then copied byte for byte into densities.csv
    for _ in cloud.iter_rows(distributions_path, _DensityRow, (str, finite, finite)):
        pass
    g_ecc = [d.g_ecc for d in rows if d.g_ecc is not None]
    g_self = [d.g_self for d in rows if d.g_self is not None]
    comparison = None
    if len(g_ecc) >= 1 and len(g_self) >= 1:
        u, p = stats.mann_whitney(g_self, g_ecc)
        mean_g_self = pairwise_sum(g_self) / len(g_self)
        mean_g_ecc = pairwise_sum(g_ecc) / len(g_ecc)
        if not (math.isfinite(mean_g_self) and math.isfinite(mean_g_ecc)):
            raise OverflowError("a mean G-score overflows float64")
        comparison = {
            "n_self": len(g_self), "n_ecc": len(g_ecc),
            "mean_g_self": mean_g_self, "mean_g_ecc": mean_g_ecc,
            "mannwhitney_u": u, "p": p,
        }
    out_dir = Path(settings.get("out_dir") or ".")
    _make_dir(out_dir, f"output directory is not a directory: {out_dir}")
    scatter_path, densities_path, means_path, report_path = (
        _output_file(out_dir / name)
        for name in ("fg_scatter.csv", "densities.csv", "bin_means.csv", "report.json"))
    _output_file(_manifest_path(report_path))

    cloud.write_rows(scatter_path, ("user", "f_ecc", "g_ecc", "f_self", "g_self"),
                     ((d.user, d.f_ecc, d.g_ecc, d.f_self, d.g_self) for d in rows))

    # --distributions given as this densities.csv already holds these bytes
    with contextlib.suppress(shutil.SameFileError):
        shutil.copyfile(distributions_path, densities_path)

    cloud.write_rows(means_path, ("bin", "n", "mean_eccentricity"), bin_means)

    report = {"popularity": popularity, "gscore_comparison": comparison}
    _write_json(report_path, report)
    logger.info("report: wrote %s, %s, %s, %s", report_path, scatter_path,
                densities_path, means_path)
    _write_manifest(report_path, "report", settings, config)


CORPUS_FILES = ("posts", "edges", "out_posts", "out_edges")

# stage -> (function, help, file keys, {setting: converter}). Each key is a
# flag of the stage's subcommand and a key --config accepts; the converters
# are the only check on a setting's value, wherever it comes from, and the
# converted settings are the config the stage runs with and records.
STAGES = {
    "ingest": (stage_ingest, "validate and canonicalize posts/edges files",
               CORPUS_FILES, {}),
    "lcc": (stage_lcc, "restrict to the largest weakly connected component",
            CORPUS_FILES, {}),
    "sample": (stage_sample, "seeded user sampling with induced subgraph",
               CORPUS_FILES, {"fraction": finite, "seed": integer}),
    "embed": (stage_embed, "clean text and compute hashed TF-IDF vectors",
              ("posts", "stopwords", "out"),
              {"dim": integer, "min_count": integer, "hash_seed": integer}),
    "pca": (stage_pca, "reduce vectors to a target variance fraction",
            ("vectors", "out", "model_out"), {"variance": finite}),
    "eccentricity": (stage_eccentricity, "replay the log and emit per-post eccentricities",
                     ("posts", "edges", "vectors", "out"), {"window_days": days}),
    "dynamics": (stage_dynamics, "per-user F/G-scores from an eccentricity CSV",
                 ("records", "out"),
                 {"fg_weighting": one_of(*sorted(dynamics.WEIGHTINGS)), "min_gap": finite}),
    "distributions": (stage_distributions, "popularity bins, KDE curves, pairwise AD tests",
                      ("records", "out_csv", "out_summary"),
                      {"bins": int_list, "bandwidth": finite,
                       "p_method": one_of("table", "permutation"), "n_perm": integer,
                       "seed": integer}),
    "synth": (stage_synth, "generate a seeded synthetic corpus with planted effects",
              ("out_posts", "out_edges", "out_vectors"),
              {"n_users": integer, "follow_prob": finite, "n_days": finite,
               "posts_per_day": finite, "synth_dim": integer, "seed": integer,
               "effect": one_of(*synth.EFFECTS), "strength": finite,
               "user_spread": finite, "post_noise": finite}),
    "report": (stage_report, "aggregate distributions and dynamics into one report",
               ("summary", "distributions", "dynamics", "out_dir"), {}),
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
    parser.add_argument("--threads", help="forked workers per stage, at least 1, which "
                                          "split the pairwise tests of distributions, the "
                                          "text cleaning of embed, and vector file reads "
                                          "and writes (default: usable CPUs)")
    parser.add_argument("--log-level", default="INFO", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    sub = parser.add_subparsers(dest="stage", required=True)
    for name, (_, help_text, files, kinds) in STAGES.items():
        stage = sub.add_parser(name, help=help_text)
        for key in (*files, *kinds):
            stage.add_argument("--" + key.replace("_", "-"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=args.log_level,
                        format="%(levelname)s %(name)s: %(message)s")
    stage, _, _, kinds = STAGES[args.stage]
    try:
        settings = _Settings(args)
        stage(settings, settings.values(**kinds))
    except (FileNotFoundError, DataFormatError) as exc:
        logger.error("%s", exc)
        return 2
    except OverflowError as exc:  # a result out of float64's range: name the inputs
        logger.error("%s: %s", ", ".join(i["path"] for i in settings.inputs.values())
                     or args.stage, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
