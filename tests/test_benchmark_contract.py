"""The benchmark's use of the package, checked here so that a change to a
traced function fails in the unit tests rather than in a benchmark run.

``perfbench/traced_stage.py`` wraps ``TRACED`` functions by name, finding
each module in ``sys.modules`` right after ``import ideadrift.cli``, and reads
a path from argument 0 of the vector reader and writer; ``perfbench/run.py``
passes what ``embed.load_external_vectors`` returns straight to
``cloud.eccentricity_oracle``, takes ``len`` of what ``cloud.read_records_csv``
returns and indexes it, and reads ``stats.EXACT_SPLIT_LIMIT``.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ideadrift
from ideadrift import cloud, corpus, embed, stats
from ideadrift.cli import main

TRACED_STAGE = Path(__file__).resolve().parent.parent / "perfbench" / "traced_stage.py"
DAY = 86400


@pytest.fixture(scope="module")
def traced_stage():
    spec = importlib.util.spec_from_file_location("traced_stage", TRACED_STAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(traced_stage):
    for layer, names in traced_stage.TRACED.items():
        module = importlib.import_module(f"ideadrift.{layer}")
        for name in names:
            # porter.stem is a function behind functools.lru_cache
            fn = inspect.unwrap(getattr(module, name, None))
            assert inspect.isfunction(fn), f"ideadrift.{layer}.{name}"


# after `import ideadrift.cli` and nothing else: each traced name that is a
# function (or a function behind a decorator) of its module, looked up in
# sys.modules as install() looks it up
_TRACED_FUNCTIONS = """
import inspect, json, sys
import ideadrift.cli
traced = json.loads(sys.argv[1])
modules = {layer: sys.modules.get(f"ideadrift.{layer}") for layer in traced}
print(json.dumps({layer: [name for name in names if inspect.isfunction(
                              inspect.unwrap(getattr(modules[layer], name, None)))]
                  for layer, names in traced.items()}))
"""


def test_cli_import_loads_every_traced_layer(traced_stage):
    # a module that the CLI imported lazily would be missing from sys.modules
    # when install() runs, and the traced runs would stop with a KeyError
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(ideadrift.__file__).resolve().parent.parent), env.get("PYTHONPATH")]))
    traced = {layer: list(names) for layer, names in traced_stage.TRACED.items()}
    proc = subprocess.run([sys.executable, "-c", _TRACED_FUNCTIONS, json.dumps(traced)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == traced


def test_exact_split_limit_is_an_int():
    assert isinstance(stats.EXACT_SPLIT_LIMIT, int)


@pytest.mark.parametrize("name", ["load_external_vectors", "write_vectors"])
def test_vector_io_takes_path_first(name):
    assert next(iter(inspect.signature(getattr(embed, name)).parameters)) == "path"


def test_oracle_takes_what_the_reader_returns(tmp_path):
    files = {key: tmp_path / f"{key}.jsonl" for key in ("posts", "edges", "vectors")}
    assert main(["synth", "--n-users", "12", "--follow-prob", "0.3", "--n-days", "4",
                 "--posts-per-day", "3", "--synth-dim", "5", "--seed", "3",
                 *(arg for key, path in files.items()
                   for arg in (f"--out-{key}", str(path)))]) == 0
    records_csv = tmp_path / "records.csv"
    assert main(["eccentricity", *(arg for key, path in files.items()
                                   for arg in (f"--{key}", str(path))),
                 "--window-days", "5", "--out", str(records_csv)]) == 0
    c = corpus.build_corpus(corpus.load_posts(files["posts"]),
                            corpus.load_edges(files["edges"]))
    vecs = embed.load_external_vectors(files["vectors"])
    records = cloud.read_records_csv(records_csv)
    assert type(records) is list  # run.py's check_oracle takes its len and indexes it
    defined = 0
    for r in records:
        want = cloud.eccentricity_oracle(c, vecs, 5 * DAY, r.post_id)
        for got, exp in zip((r.eccentricity, r.self_eccentricity), want):
            assert (got is None) == (exp is None)
            if exp is not None:
                defined += 1
                assert abs(got - exp) <= 1e-9 * max(abs(exp), 1e-300)
    assert defined > 0
