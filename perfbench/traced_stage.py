"""Run one ``ideadrift`` CLI stage in-process with layer tracing.

Usage: python3 traced_stage.py SPANS_OUT RUN_ID -- <ideadrift CLI arguments>

Every traced public function of ``ideadrift`` is wrapped under each name a
caller looks it up by, so ``textprep.stem`` (the ``porter.stem`` function as
``textprep.clean`` sees it) and ``synth.write_vectors`` are timed as well as
the module's own binding. Spans (name, start, end, parent, run id) are kept
in memory and written to SPANS_OUT as JSON when the stage returns, together
with the monotonic times at which the CLI import ended and ``main`` ran and
a few counters observed at the same boundaries. Per-token ``porter.stem``
calls are aggregated rather than kept as spans.

Times are ``time.monotonic()``, which is system-wide on Linux, so the parent
process can subtract its own spawn and reap times from them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# the public layer functions the benchmark times, by defining module
TRACED = {
    "cloud": ("replay", "write_records_csv", "read_records_csv"),
    "corpus": ("load_posts", "load_edges", "build_corpus",
               "largest_connected_component", "write_posts_jsonl", "write_edges_jsonl"),
    "embed": ("fit_vectorizer", "embed_all", "load_external_vectors", "write_vectors"),
    "textprep": ("clean",),
    "porter": ("stem",),
    "pca": ("fit_pca", "transform", "save_model"),
    "dynamics": ("user_dynamics", "write_dynamics_csv", "read_dynamics_csv"),
    "stats": ("bin_by_popularity", "bin_summary", "kde", "ad_test_2sample",
              "mann_whitney"),
    "synth": ("gen_corpus", "write_corpus_files"),
}
# called once per token: aggregated into one total per run instead of spans
AGGREGATED = frozenset({"porter.stem"})


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent, run_id]
        self.stack: list[int] = []
        self.aggregate: dict[str, list[float]] = {}   # name -> [total_s, calls]
        self.distinct: dict[str, set] = {}
        self.counters: dict[str, float] = {}

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, observe=None):
        if name in AGGREGATED:
            totals = self.aggregate.setdefault(name, [0.0, 0])
            seen = self.distinct.setdefault(name, set())

            @functools.wraps(fn)
            def hot(arg):
                t0 = time.monotonic()
                out = fn(arg)
                totals[0] += time.monotonic() - t0
                totals[1] += 1
                seen.add(arg)
                return out
            return hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, time.monotonic(), None, parent, self.run_id]
            self.spans.append(span)
            self.stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, out)
            return out
        return traced


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _observers():
    """Counters recorded at layer boundaries, keyed by traced name."""
    return {
        "corpus.load_posts": lambda t, a, k, out: t.count("corpus.posts_parsed", len(out)),
        "embed.load_external_vectors": lambda t, a, k, out: t.count(
            "embed.vector_bytes_read", os.path.getsize(_arg(a, k, 0, "path"))),
        "embed.write_vectors": lambda t, a, k, out: t.count(
            "embed.vector_bytes_written", os.path.getsize(_arg(a, k, 0, "path"))),
        "pca.fit_pca": lambda t, a, k, out: t.count("pca.k", out.k),
    }


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function in ideadrift's modules."""
    import ideadrift
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("ideadrift.")}
    observers = _observers()
    for layer, names in TRACED.items():
        home = modules[f"ideadrift.{layer}"]
        for fn_name in names:
            fn = getattr(home, fn_name)
            span_name = f"{layer}.{fn_name}"
            wrapped = tracer.wrap(span_name, fn, observers.get(span_name))
            for mod in (ideadrift, *modules.values()):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_out, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_stage.py SPANS_OUT RUN_ID -- <cli args>")
    import ideadrift.cli
    import_end = time.monotonic()
    tracer = Tracer(run_id)
    install(tracer)
    main_start = time.monotonic()
    code = ideadrift.cli.main(cli_args)
    main_end = time.monotonic()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({
            "run_id": run_id, "exit": code, "import_end": import_end,
            "main_start": main_start, "main_end": main_end,
            "spans": tracer.spans, "counters": tracer.counters,
            "aggregate": {name: {"total_s": total, "calls": calls,
                                 "distinct": len(tracer.distinct[name])}
                          for name, (total, calls) in tracer.aggregate.items()},
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
