"""Span and count tracer for the chromhom engine, applied from outside src/.

One ``chromhom`` invocation runs inside this process, with ``--jobs 1`` so
no span is lost in a worker.  Before it runs, the engine's public functions
are wrapped where their callers look them up: every ``chromhom`` module
attribute bound to the original function, or the class attribute of a
method.  Spans (name, start, end, parent, run id) and counts stay in memory
and are written as one JSON document when the invocation ends.

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json -- \\
        homology --format json graph.json

Without ``--spans`` the invocation runs unwrapped; that is the baseline the
tracing overhead is measured against.
"""

import argparse
import functools
import importlib
import json
import sys
import time

# span name -> (module, attribute path); each call records one span
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.load": ("cli", "load_graph_document"),
    "cli.payload": ("cli", "homology_payload"),
    "cli.cache_read": ("cli", "_cache_read"),
    "cli.cache_write": ("cli", "_cache_write"),
    "complexes.levels": ("complexes", "ChainLevel.__init__"),
    "complexes.assemble": ("complexes", "ChainComplex._assemble_level"),
    "complexes.dsquared": ("complexes", "ChainComplex.verify_d_squared"),
    "complexes.equivariance": ("complexes", "ChainComplex.verify_equivariance"),
    "complexes.per_edge_map": ("complexes", "per_edge_map"),
    "repn.image_characters": ("repn", "image_characters"),
    "repn.basis_characters": ("repn", "basis_characters"),
    "linalg.image_rref": ("linalg", "image_rref"),
    "linalg.rank_forward": ("linalg", "rank_forward"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.matmul": ("linalg", "SparseMat.matmul"),
    "homology.table": ("homology", "homology_table"),
    "characters.table": ("characters", "character_table"),
    "lescheck.ses_maps": ("lescheck", "build_ses_maps"),
    "lescheck.homology_basis": ("lescheck", "HomologyBasis.__init__"),
    "lescheck.tables": ("lescheck", "cached_table"),
    "lescheck.verify_les": ("lescheck", "verify_les"),
}

# count name -> (module, attribute path); called too often for a span each
COUNTS = {
    "repn.act_on_label_calls": ("repn", "act_on_label"),
    "repn.split_projection_calls": ("repn", "split_projection"),
    "linalg.rref_calls": ("linalg", "_rref_vectors"),
    "graphs.state_profile_calls": ("graphs", "state_profile"),
}


class Tracer:
    """In-memory spans and counts of one invocation."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, run id]
        self.stack: list[int] = []
        self.counts = {name: 0 for name in COUNTS}
        self.counts.update(
            {"cli.cache_reads": 0, "cli.cache_hits": 0,
             "complexes.dim_total": 0, "complexes.nnz_total": 0,
             "linalg.rank_total": 0}
        )

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        run_id = self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, clock(), 0.0, parent, run_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"chromhom.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(owner, attr: str, wrapper) -> None:
    """Replace a function everywhere callers look it up.

    A method is looked up on its class.  A module-level function is looked
    up in the namespace of every module that imported it by name.
    """
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name == "chromhom" or name.startswith("chromhom."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the engine functions named in SPANS and COUNTS."""
    import chromhom.cli  # noqa: F401  (imports every engine module)

    hooks = _result_hooks(tracer.counts)
    for table, wrap in ((SPANS, tracer.span), (COUNTS, tracer.count)):
        for name, (module, path) in table.items():
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
            if name in hooks:
                fn = hooks[name](fn)
            _rebind(owner, attr, wrap(name, fn))
    owner, attr = _resolve("complexes", "ChainComplex.__init__")
    _rebind(owner, attr, _complex_hook(tracer.counts, getattr(owner, attr)))


def _result_hooks(counts: dict) -> dict:
    """Wrappers that read fingerprints and cache outcomes off results."""

    def cache_read(fn):
        @functools.wraps(fn)
        def wrapper(path):
            result = fn(path)
            if path:
                counts["cli.cache_reads"] += 1
                counts["cli.cache_hits"] += result is not None
            return result
        return wrapper

    def rank_forward(fn):
        @functools.wraps(fn)
        def wrapper(mat):
            rank = fn(mat)
            counts["linalg.rank_total"] += rank
            return rank
        return wrapper

    def rref(fn):
        @functools.wraps(fn)
        def wrapper(vectors):
            pivots, basis = fn(vectors)
            counts["linalg.rank_total"] += len(pivots)
            return pivots, basis
        return wrapper

    return {"cli.cache_read": cache_read, "linalg.rank_forward": rank_forward,
            "linalg.rref_calls": rref}


def _complex_hook(counts: dict, init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        levels, diffs = self.levels, self.diffs.values()
        counts["complexes.dim_total"] += sum(lv.total_dim for lv in levels)
        counts["complexes.nnz_total"] += sum(mat.nnz() for mat in diffs)
    return wrapper


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Calls are nested and run in one thread, so children never overlap and
    their durations sum to the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(docs: list[dict]) -> dict:
    """Per-layer totals over the span documents of several invocations.

    ``<name>_s`` is inclusive time, counted once when a name nests in
    itself; ``<name>_self_s`` excludes the time of wrapped callees;
    ``<name>_calls`` is the number of calls.  Counts keep their names.
    """
    out: dict = {}
    for doc in docs:
        spans = doc["spans"]
        own = self_times(spans)
        for k, (name, start, end, parent, _) in enumerate(spans):
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            if outer:
                out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start)
            out[f"{name}_self_s"] = out.get(f"{name}_self_s", 0.0) + own[k]
            out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
        for name, value in doc["counts"].items():
            out[name] = out.get(name, 0) + value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None,
                        help="trace, and write spans and counts here")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    if args.spans:
        install(tracer)
    from chromhom import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # how the CLI refuses input; keep its message
        if isinstance(exc.code, int):
            code = exc.code
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
