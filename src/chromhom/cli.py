"""Command-line interface.

Subcommands: ``csf``, ``homology``, ``les``, ``verify``, ``scan-c6`` and
``selftest``.  Graph inputs are structured documents (JSON or YAML) with
``vertices: [{id, weight}]`` and ``edges: [[id, id], ...]``; the edge array
order defines the edge order.  Output is human-readable text or one JSON
document per command.  Results of ``homology`` can be cached on disk,
keyed by a content hash of the canonical graph serialization and the
engine version; cache hits reproduce byte-identical output, and an
unreadable or malformed cache entry, or one whose fields do not match the
sha256 digest stored with them, counts as a miss and is rewritten.
The calling process reads each entry once and serves the hits itself;
only misses reach the engine, in at most ``--jobs`` pool workers, once per
isomorphism class (`graphs.canonical_form`); the class's later misses get
its first's table under their own graph and key.  A computed miss builds
its complex once and dumps ``--dump-matrices`` from it; any other input
builds one to dump.  No complex outlives its input.

Each command imports the engine modules it runs, inside the command, and
no command loads ``dataclasses`` or ``inspect`` (the records are
``NamedTuple``s).  Importing this module loads ``chromhom.graphs`` alone;
a ``homology`` run whose inputs all hit the cache loads no more, a miss
every engine module but ``lescheck`` and ``symfunc``, and ``les`` adds
``lescheck``.  Only ``csf``, ``selftest`` and the disjoint-union check of
``verify`` load ``symfunc``.

Sizes are checked in one place, ``check_bounds``, before any engine work:
a graph with total weight over ``--max-weight`` (default 7) or more edges
than ``--max-edges`` (default 8) is refused unless ``--force`` lifts both;
a total weight over ``sys.maxsize`` is refused even with ``--force``.
The check covers every input graph, the graphs ``scan-c6`` generates and
the ``selftest`` examples; the engine itself has no size limit.

Exit status: 0 success; 1 a failed engine check (d . d, equivariance,
SES/LES exactness, the connecting-map description, the coloring oracle),
reported as one ``ASSERTION FAILURE`` line on stderr with nothing on
stdout, or a failed ``verify``; 2 bad input or a refused size, reported
as one line on stderr: a bad document, an ``--edge`` out of range, an
``--oracle-check``, ``--jobs`` or ``--max-vertices`` below 1 or a
``--shuffles`` below 0 (``LEAST``), a cache directory or entry that cannot
be written, or a ``--dump-matrices`` path that cannot be a directory or
file in it that cannot be written.  With ``--jobs`` above 1 only the
first refusal, in input order, is reported.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from contextlib import nullcontext
from importlib import import_module
from itertools import combinations, repeat
from typing import NoReturn

from . import __version__
from .graphs import (
    VertexWeightedGraph,
    build_graph,
    canonical_form,
    complete_graph,
    graph_from_weights,
    path_graph,
    state_profile,
)

CACHE_ENV_VAR = "CHROMHOM_CACHE_DIR"
PAYLOAD_FIELDS = {"graph", "key", "table", "table_text", "frobenius"}
LEAST = {"oracle_check": 1, "jobs": 1, "shuffles": 0, "max_vertices": 1}  # least values


def load_graph_document(path: str) -> VertexWeightedGraph:
    """Read a JSON or YAML graph document; ValueError when it is bad."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(exc.strerror) from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        import yaml

        try:
            doc = yaml.safe_load(text)
        except (yaml.YAMLError, RecursionError):
            raise ValueError("not a JSON or YAML document") from None
    return build_graph(doc)


class Refused(Exception):
    """A refusal from a pool worker; `cmd_homology` `refuse`s the first."""


def refuse(message: str) -> NoReturn:
    """Report bad input or a refused size on one stderr line; exit 2."""
    print(f"chromhom: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_bounds(graph: VertexWeightedGraph, args: argparse.Namespace) -> None:
    """The one size check; --force lifts both limits, but not sys.maxsize."""
    if graph.total_weight > sys.maxsize:  # no range of points has that length
        refuse(f"total weight {graph.total_weight} exceeds {sys.maxsize} even with --force")
    if args.force:
        return
    if graph.total_weight > args.max_weight:
        refuse(
            f"total weight {graph.total_weight} exceeds the bound "
            f"{args.max_weight}; pass --force to acknowledge the blowup"
        )
    if graph.m > args.max_edges:
        refuse(
            f"{graph.m} edges exceed the bound {args.max_edges}; "
            "pass --force to acknowledge the blowup"
        )


def load_and_check(path: str, args: argparse.Namespace) -> VertexWeightedGraph:
    try:
        graph = load_graph_document(path)
    except ValueError as exc:
        refuse(f"{path}: {exc}")
    check_bounds(graph, args)
    return graph


def _graph_key(graph: VertexWeightedGraph | str) -> str:
    """The cache key of a graph or of its serialization."""
    text = graph if isinstance(graph, str) else graph.serialize()
    return hashlib.sha256(f"{__version__}\n{text}".encode()).hexdigest()


def _directory(path: str | None, what: str) -> str | None:
    """`path`, created if needed; refused if it cannot be a directory."""
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            refuse(f"{what} {path}: {exc.strerror}")
    return path


def _payload_digest(payload: dict) -> str:
    """sha256 of an entry's fields other than its digest, as sorted JSON."""
    fields = {name: value for name, value in payload.items() if name != "digest"}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def _cache_read(path: str | None):
    """The cached payload, or None unless it is a whole entry for its key:
    every field of its type, its graph hashing to the key, and its digest
    that of its other fields, so fields that disagree are a miss too."""
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    key = os.path.basename(path).removesuffix(".json")
    if not (isinstance(payload, dict) and PAYLOAD_FIELDS <= payload.keys()
            and all(isinstance(payload[f], str) for f in ("graph", "key", "frobenius"))
            and isinstance(payload["table"], dict)
            and isinstance(payload["table_text"], list)
            and all(isinstance(line, str) for line in payload["table_text"])
            and payload["key"] == key == _graph_key(payload["graph"])
            and payload.get("digest") == _payload_digest(payload)):
        return None
    del payload["digest"]
    return payload


def _cache_write(path: str | None, payload: dict) -> None:
    """Write the entry, with the digest of its fields, through a temporary
    file; `Refused` if it cannot be."""
    if not path:
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({**payload, "digest": _payload_digest(payload)}, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise Refused(f"cache entry {path}: {exc.strerror}") from None
        raise


def _cache_path(key: str, args: argparse.Namespace) -> str | None:
    return os.path.join(args.cache_dir, f"{key}.json") if args.cache_dir else None


def _dump_matrices(cx, key: str, args: argparse.Namespace):
    """Write cx's differentials under --dump-matrices; `Refused` if it cannot."""
    for (i, j) in sorted(cx.diffs):
        lines = cx.differential(i, j).dump_lines(cx.denominator)
        name = os.path.join(args.dump_matrices, f"{key[:12]}_d_{i}_{j}.txt")
        try:
            with open(name, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise Refused(f"--dump-matrices file {name}: {exc.strerror}") from None


def homology_payload(graph: VertexWeightedGraph, args: argparse.Namespace) -> dict:
    """Compute a cache miss: its table, its cache entry and any matrix dump."""
    from .complexes import ChainComplex
    from .homology import frobenius_series, homology_table

    key = _graph_key(graph)
    cx = ChainComplex(graph)
    table = homology_table(cx)
    payload = {
        "graph": graph.serialize(),
        "key": key,
        "table": table.to_json_dict(),
        "table_text": table.text_lines(),
        "frobenius": frobenius_series(table).text(),
    }
    _cache_write(_cache_path(key, args), payload)
    if args.dump_matrices:
        _dump_matrices(cx, key, args)
    return payload


def _class_reps(graphs: list, misses: list) -> dict:
    """Per miss k, the first miss whose graph is isomorphic to graphs[k]; a
    lone miss gets no form, and a capped one (form None) is its own class."""
    forms, first = {k: len(misses) > 1 and canonical_form(graphs[k]) for k in misses}, {}
    return {k: first.setdefault(f, k) if f else k for k, f in forms.items()}


def cmd_csf(args: argparse.Namespace, out) -> int:
    """X_G per input; ``--oracle-check K`` compares it with the proper
    colorings in k = 1 .. min(K, N) variables, N the total weight.  X_G has
    degree N, so its restriction to N variables determines it: agreement at
    N certifies every k <= K, and the report still names K."""
    from .symfunc import basis_convert, check_csf_oracle, csf_state_sum

    docs = []
    for graph in [load_and_check(path, args) for path in args.inputs]:
        x = csf_state_sum(graph)
        doc = {
            "graph": graph.serialize(),
            "power_sum": x.text(),
            "schur": basis_convert(x, "s").text(),
        }
        if args.oracle_check:
            ok = all(check_csf_oracle(graph, k)
                     for k in range(1, min(args.oracle_check, graph.total_weight) + 1))
            doc["oracle_check"] = {"colors_up_to": args.oracle_check, "ok": ok}
            if not ok:
                raise AssertionError("coloring oracle disagrees with the state sum")
        docs.append(doc)
    if args.format == "json":
        out.write(json.dumps({"command": "csf", "results": docs}, sort_keys=True))
        out.write("\n")
    else:
        for doc in docs:
            out.write(f"graph: {doc['graph']}\n")
            out.write(f"X (power sums) = {doc['power_sum']}\n")
            out.write(f"X (Schur)      = {doc['schur']}\n")
            if "oracle_check" in doc:
                out.write(
                    "coloring oracle agreement (k <= "
                    f"{doc['oracle_check']['colors_up_to']}): "
                    f"{'ok' if doc['oracle_check']['ok'] else 'FAILED'}\n"
                )
    return 0


def cmd_homology(args: argparse.Namespace, out) -> int:
    graphs = [load_and_check(path, args) for path in args.inputs]
    args.cache_dir = _directory(args.cache_dir or os.environ.get(CACHE_ENV_VAR),
                                "cache directory")
    _directory(args.dump_matrices, "--dump-matrices directory")
    keys = [_graph_key(graph) for graph in graphs]
    docs = [_cache_read(_cache_path(key, args)) for key in keys]  # once, here
    misses = [k for k, doc in enumerate(docs) if doc is None]
    rep = _class_reps(graphs, misses)
    todo = [graphs[k] for k in misses if rep[k] == k]
    jobs = min(args.jobs, len(todo))
    try:
        if jobs > 1:  # engine first: compiled once for all workers; importing it
            # before concurrent.futures leaves this process a lower peak RSS
            import_module(".homology", __package__)
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
            computed = (pool.map if pool else map)(homology_payload, todo, repeat(args))
            for k, graph in enumerate(graphs):  # in input order, refusals too
                if rep.get(k) == k:
                    docs[k] = next(computed)
                elif k in rep:  # isomorphic to the earlier miss rep[k]: its table
                    docs[k] = {**docs[rep[k]], "graph": graph.serialize(), "key": keys[k]}
                    _cache_write(_cache_path(keys[k], args), docs[k])
                if args.dump_matrices and rep.get(k) != k:  # the cache holds no matrices
                    cx = import_module(".complexes", __package__).ChainComplex(graph)
                    _dump_matrices(cx, keys[k], args)
    except Refused as exc:
        refuse(str(exc))
    if args.format == "json":
        out.write(
            json.dumps({"command": "homology", "results": docs}, sort_keys=True)
        )
        out.write("\n")
    else:
        for doc in docs:
            out.write(f"graph: {doc['graph']}\n")
            for line in doc["table_text"]:
                out.write(line + "\n")
            out.write(f"Frobenius series: {doc['frobenius']}\n")
    return 0


def cmd_les(args: argparse.Namespace, out) -> int:
    from .lescheck import verify_les

    graph = load_and_check(args.inputs[0], args)
    if not 0 <= args.edge < graph.m:
        refuse(f"--edge {args.edge} is out of range: the graph has {graph.m} edges")
    report = verify_les(graph, args.edge)
    if args.format == "json":
        out.write(json.dumps({"command": "les", "report": report.to_dict()},
                             sort_keys=True))
        out.write("\n")
    else:
        out.write(f"graph: {graph.serialize()}\n")
        out.write(f"edge: {args.edge}\n")
        out.write("all rows exact: True\n")  # verify_les raised otherwise
        out.write("connecting-map description consistent: True\n")
        for j, nodes in sorted(report.rows.items()):
            shown = [n for n in nodes if n.dim]
            out.write(f"row j={j}:\n")
            for n in shown:
                mods = " + ".join(
                    (f"{m}*" if m > 1 else "") + f"S[{','.join(map(str, lam))}]"
                    for lam, m in sorted(n.modules.items())
                ) or "0"
                out.write(
                    f"  H[{n.i},{j}]({n.part}) dim={n.dim} {mods} "
                    f"(rank in={n.rank_in}, out={n.rank_out}, "
                    "exact=yes)\n"
                )
    return 0


def cmd_verify(args: argparse.Namespace, out) -> int:
    from .lescheck import cached_table, verify_structure_theorems

    graphs = [load_and_check(path, args) for path in args.inputs]
    report = verify_structure_theorems(graphs)
    shuffle_results = []
    if args.shuffles:
        import random

        rng = random.Random(0)
        for graph in graphs:
            base = cached_table(graph)
            for _ in range(args.shuffles):
                order = list(range(graph.m))
                rng.shuffle(order)
                shuffled = graph.with_edge_order(tuple(order))
                same = cached_table(shuffled) == base
                shuffle_results.append(
                    {"graph": graph.serialize(), "order": order, "ok": same}
                )
    ok = report.ok and all(r["ok"] for r in shuffle_results)
    if args.format == "json":
        doc = {"command": "verify", "report": report.to_dict(),
               "shuffles": shuffle_results, "ok": ok}
        out.write(json.dumps(doc, sort_keys=True))
        out.write("\n")
    else:
        for r in report.results:
            if r.status != "SKIPPED":
                out.write(f"{r.status:7s} {r.check}  {r.graph}\n")
        for f in report.c6_findings:
            out.write(
                f"c6      n={f['vertices']} blocks={f['blocks']} "
                f"span0={f['span0']} lower-bound-holds={f['lower_bound_holds']}\n"
            )
        for r in shuffle_results:
            status = "PASS" if r["ok"] else "FAIL"
            out.write(f"{status:7s} edge-order-shuffle  {r['graph']}\n")
        out.write(f"overall: {'ok' if ok else 'FAILED'}\n")
    return 0 if ok else 1


def _connected_unit_graphs(max_vertices: int):
    for n in range(1, max_vertices + 1):
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = [all_edges[k] for k in range(len(all_edges)) if mask >> k & 1]
            graph = graph_from_weights([1] * n, edges)
            if len(state_profile(graph, (1 << graph.m) - 1).blocks) == 1:
                yield graph


def cmd_scan_c6(args: argparse.Namespace, out) -> int:
    from .lescheck import c6_finding, cached_table

    # every scanned graph is a subgraph of this one
    check_bounds(complete_graph([1] * args.max_vertices), args)
    findings = []
    violations = []
    tables: dict = {}  # canonical form, or a capped graph itself -> its first table
    for graph in _connected_unit_graphs(args.max_vertices):
        form = canonical_form(graph) or graph
        table = tables[form] = tables.get(form) or cached_table(graph)
        finding = {**c6_finding(graph, table), "edges": graph.m}
        s0 = finding["span0"]
        if graph.m >= 1 and (s0 is None or s0 > graph.n - 1):
            raise AssertionError(f"span bound theorem violated on {graph.serialize()}")
        findings.append(finding)
        if not finding["lower_bound_holds"]:
            violations.append(finding)
    if args.format == "json":
        out.write(json.dumps(
            {"command": "scan-c6", "findings": findings,
             "lower_bound_violations": violations},
            sort_keys=True))
        out.write("\n")
    else:
        for f in findings:
            out.write(
                f"n={f['vertices']} m={f['edges']} blocks={f['blocks']} "
                f"span0={f['span0']} lower-bound-holds={f['lower_bound_holds']}\n"
            )
        out.write(
            f"scanned {len(findings)} graphs; "
            f"{len(violations)} lower-bound findings to report\n"
        )
    return 0


def _expected_segment_cells():
    return {
        (0, 0): {(2, 1): 1},
        (0, 1): {(1, 1, 1): 1},
        (1, 2): {(1, 1, 1): 1},
    }


def cmd_selftest(args: argparse.Namespace, out) -> int:
    from .homology import frobenius_series
    from .lescheck import cached_table, solve_quotient_from_row, verify_les
    from .symfunc import csf_state_sum

    checks = []

    segment = graph_from_weights([1, 2], [(0, 1)])
    loop = graph_from_weights([2], [(0, 0)])
    p3 = path_graph([1, 1, 1])
    for graph in (segment, loop, p3):
        check_bounds(graph, args)
    table = cached_table(segment)
    checks.append(("weighted segment homology table",
                   table.cells == _expected_segment_cells()))
    checks.append(("weighted segment Frobenius series",
                   frobenius_series(table).text()
                   == "s[2,1] - (q + q^2*t)*s[1,1,1]"))

    x = csf_state_sum(segment)
    checks.append(("weighted segment state sum",
                   x.text() == "-p[3] + p[2,1]"))
    checks.append(("loop graph vanishing", csf_state_sum(loop).is_zero()
                   and not cached_table(loop).cells))

    t3 = cached_table(p3)
    expected_p3 = {
        (0, 0): {(1, 1, 1): 1},
        (1, 1): {(2, 1): 1, (1, 1, 1): 2},
        (2, 2): {(1, 1, 1): 1},
    }
    checks.append(("three-vertex path homology table", t3.cells == expected_p3))

    report = verify_les(p3, 0)
    checks.append(("deletion-contraction rows exact", True))  # verify_les raised otherwise
    solved = {}
    for j, nodes in report.rows.items():
        for i, mults in solve_quotient_from_row(nodes).items():
            if mults:
                solved[(i, j)] = mults
    checks.append(("rows solve to the contracted segment table",
                   solved == _expected_segment_cells()))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        out.write(f"{'PASS' if ok else 'FAIL'}  {name}\n")
    out.write(f"selftest: {len(checks) - len(failed)}/{len(checks)} passed\n")
    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromhom",
        description="Exact weighted chromatic symmetric homology engine",
        epilog="exit status: 0 ok; 1 a failed engine check or verify; "
               "2 bad input or a refused size",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inputs="+"):
        if inputs:
            p.add_argument("inputs", nargs=inputs, help="graph document file(s)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-weight", type=int, default=7)
        p.add_argument("--max-edges", type=int, default=8)
        p.add_argument("--force", action="store_true",
                       help="lift --max-weight and --max-edges up to a total "
                            "weight of sys.maxsize (a refused size exits with status 2)")

    p = sub.add_parser("csf", help="weighted chromatic symmetric function")
    common(p)
    p.add_argument("--oracle-check", type=int, default=None, metavar="K",
                   help="also verify against proper colorings with up to K colors "
                        "(colorings with more colors than the total weight N "
                        "are certified by the check at N)")

    p = sub.add_parser("homology", help="homology table and Frobenius series")
    common(p)
    p.add_argument("--dump-matrices", default=None, metavar="DIR",
                   help="write differential matrices as coordinate triples")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the cache misses (hits are "
                        "served without a pool)")

    p = sub.add_parser("les", help="deletion-contraction long exact sequence")
    common(p, inputs=None)
    p.add_argument("inputs", nargs=1, help="graph document file")
    p.add_argument("--edge", type=int, required=True)

    p = sub.add_parser("verify", help="structure-theorem suite")
    common(p)
    p.add_argument("--shuffles", type=int, default=0,
                   help="also check edge-order invariance with K random shuffles")

    p = sub.add_parser("scan-c6", help="empirical span lower-bound scan")
    common(p, inputs=None)
    p.add_argument("--max-vertices", type=int, default=4)

    p = sub.add_parser("selftest", help="golden examples")
    common(p, inputs=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    for name, least in LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            refuse(f"--{name.replace('_', '-')} {value} must be at least {least}")
    out = sys.stdout
    handlers = {
        "csf": cmd_csf,
        "homology": cmd_homology,
        "les": cmd_les,
        "verify": cmd_verify,
        "scan-c6": cmd_scan_c6,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args, out)
    except AssertionError as exc:
        print(f"ASSERTION FAILURE: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
