import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chromhom
from chromhom import cli
from chromhom.cli import main, make_parser
from chromhom.graphs import (
    build_graph,
    disjoint_union,
    graph_from_weights,
    path_graph,
    single_vertex,
)

from corpus import CORPUS
from oracles import scale_kernel


SEGMENT_DOC = {
    "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 2}],
    "edges": [["a", "b"]],
}

P3_YAML = """\
vertices:
  - {id: a, weight: 1}
  - {id: b, weight: 1}
  - {id: c, weight: 1}
edges:
  - [a, b]
  - [b, c]
"""

P3_RELABELLED = {  # P3 with other ids, vertex order, edge order and orientations
    "vertices": [{"id": "q", "weight": 1}, {"id": "r", "weight": 1},
                 {"id": "p", "weight": 1}],
    "edges": [["r", "q"], ["q", "p"]],
}


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    path.write_text(json.dumps(SEGMENT_DOC))
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "p3.yaml"
    path.write_text(P3_YAML)
    return str(path)


@pytest.fixture
def relabelled_path_file(tmp_path):
    path = tmp_path / "p3_relabelled.json"
    path.write_text(json.dumps(P3_RELABELLED))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_csf_text(capsys, segment_file):
    code, out = run_cli(capsys, ["csf", segment_file, "--oracle-check", "3"])
    assert code == 0
    assert "X (power sums) = -p[3] + p[2,1]" in out
    assert "X (Schur)      = s[2,1] - 2 * s[1,1,1]" in out
    assert "ok" in out


def test_csf_loop_graph(capsys, tmp_path):
    doc = {"vertices": [{"id": "v", "weight": 2}], "edges": [["v", "v"]]}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["csf", str(path)])
    assert code == 0
    assert "X (power sums) = 0" in out


def test_csf_oracle_check_stops_at_the_total_weight(capsys, monkeypatch, segment_file):
    """`--oracle-check K` checks k = 1 .. min(K, N), N = 3 the total weight:
    agreement in N variables certifies every k, and the report names K."""
    from chromhom import symfunc

    seen, check = [], symfunc.check_csf_oracle
    monkeypatch.setattr(symfunc, "check_csf_oracle",
                        lambda graph, k: seen.append(k) or check(graph, k))
    for colors, checked in ((2, [1, 2]), (3, [1, 2, 3]), (1000, [1, 2, 3])):
        seen.clear()
        code, out = run_cli(capsys, ["csf", segment_file, "--format", "json",
                                     "--oracle-check", str(colors)])
        assert code == 0 and seen == checked
        [doc] = json.loads(out)["results"]
        assert doc["oracle_check"] == {"colors_up_to": colors, "ok": True}
    code, out = run_cli(capsys, ["csf", segment_file, "--oracle-check", "1000"])
    assert "coloring oracle agreement (k <= 1000): ok" in out


def test_homology_text(capsys, segment_file):
    code, out = run_cli(capsys, ["homology", segment_file])
    assert code == 0
    assert "H[0,0] = S[2,1]" in out
    assert "Frobenius series: s[2,1] - (q + q^2*t)*s[1,1,1]" in out


def test_homology_json(capsys, segment_file):
    code, out = run_cli(capsys, ["homology", segment_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "homology"
    table = doc["results"][0]["table"]
    assert table["homology"][0]["irreducibles"] == [[[2, 1], 1]]


def test_determinism(capsys, segment_file, path_file):
    _, out1 = run_cli(capsys, ["homology", segment_file, path_file])
    _, out2 = run_cli(capsys, ["homology", segment_file, path_file])
    assert out1 == out2


def test_cache_transparency(capsys, tmp_path, segment_file):
    cache = str(tmp_path / "cache")
    _, cold = run_cli(capsys, ["homology", segment_file, "--cache-dir", cache])
    assert len(os.listdir(cache)) == 1
    _, warm = run_cli(capsys, ["homology", segment_file, "--cache-dir", cache])
    _, plain = run_cli(capsys, ["homology", segment_file])
    assert cold == warm == plain


def test_cache_env_var(capsys, tmp_path, segment_file, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("CHROMHOM_CACHE_DIR", cache)
    run_cli(capsys, ["homology", segment_file])
    assert os.listdir(cache)


def test_les_command(capsys, path_file):
    code, out = run_cli(capsys, ["les", path_file, "--edge", "0"])
    assert code == 0
    assert "all rows exact: True" in out
    assert "H[0,0](contracted) dim=2 S[2,1]" in out


def test_failed_les_check_is_one_stderr_line(capsys, monkeypatch, path_file):
    """A failed LES check exits 1 with one stderr line naming the graph,
    the edge and the node, and writes nothing to stdout."""
    from chromhom import lescheck

    original = lescheck.build_ses_maps

    def faulty(graph, e):
        inclusion, projection = original(graph, e)
        inclusion.mats[(1, 1)].cols[0] = {}  # after build_ses_maps
        return inclusion, projection

    monkeypatch.setattr(lescheck, "build_ses_maps", faulty)
    code = main(["les", path_file, "--edge", "0"])
    captured = capsys.readouterr()
    graph = cli.load_graph_document(path_file).serialize()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        f"ASSERTION FAILURE: LES of {graph} edge 0 at (contracted, i=1, j=1): "
        "boundary of a lift touches e-states\n"
    )


def test_failed_snake_check_is_one_stderr_line(capsys, monkeypatch, path_file):
    """Per-edge maps that disagree with the zig-zag fail `les` at the Lift
    identity: exit 1, nothing on stdout, one stderr line naming the
    contracted node."""
    from chromhom import lescheck

    original = lescheck.per_edge_map

    def doubled(graph, mask, e):
        return scale_kernel(original(graph, mask, e), 2)

    monkeypatch.setattr(lescheck, "per_edge_map", doubled)
    code = main(["les", path_file, "--edge", "0"])
    captured = capsys.readouterr()
    graph = cli.load_graph_document(path_file).serialize()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        f"ASSERTION FAILURE: LES of {graph} edge 0 at (contracted, i=1, j=0): "
        "boundary of a lift touches e-states\n"
    )


def test_failed_rank_check_names_the_graph(capsys, monkeypatch, segment_file):
    """A rank that the echelon form contradicts fails `homology`: exit 1,
    nothing on stdout, one stderr line naming the bidegree and the graph."""
    from chromhom import homology

    rank = homology.rank_forward
    monkeypatch.setattr(homology, "rank_forward", lambda mat: rank(mat) + 1)
    code = main(["homology", segment_file])
    captured = capsys.readouterr()
    graph = cli.load_graph_document(segment_file).serialize()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        f"ASSERTION FAILURE: rank computations disagree at (i=1, j=0) of {graph}\n"
    )


def test_les_bad_edge(capsys, path_file):
    with pytest.raises(SystemExit):
        main(["les", path_file, "--edge", "7"])


def test_verify_command(capsys, segment_file, path_file):
    code, out = run_cli(
        capsys, ["verify", segment_file, path_file, "--shuffles", "2"]
    )
    assert code == 0
    assert "overall: ok" in out
    assert "edge-order-shuffle" in out


def test_verify_shuffles_compute_each_shuffled_graph(capsys, tmp_path, path_file,
                                                     monkeypatch):
    """`verify --shuffles` compares tables of the same graph under other edge
    orders, so each shuffled graph's table is computed, never looked up
    by isomorphism class."""
    from chromhom import lescheck

    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({"vertices": [{"id": v, "weight": 1} for v in "xyz"],
                              "edges": [["x", "y"], ["y", "z"], ["z", "x"]]}))
    tabled = []
    table = lescheck.homology_table

    def recorded(cx):
        tabled.append(cx.graph)
        return table(cx)

    monkeypatch.setattr(lescheck, "homology_table", recorded)
    lescheck.cached_table.cache_clear()
    code, out = run_cli(capsys, ["verify", path_file, str(k3), "--shuffles", "2",
                                 "--format", "json"])
    assert code == 0
    shuffles = json.loads(out)["shuffles"]
    assert len(shuffles) == 4 and any(r["order"] != sorted(r["order"]) for r in shuffles)
    assert all(build_graph(json.loads(r["graph"])).with_edge_order(tuple(r["order"]))
               in tabled for r in shuffles)


def test_scan_c6(capsys):
    code, out = run_cli(capsys, ["scan-c6", "--max-vertices", "3"])
    assert code == 0
    assert "scanned 6 graphs" in out
    assert "0 lower-bound findings" in out


def test_scan_c6_builds_one_table_per_isomorphism_class(capsys, monkeypatch):
    """The 44 connected labelled unit graphs on at most 4 vertices fall into
    10 isomorphism classes: 10 tables are built, and the findings, still one
    per labelled graph, are those of a table built for each graph."""
    from chromhom import lescheck

    built = []
    table = lescheck.cached_table

    def counted(graph):
        built.append(graph)
        return table(graph)

    monkeypatch.setattr(lescheck, "cached_table", counted)
    code, out = run_cli(capsys, ["scan-c6", "--max-vertices", "4"])
    assert code == 0 and len(built) == 10
    assert "scanned 44 graphs; 0 lower-bound findings" in out
    monkeypatch.setattr(cli, "canonical_form", lambda graph: None)  # no classes
    assert run_cli(capsys, ["scan-c6", "--max-vertices", "4"]) == (0, out)
    assert len(built) == 10 + 44


CLI_DIGESTS = json.loads((Path(__file__).parent / "cli_digests.json").read_text())
UNIONS = [  # disconnected, with isolated vertices, a loop, a parallel edge
    disjoint_union(path_graph([1, 1]), single_vertex(1)),
    disjoint_union(path_graph([1, 1]), path_graph([1, 1])),
    disjoint_union(disjoint_union(single_vertex(2), path_graph([1, 2])), single_vertex(1)),
    graph_from_weights([1, 1, 1], [(0, 1), (1, 1)]),
    graph_from_weights([1, 1, 1], [(0, 1), (0, 1)]),
]


@pytest.mark.parametrize("argv", ["verify --format json CORPUS",
                                  "verify --format json UNIONS",
                                  "scan-c6 --format json --max-vertices 4"],
                         ids=["verify-corpus", "verify-unions", "scan-c6"])
def test_structure_outputs_keep_their_digests(capsys, tmp_path, argv):
    """`verify` over the corpus and over disconnected graphs, and `scan-c6`,
    print the bytes whose sha256 cli_digests.json records."""
    graph_sets = {"CORPUS": [g for _, g in CORPUS], "UNIONS": UNIONS}
    args = []
    for word in argv.split():
        if word not in graph_sets:
            args.append(word)
            continue
        for k, graph in enumerate(graph_sets[word]):
            path = tmp_path / f"{word}{k}.json"
            path.write_text(graph.serialize())
            args.append(str(path))
    code, out = run_cli(capsys, args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[argv]


@pytest.mark.parametrize("edge", range(4))
def test_les_text_keeps_its_digests(capsys, tmp_path, edge):
    """`les --format text` on each edge of C4(1,1,1,2), with the rank in
    and out of every node, prints the bytes whose sha256 cli_digests.json
    records."""
    path = tmp_path / "c4.json"
    path.write_text(dict(CORPUS)["C4(1,1,1,2)"].serialize())
    key = f"les --format text C4(1,1,1,2) --edge {edge}"
    code, out = run_cli(capsys, ["les", str(path), "--format", "text", "--edge", str(edge)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[key]


def test_selftest(capsys):
    code, out = run_cli(capsys, ["selftest"])
    assert code == 0
    assert "selftest: 7/7 passed" in out


def test_bounds_rejected_without_force(capsys, tmp_path):
    doc = {"vertices": [{"id": "a", "weight": 9}], "edges": []}
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit):
        main(["csf", str(path)])
    # csf itself has no factorial blowup once acknowledged
    code, _ = run_cli(capsys, ["csf", str(path), "--force"])
    assert code == 0


@pytest.mark.parametrize("argv", [["homology"], ["les", "--edge", "0"]],
                         ids=["homology", "les"])
def test_force_keeps_the_maxsize_bound(capsys, tmp_path, argv):
    """--force lifts --max-weight, but a total weight above sys.maxsize, the
    length no range of points can have, is refused: one stderr line, exit
    2, nothing on stdout."""
    doc = {"vertices": [{"id": "a", "weight": 10 ** 20}, {"id": "b", "weight": 1}],
           "edges": [["a", "b"]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path), "--force"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"chromhom: error: total weight {10 ** 20 + 1} exceeds {sys.maxsize} "
        "even with --force"]


def test_matrix_dump(capsys, tmp_path, segment_file):
    dump = str(tmp_path / "mats")
    code, _ = run_cli(capsys, ["homology", segment_file, "--dump-matrices", dump])
    assert code == 0
    files = sorted(os.listdir(dump))
    assert any("d_1_0" in f for f in files)


P4_1221_DOC = {
    "vertices": [{"id": v, "weight": w} for v, w in zip("abcd", (1, 2, 2, 1))],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
}


def test_matrix_dump_golden(capsys, tmp_path):
    """The 15 dumped differentials of P4(1,2,2,1), with denominators 2 to
    5, hash as before the differentials were stored over D_N: sha256 of
    each file name and its bytes, in name order, each followed by NUL."""
    path, dump = tmp_path / "p4.json", tmp_path / "mats"
    path.write_text(json.dumps(P4_1221_DOC))
    code, _ = run_cli(capsys, ["homology", str(path), "--dump-matrices", str(dump)])
    assert code == 0
    digest = hashlib.sha256()
    names = sorted(os.listdir(dump))
    for name in names:
        digest.update(name.encode() + b"\0" + (dump / name).read_bytes() + b"\0")
    dens = {int(line.split("/")[1]) for name in names
            for line in (dump / name).read_text().splitlines() if "/" in line}
    assert (len(names), dens) == (15, {2, 3, 4, 5})
    assert digest.hexdigest() == (
        "2c523c505a92dbd1f32103b458feea6828381371cd429861966008621b9e4ae7")


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args(["bogus"])


def test_jobs_fan_out(capsys, segment_file, path_file):
    _, serial = run_cli(capsys, ["homology", segment_file, path_file])
    _, parallel = run_cli(
        capsys, ["homology", segment_file, path_file, "--jobs", "2"]
    )
    assert serial == parallel


class InProcessPool:
    """Stands in for `ProcessPoolExecutor`: records each pool size asked for
    and maps in this process."""

    asked: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


@pytest.fixture
def in_process_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(InProcessPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool.asked


def test_jobs_pool_is_capped_at_the_inputs(capsys, segment_file, path_file,
                                           in_process_pool):
    _, out = run_cli(
        capsys, ["homology", segment_file, path_file, "--jobs", "6"]
    )
    assert in_process_pool == [2]
    assert out == run_cli(capsys, ["homology", segment_file, path_file])[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_all_hit_run_starts_no_pool(capsys, tmp_path, segment_file, path_file,
                                    monkeypatch, fmt):
    """Every input a hit: the parent serves them all, with no pool even
    under --jobs 2, and prints the cold run's bytes."""
    import concurrent.futures

    argv = ["homology", segment_file, path_file, "--format", fmt,
            "--cache-dir", str(tmp_path / "cache")]
    _, cold = run_cli(capsys, argv)

    def no_pool(*args, **kwargs):
        raise AssertionError("an all-hit run must not start a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, warm = run_cli(capsys, [*argv, "--jobs", "2"])
    assert code == 0
    assert warm == cold


def test_pool_is_sized_by_the_misses(capsys, tmp_path, segment_file, path_file,
                                     in_process_pool):
    """One hit between two misses under --jobs 6: a pool of 2 computes the
    misses, and the results print in input order."""
    third = tmp_path / "k3.json"
    third.write_text(json.dumps({
        "vertices": [{"id": v, "weight": 1} for v in "xyz"],
        "edges": [["x", "y"], ["y", "z"], ["z", "x"]]}))
    inputs = [segment_file, path_file, str(third)]
    cache = str(tmp_path / "cache")
    run_cli(capsys, ["homology", path_file, "--cache-dir", cache])
    code, mixed = run_cli(capsys, ["homology", *inputs, "--cache-dir", cache,
                                   "--jobs", "6"])
    assert code == 0
    assert in_process_pool == [2]
    assert mixed == run_cli(capsys, ["homology", *inputs])[1]


def test_isomorphic_misses_share_one_engine_run(capsys, tmp_path, segment_file,
                                                path_file, relabelled_path_file,
                                                in_process_pool, monkeypatch):
    """Two isomorphic inputs and one other under --jobs 6: a pool of 2 runs
    `homology_payload` on the first of each class only, stdout is the
    single-input runs' bytes, and every input gets the entry its own cold
    run writes, so a re-run is all hits and starts no pool.  A
    single-input run computes no canonical form."""
    import concurrent.futures

    computed, formed = [], []
    payload, form = cli.homology_payload, cli.canonical_form
    monkeypatch.setattr(cli, "canonical_form", lambda g: formed.append(g) or form(g))
    inputs = [path_file, segment_file, relabelled_path_file]
    singles, alone = "", tmp_path / "alone"
    for f in inputs:
        singles += run_cli(capsys, ["homology", f, "--cache-dir", str(alone)])[1]
    assert formed == []

    def recorded(graph, args):
        computed.append(graph)
        return payload(graph, args)

    monkeypatch.setattr(cli, "homology_payload", recorded)
    cache = tmp_path / "cache"
    argv = ["homology", *inputs, "--cache-dir", str(cache), "--jobs", "6"]
    assert run_cli(capsys, argv) == (0, singles)
    assert in_process_pool == [2]
    assert computed == [cli.load_graph_document(f) for f in inputs[:2]]
    assert ({f.name: f.read_bytes() for f in cache.iterdir()}
            == {f.name: f.read_bytes() for f in alone.iterdir()})
    assert len(list(cache.iterdir())) == 3

    def no_pool(*args, **kwargs):
        raise AssertionError("an all-hit run must not start a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_cli(capsys, argv) == (0, singles)
    assert len(computed) == 2


@pytest.mark.parametrize("first_bad", ["member", "worker"])
def test_refusal_order_holds_for_isomorphic_members(capsys, tmp_path, segment_file,
                                                    path_file, relabelled_path_file,
                                                    in_process_pool, first_bad):
    """An isomorphic member's entry is written by the parent; when it and a
    computed input's entry both cannot be written, the first in input order
    is refused, as when each input was computed."""
    inputs = ([path_file, relabelled_path_file, segment_file] if first_bad == "member"
              else [segment_file, path_file, relabelled_path_file])
    cache = tmp_path / "cache"
    bad = [cache / f"{cli._graph_key(cli.load_graph_document(f))}.json"
           for f in (relabelled_path_file, segment_file)]
    for entry in bad:
        entry.mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        main(["homology", *inputs, "--cache-dir", str(cache), "--jobs", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = bad[0] if first_bad == "member" else bad[1]
    assert captured.err.splitlines() == [
        f"chromhom: error: cache entry {first}: Is a directory"]


def test_each_entry_is_read_once_in_the_parent(capsys, tmp_path, segment_file,
                                              path_file, monkeypatch):
    """Cold, mixed and all-hit runs under --jobs 2 read each input's entry
    exactly once, in this process, never in a pool worker."""
    cache = tmp_path / "cache"
    reads = []
    read = cli._cache_read

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_cache_read", counted)
    argv = ["homology", segment_file, path_file, "--cache-dir", str(cache),
            "--jobs", "2"]
    entries = sorted(
        str(cache / f"{cli._graph_key(cli.load_graph_document(f))}.json")
        for f in (segment_file, path_file))
    for removed in (None, entries[0], None):  # cold, mixed, all-hit
        if removed:
            os.unlink(removed)
        reads.clear()
        assert run_cli(capsys, argv)[0] == 0
        assert sorted(reads) == entries


SRC = os.path.dirname(os.path.dirname(chromhom.__file__))


def heavy_doc(weight):
    return json.dumps({"vertices": [{"id": "a", "weight": weight}], "edges": []})


FAILURES = [
    # (case, document or None for a missing file, command with {path} and
    # {dump}, a directory where the segment's d_{1,0} file is a directory)
    ("weight-zero", '{"vertices": [{"id": "a", "weight": 0}]}', "homology {path}"),
    ("vertex-without-id", '{"vertices": [{"weight": 1}]}', "homology {path}"),
    ("vertex-not-a-mapping", '{"vertices": [5]}', "homology {path}"),
    ("list-id", '{"vertices": [{"id": ["x"], "weight": 1}, {"id": "y", "weight": 1}], '
     '"edges": [[["x"], "y"]]}', "homology {path}"),
    ("mapping-id", '{"vertices": [{"id": {"a": 1}, "weight": 1}]}', "homology {path}"),
    ("yaml-set-id", "vertices: [{id: !!set {x: null}, weight: 1}]", "homology {path}"),
    ("list-endpoint", '{"vertices": [{"id": "[\'x\']", "weight": 1}, {"id": "y", "weight": 1}], '
     '"edges": [[["x"], "y"]]}', "homology {path}"),
    ("boolean-weight", '{"vertices": [{"id": "a", "weight": true}]}', "csf {path}"),
    ("missing-file", None, "homology {path}"),
    ("truncated-json", '{"vertices": [', "homology {path}"),
    ("bad-yaml", "vertices: [a\n  b: {c", "verify {path}"),
    ("too-deep", "[" * 100_000 + "]" * 100_000, "homology {path}"),
    ("refused-weight", heavy_doc(9), "homology {path}"),
    ("refused-scan", None, "scan-c6 --max-vertices 8"),
    ("bad-edge", json.dumps(SEGMENT_DOC), "les {path} --edge 1"),
    ("cache-dir-is-a-file", json.dumps(SEGMENT_DOC),
     "homology {path} --cache-dir {path}"),
    ("dump-dir-is-a-file", json.dumps(SEGMENT_DOC),
     "homology {path} --dump-matrices {path}"),
    ("dump-dir-under-a-file", json.dumps(SEGMENT_DOC),
     "homology {path} --dump-matrices {path}/sub"),
    ("dump-file-is-a-directory", json.dumps(SEGMENT_DOC),
     "homology {path} --dump-matrices {dump}"),
    ("oracle-check-zero", json.dumps(SEGMENT_DOC), "csf {path} --oracle-check 0"),
    ("oracle-check-negative", json.dumps(SEGMENT_DOC),
     "csf {path} --oracle-check -1"),
    ("jobs-zero", json.dumps(SEGMENT_DOC), "homology {path} --jobs 0"),
    ("jobs-negative", json.dumps(SEGMENT_DOC), "homology {path} --jobs -1"),
    ("shuffles-negative", json.dumps(SEGMENT_DOC), "verify {path} --shuffles -1"),
    ("max-vertices-negative", None, "scan-c6 --max-vertices -2"),
]


def run_module(argv):
    """`python -m chromhom.cli` in a fresh process, as a user runs it, so
    `--jobs 2` starts real pool workers and exit statuses are real."""
    return subprocess.run(
        [sys.executable, "-m", "chromhom.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )


@pytest.mark.parametrize(
    "doc,command", [f[1:] for f in FAILURES], ids=[f[0] for f in FAILURES]
)
def test_failure_paths_exit_2_with_one_line(tmp_path, doc, command):
    path = tmp_path / "graph.json"
    if doc is not None:
        path.write_text(doc)
    dump = tmp_path / "dump"
    key = cli._graph_key(build_graph(SEGMENT_DOC))
    (dump / f"{key[:12]}_d_1_0.txt").mkdir(parents=True)
    proc = run_module(command.format(path=path, dump=dump).split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("weight,argv,expected", [
    (8, ["homology", "--max-weight", "8"], "H[0,7] = S[1,1,1,1,1,1,1,1]"),
    (9, ["homology", "--force"], "H[0,8] = S[1,1,1,1,1,1,1,1,1]"),
    (9, ["csf", "--max-weight", "9"], "+ s[1,1,1,1,1,1,1,1,1]"),
])
def test_lifted_limits_reach_the_engine(capsys, tmp_path, weight, argv, expected):
    path = tmp_path / "heavy.json"
    path.write_text(heavy_doc(weight))
    code, out = run_cli(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 0
    assert expected in out


def json_containers(inner):
    keys = st.sampled_from(["id", "weight", "x"]) | st.text(max_size=2)
    return st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3)


JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.sampled_from(["a", "b", 1]) | st.text(max_size=3),
    json_containers,
    max_leaves=8,
)
VERTEX = st.fixed_dictionaries({}, optional={"id": JSON_LIKE, "weight": JSON_LIKE})
DOCS = JSON_LIKE | st.fixed_dictionaries({}, optional={
    "vertices": st.lists(VERTEX | JSON_LIKE, max_size=3) | JSON_LIKE,
    "edges": st.lists(st.lists(JSON_LIKE, max_size=3) | JSON_LIKE, max_size=3)
    | JSON_LIKE,
})


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_build_graph_returns_a_graph_or_raises_value_error(doc):
    try:
        graph = build_graph(doc)
    except ValueError as exc:
        assert len(str(exc).splitlines()) == 1
        return
    assert all(type(w) is int and w >= 1 for w in graph.weights)
    assert build_graph(json.loads(graph.serialize())) == graph


def other_graph_entry() -> bytes:
    """A well-formed cache entry, but for a single vertex of weight 2."""
    graph = build_graph({"vertices": [{"id": "v", "weight": 2}], "edges": []})
    payload = cli.homology_payload(
        graph, cli.make_parser().parse_args(["homology", "unread.json"]))
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("damage", [
    b'{"graph": "trunc', b"[1, 2]", b"\xff\xfe", b"{}",
    pytest.param(other_graph_entry(), id="other-graph"),
])
def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, segment_file, damage):
    cache = tmp_path / "cache"
    argv = ["homology", segment_file, "--cache-dir", str(cache)]
    _, cold = run_cli(capsys, argv)
    (entry,) = cache.iterdir()
    good = entry.read_bytes()
    entry.write_bytes(damage)
    code, again = run_cli(capsys, argv)
    assert code == 0
    assert again == cold
    assert entry.read_bytes() == good


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("damage", [
    {"table_text": 5}, {"table_text": ["H = 0", 5]}, {"table": []},
    {"frobenius": None}, {"graph": 7},
    {"graph": '{"vertices":[{"id":"v","weight":2}],"edges":[]}'},
], ids=["table-text-int", "table-text-line-int", "table-list", "frobenius-null",
        "graph-int", "graph-off-key"])
def test_damaged_cache_field_is_a_miss(capsys, tmp_path, segment_file, path_file,
                                       damage, jobs):
    """An entry under its key with a field of the wrong type, or whose graph
    does not hash to the key, is recomputed and rewritten, never served."""
    cache = tmp_path / "cache"
    argv = ["homology", segment_file, path_file, "--cache-dir", str(cache),
            "--jobs", jobs]
    _, cold = run_cli(capsys, argv)
    entries = sorted(cache.iterdir())
    good = [entry.read_bytes() for entry in entries]
    for entry in entries:
        entry.write_text(json.dumps({**json.loads(entry.read_bytes()), **damage}))
    code, again = run_cli(capsys, argv)
    assert code == 0
    assert again == cold
    assert [entry.read_bytes() for entry in entries] == good


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cache_entry_whose_fields_disagree_is_a_miss(capsys, tmp_path, fmt):
    """An entry for P3(1,2,1) with its table emptied and its text set to
    `H = 0`, each field of the right type and its graph hashing to its key,
    no longer matches its digest: it is recomputed and rewritten, never
    served."""
    graph = tmp_path / "p3.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 2},
                     {"id": "c", "weight": 1}],
        "edges": [["a", "b"], ["b", "c"]]}))
    cache = tmp_path / "cache"
    argv = ["homology", str(graph), "--cache-dir", str(cache), "--format", fmt]
    _, cold = run_cli(capsys, argv)
    (entry,) = cache.iterdir()
    good = entry.read_bytes()
    doc = json.loads(good)
    assert doc["table"]["homology"] and doc["table_text"] != ["H = 0"]
    entry.write_text(json.dumps({**doc, "table": {}, "table_text": ["H = 0"]}))
    code, again = run_cli(capsys, argv)
    assert code == 0
    assert again == cold
    assert entry.read_bytes() == good
    entry.write_text(json.dumps({k: v for k, v in doc.items() if k != "digest"}))
    assert run_cli(capsys, argv) == (0, cold)
    assert entry.read_bytes() == good


def test_matrix_dump_on_cache_hit(capsys, tmp_path, segment_file, monkeypatch):
    cache = str(tmp_path / "cache")

    def dump(name):
        target = tmp_path / name
        argv = ["homology", segment_file, "--cache-dir", cache,
                "--dump-matrices", str(target)]
        assert run_cli(capsys, argv)[0] == 0
        return {f.name: f.read_text() for f in target.iterdir()}

    cold = dump("cold")

    def no_recompute(cx):
        raise AssertionError("a cache hit must not recompute the table")

    from chromhom import homology

    monkeypatch.setattr(homology, "homology_table", no_recompute)
    assert cold and dump("warm") == cold


def test_no_complex_outlives_its_run(capsys, tmp_path, monkeypatch):
    """The caller holds each complex it builds, and nothing memoises one.
    In-process `homology` of four inputs, two of them isomorphic, with
    --dump-matrices builds one complex per input: a computed miss dumps
    from its own, and the isomorphic member, like a hit, builds one to
    dump; `verify_les` on one edge builds those of G, G\\e and G/e.  After
    each run none of them is alive."""
    import gc
    import weakref

    from chromhom import cycle_graph, verify_les
    from chromhom.complexes import ChainComplex

    built = []
    init = ChainComplex.__init__

    def recorded(self, graph):
        init(self, graph)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ChainComplex, "__init__", recorded)
    computed, payload = [], cli.homology_payload
    monkeypatch.setattr(cli, "homology_payload",
                        lambda graph, args: computed.append(graph) or payload(graph, args))

    def run(action):
        built.clear()
        action()
        gc.collect()
        return len(built), sum(ref() is not None for ref in built)

    inputs = []
    for name, weights, edges in [("segment", [1, 2], [[0, 1]]),
                                 ("p3", [1, 1, 1], [[0, 1], [1, 2]]),
                                 ("k3", [1, 1, 1], [[0, 1], [1, 2], [0, 2]]),
                                 ("p3b", [1, 1, 1], [[2, 1], [0, 2]])]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "vertices": [{"id": v, "weight": w} for v, w in enumerate(weights)],
            "edges": edges}))
        inputs.append(str(path))
    argv = ["homology", *inputs, "--cache-dir", str(tmp_path / "cache"),
            "--dump-matrices", str(tmp_path / "dump")]
    assert run(lambda: run_cli(capsys, argv)) == (4, 0)  # misses
    assert len(computed) == 3  # one per class: the dump does not split p3 and p3b
    assert len({f.name[:12] for f in (tmp_path / "dump").iterdir()}) == 4
    assert run(lambda: run_cli(capsys, argv)) == (4, 0)  # hits
    assert run(lambda: verify_les(cycle_graph([1, 1, 1, 2]), 0)) == (3, 0)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cache_entry_that_is_a_directory_exits_2(tmp_path, segment_file,
                                                 path_file, jobs):
    """A cache entry that cannot be replaced is refused on one line naming
    it, with nothing on stdout and no temporary file left behind."""
    cache = tmp_path / "cache"
    entry = cache / f"{cli._graph_key(build_graph(SEGMENT_DOC))}.json"
    entry.mkdir(parents=True)
    proc = run_module(["homology", path_file, segment_file,
                       "--cache-dir", str(cache), "--jobs", jobs])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"chromhom: error: cache entry {entry}: Is a directory"]
    assert not list(cache.glob("*.tmp"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_two_bad_cache_entries_give_one_refusal(tmp_path, segment_file,
                                                path_file, jobs):
    """With both cache entries unwritable, only the first input's is
    refused, on one line, however many workers fail."""
    cache = tmp_path / "cache"
    entries = [cache / f"{cli._graph_key(cli.load_graph_document(f))}.json"
               for f in (path_file, segment_file)]
    for entry in entries:
        entry.mkdir(parents=True)
    proc = run_module(["homology", path_file, segment_file,
                       "--cache-dir", str(cache), "--jobs", jobs])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"chromhom: error: cache entry {entries[0]}: Is a directory"]
    assert not list(cache.glob("*.tmp"))
