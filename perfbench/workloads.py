"""Workloads of the chromhom benchmark and the correctness gate on outputs.

A workload is a list of jobs; each job is one ``chromhom`` invocation.  The
seed fixes the job order of every workload and the graphs of
``batch-small``; the program receives only the generated graph documents.
"""

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Job:
    """One CLI invocation: ``chromhom <command> --format json ... <graphs>``."""

    key: str  # stable name; golden digests are stored under it
    command: str  # "homology" or "les"
    graphs: list[str]  # graph names, in input order
    extra: list[str] = field(default_factory=list)
    workers: int = 1  # value of --jobs
    cached: bool = False  # pass --cache-dir (homology only)

    @property
    def ops(self) -> int:
        """Results the job produces: one per input graph."""
        return len(self.graphs)

    def argv(self, graph_dir: Path, cache_dir: Path | None,
             workers: int | None = None) -> list[str]:
        workers = self.workers if workers is None else workers
        args = [self.command, "--format", "json", *self.extra]
        if workers > 1:
            args += ["--jobs", str(workers)]
        if self.cached:
            args += ["--cache-dir", str(cache_dir)]
        return args + [str(graph_dir / f"{name}.json") for name in self.graphs]


@dataclass
class Workload:
    name: str
    graphs: dict[str, dict]  # name -> graph document
    jobs: list[Job]

    @property
    def cached(self) -> bool:
        return any(job.cached for job in self.jobs)

    def write_graphs(self, graph_dir: Path) -> list[Path]:
        graph_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, doc in self.graphs.items():
            path = graph_dir / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(path)
        return paths


def graph_doc(weights, edges, order=None) -> dict:
    """Graph document with vertices v0.. listed in `order`."""
    order = list(range(len(weights))) if order is None else order
    return {
        "vertices": [{"id": f"v{v}", "weight": weights[v]} for v in order],
        "edges": [[f"v{u}", f"v{v}"] for u, v in edges],
    }


FIXED_GRAPHS = {
    "P4(1,2,2,1)": graph_doc([1, 2, 2, 1], [(0, 1), (1, 2), (2, 3)]),
    "K3(2,2,2)": graph_doc([2, 2, 2], [(0, 1), (0, 2), (1, 2)]),
    "C4(1,1,1,2)": graph_doc([1, 1, 1, 2], [(0, 1), (1, 2), (2, 3), (3, 0)]),
}


def homology_w6(seed: int) -> Workload:
    names = ["P4(1,2,2,1)", "K3(2,2,2)"]
    random.Random(seed).shuffle(names)
    jobs = [Job(f"homology {n}", "homology", [n], cached=True) for n in names]
    return Workload("homology-w6", {n: FIXED_GRAPHS[n] for n in names}, jobs)


def les_c4(seed: int) -> Workload:
    name = "C4(1,1,1,2)"
    edges = list(range(4))
    random.Random(seed).shuffle(edges)
    jobs = [
        Job(f"les {name} edge {e}", "les", [name], extra=["--edge", str(e)])
        for e in edges
    ]
    return Workload("les-c4", {name: FIXED_GRAPHS[name]}, jobs)


def connected_graphs(max_vertices: int):
    """Every connected simple graph on vertices 0..n-1, n <= max_vertices.

    Yields (n, edges); there are 44 for max_vertices = 4.
    """
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            root = list(range(n))

            def find(x):
                while root[x] != x:
                    x = root[x]
                return x

            for u, v in edges:
                root[find(u)] = find(v)
            if len({find(v) for v in range(n)}) == 1:
                yield n, edges


# vertex weights per graph size: total 5 up to 3 vertices; unit weights on
# 4, because one extra unit on each of those makes the batch 9 times slower
WEIGHTS = {1: (5,), 2: (2, 3), 3: (1, 2, 2), 4: (1, 1, 1, 1)}


def batch_small(seed: int) -> Workload:
    """The 44 connected graphs on at most 4 vertices, total weight <= 5.

    The seed picks, per graph, which vertex gets which of the weights in
    ``WEIGHTS``, the vertex order of its document, and the edge order and
    orientation.  The weight multiset of each graph and the input order
    are fixed, so the work changes little from seed to seed.
    """
    rng = random.Random(seed)
    graphs = {}
    for k, (n, edges) in enumerate(connected_graphs(4)):
        weights = rng.sample(WEIGHTS[n], n)
        order = rng.sample(range(n), n)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        graphs[f"g{k:02d}"] = graph_doc(weights, edges, order)
    # the input order stays fixed: it sets how the pool balances its load
    job = Job("homology batch", "homology", list(graphs), workers=2,
              cached=True)
    return Workload("batch-small", graphs, [job])


WORKLOADS = {
    "homology-w6": homology_w6,
    "les-c4": les_c4,
    "batch-small": batch_small,
}


class Checker:
    """Counts the results of a job's stdout that are wrong.

    A job whose key has a golden digest must reproduce the digest byte for
    byte.  Other ``homology`` results must satisfy the categorification
    identity: the Frobenius series at q = t = 1 equals the Schur expansion
    of the weighted chromatic symmetric function of the input graph.
    """

    def __init__(self, workload: Workload, golden: dict | None = None):
        if golden is None:
            golden = json.loads(GOLDEN_PATH.read_text())["digests"]
        if str(SRC) not in sys.path:  # the reference values come from chromhom
            sys.path.insert(0, str(SRC))
        self.workload = workload
        self.golden = golden
        self._expected: dict = {}

    def failed_ops(self, job: Job, stdout: bytes) -> int:
        digest = self.golden.get(job.key)
        if digest is not None:
            ok = hashlib.sha256(stdout).hexdigest() == digest
            return 0 if ok else job.ops
        if job.command != "homology":
            raise ValueError(f"no golden digest for job {job.key!r}")
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError, TypeError):
            return job.ops
        if len(results) != job.ops:
            return job.ops
        return sum(
            not self._categorifies(name, result)
            for name, result in zip(job.graphs, results)
        )

    def _categorifies(self, name: str, result) -> bool:
        graph_text, expected = self._expected_for(name)
        try:
            if result["graph"] != graph_text:
                return False
            got: dict = {}
            for cell in result["table"]["homology"]:
                sign = -1 if (cell["i"] + cell["j"]) % 2 else 1
                for lam, mult in cell["irreducibles"]:
                    lam = tuple(lam)
                    got[lam] = got.get(lam, 0) + sign * mult
        except (KeyError, TypeError, ValueError):
            return False
        return {lam: c for lam, c in got.items() if c} == expected

    def _expected_for(self, name: str):
        if name not in self._expected:
            from chromhom.graphs import build_graph
            from chromhom.symfunc import basis_convert, csf_state_sum

            graph = build_graph(self.workload.graphs[name])
            schur = basis_convert(csf_state_sum(graph), "s").dict()
            self._expected[name] = (graph.serialize(), schur)
        return self._expected[name]
