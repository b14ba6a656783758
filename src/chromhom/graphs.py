"""Vertex-weighted multigraphs, edge-subset states, deletion and contraction.

A graph is an ordered vertex list with positive integer weights and an
ordered edge list.  Loops and parallel edges are allowed.  The edge order
is the input list order; every sign in the chain complex and the inherited
orders under deletion/contraction derive from it.  All values here are
immutable; operations are pure.  `VertexWeightedGraph` and `State` are
`NamedTuple`s: equality, hashing and repr are those of their fields, so
graphs key the engine's memos by value.
"""

import json
from itertools import permutations, product
from math import factorial, prod
from typing import NamedTuple


class VertexWeightedGraph(NamedTuple):
    ids: tuple[str, ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # endpoint positions into `ids`

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def has_loop(self) -> bool:
        return any(self.is_loop(e) for e in range(self.m))

    def parallel_pairs(self) -> list[tuple[int, int]]:
        seen: dict[tuple[int, int], int] = {}
        pairs = []
        for e, (u, v) in enumerate(self.edges):
            key = (min(u, v), max(u, v))
            if key in seen:
                pairs.append((seen[key], e))
            else:
                seen[key] = e
        return pairs

    def with_edge_order(self, order: tuple[int, ...]) -> "VertexWeightedGraph":
        """Same graph with edges permuted: new edge k is old edge order[k]."""
        if sorted(order) != list(range(self.m)):
            raise ValueError("order must be a permutation of the edge indices")
        return VertexWeightedGraph(
            self.ids, self.weights, tuple(self.edges[k] for k in order)
        )

    def serialize(self) -> str:
        """Canonical text form; round-trips vertex and edge order exactly."""
        doc = {
            "vertices": [
                {"id": i, "weight": w} for i, w in zip(self.ids, self.weights)
            ],
            "edges": [[self.ids[u], self.ids[v]] for u, v in self.edges],
        }
        return json.dumps(doc, sort_keys=False, separators=(",", ":"))


def _vertex_id(x) -> str:
    if isinstance(x, (list, tuple, dict, set)):
        raise ValueError(f"vertex id {x!r} is not a scalar")
    return str(x)


def build_graph(description) -> VertexWeightedGraph:
    """Validate a structured graph description.

    Expected fields: ``vertices: [{id, weight}]`` and ``edges: [[id, id]]``;
    the edge array order defines the edge order.  An id or an edge endpoint
    is a scalar, read as its `str()`; a list or a mapping (a YAML set is
    one) is refused.
    Anything else raises ValueError with a one-line message.
    """
    if not isinstance(description, dict):
        raise ValueError("graph description must be a mapping")
    vertices = description.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ValueError("graph must list at least one vertex")
    ids = []
    weights = []
    for k, item in enumerate(vertices):
        if not isinstance(item, dict) or "id" not in item or "weight" not in item:
            raise ValueError(f"vertex {k} must be a mapping with an id and a weight")
        vid = _vertex_id(item["id"])
        w = item["weight"]
        if isinstance(w, bool) or not isinstance(w, int) or w < 1:
            raise ValueError(f"vertex {vid!r} has weight {w!r}; weights must be integers >= 1")
        if vid in ids:
            raise ValueError(f"duplicate vertex id {vid!r}")
        ids.append(vid)
        weights.append(w)
    pos = {vid: k for k, vid in enumerate(ids)}
    pairs = description.get("edges", [])
    if not isinstance(pairs, list):
        raise ValueError("edges must be a list of vertex id pairs")
    edges = []
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"edge {pair!r} is not a pair of vertex ids")
        u, v = _vertex_id(pair[0]), _vertex_id(pair[1])
        if u not in pos or v not in pos:
            missing = u if u not in pos else v
            raise ValueError(f"edge endpoint {missing!r} is not a declared vertex")
        edges.append((pos[u], pos[v]))
    return VertexWeightedGraph(tuple(ids), tuple(weights), tuple(edges))


def graph_from_weights(weights, edges, ids=None) -> VertexWeightedGraph:
    """Convenience builder from a weight list and index-pair edges."""
    ids = tuple(ids) if ids else tuple(f"v{k}" for k in range(len(weights)))
    return build_graph(
        {
            "vertices": [{"id": i, "weight": int(w)} for i, w in zip(ids, weights)],
            "edges": [[ids[u], ids[v]] for u, v in edges],
        }
    )


def path_graph(weights) -> VertexWeightedGraph:
    n = len(weights)
    return graph_from_weights(weights, [(k, k + 1) for k in range(n - 1)])


def cycle_graph(weights) -> VertexWeightedGraph:
    n = len(weights)
    return graph_from_weights(
        weights, [(k, k + 1) for k in range(n - 1)] + [(n - 1, 0)]
    )


def complete_graph(weights) -> VertexWeightedGraph:
    n = len(weights)
    return graph_from_weights(
        weights, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def star_graph(weights) -> VertexWeightedGraph:
    """Hub is the first vertex."""
    n = len(weights)
    return graph_from_weights(weights, [(0, k) for k in range(1, n)])


def single_vertex(weight: int, vid: str = "v0") -> VertexWeightedGraph:
    return graph_from_weights([weight], [], ids=(vid,))


def disjoint_union(a: VertexWeightedGraph, b: VertexWeightedGraph) -> VertexWeightedGraph:
    """A's vertices first (keeping ids), then B's, suffixed on collision."""
    ids = list(a.ids)
    for vid in b.ids:
        new = vid
        while new in ids:
            new = new + "'"
        ids.append(new)
    weights = a.weights + b.weights
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return VertexWeightedGraph(tuple(ids), weights, tuple(edges))


def canonical_form(g: VertexWeightedGraph):
    """Equal for two graphs exactly when they are isomorphic as weighted
    multigraphs: the sorted vertex keys (weight, degree, loops) and the least sorted
    list of sorted endpoint pairs over relabellings keeping keys sorted; None past 7!."""
    key = [(w, sum(e.count(x) for e in g.edges), g.edges.count((x, x)))
           for x, w in enumerate(g.weights)]  # a loop counts twice in the degree
    cells = [[x for x in range(g.n) if key[x] == k] for k in sorted(set(key))]
    if prod(factorial(len(cell)) for cell in cells) > factorial(7):  # n <= weight 7 fits
        return None
    relabellings = (dict(zip(sum(choice, ()), range(g.n)))  # old vertex -> new label
                    for choice in product(*map(permutations, cells)))
    return tuple(sorted(key)), min(
        tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges))
        for pos in relabellings)


def modify_edge(g: VertexWeightedGraph, e: int, mode: str) -> VertexWeightedGraph:
    """Delete or contract edge e; remaining edges keep their relative order.

    Contracting a non-loop (u, v) merges the endpoints into one vertex at
    the earlier position, with weight w(u) + w(v); edges re-target the
    merged vertex, so loops and parallel edges may appear and are kept.
    Contracting a loop just removes it.
    """
    if not 0 <= e < g.m:
        raise ValueError(f"edge index {e} out of range")
    rest = tuple(ed for k, ed in enumerate(g.edges) if k != e)
    if mode == "delete":
        return VertexWeightedGraph(g.ids, g.weights, rest)
    if mode != "contract":
        raise ValueError(f"unknown mode {mode!r}")
    u, v = g.edges[e]
    if u == v:
        return VertexWeightedGraph(g.ids, g.weights, rest)
    keep, drop = (u, v) if u < v else (v, u)
    ids = tuple(i for k, i in enumerate(g.ids) if k != drop)
    weights = tuple(
        w + g.weights[drop] if k == keep else w
        for k, w in enumerate(g.weights)
        if k != drop
    )

    def remap(x: int) -> int:
        if x == drop:
            x = keep
        return x - 1 if x > drop else x

    edges = tuple((remap(a), remap(b)) for a, b in rest)
    return VertexWeightedGraph(ids, weights, edges)


class State(NamedTuple):
    """The component data of the spanning subgraph on an edge subset F.

    `blocks` partitions the vertex positions, ordered by smallest member;
    `block_weights` are the component total weights in that order, and
    `partition` is their weakly decreasing sort (a partition of w(G)).
    The chain module of F depends only on `block_weights`, its shape.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_weights: tuple[int, ...]
    partition: tuple[int, ...]


def removal_sign(mask: int, e: int) -> int:
    """Sign (-1)^k of the cover F -> F - e, k = edges of F before e."""
    below = mask & ((1 << e) - 1)
    return -1 if below.bit_count() % 2 else 1


def state_profile(g: VertexWeightedGraph, mask: int) -> State:
    """Component blocks of the spanning subgraph with edge set `mask`."""
    if mask >> g.m:
        raise ValueError("mask has bits outside the edge range")
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in range(g.m):
        if mask >> e & 1:
            u, v = g.edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for x in range(g.n):
        groups.setdefault(find(x), []).append(x)
    blocks = tuple(tuple(groups[r]) for r in sorted(groups))
    bw = tuple(sum(g.weights[x] for x in blk) for blk in blocks)
    lam = tuple(sorted(bw, reverse=True))
    return State(blocks, bw, lam)


def level_masks(m: int, i: int) -> list[int]:
    """All edge masks with exactly i edges, ascending."""
    return [mask for mask in range(1 << m) if mask.bit_count() == i]


def induced_subgraph(g: VertexWeightedGraph, vertices) -> VertexWeightedGraph:
    """The subgraph on the vertex positions `vertices`, in that order, with
    every edge of g between two of them, in edge order and orientation."""
    pos = {x: k for k, x in enumerate(vertices)}
    return VertexWeightedGraph(
        tuple(g.ids[x] for x in vertices), tuple(g.weights[x] for x in vertices),
        tuple((pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos))


def count_blocks(g: VertexWeightedGraph) -> int:
    """Number of blocks (maximal 2-connected pieces, bridges, isolated
    vertices) of the underlying graph, from component counts alone.

    In the block-cut tree of a component C with more than one vertex, each
    vertex v lies in exactly one block per component of C - v, and the
    tree has one edge fewer than nodes, so C has 1 + sum_v (c(C - v) - 1)
    blocks; a one-vertex component is one block.  Loops are ignored.
    """
    blocks = 0
    for comp in state_profile(g, (1 << g.m) - 1).blocks:
        blocks += 1
        if len(comp) > 1:
            for k in range(len(comp)):
                rest = induced_subgraph(g, comp[:k] + comp[k + 1:])
                blocks += len(state_profile(rest, (1 << rest.m) - 1).blocks) - 1
    return blocks
