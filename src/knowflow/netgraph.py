"""Weighted undirected graphs: generation, tie-strength metrics, deterministic paths.

Edge weights model tie strength: a higher weight means a shorter effective
distance, so shortest paths minimize the sum of inverse weights.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "GraphError",
    "PathResult",
    "WeightSpec",
    "WeightedGraph",
    "add_edge",
    "assign_weights",
    "average_edge_weight",
    "coauthor_utility",
    "generate_watts_strogatz",
    "read_edge_list",
    "shortest_hop_path",
    "weighted_betweenness_all",
    "weighted_closeness_all",
    "write_edge_list",
]


class GraphError(ValueError):
    """Invalid graph parameter, unknown node, or malformed edge operation."""


@dataclass(frozen=True)
class WeightSpec:
    """Edge weight distribution: ``constant(c)`` or ``uniform(low, high)``.

    Weights must be strictly positive; a zero weight would silence the edge.
    A degenerate interval (low == high) is allowed.
    """

    kind: str
    low: float
    high: float

    @classmethod
    def constant(cls, value: float) -> "WeightSpec":
        return cls("constant", float(value), float(value))

    @classmethod
    def uniform(cls, low: float, high: float) -> "WeightSpec":
        return cls("uniform", float(low), float(high))

    def validate(self) -> None:
        if self.kind not in ("constant", "uniform"):
            raise GraphError(f"weight spec kind must be 'constant' or 'uniform', got {self.kind!r}")
        if not (self.low > 0.0):
            raise GraphError(f"weight spec low bound must be > 0, got {self.low}")
        if self.high < self.low:
            raise GraphError(f"weight spec interval is reversed: [{self.low}, {self.high}]")

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        self.validate()
        if self.kind == "constant" or self.low == self.high:
            return np.full(count, self.low, dtype=float)
        return rng.uniform(self.low, self.high, size=count)


@dataclass(frozen=True)
class PathResult:
    """A concrete node sequence between two endpoints.

    ``hop_length`` counts nodes (>= 2 for distinct endpoints); ``edge_count``
    counts edges, i.e. ``hop_length - 1``.
    """

    nodes: tuple[int, ...]

    @property
    def hop_length(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.nodes) - 1


class WeightedGraph:
    """Undirected, self-loop-free graph with finite, non-negative edge weights.

    Query methods never mutate. Mutators (``set_weight`` and the module-level
    functional operations) are meant to run between simulation steps only;
    the diffusion engine treats a graph as frozen while stepping.
    """

    __slots__ = ("_n", "_adj", "_directed_cache")

    def __init__(self, node_count: int):
        if node_count < 0:
            raise GraphError(f"node count must be >= 0, got {node_count}")
        self._n = int(node_count)
        self._adj: list[dict[int, float]] = [{} for _ in range(self._n)]
        self._directed_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- structure queries ------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    def nodes(self) -> range:
        return range(self._n)

    def _check_node(self, v: int) -> int:
        if not (0 <= v < self._n):
            raise GraphError(f"unknown node {v} (graph has {self._n} nodes)")
        return int(v)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._check_node(u), self._check_node(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Tie strength of (u, v); 0.0 when no edge exists."""
        u, v = self._check_node(u), self._check_node(v)
        return self._adj[u].get(v, 0.0)

    def neighbors(self, v: int) -> list[int]:
        v = self._check_node(v)
        return sorted(self._adj[v])

    def degree(self, v: int) -> int:
        v = self._check_node(v)
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (u, v, weight) with u < v, in ascending (u, v) order."""
        for u in range(self._n):
            row = self._adj[u]
            for v in sorted(row):
                if v > u:
                    yield u, v, row[v]

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self._adj) // 2

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph(self._n)
        g._adj = [dict(row) for row in self._adj]
        return g

    def directed_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both orientations of every edge as (senders, receivers, weights).

        Cached; any mutation invalidates the cache.
        """
        if self._directed_cache is None:
            us: list[int] = []
            vs: list[int] = []
            ws: list[float] = []
            for u, v, w in self.edges():
                us.append(u)
                vs.append(v)
                ws.append(w)
                us.append(v)
                vs.append(u)
                ws.append(w)
            self._directed_cache = (
                np.asarray(us, dtype=np.intp),
                np.asarray(vs, dtype=np.intp),
                np.asarray(ws, dtype=float),
            )
        return self._directed_cache

    # -- mutation ----------------------------------------------------------

    def set_weight(self, u: int, v: int, weight: float) -> None:
        """Reassign the weight of an existing edge (apply between steps only)."""
        u, v = self._check_node(u), self._check_node(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        self._store(u, v, weight)

    def _insert(self, u: int, v: int, weight: float) -> None:
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) rejected")
        if v in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) already exists")
        self._store(u, v, weight)

    def _store(self, u: int, v: int, weight: float) -> None:
        if not (math.isfinite(weight) and weight >= 0.0):
            raise GraphError(f"edge weight must be finite and >= 0, got {weight}")
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)
        self._directed_cache = None

    def _remove(self, u: int, v: int) -> None:
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._directed_cache = None


# -- construction -----------------------------------------------------------


def generate_watts_strogatz(n: int, k: int, p: float, rng: np.random.Generator) -> WeightedGraph:
    """Small-world graph: ring lattice of even degree k, then random rewiring.

    Every rewiring removes one lattice edge and inserts one new edge, so the
    edge count is always n*k/2. Rewiring never creates self-loops or duplicate
    edges; a node already connected to everyone keeps its lattice edge. All
    weights start at 1.0. p=0 returns the exact ring lattice.
    """
    if k % 2 != 0:
        raise GraphError(f"ring degree k must be even, got {k}")
    if not (2 <= k < n):
        raise GraphError(f"ring degree k must satisfy 2 <= k < n, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"rewiring probability must be in [0, 1], got {p}")

    g = WeightedGraph(n)
    half = k // 2
    for j in range(1, half + 1):
        for u in range(n):
            g._insert(u, (u + j) % n, 1.0)

    for j in range(1, half + 1):
        for u in range(n):
            if rng.random() >= p:
                continue
            v = (u + j) % n
            if g.degree(u) >= n - 1:
                continue  # saturated: no legal target, keep the lattice edge
            if not g.has_edge(u, v):
                continue  # already rewired away by an earlier pass
            w = int(rng.integers(n))
            while w == u or g.has_edge(u, w):
                w = int(rng.integers(n))
            g._remove(u, v)
            g._insert(u, w, 1.0)
    return g


def assign_weights(g: WeightedGraph, spec: WeightSpec, rng: np.random.Generator) -> WeightedGraph:
    """Return a copy of g with i.i.d. weights drawn for every edge.

    Edges are weighted in canonical (u, v) order, so the same seed always
    produces the same weight for the same edge.
    """
    spec.validate()
    out = g.copy()
    edges = list(g.edges())
    draws = spec.draw(len(edges), rng)
    for (u, v, _), w in zip(edges, draws):
        out.set_weight(u, v, float(w))
    return out


def add_edge(g: WeightedGraph, u: int, v: int, weight: float) -> WeightedGraph:
    """Return a copy of g with the new edge (u, v). Existing edges are rejected."""
    out = g.copy()
    out._insert(u, v, weight)
    return out


def average_edge_weight(g: WeightedGraph) -> float:
    """Mean tie strength over all edges. Undefined (error) on edgeless graphs."""
    total = 0.0
    count = 0
    for _, _, w in g.edges():
        total += w
        count += 1
    if count == 0:
        raise GraphError("average edge weight is undefined on a graph with no edges")
    return total / count


# -- distances and centralities ----------------------------------------------


def _inverse_adjacency(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Per node, ``(neighbor, 1/weight)`` in ascending neighbor order.

    Zero-weight edges carry no tie strength and are left out.
    """
    return [[(u, 1.0 / row[u]) for u in sorted(row) if row[u] > 0.0] for row in g._adj]


def _dijkstra(
    adj: list[list[tuple[int, float]]], source: int
) -> tuple[list[float], list[float], list[list[int]], list[int]]:
    """Single-source stage of Brandes' algorithm over inverse-weight distances.

    Returns the distances, the shortest-path counts, each node's predecessors
    on shortest paths and the nodes in the order they were settled.
    """
    n = len(adj)
    dist = [math.inf] * n
    sigma = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[source] = 0.0
    sigma[source] = 1.0
    done = [False] * n
    order: list[int] = []
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        order.append(v)
        for u, inverse in adj[v]:
            nd = d + inverse
            if nd < dist[u]:
                dist[u] = nd
                sigma[u] = sigma[v]
                preds[u] = [v]
                heapq.heappush(heap, (nd, u))
            elif nd == dist[u]:
                sigma[u] += sigma[v]
                preds[u].append(v)
    return dist, sigma, preds, order


def weighted_closeness_all(g: WeightedGraph) -> np.ndarray:
    """Closeness over inverse-weight distances for every node: (n-1) / sum of distances.

    For a node that cannot reach some other node the classic form
    degenerates, so the harmonic variant (sum of inverse distances,
    unreachable terms contributing zero) is used instead.
    """
    n = g.node_count
    out = np.zeros(n, dtype=float)
    adj = _inverse_adjacency(g)
    for v in range(n):
        dist = _dijkstra(adj, v)[0]
        others = [dist[u] for u in range(n) if u != v]
        if all(math.isfinite(d) for d in others):
            total = sum(others)
            out[v] = (n - 1) / total if total > 0.0 else 0.0
        else:
            out[v] = sum(1.0 / d for d in others if math.isfinite(d) and d > 0.0)
    return out


def weighted_betweenness_all(g: WeightedGraph) -> np.ndarray:
    """Betweenness over inverse-weight shortest paths for every node.

    For each unordered pair (s, t) a node v strictly between them accumulates
    the fraction of shortest s-t paths passing through v.
    """
    n = g.node_count
    bc = np.zeros(n, dtype=float)
    adj = _inverse_adjacency(g)
    for s in range(n):
        _, sigma, preds, order = _dijkstra(adj, s)
        delta = [0.0] * n
        for v in reversed(order):
            for pred in preds[v]:
                delta[pred] += sigma[pred] / sigma[v] * (1.0 + delta[v])
            if v != s:
                bc[v] += delta[v]
    return bc / 2.0


def coauthor_utility(g: WeightedGraph, v: int) -> float:
    """Collaboration utility of v from splitting attention across neighbors.

    Each neighbor j of v contributes 1/deg(v) + 1/deg(j) + 1/(deg(v)*deg(j)).
    Edge weights are ignored; an isolated node has utility 0.
    """
    v = g._check_node(v)
    deg_v = g.degree(v)
    if deg_v == 0:
        return 0.0
    total = 0.0
    for j in g.neighbors(v):
        deg_j = g.degree(j)
        total += 1.0 / deg_v + 1.0 / deg_j + 1.0 / (deg_v * deg_j)
    return total


# -- hop-count shortest paths -------------------------------------------------


def shortest_hop_path(
    g: WeightedGraph,
    source: int,
    target: int,
    edge_score: Callable[[int, int], float] | None = None,
) -> PathResult | None:
    """Deterministic minimum-hop path from source to target.

    Among all minimum-hop paths the one maximizing the summed ``edge_score``
    (default: edge weight) wins; remaining ties go to the lexicographically
    smallest node sequence. Returns None when target is unreachable.
    """
    source, target = g._check_node(source), g._check_node(target)
    if source == target:
        raise GraphError("path endpoints must be distinct")
    score = edge_score if edge_score is not None else g.weight

    n = g.node_count
    layer = [-1] * n
    layer[source] = 0
    frontier = [source]
    depth = 0
    while frontier and layer[target] == -1:
        depth += 1
        nxt: list[int] = []
        for v in frontier:
            for u in g._adj[v]:
                if layer[u] == -1:
                    layer[u] = depth
                    nxt.append(u)
        frontier = nxt
    if layer[target] == -1:
        return None

    goal = layer[target]
    # Layer-by-layer DP: per node keep (best score sum, lexicographically
    # smallest path achieving it); optimal substructure holds for this order.
    best: dict[int, tuple[float, tuple[int, ...]]] = {source: (0.0, (source,))}
    by_layer: list[list[int]] = [[] for _ in range(goal + 1)]
    for v in range(n):
        if 0 <= layer[v] <= goal:
            by_layer[layer[v]].append(v)
    for lev in range(1, goal + 1):
        for v in by_layer[lev]:
            chosen: tuple[float, tuple[int, ...]] | None = None
            for pred in g.neighbors(v):
                if layer[pred] != lev - 1 or pred not in best:
                    continue
                base_score, base_path = best[pred]
                cand = (base_score + score(pred, v), base_path + (v,))
                if (
                    chosen is None
                    or cand[0] > chosen[0]
                    or (cand[0] == chosen[0] and cand[1] < chosen[1])
                ):
                    chosen = cand
            if chosen is not None:
                best[v] = chosen
    return PathResult(best[target][1])


# -- text interchange ----------------------------------------------------------


def write_edge_list(g: WeightedGraph, path: str | Path) -> None:
    """Write ``# nodes=N`` then one ``u,v,weight`` line per edge (u < v order)."""
    lines = [f"# nodes={g.node_count}"]
    for u, v, w in g.edges():
        lines.append(f"{u},{v},{w!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: str | Path) -> WeightedGraph:
    text = Path(path).read_text()
    node_count: int | None = None
    g: WeightedGraph | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("nodes="):
                try:
                    node_count = int(body[len("nodes="):])
                except ValueError:
                    raise GraphError(f"{path}: expected an integer node count on line {lineno}, got {line!r}") from None
                g = WeightedGraph(node_count)
            continue
        if g is None:
            raise GraphError(f"{path}: edge line before '# nodes=N' header (line {lineno})")
        parts = line.split(",")
        if len(parts) != 3:
            raise GraphError(f"{path}: expected 'u,v,weight' on line {lineno}, got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphError(f"{path}: expected 'u,v,weight' numbers on line {lineno}, got {line!r}") from None
        try:
            g._insert(u, v, w)
        except GraphError as exc:
            raise GraphError(f"{path}: rejected edge on line {lineno}: {exc}") from None
    if g is None:
        raise GraphError(f"{path}: missing '# nodes=N' header")
    return g
