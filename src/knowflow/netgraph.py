"""Weighted undirected graphs: generation, tie-strength metrics, deterministic paths.

Edge weights model tie strength: a higher weight means a shorter effective
distance, so shortest paths minimize the sum of inverse weights.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

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

    An immutable value: the constructor validates every edge and builds all
    of the state. Both orientations of every edge are kept as read-only arrays
    in receiver-major (CSR) order, next to a neighbor -> weight dict per node
    for the scalar queries; both list neighbors in ascending id. Closeness
    and betweenness are computed together on first request and kept.
    """

    __slots__ = ("_n", "_senders", "_receivers", "_weights", "_rows", "_centralities")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int, float]] = ()):
        if node_count < 0:
            raise GraphError(f"node count must be >= 0, got {node_count}")
        n = self._n = int(node_count)
        u, v, w = _checked_edges(n, list(edges))
        receivers, senders, weights = np.concatenate((u, v)), np.concatenate((v, u)), np.concatenate((w, w))
        order = np.lexsort((senders, receivers))
        self._senders, self._receivers, self._weights = senders[order], receivers[order], weights[order]
        for a in (self._senders, self._receivers, self._weights):
            a.flags.writeable = False
        # Filled in ascending (min, max) edge order, each row lists its
        # neighbors in ascending id. Rows share one int object per node and
        # one float per edge, which keeps a large graph's footprint down.
        rows = self._rows = [{} for _ in range(n)]
        ids = list(range(n))
        for a, b, x in zip(u.tolist(), v.tolist(), w.tolist()):
            rows[a][ids[b]] = rows[b][ids[a]] = x
        self._centralities: tuple[np.ndarray, np.ndarray] | None = None  # see _memoised_centralities

    # -- structure queries ------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    def nodes(self) -> range:
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        return _check_node(self._n, v) in self._rows[_check_node(self._n, u)]

    def weight(self, u: int, v: int) -> float:
        """Tie strength of (u, v); 0.0 when no edge exists."""
        return self._rows[_check_node(self._n, u)].get(_check_node(self._n, v), 0.0)

    def neighbors(self, v: int) -> list[int]:
        return list(self._rows[_check_node(self._n, v)])

    def degree(self, v: int) -> int:
        return len(self._rows[_check_node(self._n, v)])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (u, v, weight) with u < v, in ascending (u, v) order."""
        upper = self._senders > self._receivers
        return zip(self._receivers[upper].tolist(), self._senders[upper].tolist(), self._weights[upper].tolist())

    @property
    def edge_count(self) -> int:
        return self._senders.size // 2

    def directed_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both orientations of every edge as read-only (senders, receivers, weights).

        Sorted by receiver, then by sender, so each receiver's incoming edges
        arrive in ascending sender order.
        """
        return self._senders, self._receivers, self._weights


class _EdgeError(GraphError):
    """A rejected edge; ``index`` is its position in the constructor's input."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _check_node(n: int, v: int) -> int:
    if not (0 <= v < n):
        raise GraphError(f"unknown node {v} (graph has {n} nodes)")
    return int(v)


def _checked_edges(n: int, edges: list[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint and weight arrays of the edges in ascending (min, max) order.

    Raises ``_EdgeError`` naming the first bad edge of the input.
    """
    us, vs, ws = zip(*edges) if edges else ((), (), ())
    try:
        u, v = np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)
    except OverflowError:  # such an id is unknown anyway: clamp it just out of range
        u, v = (np.array([min(max(x, -1), n) for x in ids], dtype=np.intp) for ids in (us, vs))
    w = np.array(ws, dtype=float)
    # Two edges share a key only if they repeat each other or one has an
    # unknown endpoint, which is reported first.
    first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)[1]
    repeat = np.bincount(first, minlength=len(edges)) == 0
    checks = {  # in order of precedence
        f"unknown node (graph has {n} nodes)": (u < 0) | (u >= n) | (v < 0) | (v >= n),
        "self-loop": u == v,
        "edge already exists": repeat,
        "edge weight must be finite and >= 0": ~(np.isfinite(w) & (w >= 0.0)),
    }
    bad = np.logical_or.reduce(list(checks.values()))
    if bad.any():
        i = int(np.argmax(bad))
        reason = next(text for text, mask in checks.items() if mask[i])
        raise _EdgeError(i, f"edge {edges[i]} rejected: {reason}")
    return u[first], v[first], w[first]


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

    half = k // 2
    adj: list[set[int]] = [set() for _ in range(n)]
    for j in range(1, half + 1):
        for u in range(n):
            adj[u].add((u + j) % n)
            adj[(u + j) % n].add(u)

    for j in range(1, half + 1):
        for u in range(n):
            if rng.random() >= p:
                continue
            v = (u + j) % n
            if len(adj[u]) >= n - 1:
                continue  # saturated: no legal target, keep the lattice edge
            if v not in adj[u]:
                continue  # already rewired away by an earlier pass
            w = int(rng.integers(n))
            while w == u or w in adj[u]:
                w = int(rng.integers(n))
            adj[u].remove(v)
            adj[v].remove(u)
            adj[u].add(w)
            adj[w].add(u)
    edges = [(u, v, 1.0) for u in range(n) for v in adj[u] if v > u]
    del adj  # the graph can then reuse the adjacency's memory
    return WeightedGraph(n, edges)


def assign_weights(g: WeightedGraph, spec: WeightSpec, rng: np.random.Generator) -> WeightedGraph:
    """Return g's topology with i.i.d. weights drawn for every edge.

    Edges are weighted in canonical (u, v) order, so the same seed always
    produces the same weight for the same edge.
    """
    draws = spec.draw(g.edge_count, rng).tolist()
    return WeightedGraph(g.node_count, ((u, v, w) for (u, v, _), w in zip(g.edges(), draws)))


def add_edge(g: WeightedGraph, u: int, v: int, weight: float) -> WeightedGraph:
    """Return g plus the new edge (u, v). Existing edges are rejected."""
    return WeightedGraph(g.node_count, [*g.edges(), (u, v, weight)])


def average_edge_weight(g: WeightedGraph) -> float:
    """Mean tie strength over all edges. Undefined (error) on edgeless graphs."""
    if g.edge_count == 0:
        raise GraphError("average edge weight is undefined on a graph with no edges")
    total = 0.0
    for _, _, w in g.edges():
        total += w
    return total / g.edge_count


# -- distances and centralities ----------------------------------------------


def _inverse_adjacency(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Per node, ``(neighbor, 1/weight)`` in ascending neighbor order.

    Zero-weight edges carry no tie strength and are left out.
    """
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.node_count)]
    for u, v, w in zip(*(a.tolist() for a in g.directed_edge_arrays())):
        if w > 0.0:
            adj[v].append((u, 1.0 / w))
    return adj


def _centralities(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Closeness and betweenness of every node from one sweep of Brandes' algorithm (2001).

    Per source, the single-source stage's distances give the source's
    closeness, and its dependency accumulation adds to every betweenness.
    """
    n = g.node_count
    adj = _inverse_adjacency(g)
    closeness = np.zeros(n, dtype=float)
    bc = [0.0] * n
    for s in range(n):
        dist = [math.inf] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0.0
        sigma[s] = 1.0
        done = [False] * n
        order: list[int] = []
        heap: list[tuple[float, int]] = [(0.0, s)]
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
        # Closeness: (n-1) / sum of distances. A source that cannot reach
        # every node takes the harmonic form instead (sum of inverse
        # distances, unreachable terms contributing zero). dist[s] is the
        # only zero, so summing it adds nothing.
        if math.inf in dist:
            closeness[s] = sum(1.0 / x for x in dist if 0.0 < x < math.inf)
        else:
            total = sum(dist)
            closeness[s] = (n - 1) / total if total > 0.0 else 0.0
        delta = [0.0] * n
        for v in reversed(order):
            for p in preds[v]:
                delta[p] += sigma[p] / sigma[v] * (1.0 + delta[v])
            if v != s:
                bc[v] += delta[v]
    return closeness, np.array(bc) / 2.0


def _memoised_centralities(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """``_centralities(g)``, computed on first use and kept on the graph, which never changes.

    Callers get copies, so the kept arrays cannot be altered from outside.
    """
    if g._centralities is None:
        g._centralities = _centralities(g)
    return g._centralities


def weighted_closeness_all(g: WeightedGraph) -> np.ndarray:
    """Closeness over inverse-weight distances for every node: (n-1) / sum of distances.

    For a node that cannot reach some other node the classic form
    degenerates, so the harmonic variant (sum of inverse distances,
    unreachable terms contributing zero) is used instead.
    """
    return _memoised_centralities(g)[0].copy()


def weighted_betweenness_all(g: WeightedGraph) -> np.ndarray:
    """Betweenness over inverse-weight shortest paths for every node.

    For each unordered pair (s, t) a node v strictly between them accumulates
    the fraction of shortest s-t paths passing through v.
    """
    return _memoised_centralities(g)[1].copy()


def coauthor_utility(g: WeightedGraph, v: int) -> float:
    """Collaboration utility of v from splitting attention across neighbors.

    Each neighbor j of v contributes 1/deg(v) + 1/deg(j) + 1/(deg(v)*deg(j)).
    Edge weights are ignored; an isolated node has utility 0.
    """
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
    source, target = _check_node(g.node_count, source), _check_node(g.node_count, target)
    if source == target:
        raise GraphError("path endpoints must be distinct")
    score = edge_score if edge_score is not None else g.weight

    depth = {source: 0}
    layers = [[source]]
    while layers[-1] and target not in depth:
        layers.append([])
        for v in layers[-2]:
            for u in g.neighbors(v):
                if u not in depth:
                    depth[u] = len(layers) - 1
                    layers[-1].append(u)
    if target not in depth:
        return None

    # Layer-by-layer DP: per node keep (best score sum, lexicographically
    # smallest path achieving it); optimal substructure holds for this order.
    best = {source: (0.0, (source,))}
    for lev in range(1, len(layers)):
        for v in layers[lev]:
            candidates = [
                (best[p][0] + score(p, v), best[p][1] + (v,)) for p in g.neighbors(v) if depth.get(p) == lev - 1
            ]
            best[v] = min(candidates, key=lambda c: (-c[0], c[1]))
    return PathResult(best[target][1])


# -- text interchange ----------------------------------------------------------


def write_edge_list(g: WeightedGraph, path: str | Path) -> None:
    """Write ``# nodes=N`` then one ``u,v,weight`` line per edge (u < v order)."""
    lines = [f"# nodes={g.node_count}"]
    for u, v, w in g.edges():
        lines.append(f"{u},{v},{w!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: str | Path) -> WeightedGraph:
    """Parse the ``write_edge_list`` format; every rejection names the file and line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    node_count: int | None = None
    edges: list[tuple[int, int, float]] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("nodes="):
                if node_count is not None:
                    raise GraphError(f"{path}: second '# nodes=N' header on line {lineno}")
                try:
                    node_count = int(body[len("nodes="):])
                except ValueError:
                    raise GraphError(f"{path}: expected an integer node count on line {lineno}, got {line!r}") from None
            continue
        if node_count is None:
            raise GraphError(f"{path}: edge line before '# nodes=N' header (line {lineno})")
        parts = line.split(",")
        if len(parts) != 3:
            raise GraphError(f"{path}: expected 'u,v,weight' on line {lineno}, got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise GraphError(f"{path}: expected 'u,v,weight' numbers on line {lineno}, got {line!r}") from None
        lines.append(lineno)
    if node_count is None:
        raise GraphError(f"{path}: missing '# nodes=N' header")
    try:
        return WeightedGraph(node_count, edges)
    except _EdgeError as exc:
        raise GraphError(f"{path}: line {lines[exc.index]}: {exc}") from None
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None
