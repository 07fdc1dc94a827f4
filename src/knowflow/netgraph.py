"""Weighted undirected graphs: generation, tie-strength metrics, deterministic paths.

Edge weights model tie strength: a higher weight means a shorter effective
distance, so shortest paths minimize the sum of inverse weights.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import numbers
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

    Weights must be strictly positive and finite; a zero weight would
    silence the edge. A degenerate interval (low == high) is allowed.
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
        if not math.isfinite(self.high):
            raise GraphError(f"weight spec high bound must be finite, got {self.high}")

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

    An immutable value held only in compressed sparse row (CSR) form: both
    orientations of every edge are kept as read-only (senders, receivers,
    weights) arrays in receiver-major order, each receiver's neighbors in
    ascending id, and node v's row is ``indptr[v]:indptr[v + 1]``. The
    neighbor, degree and edge queries read one row; no per-node container
    is built. Closeness and betweenness are computed together on first
    request and kept.
    """

    __slots__ = ("_n", "_senders", "_receivers", "_weights", "_indptr", "_centralities")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int, float]] = ()):
        if not _is_int(node_count):
            raise GraphError(f"node count must be an integer, got {node_count!r}")
        if node_count < 0:
            raise GraphError(f"node count must be >= 0, got {node_count}")
        n = int(node_count)
        self._freeze(n, *_checked_edges(n, list(edges)))

    @classmethod
    def _from_arrays(cls, n: int, senders: np.ndarray, receivers: np.ndarray, weights: np.ndarray) -> "WeightedGraph":
        """The graph of directed-edge arrays that list every edge in both orientations; the edges are not checked."""
        g = cls.__new__(cls)
        g._freeze(n, senders, receivers, weights)
        return g

    def _freeze(self, n: int, senders: np.ndarray, receivers: np.ndarray, weights: np.ndarray) -> None:
        """Set all of the state from valid directed-edge arrays, sorted into receiver-major order.

        Arrays already in that order, such as a topology that another graph
        holds, are kept rather than copied.
        """
        key = receivers * n + senders
        if (key[1:] < key[:-1]).any():
            order = np.argsort(key)
            senders, receivers, weights = senders[order], receivers[order], weights[order]
        self._n = n
        self._senders, self._receivers, self._weights = senders, receivers, weights
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(receivers, minlength=n))))
        for a in (senders, receivers, weights, self._indptr):
            a.flags.writeable = False
        self._centralities: tuple[np.ndarray, np.ndarray] | None = None  # see _memoised_centralities

    # -- structure queries ------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    def nodes(self) -> range:
        return range(self._n)

    def _slot(self, u: int, v: int) -> int | None:
        """Position of the directed edge v -> u in the arrays, for known nodes; None when there is none."""
        hi = self._indptr.item(u + 1)
        i = bisect.bisect_left(self._senders, v, self._indptr.item(u), hi)
        return i if i < hi and self._senders.item(i) == v else None

    def has_edge(self, u: int, v: int) -> bool:
        v = _check_node(self._n, v)
        return self._slot(_check_node(self._n, u), v) is not None

    def weight(self, u: int, v: int) -> float:
        """Tie strength of (u, v); 0.0 when no edge exists."""
        u = _check_node(self._n, u)
        i = self._slot(u, _check_node(self._n, v))
        return 0.0 if i is None else self._weights.item(i)

    def neighbors(self, v: int) -> list[int]:
        v = _check_node(self._n, v)
        return self._senders[self._indptr[v] : self._indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        v = _check_node(self._n, v)
        return int(self._indptr[v + 1] - self._indptr[v])

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
    """``v`` as an int, when it is an integer id of one of the ``n`` nodes."""
    if not _is_int(v):
        raise GraphError(f"node id must be an integer, got {v!r}")
    if not (0 <= v < n):
        raise GraphError(f"unknown node {v} (graph has {n} nodes)")
    return int(v)


def _is_int(x: object) -> bool:
    """An int or numpy integer; booleans are not ids or counts."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _checked_edges(n: int, edges: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both orientations of the edges, each a triple of two integer ids and a real weight, as (senders, receivers, weights).

    Raises ``_EdgeError`` naming the first bad edge of the input.
    """
    rows: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for i, edge in enumerate(edges):
        try:
            u, v, w = edge  # type: ignore[misc]
            well_formed = _is_int(u) and _is_int(v) and isinstance(w, numbers.Real) and not isinstance(w, bool)
            w = float(w) if well_formed else w
        except (TypeError, ValueError):
            well_formed = False
        except OverflowError:  # an integer weight beyond the float range
            w = math.inf
        if not well_formed:
            reason = "expected (u, v, weight) with integer ids and a real weight"
        elif not (0 <= u < n and 0 <= v < n):
            reason = f"unknown node (graph has {n} nodes)"
        elif u == v:
            reason = "self-loop"
        elif (min(u, v), max(u, v)) in seen:
            reason = "edge already exists"
        elif not (math.isfinite(w) and w >= 0.0):
            reason = "edge weight must be finite and >= 0"
        else:
            seen.add((min(u, v), max(u, v)))
            rows.append((u, v, w))
            continue
        raise _EdgeError(i, f"edge {edge} rejected: {reason}")
    us, vs, ws = zip(*rows) if rows else ((), (), ())
    return np.array(vs + us, dtype=np.intp), np.array(us + vs, dtype=np.intp), np.array(ws + ws, dtype=float)


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
    senders = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.intp, count=n * k)
    receivers = np.repeat(np.arange(n), [len(row) for row in adj])
    del adj  # the graph can then reuse the adjacency's memory
    return WeightedGraph._from_arrays(n, senders, receivers, np.ones(n * k))


def assign_weights(g: WeightedGraph, spec: WeightSpec, rng: np.random.Generator) -> WeightedGraph:
    """Return g's topology with i.i.d. weights drawn for every edge.

    Edges are weighted in canonical (u, v) order, so the same seed always
    produces the same weight for the same edge.
    """
    draws = spec.draw(g.edge_count, rng)  # finite and > 0: the spec validates itself
    senders, receivers, _ = g.directed_edge_arrays()
    # Both orientations of an edge share its (min, max) key; the canonical
    # (u < v) orientations list the keys in ascending order.
    key = np.minimum(senders, receivers) * g.node_count + np.maximum(senders, receivers)
    return WeightedGraph._from_arrays(g.node_count, senders, receivers, draws[np.searchsorted(key[senders > receivers], key)])


def add_edge(g: WeightedGraph, u: int, v: int, weight: float) -> WeightedGraph:
    """Return g plus the new edge (u, v). Existing edges are rejected."""
    new = _checked_edges(g.node_count, [(u, v, weight)])
    if g.has_edge(u, v):  # known nodes by now
        raise GraphError(f"edge {(u, v, weight)} rejected: edge already exists")
    return WeightedGraph._from_arrays(g.node_count, *(np.concatenate(pair) for pair in zip(g.directed_edge_arrays(), new)))


def average_edge_weight(g: WeightedGraph) -> float:
    """Mean tie strength over all edges, summed in ascending (u, v) order. Undefined (error) on edgeless graphs."""
    if g.edge_count == 0:
        raise GraphError("average edge weight is undefined on a graph with no edges")
    senders, receivers, weights = g.directed_edge_arrays()
    return float(np.cumsum(weights[senders > receivers])[-1] / g.edge_count)


# -- distances and centralities ----------------------------------------------


# Entries of one block's (sources x nodes) matrices. The sweep keeps three
# float matrices of this size and about as many shortest-path edges, so it
# bounds the sweep's working memory.
_BLOCK_ELEMENTS = 1 << 14


def _centralities(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Closeness and betweenness of every node from one sweep of Brandes' algorithm (2001).

    Sources are swept a block at a time (``_BlockSweep``). Each source's
    distances give its closeness, and its dependencies add into betweenness
    in ascending source order. The result is bit-identical to one
    heap-ordered Dijkstra per source, which remains the path for the rare
    graph whose distances absorb an edge (``_heap_sweep``).
    """
    n = g.node_count
    closeness = np.empty(n)
    betweenness = np.zeros(n)
    # Overflows to inf, and inf / inf, pass silently, as they do in the heap
    # loop's Python floats; 1/w overflows for a weight below about 5.6e-309.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sweep = _BlockSweep(g, max(1, min(n, _BLOCK_ELEMENTS // max(n, 1))))
        for first in range(0, n, sweep.rows):
            sources = np.arange(first, min(first + sweep.rows, n))
            if not sweep.settle(sources):
                return _heap_sweep(g)
            closeness[sources] = sweep.closeness()
            for row in sweep.dependencies():
                betweenness += row
    return closeness, betweenness / 2.0


class _BlockSweep:
    """Brandes' single-source stage for a block of sources at once, in buffers reused from block to block.

    The buffers hold one row per source: flat id ``row * n + node``.
    Distances settle in bucket rounds (Dinitz; Meyer & Sanders 2003). A
    round settles every tentative distance strictly below ``fl(low + step)``,
    ``low`` being the least unsettled one and ``step`` the least
    ``1/weight``: as IEEE addition is monotone, no later relaxation can
    undercut them, and as a minimum does not depend on order, they equal the
    heap's. Each settled node pulls its path count from its predecessors,
    the ``q`` with ``fl(d[q] + 1/w) == d[u]``, in ascending (distance, id)
    order, which is the heap's settle order. Dependencies are passed back
    round by round in reverse, each node adding its successors' shares in
    descending (distance, id) order. Both orders are the heap's only while
    no settled distance absorbs ``step`` (``fl(d + step) == d``). A round's
    distances lie in ``[low, fl(low + step))``, which holds no such distance
    unless ``low`` is one, and then the round cannot settle anything:
    ``settle`` returns False.
    """

    def __init__(self, g: WeightedGraph, rows: int):
        n = self.n = g.node_count
        senders, _, weights = g.directed_edge_arrays()
        # The graph's rows, each listing its neighbors in ascending id. A zero
        # weight's inverse is inf, so its edge never shortens a distance.
        self.nbrs, self.inverse = senders, 1.0 / weights
        self.starts, self.degree = g._indptr[:-1], np.diff(g._indptr)
        self.step = self.inverse.min(initial=math.inf)
        self.rows = rows
        self.dist = np.empty(rows * n)  # settled distances; inf until settled
        self.open = np.empty(rows * n)  # unsettled distances; then scratch, then dependencies
        self.sigma = np.empty(rows * n)  # shortest-path counts
        self.sources = np.empty(0, dtype=np.intp)  # flat ids of the sources just settled
        # Per round, its shortest-path edges as (predecessor, node) flat ids,
        # each node's predecessors in ascending (distance, id) order.
        self.rounds: list[tuple[np.ndarray, np.ndarray]] = []

    def settle(self, sources: np.ndarray) -> bool:
        """Distances, path counts and shortest-path edges from ``sources``; False if a round stalls."""
        size = sources.size * self.n
        dist, tentative, sigma = self.dist[:size], self.open[:size], self.sigma[:size]
        dist.fill(math.inf)
        tentative.fill(math.inf)
        sigma.fill(0.0)
        frontier = self.sources = np.arange(sources.size) * self.n + sources
        tentative[frontier] = 0.0
        sigma[frontier] = 1.0
        grid = tentative.reshape(sources.size, self.n)
        self.rounds = []
        while True:
            low = grid.min(axis=1)
            frontier = np.flatnonzero(grid < (low + self.step)[:, None])
            if frontier.size == 0:  # done, unless a row stalls: fl(low + step) == low
                return bool((low == math.inf).all())
            here = dist[frontier] = tentative[frontier]
            tentative[frontier] = math.inf
            owner, there, inverse = self._around(frontier)
            here, near = here[owner], dist[there]
            pred = _in_order(np.flatnonzero(near + inverse == here), owner, near)  # ties keep ascending id
            if pred.size:  # the sources, settled first, have none and keep their count of 1
                sigma[frontier] = np.bincount(owner[pred], sigma[there[pred]], minlength=frontier.size)
                self.rounds.append((there[pred], frontier[owner[pred]]))
            fresh = near == math.inf  # a settled neighbor cannot improve
            np.minimum.at(tentative, there[fresh], here[fresh] + inverse[fresh])

    def closeness(self) -> np.ndarray:
        """Closeness of the sources just settled; call it before ``dependencies``, which reuses its scratch."""
        size = self.sources.size * self.n
        return _closeness(self.dist[:size].reshape(-1, self.n), self.open[:size].reshape(-1, self.n))

    def dependencies(self) -> np.ndarray:
        """Dependencies of every node (one row per source just settled); 0 at the source itself.

        The shortest-path edges are taken round by round in reverse, so a
        node's dependency is complete before it passes a share to its
        predecessors, and each node adds its shares in descending
        (distance, id) order of the successors, one at a time.
        """
        size = self.sources.size * self.n
        dist, sigma, delta = self.dist[:size], self.sigma[:size], self.open[:size]
        delta.fill(0.0)
        for preds, nodes in reversed(self.rounds):
            preds, nodes = preds[::-1], nodes[::-1]  # descending id
            first = np.argsort(-dist[nodes], kind="stable")
            preds, nodes = preds[first], nodes[first]
            np.add.at(delta, preds, sigma[preds] / sigma[nodes] * (1.0 + delta[nodes]))
        delta[self.sources] = 0.0
        return delta.reshape(-1, self.n)

    def _around(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per edge incident to the flat ids: its owner's position in ``flat``, the neighbor's flat id and ``1/weight``."""
        nodes = flat % self.n
        count = self.degree[nodes]
        owner = np.repeat(np.arange(flat.size), count)
        slots = np.repeat(self.starts[nodes] - (np.cumsum(count) - count), count) + np.arange(owner.size)
        return owner, np.repeat(flat - nodes, count) + self.nbrs[slots], self.inverse[slots]


def _in_order(picked: np.ndarray, owner: np.ndarray, key: np.ndarray) -> np.ndarray:
    """``picked`` (ascending) stably reordered by ``key`` within each owner.

    Only owners with three or more entries are reordered: two numbers added
    to zero give the same sum in either order.
    """
    owners = owner[picked]
    crowd = np.flatnonzero(np.bincount(owners)[owners] >= 3)
    if crowd.size:
        sub = picked[crowd]
        picked[crowd] = sub[np.lexsort((key[sub], owners[crowd]))]
    return picked


def _closeness(dist: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Closeness per row of a distance matrix, each sum taken left to right over node ids.

    (n-1) / sum of distances; a row that misses some node takes the harmonic
    form instead (sum of inverse distances, unreachable terms contributing
    zero). Only the source's own distance is zero. ``scratch`` is a buffer
    of ``dist``'s shape.
    """
    n = dist.shape[1]
    total = np.cumsum(dist, axis=1, out=scratch)[:, -1]
    reached = (dist < math.inf).all(axis=1)
    out = np.zeros(dist.shape[0])
    np.divide(n - 1, total, out=out, where=reached & (total > 0.0))
    if not reached.all():
        partial = dist[~reached]
        out[~reached] = np.cumsum(np.divide(1.0, partial, out=np.zeros_like(partial), where=partial > 0.0), axis=1)[:, -1]
    return out


def _heap_sweep(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """``_centralities`` by one heap-ordered Dijkstra per source, for graphs whose distances absorb an edge."""
    n = g.node_count
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in zip(*(a.tolist() for a in g.directed_edge_arrays())):
        if w > 0.0:
            adj[v].append((u, 1.0 / w))
    closeness = np.empty(n)
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
        row = np.array([dist])
        closeness[s] = _closeness(row, np.empty_like(row))[0]
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


def coauthor_utility(g: WeightedGraph) -> np.ndarray:
    """Collaboration utility of every node from splitting attention across its neighbors.

    Each neighbor j of v contributes 1/deg(v) + 1/deg(j) + 1/(deg(v)*deg(j)),
    added up in ascending order of j. Edge weights are ignored; an isolated
    node has utility 0.
    """
    senders, receivers, _ = g.directed_edge_arrays()
    indptr = g._indptr
    degree = np.diff(indptr)
    dv, dj = degree[receivers].astype(float), degree[senders].astype(float)
    terms = 1.0 / dv + 1.0 / dj + 1.0 / (dv * dj)  # node v's k-th term is terms[indptr[v] + k]
    utility = np.zeros(g.node_count)
    # One column of terms at a time, so each node adds its terms in neighbor order.
    for k in range(int(degree.max(initial=0))):
        rows = np.flatnonzero(degree > k)
        utility[rows] += terms[indptr[rows] + k]
    return utility


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
    # The rows as Python lists, which many small slices read faster than arrays.
    indptr, senders = g._indptr.tolist(), g._senders.tolist()
    # Layer by layer, per node the best score sum and the lexicographically
    # smallest path achieving it; optimal substructure holds for this order.
    best = {source: (0.0, (source,))}
    layer = [source]
    while layer and target not in best:
        reached: dict[int, tuple[float, tuple[int, ...]]] = {}
        for p in layer:
            for v in senders[indptr[p] : indptr[p + 1]]:
                if v not in best:
                    total, path = best[p][0] + score(p, v), best[p][1]
                    top = reached.get(v)
                    if top is None or total > top[0] or (total == top[0] and path < top[1]):
                        reached[v] = total, path
        best.update((v, (total, path + (v,))) for v, (total, path) in reached.items())
        layer = list(reached)
    return PathResult(best[target][1]) if target in best else None


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
