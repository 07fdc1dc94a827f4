"""Weighted undirected graphs: generation, tie-strength metrics, deterministic paths.

Edge weights model tie strength: a higher weight means a shorter effective
distance, so shortest paths minimize the sum of inverse weights.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import re
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._contract import _as_float, _as_int, _as_pair, _as_rng, _is_int, _is_real

__all__ = [
    "GraphError",
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
        # ``_freeze``'s receiver-major key is below n * n, which must fit an intp.
        n = _as_int(node_count, "node_count", GraphError, lo=0, hi=math.isqrt(np.iinfo(np.intp).max))
        try:
            edges = list(edges)
        except TypeError:
            raise GraphError(f"edges: expected an iterable of (u, v, weight) triples, got {edges!r}") from None
        self._freeze(n, *_checked_edges(n, edges))

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
        u = _as_int(u, "u", GraphError, lo=0, lt=self._n)
        return self._slot(u, _as_int(v, "v", GraphError, lo=0, lt=self._n)) is not None

    def weight(self, u: int, v: int) -> float:
        """Tie strength of (u, v); 0.0 when no edge exists."""
        u = _as_int(u, "u", GraphError, lo=0, lt=self._n)
        i = self._slot(u, _as_int(v, "v", GraphError, lo=0, lt=self._n))
        return 0.0 if i is None else self._weights.item(i)

    def neighbors(self, v: int) -> list[int]:
        v = _as_int(v, "v", GraphError, lo=0, lt=self._n)
        return self._senders[self._indptr[v] : self._indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        v = _as_int(v, "v", GraphError, lo=0, lt=self._n)
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


def _checked_edges(n: int, edges: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both orientations of the edges, each a triple of two integer ids and a real weight, as (senders, receivers, weights).

    Raises ``_EdgeError`` naming the first bad edge of the input.
    """
    rows: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for i, edge in enumerate(edges):
        try:
            u, v, w = edge  # type: ignore[misc]
            well_formed = _is_int(u) and _is_int(v) and _is_real(w)
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
    n = _as_int(n, "n", GraphError)
    k = _as_int(k, "k", GraphError, lo=2, lt=n)
    if k % 2 != 0:
        raise GraphError(f"k: must be even, got {k}")
    p = _as_float(p, "p", GraphError, lo=0.0, hi=1.0)
    rng = _as_rng(rng, "rng", GraphError)

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


def assign_weights(g: WeightedGraph, weight_range: tuple[float, float], rng: np.random.Generator) -> WeightedGraph:
    """Return g's topology with i.i.d. weights drawn uniformly in ``weight_range``, a pair (low, high).

    The low bound must be > 0: a zero weight would silence the edge. When
    ``low == high`` every edge gets that weight and nothing is drawn. Edges
    are weighted in canonical (u, v) order, so the same seed always produces
    the same weight for the same edge.
    """
    low, high = _as_pair(weight_range, "weight_range", GraphError, gt=0.0)
    rng = _as_rng(rng, "rng", GraphError)
    draws = np.full(g.edge_count, low) if low == high else rng.uniform(low, high, size=g.edge_count)
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
    weights = weights[senders > receivers]
    with np.errstate(over="ignore"):
        total = np.cumsum(weights)[-1]
    if total == math.inf:  # finite weights whose sum overflows: sum them scaled by the largest
        top = weights.max()
        return float(np.cumsum(weights / top)[-1] / g.edge_count * top)
    return float(total / g.edge_count)


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
    round settles every tentative distance below ``fl(low + step)``, ``low``
    being the block's least unsettled one and ``step`` the least ``1/weight``:
    as IEEE addition is monotone, no later relaxation can undercut them, and
    they equal the heap's. The round's frontier, sorted by (distance, flat
    id), is the heap's settle order within a row. Each node pulls its path
    count from its predecessors (the ``q`` with ``fl(d[q] + 1/w) == d[u]``,
    all settled in earlier rounds) in that order, and dependencies are pushed
    back round by round in reverse. Both orders are the heap's only while no
    settled distance absorbs ``step`` (``fl(d + step) == d``); a round holds
    none unless ``low`` is one, and then it settles nothing: ``settle``
    returns False.
    """

    def __init__(self, g: WeightedGraph, rows: int):
        n = self.n = g.node_count
        senders, _, weights = g.directed_edge_arrays()
        # The graph's rows, each listing its neighbors in ascending id. A zero
        # weight's inverse is inf, so its edge never shortens a distance.
        self.nbrs, self.inverse = senders, 1.0 / weights
        self.stops, self.degree = g._indptr[1:], np.diff(g._indptr)
        self.step = self.inverse.min(initial=math.inf)
        self.rows = rows
        self.dist = np.empty(rows * n)  # settled distances; inf until settled
        self.open = np.empty(rows * n)  # unsettled distances, NaN once settled; then scratch, then dependencies
        self.sigma = np.empty(rows * n)  # shortest-path counts
        self.sources = np.empty(0, dtype=np.intp)  # flat ids of the sources just settled
        # Per round, its shortest-path edges as (predecessor, node) flat ids, in
        # reverse frontier order, and whether each node has just that one.
        self.rounds: list[tuple[np.ndarray, np.ndarray, bool]] = []
        self.copied = True  # whether sigma[pred] / sigma[node] == 1.0 for a lone predecessor

    @np.errstate(invalid="ignore")  # NaN marks the settled entries
    def settle(self, sources: np.ndarray) -> bool:
        """Distances, path counts and shortest-path edges from ``sources``; False if a round stalls."""
        n, size = self.n, sources.size * self.n
        dist, tentative, sigma = self.dist[:size], self.open[:size], self.sigma[:size]
        dist.fill(math.inf)
        tentative.fill(math.inf)
        sigma.fill(0.0)
        self.sources = np.arange(sources.size) * n + sources
        tentative[self.sources] = 0.0
        sigma[self.sources] = 1.0
        self.rounds = []
        while True:
            low = np.fmin.reduce(tentative)  # NaN once every entry has settled
            frontier = (tentative < low + self.step).nonzero()[0]
            if frontier.size == 0:  # done, unless a row stalls: fl(low + step) == low
                self.copied = bool(np.isfinite(sigma).all())
                return not low < math.inf
            order, here = _ascending(tentative[frontier])
            tentative[frontier] = math.nan  # settled: np.minimum keeps it, and no bound exceeds it
            frontier = frontier[order]
            dist[frontier] = here
            there, inverse, here, ends = self._around(frontier, here)
            near = dist[there]
            pred = (near + inverse == here).nonzero()[0]
            if pred.size == frontier.size:  # one predecessor each, whose count passes on
                preds = there[pred]
                sigma[frontier] = sigma[preds]
                self.rounds.append((preds[::-1], frontier[::-1], True))
            elif pred.size:  # the sources, settled first, have none and keep their count of 1
                owner = ends.searchsorted(pred, side="right")
                if (owner[2:] == owner[:-2]).any():  # three or more: add them in the heap's settle order
                    pred = pred[np.lexsort((near[pred], owner))]
                preds = there[pred]
                sigma[frontier] = np.bincount(owner, sigma[preds], minlength=frontier.size)
                self.rounds.append((preds[::-1], frontier[owner][::-1], False))
            np.minimum.at(tentative, there, here + inverse)

    def closeness(self) -> np.ndarray:
        """Closeness of the sources just settled; call it before ``dependencies``, which reuses its scratch."""
        size = self.sources.size * self.n
        return _closeness(self.dist[:size].reshape(-1, self.n), self.open[:size].reshape(-1, self.n))

    def dependencies(self) -> np.ndarray:
        """Dependencies of every node (one row per source just settled); 0 at the source itself.

        ``np.add.at`` adds each round's shares one at a time, in reverse settle order.
        """
        size = self.sources.size * self.n
        sigma, delta = self.sigma[:size], self.open[:size]
        delta.fill(0.0)
        for preds, nodes, lone in reversed(self.rounds):
            share = 1.0 + delta[nodes]
            np.add.at(delta, preds, share if lone and self.copied else sigma[preds] / sigma[nodes] * share)
        delta[self.sources] = 0.0
        return delta.reshape(-1, self.n)

    def _around(self, flat: np.ndarray, here: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per edge incident to the flat ids, in their order: the neighbor's flat id, ``1/weight``
        and its owner's ``here``; then each flat id's cumulative edge count."""
        nodes = flat % self.n
        count = self.degree[nodes]
        ends = count.cumsum()
        slots = (self.stops[nodes] - ends).repeat(count) + np.arange(ends[-1])
        return (flat - nodes).repeat(count) + self.nbrs[slots], self.inverse[slots], here.repeat(count), ends


def _ascending(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of ``values``, and ``values`` in that order.

    Equal distances mostly come in pairs from different rows, so numpy's
    faster quicksort is taken and each pair it returns out of order swapped
    back; a run of three or more takes the stable sort.
    """
    order = values.argsort()
    ranked = values[order]
    tie = (ranked[1:] == ranked[:-1]).nonzero()[0]
    if tie.size:
        if (tie[1:] == tie[:-1] + 1).any():
            return values.argsort(kind="stable"), ranked
        swap = tie[order[tie] > order[tie + 1]]
        order[swap], order[swap + 1] = order[swap + 1], order[swap]
    return order, ranked


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
    edge_score: np.ndarray | None = None,
) -> tuple[tuple[int, ...], float] | None:
    """Deterministic minimum-hop path from source to target as (nodes, score); None when unreachable.

    ``edge_score`` (default: the weights) is a float array aligned with
    ``g.directed_edge_arrays()``: slot i of node p's row scores the step
    p -> senders[i]. Going out one hop at a time, each node keeps one path:
    its predecessors' kept paths extended to it, the largest score sum
    (left to right from 0.0) first, then the smallest node sequence. With
    exact sums that is the best of all minimum-hop paths; under rounding, a
    prefix dropped for a smaller sum can tie the kept one at the target.
    """
    n = g.node_count
    source, target = _as_int(source, "source", GraphError, lo=0, lt=n), _as_int(target, "target", GraphError, lo=0, lt=n)
    if source == target:
        raise GraphError("path endpoints must be distinct")
    scores = np.asarray(g._weights if edge_score is None else edge_score)
    if scores.shape != g._weights.shape or scores.dtype.kind != "f":
        raise GraphError(f"edge scores must be a float array of shape {g._weights.shape}, got {scores.dtype} {scores.shape}")
    # The rows as Python lists, whose items the sweep reads one at a time faster than an array's.
    indptr, senders, scores = g._indptr.tolist(), g._senders.tolist(), scores.tolist()
    kept: list[tuple[float, tuple[int, ...]] | None] = [None] * g.node_count  # per node reached: score sum, path
    kept[source] = (0.0, (source,))
    layer = [source]
    while layer and kept[target] is None:
        reached: dict[int, tuple[float, tuple[int, ...]]] = {}
        for p in layer:
            base, path = kept[p]
            for i in range(indptr[p], indptr[p + 1]):
                v = senders[i]
                if kept[v] is None:
                    total, top = base + scores[i], reached.get(v)
                    if top is None or total > top[0] or (total == top[0] and path < top[1]):
                        reached[v] = total, path
        for v, (total, path) in reached.items():
            kept[v] = total, path + (v,)
        layer = list(reached)
    return None if kept[target] is None else (kept[target][1], kept[target][0])


# -- text interchange ----------------------------------------------------------


def write_edge_list(g: WeightedGraph, path: str | Path) -> None:
    """Write ``# nodes=N`` then one ``u,v,weight`` line per edge (u < v order)."""
    lines = [f"# nodes={g.node_count}"]
    for u, v, w in g.edges():
        lines.append(f"{u},{v},{w!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# The ASCII numerals that ``write_edge_list`` writes, signed or not, with
# spaces around them: ``int`` and ``float`` alone would also read "1_0" and
# non-ASCII digits. A weight may be "inf" or "nan", which the graph rejects.
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)
_REAL = re.compile(r"\s*[+-]?(inf|nan|([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)\s*", re.ASCII)


def _numeral(text: str, pattern: re.Pattern) -> int | float:
    """``text`` as an int (``_INTEGER``) or a float (``_REAL``) when ``pattern`` accepts it; a ValueError otherwise."""
    if pattern.fullmatch(text) is None:
        raise ValueError(f"not a numeral: {text!r}")
    return int(text) if pattern is _INTEGER else float(text)


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
                    node_count = _numeral(body[len("nodes="):], _INTEGER)
                except ValueError:
                    raise GraphError(f"{path}: expected an integer node count on line {lineno}, got {line!r}") from None
            continue
        if node_count is None:
            raise GraphError(f"{path}: edge line before '# nodes=N' header (line {lineno})")
        parts = line.split(",")
        if len(parts) != 3:
            raise GraphError(f"{path}: expected 'u,v,weight' on line {lineno}, got {line!r}")
        try:
            edges.append((_numeral(parts[0], _INTEGER), _numeral(parts[1], _INTEGER), _numeral(parts[2], _REAL)))
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
