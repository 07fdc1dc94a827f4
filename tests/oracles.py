"""Reference implementations used to cross-check the package under test.

The graph metrics work by exhaustive enumeration over simple paths or edge
subsets. Path costs accumulate left to right, matching how a relaxation-based
shortest-path search composes the same sums. The two-sweep centralities are
the package's former implementation, kept as its bit-exact reference, and so
are the row-by-row CSV writer and the per-node expert boost. The diffusion
reference is the literal per-worker composition of broadcast, transmission
and assimilation that the vectorized engine must reproduce.

Nothing here imports from the package under test: the diffusion reference
reads graphs, populations and states through their public attributes only.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np


def is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def all_connected_graphs(n: int):
    """Yield every labeled connected graph on n nodes as a tuple of (u, v) edges."""
    possible = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(possible)):
        edges = tuple(e for e, b in zip(possible, bits) if b)
        if is_connected(n, edges):
            yield edges


def random_connected_graph(n: int, rng: random.Random):
    possible = list(itertools.combinations(range(n), 2))
    while True:
        edges = tuple(e for e in possible if rng.random() < 0.4)
        if is_connected(n, edges):
            return edges


def adjacency(n: int, weighted_edges: dict) -> dict:
    adj = {v: {} for v in range(n)}
    for (u, v), w in weighted_edges.items():
        adj[u][v] = w
        adj[v][u] = w
    return adj


def simple_paths(adj: dict, s: int, t: int):
    """All simple paths s..t as node tuples, by depth-first search."""
    stack = [(s, (s,))]
    while stack:
        node, path = stack.pop()
        if node == t:
            yield path
            continue
        for nxt in adj[node]:
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))


def path_distance(path, adj) -> float:
    acc = 0.0
    for a, b in zip(path, path[1:]):
        acc += 1.0 / adj[a][b]
    return acc


def oracle_degree(adj: dict, v: int) -> int:
    return len(adj[v])


def oracle_distances(n: int, adj: dict, s: int) -> list:
    out = []
    for t in range(n):
        if t == s:
            out.append(0.0)
            continue
        best = math.inf
        for path in simple_paths(adj, s, t):
            best = min(best, path_distance(path, adj))
        out.append(best)
    return out


def oracle_closeness(n: int, adj: dict, v: int) -> float:
    if n <= 1:
        return 0.0
    dists = [d for t, d in enumerate(oracle_distances(n, adj, v)) if t != v]
    if all(math.isfinite(d) for d in dists):
        return (n - 1) / sum(dists)
    return sum(1.0 / d for d in dists if math.isfinite(d) and d > 0.0)


def oracle_betweenness(n: int, adj: dict, v: int) -> float:
    total = 0.0
    for s, t in itertools.combinations(range(n), 2):
        if v in (s, t):
            continue
        paths = list(simple_paths(adj, s, t))
        if not paths:
            continue
        costs = [path_distance(p, adj) for p in paths]
        best = min(costs)
        shortest = [p for p, c in zip(paths, costs) if c == best]
        through = sum(1 for p in shortest if v in p[1:-1])
        total += through / len(shortest)
    return total


def oracle_betweenness_all(n: int, adj: dict) -> list:
    """Betweenness for every node at once; one pair enumeration, shared credit."""
    totals = [0.0] * n
    for s, t in itertools.combinations(range(n), 2):
        paths = list(simple_paths(adj, s, t))
        if not paths:
            continue
        costs = [path_distance(p, adj) for p in paths]
        best = min(costs)
        shortest = [p for p, c in zip(paths, costs) if c == best]
        credit = 1.0 / len(shortest)
        for p in shortest:
            for v in p[1:-1]:
                totals[v] += credit
    return totals


def oracle_utility(adj: dict, v: int) -> float:
    neighbors = sorted(adj[v])
    if not neighbors:
        return 0.0
    n_v = len(neighbors)
    total = 0.0
    for j in neighbors:
        n_j = len(adj[j])
        total += 1.0 / n_v + 1.0 / n_j + 1.0 / (n_v * n_j)
    return total


def oracle_hop_path(n: int, adj: dict, s: int, t: int, score=None):
    """Minimum-hop path, maximizing the summed edge score among equal-hop
    paths, breaking remaining ties by smallest node sequence. None if t is
    unreachable from s."""
    if score is None:
        score = lambda a, b: adj[a][b]
    candidates = [p for p in simple_paths(adj, s, t)]
    if not candidates:
        return None
    fewest = min(len(p) for p in candidates)
    candidates = [p for p in candidates if len(p) == fewest]

    def total(path):
        acc = 0.0
        for a, b in zip(path, path[1:]):
            acc += score(a, b)
        return acc

    best = candidates[0]
    best_score = total(best)
    for p in candidates[1:]:
        sc = total(p)
        if sc > best_score or (sc == best_score and p < best):
            best, best_score = p, sc
    return best


# -- callable-scored hop paths -----------------------------------------------------
# The package's former hop-path sweep, which asked a callable for the score of
# each step it looked at, and its transfer efficiency, which summed the winning
# path a second time through the same callable. The array-scored forms must
# reproduce both bit for bit. Unlike ``oracle_hop_path``, which applies the
# rule "largest summed score, then smallest node sequence" to every path, the
# sweep keeps one path per node, so the two agree only where path sums are exact.


def callable_hop_path(g, source: int, target: int, score=None):
    """Minimum-hop path as a node tuple, None if unreachable; ``score(p, v)`` (default: the weight) scores the step p -> v."""
    score = g.weight if score is None else score
    best = {source: (0.0, (source,))}
    layer = [source]
    while layer and target not in best:
        reached = {}
        for p in layer:
            for v in g.neighbors(p):
                if v not in best:
                    total, path = best[p][0] + score(p, v), best[p][1]
                    top = reached.get(v)
                    if top is None or total > top[0] or (total == top[0] and path < top[1]):
                        reached[v] = total, path
        best.update((v, (total, path + (v,))) for v, (total, path) in reached.items())
        layer = list(reached)
    return best[target][1] if target in best else None


def edge_efficiency(g, workers, u: int, v: int) -> float:
    """Directional one-hop transfer quality: social(u) * weight(u, v) * cognitive(v)."""
    return float(workers.social[u] * g.weight(u, v) * workers.cognitive[v])


def path_score(path, score) -> float:
    """The path's step scores summed left to right from 0.0."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += score(a, b)
    return total


def resummed_transfer_efficiency(g, workers, u: int, v: int, single_division: bool = False):
    """Transfer efficiency with a scalar edge efficiency per step, its path summed a second time."""

    def score(a, b):
        return edge_efficiency(g, workers, a, b)

    path = callable_hop_path(g, u, v, score)
    if path is None:
        return None
    hops = len(path) - 1
    total = path_score(path, score)
    return total / hops if single_division else total / hops / hops


# -- sequential loops -------------------------------------------------------------
# The package's former per-node, per-edge and per-step loops. Its array forms
# must reproduce them bit for bit: the sums run in the same order.


def sequential_utility(g) -> np.ndarray:
    """Collaboration utility of each node, one node and one neighbor at a time."""
    out = []
    for v in g.nodes():
        deg_v = g.degree(v)
        total = 0.0
        for j in g.neighbors(v):
            deg_j = g.degree(j)
            total += 1.0 / deg_v + 1.0 / deg_j + 1.0 / (deg_v * deg_j)
        out.append(total)
    return np.array(out)


def sequential_average_weight(g) -> float:
    total = 0.0
    for _, _, w in g.edges():
        total += w
    return total / g.edge_count


def loop_stabilization_step(values: np.ndarray, tolerance: float) -> int:
    """``stabilization_step`` of a non-empty float curve, walking back from the final value."""
    final = values[-1]
    bound = tolerance * max(abs(final), np.finfo(float).tiny)
    stable_from = len(values) - 1
    for i in range(len(values) - 1, -1, -1):
        if abs(values[i] - final) <= bound:
            stable_from = i
        else:
            break
    return stable_from


def row_csv_lines(series) -> list[str]:
    """``TimeSeries.csv_lines`` written one f-string per row, as it was before the CSV template."""
    labels = [f"{metric},{scope}" for metric, scope in series.columns]
    cells = zip(itertools.product(series.steps, labels), series.values.ravel().tolist())  # row-major: step, column
    return ["step,metric,scope,value"] + [f"{t},{label},{v!r}" for (t, label), v in cells]


def loop_apply_expert(workers, nodes, boost_range, rng, boost_all: bool = False) -> np.ndarray:
    """``apply_expert``'s competences, one draw per node in turn: a node named twice is drawn twice, the last kept."""
    competences = workers.competences.copy()
    for v in nodes:
        idx = np.arange(workers.competences.shape[1]) if boost_all else np.flatnonzero(workers.masks[v] == 1.0)
        if idx.size:
            competences[v, idx] = rng.uniform(*boost_range, size=idx.size)
    return competences


def tuple_watts_strogatz(n: int, k: int, p: float, rng) -> list:
    """The Watts-Strogatz generator's edges as ``(u, v, 1.0)`` tuples, drawn in the package's rng order."""
    adj = [set() for _ in range(n)]
    for j in range(1, k // 2 + 1):
        for u in range(n):
            adj[u].add((u + j) % n)
            adj[(u + j) % n].add(u)
    for j in range(1, k // 2 + 1):
        for u in range(n):
            if rng.random() >= p:
                continue
            v = (u + j) % n
            if len(adj[u]) >= n - 1 or v not in adj[u]:
                continue
            w = int(rng.integers(n))
            while w == u or w in adj[u]:
                w = int(rng.integers(n))
            adj[u].remove(v)
            adj[v].remove(u)
            adj[u].add(w)
            adj[w].add(u)
    return [(u, v, 1.0) for u in range(n) for v in adj[u] if v > u]


# -- two-sweep centrality reference -------------------------------------------------
# One Dijkstra per source for closeness and another for betweenness: the
# package's single sweep must reproduce both arrays bit for bit.


def _inverse_adjacency(g) -> list:
    """Per node, ``(neighbor, 1/weight)`` in ascending neighbor order; zero weights left out."""
    adj = [[] for _ in range(g.node_count)]
    for u, v, w in zip(*(a.tolist() for a in g.directed_edge_arrays())):
        if w > 0.0:
            adj[v].append((u, 1.0 / w))
    return adj


def _dijkstra(adj: list, source: int):
    """Single-source stage of Brandes' algorithm: distances, path counts,
    predecessors and settle order."""
    n = len(adj)
    dist = [math.inf] * n
    sigma = [0.0] * n
    preds = [[] for _ in range(n)]
    dist[source] = 0.0
    sigma[source] = 1.0
    done = [False] * n
    order = []
    heap = [(0.0, source)]
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


def two_sweep_closeness_all(g) -> np.ndarray:
    """Closeness with each sum taken left to right over node ids.

    The loops are explicit: the builtin ``sum`` of floats is compensated
    from Python 3.12 on, so it would tie the floats to the Python version.
    """
    n = g.node_count
    out = np.zeros(n, dtype=float)
    adj = _inverse_adjacency(g)
    for v in range(n):
        dist = _dijkstra(adj, v)[0]
        others = [dist[u] for u in range(n) if u != v]
        total = 0.0
        if all(math.isfinite(d) for d in others):
            for d in others:
                total += d
            out[v] = (n - 1) / total if total > 0.0 else 0.0
        else:
            for d in others:
                if math.isfinite(d) and d > 0.0:
                    total += 1.0 / d
            out[v] = total
    return out


def two_sweep_betweenness_all(g) -> np.ndarray:
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


# -- per-worker diffusion reference ------------------------------------------------


@dataclass(frozen=True, eq=False)
class Worker:
    """One worker read from a population's columns: row views and scalar abilities."""

    id: int
    competences: np.ndarray
    mask: np.ndarray
    cognitive: float
    social: float
    forgetting: float


def worker(pop, i: int) -> Worker:
    """Worker i of a population: row i of every column."""
    abilities = (float(pop.cognitive[i]), float(pop.social[i]), float(pop.forgetting[i]))
    return Worker(i, pop.competences[i], pop.masks[i], *abilities)


@dataclass(frozen=True)
class KnowledgeResource:
    """A broadcast payload: one value per competence, zero outside the mask."""

    sender: int
    payload: np.ndarray


def create_resource(worker) -> KnowledgeResource:
    """Broadcast payload: social ability times masked competences."""
    payload = worker.social * worker.competences * worker.mask
    return KnowledgeResource(sender=worker.id, payload=payload)


def transmit(resource: KnowledgeResource, graph, sender: int) -> dict:
    """Deliver the resource to every neighbor, attenuated by tie strength."""
    out = {}
    for receiver in graph.neighbors(sender):
        w = graph.weight(sender, receiver)
        out[receiver] = KnowledgeResource(sender=resource.sender, payload=resource.payload * w)
    return out


def assimilate(worker, inbox, cognitive_gain: bool = True) -> np.ndarray:
    """Next competence vector for a worker holding its step-start values.

    ``inbox`` pairs each received resource with the sender's step-start
    competence snapshot. A payload element counts only where the sender's
    snapshot strictly exceeds the receiver's; qualifying elements from all
    senders add up. Forgetting applies in both branches.
    """
    current = worker.competences
    gain = np.zeros_like(current)
    for resource, sender_snapshot in inbox:
        qualifies = sender_snapshot > current
        gain += np.where(qualifies, resource.payload, 0.0)
    absorb = worker.cognitive if cognitive_gain else 1.0
    return (1.0 - worker.forgetting) * current + absorb * worker.mask * gain


def reference_step(state, cognitive_gain: bool = True, node_order=None) -> tuple[np.ndarray, np.ndarray]:
    """Next competence matrix and collector ledger of one synchronous step.

    Inboxes are canonicalized by sender id, so any ``node_order`` yields
    identical results.
    """
    pop = state.population
    n = len(pop)
    order = list(node_order) if node_order is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("node_order must be a permutation of all worker ids")

    snapshot = pop.competences.copy()
    inboxes = {i: [] for i in range(n)}
    for sender in order:
        resource = create_resource(worker(pop, sender))
        for receiver, delivered in transmit(resource, state.graph, sender).items():
            inboxes[receiver].append((delivered, snapshot[sender]))

    new_competences = np.zeros_like(snapshot)
    ledger = state.collector_ledger.copy()
    for i in order:
        inbox = sorted(inboxes[i], key=lambda item: item[0].sender)
        new_competences[i] = assimilate(worker(pop, i), inbox, cognitive_gain)
        if i in state.collectors:
            ledger[i] += sum(float(res.payload.sum()) for res, _ in inbox)
    return new_competences, ledger
