"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark's host shares its CPUs with other machines, and its speed
changes by 20-35% within seconds to minutes, on every vCPU at once. Each
benchmark child times this computation just before and just after its
experiment, and the runner scales the child's times by
``NOMINAL_S / gauge``: a repeat that ran while the host was slow is scaled
down by as much as the reference slowed down around it.

The work mixes what the program spends its time on, in three parts of about
10 ms each: a pure-Python Dijkstra over a dict-of-dicts graph with
``heapq`` (the centralities and hop paths), small numpy arrays in a loop
(the diffusion step at 25 nodes) and large gathers with ``np.add.at`` (the
diffusion step at 4840 nodes). It never touches knowflow, so no change to
the program can move it. The large part needs a few MiB, so the child runs it
only after it has read its peak RSS. The module imports nothing the program
does not import itself.

    python3 benchmark/reference.py    # prints the gauge, to re-derive NOMINAL_S
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# ``gauge()`` of eight passes on the host the bounds were set on (2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4), at its usual speed.
NOMINAL_S = 0.029


def _dijkstra(graph: dict[int, dict[int, float]], source: int) -> float:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in graph[v].items():
            nd = d + w
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return sum(dist.values())


def python_part() -> float:
    n = 300
    graph: dict[int, dict[int, float]] = {v: {} for v in range(n)}
    for v in range(n):
        for j in range(1, 4):
            u = (v + j * j) % n
            graph[v][u] = graph[u][v] = 0.5 + ((v * 7 + j * 13) % 10) / 10.0
    return sum(_dijkstra(graph, source) for source in range(0, n, 20))


def _arrays(nodes: int, edges: int, rounds: int) -> float:
    state = np.linspace(0.0, 1.0, nodes * 10).reshape(nodes, 10)
    src = np.arange(edges) % nodes
    dst = (np.arange(edges) * 11 + 5) % nodes
    for _ in range(rounds):
        gains = np.zeros_like(state)
        np.add.at(gains, dst, state[src] * 0.1 * (state[src] > state[dst]))
        state = 0.99 * state + gains
    return float(state.sum())


def small_part() -> float:
    return _arrays(25, 100, 250)


def large_part() -> float:
    return _arrays(4840, 19360, 1)


PARTS = (python_part, small_part, large_part)
# The parts that may run before a measured experiment: they need well under
# 1 MiB, which the experiment reuses, so they leave its peak RSS as it is.
LIGHT_PARTS = (python_part, small_part)


def passes(count: int, parts=PARTS) -> dict[str, list[float]]:
    """Seconds taken by each of ``parts``, in each of ``count`` passes."""
    times: dict[str, list[float]] = {part.__name__: [] for part in parts}
    for _ in range(count):
        for part in parts:
            t0 = time.perf_counter()
            part()
            times[part.__name__].append(time.perf_counter() - t0)
    return times


def gauge(*runs: dict[str, list[float]]) -> float:
    """Sum over the parts of the median time of each part over ``runs``."""
    merged: dict[str, list[float]] = {}
    for run in runs:
        for name, values in run.items():
            merged.setdefault(name, []).extend(values)
    return sum(_median(values) for values in merged.values())


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


if __name__ == "__main__":
    passes(1)
    print(f"gauge {gauge(passes(8)):.6f} s (NOMINAL_S = {NOMINAL_S})")
