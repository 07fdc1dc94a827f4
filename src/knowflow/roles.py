"""Role allocation: node ranking strategies and expert/facilitator/collector actions."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from ._contract import _as_bool, _as_float, _as_ids, _as_int, _as_pair, _as_rng, _as_str, _is_int
from .diffusion import SimulationState
from .netgraph import GraphError, WeightedGraph, coauthor_utility, weighted_betweenness_all, weighted_closeness_all
from .workforce import Population

__all__ = [
    "ROLES",
    "RoleError",
    "STRATEGIES",
    "apply_collector",
    "apply_expert",
    "apply_facilitator",
    "rank_nodes",
    "select_top",
]


class RoleError(ValueError):
    """Invalid role or selection parameter."""


ROLES = ("expert", "facilitator", "collector")
# Node ranking strategies for picking role holders.
STRATEGIES = ("random", "degree", "closeness", "betweenness", "timesharing", "dissemination")


def rank_nodes(
    g: WeightedGraph,
    strategy: str,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Full node ranking under a strategy; deterministic given graph (and rng).

    Score ties break toward the smaller node id. ``random`` is a seeded
    shuffle and requires ``rng``. ``timesharing`` prefers high collaboration
    utility (exclusive attention), ``dissemination`` the lowest, i.e. nodes of
    modest degree attached to well-connected neighbors.
    """
    strategy = _as_str(strategy, "strategy", RoleError, choices=STRATEGIES)
    nodes = list(g.nodes())
    if strategy == "random":
        return [int(v) for v in _as_rng(rng, "rng", RoleError).permutation(g.node_count)]
    if strategy == "degree":
        scores = np.bincount(g.directed_edge_arrays()[1], minlength=g.node_count).tolist()
    elif strategy == "closeness":
        scores = list(weighted_closeness_all(g))
    elif strategy == "betweenness":
        scores = list(weighted_betweenness_all(g))
    else:
        utilities = coauthor_utility(g).tolist()
        if strategy == "timesharing":
            scores = utilities
        else:  # dissemination ranks ascending
            scores = [-u for u in utilities]
    return sorted(nodes, key=lambda v: (-scores[v], v))


def select_top(ranking: Sequence[int], count_or_fraction: int | float) -> list[int]:
    """Leading portion of a ranking.

    An int is an absolute count; a float is a fraction of the ranking length,
    rounded half-up to the nearest integer with a minimum of one node.
    """
    n = len(ranking)
    if n == 0:
        raise RoleError("ranking is empty")
    if _is_int(count_or_fraction):
        count = _as_int(count_or_fraction, "count", RoleError, lo=1, hi=n)
    else:
        fraction = _as_float(count_or_fraction, "fraction", RoleError, gt=0.0, hi=1.0)
        count = max(1, min(n, math.floor(fraction * n + 0.5)))
    return list(ranking[:count])


def apply_expert(
    workers: Population,
    nodes: Sequence[int],
    boost_range: tuple[float, float],
    rng: np.random.Generator,
    boost_all: bool = False,
) -> Population:
    """Re-draw the selected workers' masked competences uniformly in boost_range.

    Values are replaced, not added. ``boost_range`` is exactly a pair (low,
    high) with ``0 <= low <= high``, both finite. ``boost_all`` ignores the
    mask and refreshes the whole vector. Returns a new population;
    ``workers`` is left untouched.
    """
    lo, hi = _as_pair(boost_range, "boost_range", RoleError, lo=0.0)
    boost_all = _as_bool(boost_all, "boost_all", RoleError)
    rng = _as_rng(rng, "rng", RoleError)
    rows = np.array(_as_ids(nodes, "nodes", RoleError, len(workers), empty=True), dtype=np.intp)
    cells = np.ones((rows.size, workers.n_competences), dtype=bool) if boost_all else workers.masks[rows] == 1.0
    drawn = workers.competences[rows]
    drawn[cells] = rng.uniform(lo, hi, size=np.count_nonzero(cells))  # node order, then competence order
    # A node named twice keeps its last draw: each node's row is written once, from its last mention.
    last = rows.size - 1 - np.unique(rows[::-1], return_index=True)[1]
    competences = workers.competences.copy()
    competences[rows[last]] = drawn[last]
    competences.flags.writeable = False  # a fresh copy: the new population keeps it
    # The input's own columns plus draws inside the range: valid, unless the input's competences
    # already overflowed, which ``run`` reports with the step it happened at.
    return Population._trusted(competences, workers.masks, workers.cognitive, workers.social, workers.forgetting)


def apply_facilitator(g: WeightedGraph, nodes: Sequence[int], factor: float) -> WeightedGraph:
    """Scale every edge incident to any selected node by ``factor``, exactly once.

    An edge between two selected nodes is still scaled a single time. Returns
    a new graph; topology is untouched.
    """
    factor = _as_float(factor, "factor", RoleError, gt=0.0)
    selected = np.zeros(g.node_count, dtype=bool)
    selected[_as_ids(nodes, "nodes", RoleError, g.node_count, empty=True)] = True
    senders, receivers, weights = g.directed_edge_arrays()
    with np.errstate(over="ignore"):  # a weight that overflows is rejected below
        scaled = np.where(selected[senders] | selected[receivers], weights * factor, weights)
    bad = ~np.isfinite(scaled) & (senders > receivers)
    if bad.any():  # name the first in ascending (u, v) order
        i = int(np.argmax(bad))
        edge = (int(receivers[i]), int(senders[i]), float(scaled[i]))
        raise GraphError(f"edge {edge} rejected: edge weight must be finite and >= 0")
    return WeightedGraph._from_arrays(g.node_count, senders, receivers, scaled)


def apply_collector(state: SimulationState, nodes: Sequence[int]) -> SimulationState:
    """Flag nodes as collectors; the engine accrues their per-step intake."""
    ids = _as_ids(nodes, "nodes", RoleError, state.graph.node_count, empty=True)
    return replace(state, collectors=state.collectors.union(ids))
