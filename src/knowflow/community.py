"""Communities of practice: interest-mask clustering, knowledge energy, tie insertion.

Acceleration inserts one tie at a time between the community pair that is
hardest to reach today: among member pairs ordered by knowledge energy and
not yet adjacent, the pair with the lowest knowledge-transfer efficiency gets
a new tie at the network's average tie strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._contract import _as_array, _as_bool, _as_float, _as_ids, _as_int, _as_list, _as_str, _is_list
from .netgraph import WeightedGraph, add_edge, average_edge_weight, shortest_hop_path
from .workforce import Population

__all__ = [
    "Community",
    "CommunityError",
    "accelerate_loop",
    "detect_communities",
    "energy_ranking",
    "jaccard_similarity",
    "knowledge_energy",
    "transfer_efficiency",
]


class CommunityError(ValueError):
    """Invalid community parameter or fixture definition."""


@dataclass(frozen=True, eq=False)
class Community:
    """A set of workers sharing an interest area, with its core interest mask."""

    id: int
    members: tuple[int, ...]
    core_mask: np.ndarray


def jaccard_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two 0/1 masks; two empty masks count as identical."""
    a_on = _as_array(a, "a", CommunityError) == 1.0
    b_on = _as_array(b, "b", CommunityError, a_on.shape) == 1.0
    union = np.count_nonzero(a_on | b_on)
    if union == 0:
        return 1.0
    return np.count_nonzero(a_on & b_on) / union


def _core_mask(member_masks: np.ndarray, rule: str, theta: float) -> np.ndarray:
    if rule == "and":
        return member_masks.min(axis=0)
    return (member_masks.mean(axis=0) >= theta).astype(float)


def detect_communities(
    workers: Population,
    method: str = "jaccard",
    threshold: float = 0.5,
    fixture: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None,
    core_rule: str = "and",
    core_theta: float = 0.5,
) -> list[Community]:
    """Group workers into (possibly overlapping) interest communities.

    ``jaccard``: greedy, in worker-id order; a worker joins every existing
    community whose current core mask is at least ``threshold`` similar to its
    own mask (cores are recomputed after each join), otherwise founds a new
    one. ``fixture``: communities are given explicitly as (member ids, core
    competence indices) pairs.
    """
    n, m = workers.masks.shape
    if _as_str(method, "method", CommunityError, choices=("fixture", "jaccard")) == "fixture":

        def community(entry: Sequence, path: str) -> tuple[tuple[int, ...], np.ndarray]:
            if not _is_list(entry) or len(entry) != 2:
                raise CommunityError(f"{path}: expected a (members, core) pair")
            members = tuple(sorted(_as_ids(entry[0], f"{path}.members", CommunityError, n, unique="member")))
            core = np.zeros(m)
            core[_as_ids(entry[1], f"{path}.core", CommunityError, m, empty=True)] = 1.0
            return members, core

        entries = _as_list(fixture, "fixture", CommunityError, item=community)
        return [Community(z, *entry) for z, entry in enumerate(entries)]

    threshold = _as_float(threshold, "threshold", CommunityError, gt=0.0, hi=1.0)
    if _as_str(core_rule, "core_rule", CommunityError, choices=("and", "majority")) == "majority":
        core_theta = _as_float(core_theta, "core_theta", CommunityError, gt=0.0, hi=1.0)

    members: list[list[int]] = []
    cores: list[np.ndarray] = []
    for v in range(n):
        # A join changes only the joined community's core, so each test reads the core it would see in turn.
        joined = [z for z, core in enumerate(cores) if jaccard_similarity(workers.masks[v], core) >= threshold]
        for z in joined:
            members[z].append(v)
            cores[z] = _core_mask(workers.masks[members[z]], core_rule, core_theta)
        if not joined:
            members.append([v])
            cores.append(workers.masks[v].copy())
    return [Community(z, tuple(ids), np.asarray(core, dtype=float)) for z, (ids, core) in enumerate(zip(members, cores))]


# -- energy and efficiency ----------------------------------------------------------


def knowledge_energy(workers: Population, v: int, core_mask: np.ndarray) -> float:
    """Potential of worker v to push core knowledge: core competences x s x o."""
    v = _as_int(v, "v", CommunityError, lo=0, lt=len(workers))
    core = _as_array(core_mask, "core_mask", CommunityError, (workers.n_competences,))
    return float(np.dot(workers.competences[v], core) * workers.social[v] * workers.cognitive[v])


def energy_ranking(community: Community, workers: Population) -> list[tuple[int, float]]:
    """Members by descending knowledge energy; energy ties break toward lower id."""
    pairs = [(v, knowledge_energy(workers, v, community.core_mask)) for v in community.members]
    return sorted(pairs, key=lambda item: (-item[1], item[0]))


def _check_sizes(g: WeightedGraph, workers: Population) -> None:
    if len(workers) != g.node_count:
        raise CommunityError(f"population has {len(workers)} workers but the graph has {g.node_count} nodes")


def transfer_efficiency(
    g: WeightedGraph,
    workers: Population,
    u: int,
    v: int,
    single_division: bool = False,
) -> float | None:
    """Efficiency of pushing knowledge from u to v along the best hop-shortest path.

    A step p -> q scores its directional transfer quality, social(p) *
    weight(p, q) * cognitive(q). The path's scores are summed, then divided
    by the edge count twice (default) or once (``single_division``), so an
    adjacent pair scores its one step. None when v is unreachable.
    """
    _check_sizes(g, workers)
    single_division = _as_bool(single_division, "single_division", CommunityError)
    senders, receivers, weights = g.directed_edge_arrays()
    # Slot i of node p's row scores the step p -> senders[i], in that operand order.
    path = shortest_hop_path(g, u, v, edge_score=workers.social[receivers] * weights * workers.cognitive[senders])
    if path is None:
        return None
    nodes, score = path
    hops = len(nodes) - 1
    return score / hops if single_division else score / hops / hops


def _insert_tie(
    g: WeightedGraph,
    records: list[dict],
    community: int | None,
    u: int,
    v: int,
    tie_weight: float | None,
    efficiency: float | None,
) -> WeightedGraph:
    """``g`` plus the tie (u, v) at ``tie_weight`` or else ``g``'s average, recorded in ``records``."""
    weight = tie_weight if tie_weight is not None else average_edge_weight(g)
    records.append({"community": community, "from": u, "to": v, "weight": weight, "efficiency_before": efficiency})
    return add_edge(g, u, v, weight)


def accelerate_loop(
    community: Community,
    g: WeightedGraph,
    workers: Population,
    budget: int,
    tie_weight: float | None = None,
    min_efficiency: float | None = None,
    single_division: bool = False,
) -> tuple[WeightedGraph, list[dict]]:
    """Insert up to ``budget`` accelerator ties inside a community, re-evaluating after each one.

    Candidate pairs (u, v) need strictly higher knowledge energy at u than at
    v and no edge in the current graph. The pair with the lowest transfer
    efficiency wins; efficiency ties break toward the smaller source id, then
    target id. The tie weight defaults to the current graph's average tie
    strength. Stops early when no pair qualifies or when the next
    candidate's efficiency already reaches ``min_efficiency``. Returns the
    graph and one record per inserted tie.
    """
    _check_sizes(g, workers)
    budget = _as_int(budget, "budget", CommunityError, lo=0)
    single_division = _as_bool(single_division, "single_division", CommunityError)
    if tie_weight is not None:
        tie_weight = _as_float(tie_weight, "tie_weight", CommunityError, gt=0.0)
    if min_efficiency is not None:
        min_efficiency = _as_float(min_efficiency, "min_efficiency", CommunityError, lo=0.0)
    # Energies depend on the population alone, which no tie changes.
    ranking = energy_ranking(community, workers)
    ordered = [(u, v) for u, eu in ranking for v, ev in ranking if eu > ev]
    records: list[dict] = []
    for _ in range(budget):
        pairs = [(u, v) for u, v in ordered if not g.has_edge(u, v)]
        scored = [
            (e, u, v) for u, v in pairs if (e := transfer_efficiency(g, workers, u, v, single_division)) is not None
        ]
        if not scored:
            break
        eff, u, v = min(scored)
        if min_efficiency is not None and eff >= min_efficiency:
            break
        g = _insert_tie(g, records, community.id, u, v, tie_weight, eff)
    return g, records
