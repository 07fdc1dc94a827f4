"""Communities of practice: interest-mask clustering, knowledge energy, tie insertion.

Acceleration inserts one tie at a time between the community pair that is
hardest to reach today: among member pairs ordered by knowledge energy and
not yet adjacent, the pair with the lowest knowledge-transfer efficiency gets
a new tie at the network's average tie strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .netgraph import WeightedGraph, add_edge, average_edge_weight, shortest_hop_path
from .workforce import KnowledgeWorker, Population

__all__ = [
    "Community",
    "CommunityError",
    "TieProposal",
    "accelerate",
    "accelerate_loop",
    "detect_communities",
    "edge_efficiency",
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
    a_on = np.asarray(a, dtype=float) == 1.0
    b_on = np.asarray(b, dtype=float) == 1.0
    union = np.count_nonzero(a_on | b_on)
    if union == 0:
        return 1.0
    return np.count_nonzero(a_on & b_on) / union


def _core_mask(member_masks: np.ndarray, rule: str, theta: float) -> np.ndarray:
    if rule == "and":
        return member_masks.min(axis=0)
    if rule == "majority":
        if not (0.0 < theta <= 1.0):
            raise CommunityError(f"majority threshold must lie in (0, 1], got {theta}")
        return (member_masks.mean(axis=0) >= theta).astype(float)
    raise CommunityError(f"unknown core rule {rule!r}; expected 'and' or 'majority'")


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
    if method == "fixture":
        if not fixture:
            raise CommunityError("fixture method needs explicit (members, core indices) entries")
        out: list[Community] = []
        for z, (members, core_indices) in enumerate(fixture):
            member_ids = tuple(sorted(int(v) for v in members))
            if not member_ids:
                raise CommunityError(f"community {z} has no members")
            for v in member_ids:
                if not (0 <= v < n):
                    raise CommunityError(f"community {z} member {v} is not a worker id")
            if len(set(member_ids)) != len(member_ids):
                raise CommunityError(f"community {z} repeats a member")
            core = np.zeros(m)
            for c in core_indices:
                if not (0 <= int(c) < m):
                    raise CommunityError(f"community {z} core index {c} outside competence vector")
                core[int(c)] = 1.0
            out.append(Community(id=z, members=member_ids, core_mask=core))
        return out

    if method != "jaccard":
        raise CommunityError(f"unknown detection method {method!r}; expected 'jaccard' or 'fixture'")
    if not (0.0 < threshold <= 1.0):
        raise CommunityError(f"similarity threshold must lie in (0, 1], got {threshold}")

    groups: list[dict] = []
    for v in range(n):
        mask_v = workers.masks[v]
        joined = False
        for grp in groups:
            if jaccard_similarity(mask_v, grp["core"]) >= threshold:
                grp["members"].append(v)
                grp["core"] = _core_mask(workers.masks[grp["members"]], core_rule, core_theta)
                joined = True
        if not joined:
            groups.append({"members": [v], "core": mask_v.copy()})
    return [
        Community(id=z, members=tuple(grp["members"]), core_mask=np.asarray(grp["core"], dtype=float))
        for z, grp in enumerate(groups)
    ]


# -- energy and efficiency ----------------------------------------------------------


def knowledge_energy(worker: KnowledgeWorker, core_mask: np.ndarray) -> float:
    """Potential of a worker to push core knowledge: core competences x s x o."""
    core = np.asarray(core_mask, dtype=float)
    if core.shape != worker.competences.shape:
        raise CommunityError("core mask length does not match competence vector")
    return float(np.dot(worker.competences, core) * worker.social * worker.cognitive)


def energy_ranking(community: Community, workers: Population) -> list[tuple[int, float]]:
    """Members by descending knowledge energy; energy ties break toward lower id."""
    pairs = [(v, knowledge_energy(workers.worker(v), community.core_mask)) for v in community.members]
    return sorted(pairs, key=lambda item: (-item[1], item[0]))


def edge_efficiency(g: WeightedGraph, workers: Population, u: int, v: int) -> float:
    """Directional one-hop transfer quality: social(u) * weight(u, v) * cognitive(v)."""
    if u == v:
        raise CommunityError("edge efficiency needs distinct endpoints")
    return float(workers.social[u] * g.weight(u, v) * workers.cognitive[v])


def transfer_efficiency(
    g: WeightedGraph,
    workers: Population,
    u: int,
    v: int,
    single_division: bool = False,
) -> float | None:
    """Efficiency of pushing knowledge from u to v along the best hop-shortest path.

    Sums the directional per-edge efficiencies along the path, then divides by
    the edge count twice (default) or once (``single_division``). Adjacent
    pairs reduce to the plain edge efficiency. None when v is unreachable.
    """
    score = partial(edge_efficiency, g, workers)
    path = shortest_hop_path(g, u, v, edge_score=score)
    if path is None:
        return None
    total = 0.0
    seq = path.nodes
    for a, b in zip(seq, seq[1:]):
        total += score(a, b)
    hops = path.edge_count
    if single_division:
        return total / hops
    return total / hops / hops


@dataclass(frozen=True)
class TieProposal:
    """A tie to insert, with its pre-insertion efficiency; ``community`` is None for a manual tie.

    ``efficiency_before`` is None when the target was unreachable from the source.
    """

    community: int | None
    source: int
    target: int
    weight: float
    efficiency_before: float | None

    def as_record(self) -> dict:
        return {
            "community": self.community,
            "from": self.source,
            "to": self.target,
            "weight": self.weight,
            "efficiency_before": self.efficiency_before,
        }


def accelerate(
    community: Community,
    g: WeightedGraph,
    workers: Population,
    tie_weight: float | None = None,
    single_division: bool = False,
) -> TieProposal | None:
    """Propose one new tie inside a community, or None when no pair qualifies.

    Candidate pairs (u, v) need strictly higher knowledge energy at u than at
    v and no existing edge. The pair with the lowest transfer efficiency wins;
    efficiency ties break toward the smaller source id, then target id. The
    tie weight defaults to the network's average tie strength.
    """
    ranking = energy_ranking(community, workers)
    best: tuple[float, int, int] | None = None
    for u, eu in ranking:
        for v, ev in ranking:
            if u == v or not (eu > ev) or g.has_edge(u, v):
                continue
            eff = transfer_efficiency(g, workers, u, v, single_division=single_division)
            if eff is None:
                continue
            key = (eff, u, v)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    eff, u, v = best
    weight = float(tie_weight) if tie_weight is not None else average_edge_weight(g)
    return TieProposal(community=community.id, source=u, target=v, weight=weight, efficiency_before=eff)


def accelerate_loop(
    community: Community,
    g: WeightedGraph,
    workers: Population,
    budget: int,
    tie_weight: float | None = None,
    min_efficiency: float | None = None,
    single_division: bool = False,
) -> tuple[WeightedGraph, list[TieProposal]]:
    """Insert up to ``budget`` accelerator ties, re-evaluating after each one.

    Stops early when no pair qualifies or when the next candidate's efficiency
    already reaches ``min_efficiency``.
    """
    if budget < 0:
        raise CommunityError(f"tie budget must be >= 0, got {budget}")
    proposals: list[TieProposal] = []
    for _ in range(budget):
        proposal = accelerate(
            community, g, workers, tie_weight=tie_weight, single_division=single_division
        )
        if proposal is None:
            break
        if min_efficiency is not None and proposal.efficiency_before >= min_efficiency:
            break
        g = add_edge(g, proposal.source, proposal.target, proposal.weight)
        proposals.append(proposal)
    return g, proposals
