"""The benchmark's workloads, shared by the runner, the golden-record builder
and the smoke tests.

Each workload starts from a shipped fixture. The benchmark only chooses the
experiment seeds (drawn from the range the golden record covers) and, where a
size says so, overrides a few fixture fields; the program then receives
nothing but the resulting config and seed list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Spans every workload fires: parsing, graph and population set-up, the
# diffusion loop with its probes, aggregation and report emission.
COMMON_SPANS = (
    "scenario.parse_config",
    "scenario.run_experiment",
    "scenario.emit_report",
    "scenario.stream_rng",
    "netgraph.generate_watts_strogatz",
    "netgraph.assign_weights",
    "workforce.init_workers",
    "workforce.Population",
    "diffusion.run",
    "diffusion.step",
    "diffusion.Probe.measure",
)


@dataclass(frozen=True)
class Size:
    """How big one repeat of a workload is.

    ``seed_range`` is the inclusive range of experiment seeds the golden
    record covers; each run draws ``seeds_per_repeat`` of them from its
    ``--seed``. ``overrides`` maps dotted fixture keys to replacement values;
    with none, the child loads the shipped fixture itself.
    """

    seed_range: tuple[int, int]
    seeds_per_repeat: int
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    why: str
    expected_spans: tuple[str, ...]
    sizes: dict[str, Size]

    def experiment_seeds(self, size: str, seed: int) -> list[int]:
        """The experiment seeds one run uses; the same ``seed`` gives the same list."""
        spec = self.sizes[size]
        lo, hi = spec.seed_range
        return sorted(random.Random(seed).sample(range(lo, hi + 1), spec.seeds_per_repeat))

    def scenario(self, size: str, root: Path) -> dict:
        """The fixture JSON with this size's overrides applied."""
        data = json.loads((root / "src" / "knowflow" / "fixtures" / f"{self.fixture}.json").read_text())
        for dotted, value in self.sizes[size].overrides.items():
            *parents, leaf = dotted.split(".")
            node = data
            for key in parents:
                node = node[key]
            node[leaf] = value
        return data


EXPERT_STRATEGIES = ("random", "degree", "closeness", "betweenness", "timesharing", "dissemination")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig2-expert",
            fixture="fig2",
            why="shipped fig2 (484 nodes, 7 expert variants, 500 steps): centrality ranking and diffusion both dominate",
            expected_spans=COMMON_SPANS
            + (
                "netgraph.weighted_closeness_all",
                "netgraph.weighted_betweenness_all",
                "netgraph.coauthor_utility",
                "roles.apply_expert",
            )
            + tuple(f"roles.rank_nodes.{s}" for s in EXPERT_STRATEGIES),
            sizes={
                "full": Size(seed_range=(1, 32), seeds_per_repeat=1),
                "tiny": Size(
                    seed_range=(1, 4),
                    seeds_per_repeat=1,
                    overrides={"network.nodes": 60, "run.steps": 5},
                ),
            },
        ),
        Workload(
            name="fig9-community",
            fixture="fig9",
            why="shipped fig9 (25 nodes, tie acceleration, 4 probes): fixed per-step cost dominates, no centralities",
            expected_spans=COMMON_SPANS
            + (
                "community.detect_communities",
                "community.accelerate_loop",
                "community.transfer_efficiency",
                "netgraph.shortest_hop_path",
                "netgraph.add_edge",
            ),
            sizes={
                "full": Size(seed_range=(1, 64), seeds_per_repeat=12),
                "tiny": Size(seed_range=(1, 4), seeds_per_repeat=2, overrides={"run.steps": 5}),
            },
        ),
        Workload(
            name="scale-4840",
            fixture="fig2",
            why="fig2 at 10x nodes (4840), cheap strategies only, 100 steps: the diffusion step on large arrays",
            expected_spans=COMMON_SPANS
            + (
                "netgraph.coauthor_utility",
                "roles.apply_expert",
                "roles.rank_nodes.degree",
                "roles.rank_nodes.timesharing",
            ),
            sizes={
                "full": Size(
                    seed_range=(1, 24),
                    seeds_per_repeat=1,
                    overrides={
                        "name": "scale-4840",
                        "network.nodes": 4840,
                        "role_plan.strategies": ["none", "degree", "timesharing"],
                        "run.steps": 100,
                    },
                ),
                "tiny": Size(
                    seed_range=(1, 4),
                    seeds_per_repeat=1,
                    overrides={
                        "name": "scale-4840",
                        "network.nodes": 200,
                        "role_plan.strategies": ["none", "degree", "timesharing"],
                        "run.steps": 5,
                    },
                ),
            },
        ),
    )
}


def variants(scenario: dict) -> list[str]:
    """Variant names as the program derives them: one per strategy, else ``default``."""
    plan = scenario.get("role_plan")
    return list(plan["strategies"]) if plan else ["default"]


def node_steps(scenario: dict, n_seeds: int) -> int:
    """Sum of nodes x steps over every (variant, seed) run of one experiment."""
    return scenario["network"]["nodes"] * scenario["run"]["steps"] * len(variants(scenario)) * n_seeds
