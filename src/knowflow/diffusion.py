"""Synchronous knowledge diffusion over a weighted graph.

Each step every worker broadcasts one resource per masked competence, scaled
by own social ability; edges attenuate the payload by tie strength; receivers
assimilate only payloads whose sender knew strictly more at the start of the
step, scaled by own mask and (by default) cognitive ability. Everyone forgets
a fixed fraction each step, whether or not anything arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .netgraph import WeightedGraph
from .workforce import Population

__all__ = [
    "DiffusionConfig",
    "DiffusionError",
    "Probe",
    "SimulationState",
    "TimeSeries",
    "collector_probes",
    "probe_average",
    "probe_mask",
    "probe_node",
    "run",
    "step",
]


class DiffusionError(ValueError):
    """Invalid diffusion parameter or inconsistent simulation state."""


@dataclass(frozen=True)
class DiffusionConfig:
    """Engine flags.

    ``cognitive_gain`` multiplies assimilated amounts by the receiver's
    cognitive ability (the documented behavior); switching it off drops that
    factor for sensitivity runs.
    """

    cognitive_gain: bool = True


DEFAULT_CONFIG = DiffusionConfig()


@dataclass(frozen=True)
class SimulationState:
    """Snapshot between steps: graph, population, collector ledger.

    The dataclass is frozen and the graph is an immutable value: an
    intervention on the network puts a new graph into a new state.
    """

    graph: WeightedGraph
    population: Population
    step: int = 0
    collectors: frozenset[int] = frozenset()
    collector_ledger: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gating_violations: int = 0

    @classmethod
    def initial(cls, graph: WeightedGraph, population: Population) -> "SimulationState":
        if graph.node_count != len(population):
            raise DiffusionError(
                f"graph has {graph.node_count} nodes but population has {len(population)} workers"
            )
        return cls(
            graph=graph,
            population=population,
            step=0,
            collectors=frozenset(),
            collector_ledger=np.zeros(len(population)),
        )


# -- engine -----------------------------------------------------------------------


def step(state: SimulationState, config: DiffusionConfig = DEFAULT_CONFIG) -> SimulationState:
    """One synchronous update of the whole population.

    All gating decisions use the step-start competence matrix, so the result
    does not depend on any processing order.
    """
    pop = state.population
    snapshot = pop.competences  # never mutated below; arrays are rebuilt
    masks = pop.masks
    senders, receivers, weights = state.graph.directed_edge_arrays()

    gains = np.zeros_like(snapshot)
    violations = 0
    ledger = state.collector_ledger
    if senders.size:
        payload = pop.social[:, None] * snapshot * masks
        delivered = payload[senders] * weights[:, None]
        gate = snapshot[senders] > snapshot[receivers]
        contrib = delivered * gate
        np.add.at(gains, receivers, contrib)
        violations = int(np.count_nonzero((contrib != 0.0) & ~gate))
        if state.collectors:
            inflow = np.zeros(len(pop))
            np.add.at(inflow, receivers, delivered.sum(axis=1))
            ledger = ledger.copy()
            idx = np.fromiter(state.collectors, dtype=np.intp)
            ledger[idx] += inflow[idx]

    absorb = pop.cognitive[:, None] if config.cognitive_gain else 1.0
    new_competences = (1.0 - pop.forgetting)[:, None] * snapshot + absorb * masks * gains
    new_pop = Population(new_competences, masks, pop.cognitive, pop.social, pop.forgetting)
    return replace(
        state,
        population=new_pop,
        step=state.step + 1,
        collector_ledger=ledger,
        gating_violations=state.gating_violations + violations,
    )


# -- probes and time series ---------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """A named per-step measurement over the simulation state."""

    metric: str
    scope: str
    measure: Callable[[SimulationState], float]


def probe_average() -> Probe:
    return Probe(
        metric="average_competence",
        scope="all",
        measure=lambda st: float(st.population.competences.mean()),
    )


def probe_node(node: int) -> Probe:
    return Probe(
        metric="average_competence",
        scope=f"node:{node}",
        measure=lambda st: float(st.population.competences[node].mean()),
    )


def probe_mask(name: str, competences: Sequence[int], members: Sequence[int] | None = None) -> Probe:
    """Mean competence over chosen competence positions and (optionally) members."""
    comp_idx = np.asarray(sorted(int(c) for c in competences), dtype=np.intp)
    member_idx = None if members is None else np.asarray(sorted(int(m) for m in members), dtype=np.intp)

    def measure(st: SimulationState) -> float:
        matrix = st.population.competences
        if member_idx is not None:
            matrix = matrix[member_idx]
        return float(matrix[:, comp_idx].mean())

    return Probe(metric="average_competence", scope=f"mask:{name}", measure=measure)


def collector_probes(collectors: Iterable[int]) -> list[Probe]:
    """Cumulative intake per collector plus the grand total (scope ``all``)."""
    ids = sorted(int(c) for c in collectors)
    probes = [
        Probe(
            metric="collector_intake",
            scope="all",
            measure=lambda st: float(st.collector_ledger[sorted(st.collectors)].sum()) if st.collectors else 0.0,
        )
    ]
    for c in ids:
        probes.append(
            Probe(
                metric="collector_intake",
                scope=f"collector:{c}",
                measure=(lambda cc: lambda st: float(st.collector_ledger[cc]))(c),
            )
        )
    return probes


class TimeSeries:
    """Per-step probe values in a fixed column order, exportable as CSV."""

    def __init__(self, columns: Sequence[tuple[str, str]]):
        if len(set(columns)) != len(columns):
            raise DiffusionError("duplicate (metric, scope) probe columns")
        self.columns: list[tuple[str, str]] = list(columns)
        self.steps: list[int] = []
        self._data: dict[tuple[str, str], list[float]] = {c: [] for c in self.columns}

    def record(self, step_index: int, values: Mapping[tuple[str, str], float]) -> None:
        self.steps.append(int(step_index))
        for col in self.columns:
            self._data[col].append(float(values[col]))

    def column(self, metric: str, scope: str = "all") -> np.ndarray:
        key = (metric, scope)
        if key not in self._data:
            raise DiffusionError(f"no recorded column for metric={metric!r} scope={scope!r}")
        return np.asarray(self._data[key], dtype=float)

    def __len__(self) -> int:
        return len(self.steps)

    def csv_lines(self) -> list[str]:
        """Long-format rows ``step,metric,scope,value``; shortest round-trip floats."""
        lines = ["step,metric,scope,value"]
        for i, t in enumerate(self.steps):
            for metric, scope in self.columns:
                lines.append(f"{t},{metric},{scope},{self._data[(metric, scope)][i]!r}")
        return lines


def run(
    state: SimulationState,
    steps: int,
    probes: Sequence[Probe],
    config: DiffusionConfig = DEFAULT_CONFIG,
    interventions: Mapping[int, Callable[[SimulationState], SimulationState]] | None = None,
) -> tuple[SimulationState, TimeSeries]:
    """Advance ``steps`` times, recording probes at the initial state and after
    every step (a zero-step run yields a length-1 series).

    ``interventions`` maps a step index to a state transform applied after the
    probe record at that index, i.e. between steps.
    """
    if steps < 0:
        raise DiffusionError(f"step count must be >= 0, got {steps}")
    plan = dict(interventions) if interventions else {}
    series = TimeSeries([(p.metric, p.scope) for p in probes])

    def snapshot_values(st: SimulationState) -> dict[tuple[str, str], float]:
        return {(p.metric, p.scope): float(p.measure(st)) for p in probes}

    series.record(state.step, snapshot_values(state))
    for _ in range(steps):
        if state.step in plan:
            state = plan[state.step](state)
        state = step(state, config)
        series.record(state.step, snapshot_values(state))
    return state, series
