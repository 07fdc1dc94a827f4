"""Synchronous knowledge diffusion over a weighted graph.

Each step every worker broadcasts one resource per masked competence, scaled
by own social ability; edges attenuate the payload by tie strength; receivers
assimilate only payloads whose sender knew strictly more at the start of the
step, scaled by own mask and (by default) cognitive ability. Everyone forgets
a fixed fraction each step, whether or not anything arrives.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
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
    intervention on the network puts a new graph into a new state. Every step
    returns a state whose competence matrix is a fresh array.
    """

    graph: WeightedGraph
    population: Population
    step: int = 0
    collectors: frozenset[int] = frozenset()
    collector_ledger: np.ndarray = field(default_factory=lambda: np.zeros(0))

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


class _RunPlan:
    """What every step of a run shares until the next intervention.

    A (directed edge, competence) pair can change a competence only if the
    sender broadcasts it and the receiver absorbs it, that is, only if both
    masks hold it. The plan lists these live pairs once, in (edge,
    competence) order: flat sender and receiver indices ``node * m + k``,
    the sender's social ability and the edge weight. It also holds the step
    invariants ``cognitive * mask`` (``mask`` without cognitive gain) and
    ``1 - f``, the collectors' incoming edges, and work buffers that each
    step overwrites. Building it validates the population, so a run checks
    its state at its boundaries instead of on every step. No buffer is ever
    handed out in a state.
    """

    def __init__(self, state: SimulationState, config: DiffusionConfig):
        pop = state.population
        pop._validate()
        n, m = pop.competences.shape
        senders, receivers, weights = state.graph.directed_edge_arrays()
        held = pop.masks != 0.0
        live = held.take(senders, axis=0) & held.take(receivers, axis=0)
        # Row-major order keeps edge order, which is ascending sender within
        # each receiver, so every scatter bin adds its pairs in that order.
        edge, comp = np.divmod(np.flatnonzero(live), m)
        live_senders = senders[edge]
        self.sender_flat = live_senders * m + comp
        self.receiver_flat = receivers[edge] * m + comp
        # A live sender's mask is 1, so social * c is its social * mask * c.
        self.sender_social = pop.social[live_senders]
        self.live_weights = weights[edge]
        self.absorb_mask = pop.cognitive[:, None] * pop.masks if config.cognitive_gain else pop.masks
        # Full rows: a (n, 1) factor makes the ufunc loop once per row of m.
        self.keep = np.repeat((1.0 - pop.forgetting)[:, None], m, axis=1)
        self.collectors = np.fromiter(state.collectors, dtype=np.intp)
        # A collector's intake counts every raw delivery, live or not, so it
        # keeps whole payload rows of its incoming edges.
        into = np.isin(receivers, self.collectors)
        self.into_senders, self.into_receivers = senders[into], receivers[into]
        self.into_social_mask = pop.social[self.into_senders, None] * pop.masks[self.into_senders]
        self.into_weights = weights[into][:, None]
        self.delivered = np.empty(edge.size)
        self.sender_c = np.empty(edge.size)
        self.receiver_c = np.empty(edge.size)
        self.gate = np.empty(edge.size, dtype=bool)
        self.decayed = np.empty((n, m))


def step(
    state: SimulationState,
    config: DiffusionConfig = DEFAULT_CONFIG,
    *,
    _plan: _RunPlan | None = None,
) -> SimulationState:
    """One synchronous update of the whole population.

    All gating decisions use the step-start competence matrix, so the result
    does not depend on any processing order. Only the plan's live pairs are
    gathered, gated and scattered: a pair outside the sender's mask would add
    exactly ``+0.0`` to its bin, and a bin outside the receiver's mask is
    multiplied by 0, so the result is bit-identical to streaming all E x m
    pairs. ``run`` passes its plan; a bare call builds one for this step
    alone.
    """
    plan = _RunPlan(state, config) if _plan is None else _plan
    pop = state.population
    snapshot = pop.competences

    ledger = state.collector_ledger
    if plan.collectors.size:
        payload = plan.into_social_mask * snapshot.take(plan.into_senders, axis=0)
        intake = (payload * plan.into_weights).sum(axis=1)
        inflow = np.bincount(plan.into_receivers, weights=intake, minlength=len(pop))
        ledger = ledger.copy()
        ledger[plan.collectors] += inflow[plan.collectors]
    # mode="clip" lets take write straight into ``out`` ("raise" copies through
    # a temporary); the indices come from a validated graph.
    sender_c = snapshot.ravel().take(plan.sender_flat, out=plan.sender_c, mode="clip")
    receiver_c = snapshot.ravel().take(plan.receiver_flat, out=plan.receiver_c, mode="clip")
    delivered = np.multiply(plan.sender_social, sender_c, out=plan.delivered)
    np.multiply(delivered, plan.live_weights, out=delivered)
    np.multiply(delivered, np.greater(sender_c, receiver_c, out=plan.gate), out=delivered)
    # astype: with no live pairs at all, bincount returns integer zeros.
    gains = np.bincount(plan.receiver_flat, weights=delivered, minlength=snapshot.size).astype(float, copy=False)
    competences = gains.reshape(snapshot.shape)
    np.multiply(plan.absorb_mask, competences, out=competences)
    np.add(np.multiply(plan.keep, snapshot, out=plan.decayed), competences, out=competences)

    new_pop = Population._trusted(competences, pop.masks, pop.cognitive, pop.social, pop.forgetting)
    return SimulationState(state.graph, new_pop, state.step + 1, state.collectors, ledger)


# -- probes and time series ---------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """A named per-step measurement over the simulation state."""

    metric: str
    scope: str
    measure: Callable[[SimulationState], float]


def _mean(x: np.ndarray) -> float:
    """``x.mean()`` without its dispatch overhead: the same pairwise sum, in memory order."""
    return float(np.add.reduce(x, axis=None) / x.size)


def probe_average() -> Probe:
    return Probe(
        metric="average_competence",
        scope="all",
        measure=lambda st: _mean(st.population.competences),
    )


def _nonnegative(kind: str, ids: Iterable[int]) -> None:
    for i in ids:
        if i < 0:
            raise DiffusionError(f"probe {kind} id {i} is negative")


def probe_node(node: int) -> Probe:
    """Mean competence of one worker; an id beyond the population fails on first measure."""
    if isinstance(node, bool) or not isinstance(node, numbers.Integral):
        raise DiffusionError(f"probe node id {node!r} is not an integer")
    _nonnegative("node", [node])

    def measure(st: SimulationState) -> float:
        try:
            row = st.population.competences[node]
        except IndexError:
            raise DiffusionError(f"probe node id {node} is out of range for {len(st.population)} workers") from None
        return _mean(row)

    return Probe(metric="average_competence", scope=f"node:{node}", measure=measure)


def probe_mask(name: str, competences: Sequence[int], members: Sequence[int] | None = None) -> Probe:
    """Mean competence over chosen competence positions and (optionally) members."""
    comp_idx = np.asarray(sorted(int(c) for c in competences), dtype=np.intp)
    member_idx = None if members is None else np.asarray(sorted(int(m) for m in members), dtype=np.intp)
    _nonnegative("competence", comp_idx)
    _nonnegative("node", () if member_idx is None else member_idx)
    flat: dict[tuple[int, ...], np.ndarray] = {}  # matrix shape -> flat index of the selection

    def measure(st: SimulationState) -> float:
        matrix = st.population.competences
        if matrix.shape not in flat:
            n, m = matrix.shape
            if comp_idx.size and comp_idx[-1] >= m:
                raise DiffusionError(f"probe competence id {comp_idx[-1]} is out of range for {m} competences")
            if member_idx is not None and member_idx.size and member_idx[-1] >= n:
                raise DiffusionError(f"probe node id {member_idx[-1]} is out of range for {n} workers")
            rows = np.arange(n) if member_idx is None else member_idx
            # Competence-major, the memory order of ``matrix[rows][:, comp_idx]``,
            # so the pairwise sum adds the same values in the same order.
            flat[matrix.shape] = np.ravel_multi_index((rows[None, :], comp_idx[:, None]), matrix.shape)
        return _mean(matrix.take(flat[matrix.shape]))

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
    probe record at that index, i.e. between steps. The run validates its
    state and builds the plan its steps share once, and again right after
    each intervention.
    """
    if steps < 0:
        raise DiffusionError(f"step count must be >= 0, got {steps}")
    actions = dict(interventions) if interventions else {}
    series = TimeSeries([(p.metric, p.scope) for p in probes])

    def snapshot_values(st: SimulationState) -> dict[tuple[str, str], float]:
        return {(p.metric, p.scope): float(p.measure(st)) for p in probes}

    series.record(state.step, snapshot_values(state))
    plan = None
    for _ in range(steps):
        if state.step in actions:
            # A facilitator changes the graph, an expert the competences and
            # a collector the collector set: the plan no longer holds.
            state = actions[state.step](state)
            plan = None
        if plan is None:
            plan = _RunPlan(state, config)
        state = step(state, config, _plan=plan)
        series.record(state.step, snapshot_values(state))
    return state, series
