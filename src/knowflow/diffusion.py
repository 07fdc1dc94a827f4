"""Synchronous knowledge diffusion over a weighted graph.

Each step every worker broadcasts one resource per masked competence, scaled
by own social ability; edges attenuate the payload by tie strength; receivers
assimilate only payloads whose sender knew strictly more at the start of the
step, scaled by own mask and (by default) cognitive ability. Everyone forgets
a fixed fraction each step, whether or not anything arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._contract import _as_array, _as_bool, _as_ids, _as_int, _as_list, _as_name, _as_str, _is_list
from .netgraph import WeightedGraph
from .workforce import Population

__all__ = [
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


# Cells (runs x nodes x competences) stepped as one batch, and stepped cells
# that ``run`` hands its probes in one call: small runs share a step's and a
# probe's fixed cost. 484-node runs go in pairs: a third run per batch raised
# the peak memory, and seven stepped slower per run than two.
_BATCH_CELLS = 3 << 12


@dataclass(frozen=True)
class SimulationState:
    """Snapshot between steps of a batch of runs: graph, population, collector ledger.

    A batch is the block-diagonal union of ``runs`` runs of n workers each:
    run r's nodes are r*n .. (r+1)*n - 1 in the graph, the population rows,
    the collector ids and the ledger alike. No edge joins two runs, so each
    evolves as it would alone; a single run is a batch of one. The dataclass
    is frozen and the graph is an immutable value: an intervention on the
    network puts a new graph into a new state. The arrays a batch joins,
    every collector ledger and every step's fresh competence matrix are
    read-only. Every field is required: ``batch`` builds the state at step 0.
    """

    graph: WeightedGraph
    population: Population
    step: int
    collectors: frozenset[int]
    collector_ledger: np.ndarray
    runs: int

    @classmethod
    def batch(cls, runs: Sequence[tuple[WeightedGraph, Population]]) -> "SimulationState":
        """Runs of one shape, each a (graph, population), as one state at step 0."""
        if not runs:
            raise DiffusionError("a batch needs at least one run")
        n, m = runs[0][1].competences.shape
        for graph, population in runs:
            if graph.node_count != len(population):
                raise DiffusionError(f"graph has {graph.node_count} nodes but population has {len(population)} workers")
            if population.competences.shape != (n, m):
                raise DiffusionError(f"a batch holds runs of {n} workers x {m} competences only")
        graph, population = runs[0]
        if len(runs) > 1:
            # Receiver-major blocks in run order are the union's receiver-major order.
            edges = [g.directed_edge_arrays() for g, _ in runs]
            senders, receivers = (np.concatenate([e[i] + r * n for r, e in enumerate(edges)]) for i in (0, 1))
            graph = WeightedGraph._from_arrays(n * len(runs), senders, receivers, np.concatenate([e[2] for e in edges]))
            joined = [np.concatenate([getattr(p, a) for _, p in runs]) for a in Population._columns]
            population = Population._trusted(*map(_read_only, joined))
        return cls(graph, population, 0, frozenset(), _read_only(np.zeros(len(population))), len(runs))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# -- engine -----------------------------------------------------------------------


class _RunPlan:
    """What every step of a run shares until the next intervention.

    A (directed edge, competence) pair can change a competence only if the
    sender broadcasts it and the receiver absorbs it, that is, only if both
    masks hold it, so a tie's two orientations are live together. The plan
    lists each live (tie, competence) couple once, from its upward
    orientation (sender ``lo`` below receiver ``hi``) in edge order, which
    sorts the couples by ``hi``, then ``lo``. Its pair arrays have two rows,
    flattened as ``[upward half; downward half]``: row 1 is row 0 with sender
    and receiver swapped. A pair's receiver value is thus its partner's
    sender value, and both rows share one weight array. Bin (r, k) receives
    first its senders below r, ascending, from the upward half, then its
    senders above r, ascending, from the downward half: the ascending-sender
    order in which the receiver-major edges list them.

    The plan holds the flat sender and receiver indices ``node * m + k``, the
    senders' social ability, the couples' weights, the step invariants
    ``cognitive * mask`` (``mask`` without cognitive gain) and ``1 - f``, the
    collectors' incoming edges, and work buffers that each step overwrites.
    No buffer is ever handed out in a state.
    """

    def __init__(self, state: SimulationState, cognitive_gain: bool):
        pop = state.population
        n, m = pop.competences.shape
        senders, receivers, weights = state.graph.directed_edge_arrays()
        lo, hi, upward_weights = (a[senders < receivers] for a in (senders, receivers, weights))
        held = pop.masks != 0.0
        # Row-major order keeps edge order, ascending ``lo`` within each ``hi``.
        edge, comp = np.divmod(np.flatnonzero(held.take(lo, axis=0) & held.take(hi, axis=0)), m)
        couple_senders = np.stack((lo[edge], hi[edge]))  # row 0 the upward half, row 1 the downward
        self.sender_flat = couple_senders * m + comp
        self.receiver_flat = self.sender_flat[::-1].ravel()
        # A live sender's mask is 1, so social * c is its social * mask * c.
        self.sender_social = pop.social[couple_senders]
        self.weights = upward_weights[edge]
        self.absorb_mask = pop.cognitive[:, None] * pop.masks if cognitive_gain else pop.masks
        # Full rows: a (n, 1) factor makes the ufunc loop once per row of m.
        self.keep = np.repeat((1.0 - pop.forgetting)[:, None], m, axis=1)
        self.collectors = np.fromiter(state.collectors, dtype=np.intp)
        # A collector's intake counts every raw delivery, live or not, so it
        # keeps whole payload rows of its incoming edges.
        into = np.isin(receivers, self.collectors)
        self.into_senders, self.into_receivers = senders[into], receivers[into]
        self.into_social_mask = pop.social[self.into_senders, None] * pop.masks[self.into_senders]
        self.into_weights = weights[into][:, None]
        self.couples = np.empty((2, edge.size))
        self.gate = np.empty((2, edge.size), dtype=bool)
        self.decayed = np.empty((n, m))


def step(state: SimulationState, cognitive_gain: bool = True, *, _plan: _RunPlan | None = None) -> SimulationState:
    """One synchronous update of the whole population.

    ``cognitive_gain`` multiplies assimilated amounts by the receiver's
    cognitive ability (the documented behavior); switching it off drops that
    factor for sensitivity runs. All gating decisions use the step-start
    competence matrix, so the result does not depend on any processing order.
    Only the plan's live pairs are gathered, gated and scattered: a pair
    outside the sender's mask would add exactly ``+0.0`` to its bin, and a bin
    outside the receiver's mask is multiplied by 0, so the result is
    bit-identical to streaming all E x m pairs. Each live couple's two values
    are gathered once and serve as both pairs' sender and receiver values;
    every bin still adds its pairs in ascending sender order (see
    ``_RunPlan``). ``run`` passes its plan; a bare call builds one for this
    step alone.
    """
    plan = _RunPlan(state, _as_bool(cognitive_gain, "cognitive_gain", DiffusionError)) if _plan is None else _plan
    pop = state.population
    snapshot = pop.competences

    ledger = state.collector_ledger
    if plan.collectors.size:
        payload = plan.into_social_mask * snapshot.take(plan.into_senders, axis=0)
        intake = (payload * plan.into_weights).sum(axis=1)
        inflow = np.bincount(plan.into_receivers, weights=intake, minlength=len(pop))
        ledger = ledger.copy()
        ledger[plan.collectors] += inflow[plan.collectors]
        ledger.flags.writeable = False
    # mode="clip" lets take write straight into ``out`` ("raise" copies through
    # a temporary); the indices come from a validated graph.
    couples = snapshot.ravel().take(plan.sender_flat, out=plan.couples, mode="clip")
    # A pair's receiver value is its partner's sender value: the other row.
    np.greater(couples, couples[::-1], out=plan.gate)
    # Each pair's (social * c) * weight * gate, in place and in that operand
    # order, so an overflowed sender that is gated off still gives inf * 0 = NaN.
    np.multiply(plan.sender_social, couples, out=couples)
    np.multiply(couples, plan.weights, out=couples)
    np.multiply(couples, plan.gate, out=couples)
    # astype: with no live pairs at all, bincount returns integer zeros.
    gains = np.bincount(plan.receiver_flat, weights=couples.ravel(), minlength=snapshot.size).astype(float, copy=False)
    competences = gains.reshape(snapshot.shape)
    np.multiply(plan.absorb_mask, competences, out=competences)
    np.add(np.multiply(plan.keep, snapshot, out=plan.decayed), competences, out=competences)
    competences.setflags(write=False)  # half the cost of a ``flags.writeable`` assignment

    new_pop = Population._trusted(competences, pop.masks, pop.cognitive, pop.social, pop.forgetting)
    return SimulationState(state.graph, new_pop, state.step + 1, state.collectors, ledger, state.runs)


# -- probes and time series ---------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """A named measurement: ``measure`` takes (rows, n, m) competences and (rows, n) collector ledgers,
    a row being one run at one recorded step, and gives one value per row."""

    metric: str
    scope: str
    measure: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        _as_str(self.metric, "metric", DiffusionError)
        _as_str(self.scope, "scope", DiffusionError)
        if not callable(self.measure):
            raise DiffusionError(f"measure: expected a callable, got {self.measure!r}")


def _means(rows: np.ndarray) -> np.ndarray:
    """Each row's mean. A row is summed pairwise in memory order, as ``ndarray.mean`` sums one run's values."""
    return np.add.reduce(rows, axis=1) / rows.shape[1]


def probe_average() -> Probe:
    return Probe("average_competence", "all", lambda competences, _: _means(competences.reshape(len(competences), -1)))


# Probe ids are checked against a run's shape on first measure; until then, against what numpy can index.
_ID_LIMIT = np.iinfo(np.intp).max + 1


def _index(ids: Sequence[int], path: str, empty: bool = False) -> np.ndarray:
    """The ids, each a non-negative integer named once (it would count twice), as a sorted index array."""
    return np.array(sorted(_as_ids(ids, path, DiffusionError, _ID_LIMIT, empty=empty, unique="id")), dtype=np.intp)


def _cell_probe(scope: str, members: np.ndarray | None, competences: np.ndarray | None) -> Probe:
    """Mean competence per row over the chosen members' chosen competences (None: all of them)."""
    flat: dict[tuple[int, int], np.ndarray] = {}  # one run's shape -> flat index of the selection in its cells

    def measure(matrix: np.ndarray, _: np.ndarray) -> np.ndarray:
        shape = matrix.shape[1:]
        if shape not in flat:
            n, m = shape
            limits = (("competence", competences, m, "competences"), ("node", members, n, "workers"))
            for kind, ids, size, unit in limits:
                if ids is not None and ids.size and ids[-1] >= size:
                    raise DiffusionError(f"probe {kind} id {ids[-1]} is out of range for {size} {unit}")
            rows = np.arange(n) if members is None else members
            cols = np.arange(m) if competences is None else competences
            # Competence-major, the memory order of ``matrix[rows][:, cols]``,
            # so the pairwise sum adds the same values in the same order.
            flat[shape] = np.ravel_multi_index((rows[None, :], cols[:, None]), shape).ravel()
        return _means(matrix.reshape(len(matrix), -1).take(flat[shape], axis=1))

    return Probe("average_competence", scope, measure)


def probe_node(node: int) -> Probe:
    """Mean competence of one worker; an id beyond a run's workers fails on first measure."""
    node = _as_int(node, "node", DiffusionError, lo=0, lt=_ID_LIMIT)
    return _cell_probe(f"node:{node}", np.array([node], dtype=np.intp), None)


def probe_mask(name: str, competences: Sequence[int], members: Sequence[int] | None = None) -> Probe:
    """Mean competence over chosen competence positions and (optionally) members, each a non-empty list."""
    name = _as_name(name, "name", DiffusionError)
    member_idx = None if members is None else _index(members, "members")
    return _cell_probe(f"mask:{name}", member_idx, _index(competences, "competences"))


def collector_probes(collectors: Sequence[int]) -> list[Probe]:
    """Cumulative intake per collector plus their total (scope ``all``)."""
    ids = _index(collectors, "collectors", empty=True)
    total = Probe("collector_intake", "all", lambda _, ledgers: np.add.reduce(ledgers.take(ids, axis=1), axis=1))
    return [total] + [
        Probe("collector_intake", f"collector:{c}", lambda _, ledgers, c=c: ledgers[:, c]) for c in ids.tolist()
    ]


class TimeSeries:
    """One run's probe values at its recorded steps, in a fixed column order, exportable as CSV.

    ``columns`` and ``steps`` are tuples, ``steps`` of non-negative ints read as
    one array, and ``values`` is read as a (steps, columns) float array.
    """

    def __init__(self, columns: Sequence[tuple[str, str]], steps: Sequence[int], values: np.ndarray):
        for name, value in (("columns", columns), ("steps", steps)):
            if not _is_list(value):
                raise DiffusionError(f"{name}: expected a list, got {value!r}")
        self.columns = _columns(columns)
        self.steps = tuple(_as_array(steps, "steps", DiffusionError, (None,), integer=True, lo=0).tolist())
        self.values = _as_array(values, "values", DiffusionError, (len(self.steps), len(self.columns)))

    def column(self, metric: str, scope: str = "all") -> np.ndarray:
        if (metric, scope) not in self.columns:
            raise DiffusionError(f"no recorded column for metric={metric!r} scope={scope!r}")
        return self.values[:, self.columns.index((metric, scope))]

    def __len__(self) -> int:
        return len(self.steps)

    def csv_lines(self) -> list[str]:
        """A header, then one long-format row per step and column; shortest round-trip floats."""
        return self._csv(_csv_template(self.steps, self.columns)).split("\n")[:-1]

    def _csv(self, template: str) -> str:
        """The CSV text: ``template``, built by ``_csv_template`` for these steps and columns, filled with the values."""
        return template % tuple(self.values.ravel().tolist())


def _csv_template(steps: Sequence[int], columns: Sequence[tuple[str, str]]) -> str:
    """A series' CSV text with one ``%r`` per value, row-major: step, then column."""
    labels = [f"{metric},{scope}".replace("%", "%%") for metric, scope in columns]
    return "".join(["step,metric,scope,value\n", *(f"{t},{label},%r\n" for t in steps for label in labels)])


def _columns(columns: Sequence[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """Each entry a (metric, scope) pair of strings, named once, as a tuple of tuples."""
    return _as_list(columns, "columns", DiffusionError, _column, empty=True, unique="column")


def _column(value: object, path: str) -> tuple[str, str]:
    if not _is_list(value) or len(value) != 2:
        raise DiffusionError(f"{path}: expected a (metric, scope) pair, got {value!r}")
    metric, scope = (_as_str(v, f"{path}[{i}]", DiffusionError) for i, v in enumerate(value))
    return metric, scope


def run(
    state: SimulationState,
    steps: int,
    probes: Sequence[Probe],
    cognitive_gain: bool = True,
    interventions: Mapping[int, Callable[[SimulationState], SimulationState]] | None = None,
) -> tuple[SimulationState, list[TimeSeries]]:
    """Advance ``steps`` times, recording probes at the initial state and after
    every step (a zero-step run yields a length-1 series); one series per run.

    ``cognitive_gain`` is passed to every ``step``. ``interventions`` maps a
    step index to a state transform applied after the probe record at that
    index, i.e. between steps. The run builds the plan its steps share once,
    and again right after each intervention. Each probe measures the recorded
    states in blocks of up to ``_BATCH_CELLS`` cells, at least one state. The
    series are built once recording has finished, over one read-only (runs,
    steps + 1, probes) array.

    A step can break one invariant of a valid state: competences may
    overflow to inf, and then to NaN. The loop runs with numpy's overflow
    and invalid-operation warnings off. Once it has finished, a value that
    is not finite raises a ``DiffusionError`` naming the first step that
    recorded one, or the last step if only a final competence is one.
    """
    steps = _as_int(steps, "steps", DiffusionError, lo=0)
    cognitive_gain = _as_bool(cognitive_gain, "cognitive_gain", DiffusionError)
    columns = _columns([(p.metric, p.scope) for p in probes])
    actions = dict(interventions) if interventions else {}
    values = np.empty((len(probes), (steps + 1) * state.runs))  # each probe's rows: recorded state, then run
    recorded: list[int] = []
    block: list[SimulationState] = []
    depth = max(1, _BATCH_CELLS // state.population.competences.size)

    def record(st: SimulationState) -> None:
        """Adds ``st`` to the block; once the block is full or ``st`` is the last, each probe measures its rows."""
        recorded.append(st.step)
        block.append(st)
        if len(block) < depth and len(recorded) <= steps:
            return
        rows, stop = len(block) * st.runs, len(recorded) * st.runs
        if len(block) == 1:  # a block of one state is read in place
            competences, ledgers = st.population.competences, st.collector_ledger
        else:
            competences = _read_only(np.concatenate([s.population.competences for s in block]))
            ledgers = _read_only(np.concatenate([s.collector_ledger for s in block]))
        competences, ledgers = competences.reshape(rows, -1, competences.shape[1]), ledgers.reshape(rows, -1)
        for j, p in enumerate(probes):
            values[j, stop - rows : stop] = p.measure(competences, ledgers)
        block.clear()

    with np.errstate(over="ignore", invalid="ignore"):
        record(state)
        plan = None
        for _ in range(steps):
            if state.step in actions:
                # A facilitator changes the graph, an expert the competences and
                # a collector the collector set: the plan no longer holds.
                state = actions[state.step](state)
                plan = None
            if plan is None:
                plan = _RunPlan(state, cognitive_gain)
            state = step(state, cognitive_gain, _plan=plan)
            record(state)
    series = _read_only(values).reshape(len(probes), steps + 1, state.runs).T  # (runs, steps + 1, probes) views
    finite = np.isfinite(series).all(axis=(0, 2))
    if not (finite.all() and np.isfinite(state.population.competences).all()):
        first = recorded[int(np.argmin(finite))] if not finite.all() else state.step
        raise DiffusionError(f"knowledge overflowed: a competence or probe value is not finite by step {first}")
    steps_read = np.array(recorded)  # one array read for every run's series
    return state, [TimeSeries(columns, steps_read, v) for v in series]
