"""Scenario configs, seeded experiment runs, and deterministic reporting.

A scenario bundles a network spec, a population spec, an optional role plan
(whose strategy list spawns one variant per strategy, ``none`` being the
reference run), an optional community plan, and run/output settings. Each
seed derives one independent random stream per concern, so two variants of
the same seed share the network, population, and masks, and differ only in
the intervention under study.

The spec classes are the config schema: frozen ``_Spec`` values whose classes
declare one ``_key`` per JSON key, with the reader that parses and bounds it
and its default. A spec is built only by reading its section's JSON data, so
``parse_config``, ``ScenarioConfig.to_dict`` and ``replace`` derive from them;
only the rules that link keys are written, in each section's ``_checked``.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import replace as dc_replace
from functools import partial
from importlib import resources
from itertools import combinations
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import _contract
from .community import Community, _insert_tie, accelerate_loop, detect_communities, transfer_efficiency
from .diffusion import Probe, SimulationState, TimeSeries, collector_probes, probe_average, probe_mask, probe_node, run
from .netgraph import GraphError, WeightedGraph, assign_weights, generate_watts_strogatz
from .roles import ROLES, STRATEGIES, apply_collector, apply_expert, apply_facilitator, rank_nodes, select_top
from .workforce import Population, init_workers

__all__ = [
    "ConfigError",
    "ExperimentReport",
    "ScenarioConfig",
    "VariantResult",
    "config_hash",
    "emit_report",
    "export_fixtures",
    "fixture_names",
    "load_config",
    "load_fixture",
    "parse_config",
    "propose_ties",
    "run_experiment",
    "stabilization_step",
    "stream_rng",
]

logger = logging.getLogger("knowflow")

REFERENCE_TOKEN = "none"
_TIE_MODES = ("none", "manual", "algorithm", "random")
_NAMED_PROBES = {"average_competence": "average", "collector_intake": "collector"}
# Role-only keys and the role each belongs to.
_ROLE_KEYS = {"boost_range": "expert", "boost_all": "expert", "weight_factor": "facilitator"}

# One independent random stream per concern, all derived from the master seed.
_STREAMS = {"topology": 0, "weights": 1, "population": 2, "strategy": 3, "boost": 4, "ties": 5}

# Cells (runs x nodes x competences) stepped as one batch. Small runs share a
# step's fixed cost. 484-node runs go in pairs: a third run per batch raised
# the peak memory, and seven stepped slower per run than two.
_BATCH_CELLS = 3 << 12


def stream_rng(seed: int, concern: str) -> np.random.Generator:
    """Generator for one named concern, derived from the master seed.

    A seed is an int or a numpy integer, at least 0, and never a bool.
    """
    key = _STREAMS[_as_str(concern, "concern", choices=_STREAMS)]
    return np.random.default_rng(np.random.SeedSequence(_ID(seed, "seed"), spawn_key=(key,)))


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the offending key."""


# -- config readers -----------------------------------------------------------------
# A reader takes a raw JSON value and its key path, and returns the parsed value or
# raises ConfigError naming the path. The scalar, list and name readers are the contract's.

_as_int, _as_float, _as_pair, _as_list, _bounded, _as_bool, _as_str, _as_name = (
    partial(getattr(_contract, name), error=ConfigError)
    for name in ("_as_int", "_as_float", "_as_pair", "_as_list", "_bounded", "_as_bool", "_as_str", "_as_name")
)
_ID = partial(_as_int, lo=0)


def _or_null(value: Any, path: str, item: Callable[[Any, str], Any]) -> Any:
    """``null`` reads as an absent key, for the optional keys whose default is None."""
    return None if value is None else item(value, path)


def _as_tie(value: Any, path: str) -> tuple[int, int]:
    if not _contract._is_list(value) or len(value) != 2:
        raise ConfigError(f"{path}: expected a [u, v] pair")
    u, v = (_ID(x, f"{path}[{i}]") for i, x in enumerate(value))
    if u == v:
        raise ConfigError(f"{path}: endpoints must be distinct")
    return (u, v)


def _sorted(items: Any) -> tuple:
    return tuple(sorted(items))


def _expand_formats(formats: list[str]) -> tuple[str, ...]:
    """``both`` stands for csv and json; a repeated format is kept once, where first named."""
    return tuple(dict.fromkeys(f for token in formats for f in (("csv", "json") if token == "both" else (token,))))


# -- config model -------------------------------------------------------------------
# A section is built only by reading its JSON data; a key that does not apply under
# the chosen mode is stored as None.


class _key:
    """A spec's key: parsed by ``read`` with these bounds or choices; required unless it has a ``default``."""

    def __init__(self, read: Callable[..., Any], default: Any = ..., **options: Any):
        self.read, self.default = partial(read, **options), default


class _Spec:
    """A frozen config value: one attribute per ``_key`` its class declares, in order in ``_keys``.

    ``Spec(data, path)`` reads the section's JSON data found at ``path``; an
    error names the key after ``prefix``, which is ``path.`` unless given.
    """

    def __init_subclass__(cls) -> None:
        cls._keys = {name: value for name, value in vars(cls).items() if isinstance(value, _key)}

    def __init__(self, data: Any, path: str, prefix: str | None = None) -> None:
        prefix = f"{path}." if prefix is None else prefix
        self.__dict__.update(self._read(data, path, prefix))
        self._checked(data, path, prefix)

    def _read(self, data: Any, path: str, prefix: str) -> dict:
        """One value per key: unknown keys rejected, keys without a default required, given keys read."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path}: expected an object")
        for key in data:
            if key not in self._keys:
                raise ConfigError(f"{path}: unknown key {key!r}")
        for name, key in self._keys.items():
            if name not in data and key.default is ...:
                raise ConfigError(f"{prefix}{name}: required key missing")
        fields = {name: key.default for name, key in self._keys.items()}
        fields.update((name, self._keys[name].read(v, prefix + name)) for name, v in data.items())
        return fields

    def _checked(self, data: Any, path: str, prefix: str) -> None:
        """Rules that link keys; a key the chosen mode ignores is set to None here."""

    @staticmethod
    def _json(fields: dict) -> Any:
        """The JSON data that ``_read`` turns into ``fields``: None fields dropped, nested values converted."""
        return {name: _to_json(v) for name, v in fields.items() if v is not None}

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={v!r}' for name, v in vars(self).items())})"

    def replace(self, **changes: Any) -> Any:
        """A copy with ``changes`` (None drops a key), read and checked as its section is; errors name the bare key."""
        return type(self)(self._json({**vars(self), **changes}), type(self).__name__, "")


class WeightsSpec(_Spec):
    """``network.weights``: ``constant`` (``value``, low == high) or ``uniform`` tie strengths in [low, high]."""

    kind: str
    low: float
    high: float

    def _read(self, data: Any, path: str, prefix: str) -> dict:
        if not isinstance(data, Mapping):
            raise ConfigError(f"{path}: expected an object")
        if "kind" not in data:
            raise ConfigError(f"{prefix}kind: required key missing")
        kind = _as_str(data["kind"], f"{prefix}kind", choices=("constant", "uniform"))
        keys = ("value",) if kind == "constant" else ("low", "high")
        for key in data:
            if key not in ("kind", *keys):
                raise ConfigError(f"{path}: {kind} weights take {'/'.join(map(repr, keys))}, not {key!r}")
        for key in keys:
            if key not in data:
                raise ConfigError(f"{prefix}{key}: required key missing")
        low, high = (_as_float(data[key], prefix + key) for key in (keys[0], keys[-1]))
        if not (low > 0.0):
            raise ConfigError(f"{path}: weights must be strictly positive")
        if high < low:
            raise ConfigError(f"{path}: interval is reversed: [{low}, {high}]")
        return {"kind": kind, "low": low, "high": high}

    @staticmethod
    def _json(fields: dict) -> dict:
        """The fields as they are, but a constant range's equal bounds written as its ``value``."""
        data = dict(fields)
        if data["kind"] == "constant" and data.pop("high") == data["low"]:
            data.setdefault("value", data.pop("low"))
        return data


class NetworkSpec(_Spec):
    nodes: int = _key(_as_int, lo=3)
    ring_degree: int = _key(_as_int, lo=2, default=4)
    rewire_prob: float = _key(_as_float, lo=0.0, hi=1.0, default=0.1)
    weights: WeightsSpec = _key(WeightsSpec, default=WeightsSpec({"kind": "uniform", "low": 0.1, "high": 1.0}, "weights"))

    def _checked(self, data: Mapping, path: str, prefix: str) -> None:
        if self.ring_degree % 2 != 0:
            raise ConfigError(f"{prefix}ring_degree: must be even, got {self.ring_degree}")
        if self.ring_degree >= self.nodes:
            raise ConfigError(f"{prefix}ring_degree: must be smaller than nodes ({self.nodes}), got {self.ring_degree}")


class PopulationSpec(_Spec):
    competences: int = _key(_as_int, lo=1)
    competence_range: tuple[float, float] = _key(_as_pair, lo=0.0, default=(0.0, 10.0))
    mask_density: float = _key(_as_float, lo=0.0, hi=1.0, default=0.5)
    forgetting: float = _key(_as_float, lo=0.0, lt=1.0, default=0.006)
    cognitive_range: tuple[float, float] = _key(_as_pair, lo=0.0, hi=1.0, default=(0.0, 1.0))
    social_range: tuple[float, float] = _key(_as_pair, lo=0.0, hi=1.0, default=(0.0, 1.0))


class RolePlan(_Spec):
    role: str = _key(_as_str, choices=ROLES)
    strategies: tuple[str, ...] = _key(
        _as_list, item=partial(_as_str, choices=(REFERENCE_TOKEN, *STRATEGIES)), unique="strategy"
    )
    fraction: float | None = _key(_as_float, gt=0.0, hi=1.0, default=None)
    count: int | None = _key(_as_int, lo=1, default=None)
    boost_range: tuple[float, float] | None = _key(_as_pair, lo=0.0, default=None)
    boost_all: bool | None = _key(_as_bool, default=False)
    weight_factor: float | None = _key(_as_float, gt=0.0, default=None)
    step: int = _key(_as_int, lo=0, default=0)

    def _checked(self, data: Mapping, path: str, prefix: str) -> None:
        if (self.fraction is None) == (self.count is None):
            raise ConfigError(f"{path}: exactly one of 'fraction' or 'count' is required")
        for key, owner in _ROLE_KEYS.items():
            if key in data and owner != self.role:
                raise ConfigError(f"{prefix}{key}: only valid for the {owner} role")
            if owner == self.role and getattr(self, key) is None:
                raise ConfigError(f"{prefix}{key}: required for the {owner} role")
        if self.role != "expert":
            self.__dict__["boost_all"] = None


class CommunityFixture(_Spec):
    members: tuple[int, ...] = _key(_as_list, item=_ID, unique="node id", then=_sorted)
    core: tuple[int, ...] = _key(_as_list, item=_ID, empty=True, then=_sorted)


class CommunityPlan(_Spec):
    method: str = _key(_as_str, choices=("fixture", "jaccard"))
    threshold: float | None = _key(_as_float, gt=0.0, hi=1.0, default=0.5)
    core_rule: str | None = _key(_as_str, choices=("and", "majority"), default="and")
    core_theta: float | None = _key(_as_float, default=0.5)
    communities: tuple[CommunityFixture, ...] | None = _key(_as_list, item=CommunityFixture, default=None)
    ties: str = _key(_as_str, choices=_TIE_MODES, default="none")
    manual_ties: tuple[tuple[int, int], ...] | None = _key(_as_list, item=_as_tie, default=None)
    community_index: int = _key(_as_int, lo=0, default=0)
    budget: int = _key(_as_int, lo=0, default=1)
    min_efficiency: float | None = _key(_or_null, item=partial(_as_float, lo=0.0), default=None)
    tie_weight: float | None = _key(_or_null, item=partial(_as_float, gt=0.0), default=None)
    division: str = _key(_as_str, choices=("double", "single"), default="double")

    def _checked(self, data: Mapping, path: str, prefix: str) -> None:
        if self.method == "fixture":
            if self.communities is None:
                raise ConfigError(f"{prefix}communities: fixture method needs a non-empty list")
            if self.community_index >= len(self.communities):
                raise ConfigError(
                    f"{prefix}community_index: only {len(self.communities)} communities defined, got {self.community_index}"
                )
            ignored = ("threshold", "core_rule", "core_theta")
        else:
            if self.communities is not None:
                raise ConfigError(f"{prefix}communities: only valid with the fixture method")
            if self.core_rule == "majority":
                _bounded(self.core_theta, f"{prefix}core_theta", gt=0.0, hi=1.0)
            ignored = () if self.core_rule == "majority" else ("core_theta",)
        if self.ties == "manual" and self.manual_ties is None:
            raise ConfigError(f"{prefix}manual_ties: manual ties need a non-empty list of [u, v] pairs")
        if self.ties != "manual" and self.manual_ties is not None:
            raise ConfigError(f"{prefix}manual_ties: only valid with ties='manual'")
        self.__dict__.update(dict.fromkeys(ignored))


class MaskProbe(_Spec):
    name: str = _key(_as_name)
    competences: tuple[int, ...] = _key(_as_list, item=_ID, then=lambda ids: _sorted(set(ids)))
    members: tuple[int, ...] | None = _key(_as_list, item=_ID, unique="member", default=None)


class ProbeSpec(_Spec):
    """A ``run.probes`` entry: ``"average_competence"``, ``"collector_intake"``, ``{"node": id}`` or ``{"mask": ...}``."""

    kind: str  # "average" | "node" | "mask" | "collector"
    node: int | None
    mask: MaskProbe | None

    def _read(self, data: Any, path: str, prefix: str) -> dict:
        if isinstance(data, str) and data in _NAMED_PROBES:
            return {"kind": _NAMED_PROBES[data], "node": None, "mask": None}
        if isinstance(data, Mapping) and list(data) == ["node"]:
            return {"kind": "node", "node": _ID(data["node"], f"{prefix}node"), "mask": None}
        if isinstance(data, Mapping) and list(data) == ["mask"]:
            return {"kind": "mask", "node": None, "mask": MaskProbe(data["mask"], f"{prefix}mask")}
        raise ConfigError(
            f"{path}: unknown probe {data!r}; expected 'average_competence', 'collector_intake', "
            "a {'node': id} object, or a {'mask': ...} object"
        )

    @staticmethod
    def _json(fields: dict) -> Any:
        """The object of a node or mask probe's field, or a named probe's token."""
        data = _Spec._json({name: v for name, v in fields.items() if name != "kind"})
        return data or {kind: token for token, kind in _NAMED_PROBES.items()}.get(fields["kind"], fields["kind"])

    def replace(self, **changes: Any) -> "ProbeSpec":
        """As ``_Spec.replace``; a ``kind`` that the new form does not give is an error, not dropped."""
        probe = super().replace(**changes)
        if changes.get("kind", probe.kind) != probe.kind:
            raise ConfigError(f"kind: must match the probe's form ({probe.kind!r}), got {changes['kind']!r}")
        return probe


class RunSpec(_Spec):
    steps: int = _key(_as_int, lo=0)
    seeds: tuple[int, ...] = _key(_as_list, item=_ID, unique="seed")
    probes: tuple[ProbeSpec, ...] = _key(_as_list, item=ProbeSpec, default=(ProbeSpec("average_competence", "probes"),))

    def _checked(self, data: Mapping, path: str, prefix: str) -> None:
        # A probe's columns are fixed by its kind and its node or mask name, whatever the rest of its spec.
        first: dict[tuple, int] = {}
        for i, probe in enumerate(self.probes):
            earlier = first.setdefault((probe.kind, probe.node, probe.mask and probe.mask.name), i)
            if earlier != i:
                raise ConfigError(f"{prefix}probes[{i}]: records the same columns as {prefix}probes[{earlier}]")


class DiffusionSpec(_Spec):
    # Scale what a worker absorbs by its cognitive ability; off for sensitivity runs.
    cognitive_gain: bool = _key(_as_bool, default=True)


class OutputSpec(_Spec):
    directory: str | None = _key(_as_str, default=None)
    formats: tuple[str, ...] = _key(
        _as_list, item=partial(_as_str, choices=("csv", "json", "both")), then=_expand_formats, default=("csv", "json")
    )


class ScenarioConfig(_Spec):
    name: str = _key(_as_name)
    network: NetworkSpec = _key(NetworkSpec)
    population: PopulationSpec = _key(PopulationSpec)
    run: RunSpec = _key(RunSpec)
    role_plan: RolePlan | None = _key(RolePlan, default=None)
    community_plan: CommunityPlan | None = _key(CommunityPlan, default=None)
    diffusion: DiffusionSpec = _key(DiffusionSpec, default=DiffusionSpec({}, "diffusion"))
    output: OutputSpec = _key(OutputSpec, default=OutputSpec({}, "output"))

    def to_dict(self) -> dict:
        """The config as JSON data, without the keys its modes ignore; ``parse_config`` inverts it."""
        return _to_json(self)

    def _checked(self, data: Mapping, path: str, prefix: str) -> None:
        """Rules across sections: node and competence ids in range, collector probes."""
        nodes, competences = self.network.nodes, self.population.competences
        role = self.role_plan
        if role is not None and role.count is not None and role.count > nodes:
            raise ConfigError(f"role_plan.count: exceeds network nodes ({nodes}), got {role.count}")
        ids: list[tuple[str, Sequence[int], int]] = []
        if self.community_plan is not None:
            for z, community in enumerate(self.community_plan.communities or ()):
                ids.append((f"community_plan.communities[{z}].members", community.members, nodes))
                ids.append((f"community_plan.communities[{z}].core", community.core, competences))
            for i, tie in enumerate(self.community_plan.manual_ties or ()):
                ids.append((f"community_plan.manual_ties[{i}]", tie, nodes))
        for i, probe in enumerate(self.run.probes):
            if probe.kind == "collector" and (role is None or role.role != "collector"):
                raise ConfigError(f"run.probes[{i}]: collector_intake requires a collector role plan")
            if probe.node is not None:
                ids.append((f"run.probes[{i}].node", (probe.node,), nodes))
            if probe.mask is not None:
                ids.append((f"run.probes[{i}].mask.competences", probe.mask.competences, competences))
                ids.append((f"run.probes[{i}].mask.members", probe.mask.members or (), nodes))
        for path, values, limit in ids:
            for value in values:
                if value >= limit:
                    raise ConfigError(f"{path}: id {value} is out of range, must be < {limit}")


def _to_json(value: Any) -> Any:
    """JSON data for a spec, a tuple (as a list) or a plain value."""
    if isinstance(value, _Spec):
        return value._json(vars(value))
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_hash(config: ScenarioConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_config(data: Any, source: str = "config") -> ScenarioConfig:
    """Validate a raw JSON object into a ScenarioConfig; fail fast on any unknown key."""
    return ScenarioConfig(data, source, "")


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: {'expected a file' if path.exists() else 'config file not found'}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    return parse_config(data, source=path.name)


# -- shipped fixtures -----------------------------------------------------------------


_FIXTURES = resources.files(__package__) / "fixtures"  # one <name>.json config per shipped fixture


def fixture_names() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in _FIXTURES.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> ScenarioConfig:
    candidate = _FIXTURES / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    return parse_config(json.loads(candidate.read_text()), source=f"fixture:{name}")


def export_fixtures(out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / f"{name}.json" for name in fixture_names()]
    for target in written:
        target.write_text((_FIXTURES / target.name).read_text())
    return written


# -- experiment runner ------------------------------------------------------------------


def _graph_for(network: NetworkSpec, seed: int) -> WeightedGraph:
    """Seeded network build; the variants of one seed share it, which is safe because graphs are immutable."""
    g = generate_watts_strogatz(network.nodes, network.ring_degree, network.rewire_prob, stream_rng(seed, "topology"))
    return assign_weights(g, (network.weights.low, network.weights.high), stream_rng(seed, "weights"))


def _population_for(population: PopulationSpec, n_workers: int, seed: int) -> Population:
    return init_workers(
        n_workers=n_workers,
        n_competences=population.competences,
        competence_range=population.competence_range,
        mask_density=population.mask_density,
        cognitive_range=population.cognitive_range,
        social_range=population.social_range,
        forgetting=population.forgetting,
        rng=stream_rng(seed, "population"),
    )


def _communities_for(plan: CommunityPlan, workers: Population) -> list[Community]:
    if plan.method == "fixture":
        options: dict[str, Any] = {"fixture": [(c.members, c.core) for c in plan.communities]}
    else:
        options = {"threshold": plan.threshold, "core_rule": plan.core_rule, "core_theta": plan.core_theta}
    return detect_communities(workers, method=plan.method, **options)


def _apply_tie_plan(
    plan: CommunityPlan, g: WeightedGraph, workers: Population, seed: int, index_key: str = "community_plan.community_index"
) -> tuple[WeightedGraph, list[dict]]:
    """The graph with the plan's ties inserted, and one record per inserted tie.

    Communities are detected only for the modes that place ties inside one.
    An out-of-range community index is a config error naming ``index_key``.
    """
    if plan.ties == "none":
        return g, []
    single = plan.division == "single"
    records: list[dict] = []
    if plan.ties == "manual":
        for u, v in plan.manual_ties:
            if g.has_edge(u, v):
                logger.warning("manual tie (%d, %d) already present for seed %d; skipped", u, v, seed)
            else:
                efficiency = transfer_efficiency(g, workers, u, v, single_division=single)
                g = _insert_tie(g, records, None, u, v, plan.tie_weight, efficiency)
    else:
        communities = _communities_for(plan, workers)
        if plan.community_index >= len(communities):  # a fixture plan's index was checked when it was read
            raise ConfigError(f"{index_key}: only {len(communities)} communities detected, got {plan.community_index}")
        target = communities[plan.community_index]
        if plan.ties == "algorithm":
            g, records = accelerate_loop(
                target, g, workers, plan.budget, plan.tie_weight, plan.min_efficiency, single_division=single
            )
        else:  # uniformly random intra-community ties, for baselining the algorithm
            rng = stream_rng(seed, "ties")
            # A tie takes only its own pair out of eligibility, so the list is built once.
            eligible = [(u, v) for u, v in combinations(target.members, 2) if not g.has_edge(u, v)]
            for _ in range(min(plan.budget, len(eligible))):
                u, v = eligible.pop(int(rng.integers(len(eligible))))
                efficiency = transfer_efficiency(g, workers, u, v, single_division=single)
                g = _insert_tie(g, records, target.id, u, v, plan.tie_weight, efficiency)
    return g, [{"mode": plan.ties, **record} for record in records]


def _build_probes(config: ScenarioConfig, collector_ids: Sequence[int]) -> list[Probe]:
    probes: list[Probe] = []
    for spec in config.run.probes:
        if spec.kind == "average":
            probes.append(probe_average())
        elif spec.kind == "node":
            probes.append(probe_node(int(spec.node)))  # type: ignore[arg-type]
        elif spec.kind == "mask":
            probes.append(probe_mask(spec.mask.name, spec.mask.competences, spec.mask.members))  # type: ignore[union-attr]
        else:
            probes.extend(collector_probes(collector_ids))
    return probes


def _intervention(plan: RolePlan, targets: Sequence[tuple[int, _Run]]) -> Callable[[SimulationState], SimulationState]:
    """The plan's role action on each (node offset, run) target in turn, as one state transform."""

    def intervene(state: SimulationState) -> SimulationState:
        for offset, run_ in targets:
            nodes = run_.role_nodes
            selected = tuple(offset + v for v in nodes)  # type: ignore[union-attr]
            if plan.role == "expert":
                rng = stream_rng(run_.seed, "boost")
                boosted = apply_expert(
                    state.population, selected, plan.boost_range, rng, plan.boost_all  # type: ignore[arg-type]
                )
                state = dc_replace(state, population=boosted)
            elif plan.role == "facilitator":
                try:
                    graph = apply_facilitator(state.graph, selected, plan.weight_factor)  # type: ignore[arg-type]
                except GraphError:
                    # Until its own target is applied, the run's block is its graph: the run
                    # alone raises the error again with the run's own node ids.
                    apply_facilitator(run_.graph, nodes, plan.weight_factor)  # type: ignore[arg-type]
                    raise
                state = dc_replace(state, graph=graph)
            else:
                state = apply_collector(state, selected)
        return state

    return intervene


def _role_nodes(plan: RolePlan | None, variant: str, g: WeightedGraph, seed: int) -> tuple[int, ...] | None:
    """The variant's role nodes, ranked on the seed's graph before any tie; None for the reference run."""
    if plan is None or variant == REFERENCE_TOKEN:
        return None
    ranking = rank_nodes(g, variant, rng=stream_rng(seed, "strategy") if variant == "random" else None)
    portion: int | float = plan.count if plan.count is not None else plan.fraction  # type: ignore[assignment]
    return tuple(select_top(ranking, portion))


class _Run(NamedTuple):
    """One prepared (variant, seed) run: its graph after ties, its population and its role nodes."""

    variant: str
    seed: int
    graph: WeightedGraph
    population: Population
    role_nodes: tuple[int, ...] | None


def _run_batch(config: ScenarioConfig, runs: Sequence[_Run], collectors: tuple[int, ...]) -> list[TimeSeries]:
    """The runs, which share their collector ids, stepped as one block-diagonal state; each run's series.

    Each run's role intervention acts on its own block: its nodes are offset
    by the run's position times the network size.
    """
    n, plan = config.network.nodes, config.role_plan
    targets = [(r * n, run_) for r, run_ in enumerate(runs) if run_.role_nodes is not None]
    interventions = {plan.step: _intervention(plan, targets)} if targets else {}  # type: ignore[union-attr, arg-type]
    for run_ in runs:
        logger.info("running %s variant=%s seed=%d", config.name, run_.variant, run_.seed)
    state = SimulationState.batch([(run_.graph, run_.population) for run_ in runs])
    probes = _build_probes(config, collectors)
    _, series = run(state, config.run.steps, probes, config.diffusion.cognitive_gain, interventions)
    return series


class VariantResult:
    """All per-seed series for one variant plus their cross-seed ``aggregate``, one more series: a
    ``metric:mean`` and a ``metric:std`` column (ddof=1, 0 for one seed) per column every seed recorded.
    ``ties`` and ``role_nodes`` hold each seed's tie records and role holders (None for the reference run)."""

    def __init__(self, name: str, seeds: tuple[int, ...], series: dict[int, TimeSeries], ties: dict, role_nodes: dict):
        self.name, self.seeds, self.series, self.ties, self.role_nodes = name, seeds, series, ties, role_nodes
        per_seed = [series[s] for s in seeds]
        first = per_seed[0]
        columns = [col for col in first.columns if all(col in s.columns for s in per_seed)]
        # (columns, seeds, steps), reduced one contiguous (seeds, steps) block at a time. numpy sums
        # a one-step block pairwise but the rows of a longer one in turn; one reduction over all
        # columns would sum row by row and change a one-step aggregate of eight seeds or more.
        stack = np.stack([s.values[:, [s.columns.index(col) for col in columns]].T for s in per_seed], axis=1)
        values = np.zeros((len(first), 2 * len(columns)))
        for j, block in enumerate(stack):
            values[:, 2 * j] = block.mean(axis=0)
            values[:, 2 * j + 1] = block.std(axis=0, ddof=1) if len(per_seed) > 1 else 0.0
        values.flags.writeable = False
        labels = [(f"{metric}:{stat}", scope) for metric, scope in columns for stat in ("mean", "std")]
        self.aggregate = TimeSeries(labels, first.steps, values)

    def final_values(self, metric: str = "average_competence", scope: str = "all") -> np.ndarray:
        """Final recorded value per seed, in the experiment's seed order."""
        return np.array([self.series[s].column(metric, scope)[-1] for s in self.seeds])


class ExperimentReport:
    """One experiment: its config and that config's hash, the seeds run, and one result per variant."""

    def __init__(self, config: ScenarioConfig, config_hash: str, seeds: tuple[int, ...], variants: dict):
        self.config, self.config_hash, self.seeds, self.variants = config, config_hash, seeds, variants


def run_experiment(config: ScenarioConfig, seeds: Sequence[int] | None = None) -> ExperimentReport:
    """Run every (variant, seed) combination and aggregate across seeds.

    The variants of a seed share its graph, population and ties. Runs that
    record the same columns are stepped together, as many as fit in
    ``_BATCH_CELLS`` cells (runs x nodes x competences) and at least one, as
    soon as a batch is full. A batch may span seeds: 484-node runs go in pairs.
    """
    seed_list = config.run.seeds if seeds is None else _as_list(seeds, "seeds", item=_ID, unique="seed")
    names = config.role_plan.strategies if config.role_plan is not None else ("default",)
    series: dict[tuple[str, int], TimeSeries] = {}
    role_nodes: dict[str, dict[int, tuple[int, ...] | None]] = {name: {} for name in names}
    ties: dict[int, list[dict]] = {}
    pending: dict[tuple[int, ...], list[_Run]] = {}  # by collector ids: runs that record the same columns
    size = max(1, _BATCH_CELLS // (config.network.nodes * config.population.competences))

    def flush(collectors: tuple[int, ...]) -> None:
        batch = pending.pop(collectors)
        for run_, run_series in zip(batch, _run_batch(config, batch, collectors)):
            series[run_.variant, run_.seed] = run_series

    community = config.community_plan
    for seed in seed_list:
        g = _graph_for(config.network, seed)
        pop = _population_for(config.population, config.network.nodes, seed)
        tied, ties[seed] = (g, []) if community is None else _apply_tie_plan(community, g, pop, seed)
        for name in names:
            nodes = role_nodes[name][seed] = _role_nodes(config.role_plan, name, g, seed)
            collectors = nodes if nodes is not None and config.role_plan.role == "collector" else ()  # type: ignore[union-attr]
            pending.setdefault(collectors, []).append(_Run(name, seed, tied, pop, nodes))
            if len(pending[collectors]) == size:
                flush(collectors)
    for collectors in list(pending):
        flush(collectors)
    variants = {
        name: VariantResult(name, seed_list, {s: series[name, s] for s in seed_list}, dict(ties), role_nodes[name])
        for name in names
    }
    return ExperimentReport(config=config, config_hash=config_hash(config), seeds=seed_list, variants=variants)


def propose_ties(
    config: ScenarioConfig,
    seed: int | None = None,
    community_index: int | None = None,
    budget: int | None = None,
) -> list[dict]:
    """Energy-guided tie proposals for one seed's network, without running diffusion; an error names its override."""
    if config.community_plan is None:
        raise ConfigError("community_plan: required to propose ties")
    overrides = {k: v for k, v in (("community_index", community_index), ("budget", budget)) if v is not None}
    plan = config.community_plan.replace(ties="algorithm", manual_ties=None, **overrides)
    run_seed = config.run.seeds[0] if seed is None else _ID(seed, "seed")
    g = _graph_for(config.network, run_seed)
    pop = _population_for(config.population, config.network.nodes, run_seed)
    index_key = "community_plan.community_index" if community_index is None else "community_index"
    return _apply_tie_plan(plan, g, pop, run_seed, index_key)[1]


# -- reporting ---------------------------------------------------------------------------


def stabilization_step(curve: Sequence[float], tolerance: float = 0.05) -> int:
    """First index after which the curve stays within ``tolerance`` of its final value."""
    tolerance = _as_float(tolerance, "tolerance", lo=0.0)
    values = _contract._as_array(curve, "curve", ConfigError, (None,))
    if not values.size:
        raise ConfigError("curve: expected at least one value, got shape (0,)")
    final = values[-1]
    bound = tolerance * max(abs(final), np.finfo(float).tiny)
    outside = np.flatnonzero(~(np.abs(values - final) <= bound))
    # A final value that is not finite fails its own test (inf - inf is NaN): the curve settles at its last index.
    return min(int(outside[-1]) + 1, len(values) - 1) if outside.size else 0


def emit_report(
    report: ExperimentReport,
    out_dir: str | Path,
    formats: Sequence[str] | None = None,
) -> list[Path]:
    """Write per-seed and aggregate CSV series plus a JSON summary.

    Output is byte-deterministic for a given config and seed list: no
    timestamps, sorted JSON keys, shortest round-trip float formatting.
    """
    fmts = report.config.output.formats if formats is None else report.config.output.replace(formats=formats).formats
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    name = report.config.name

    if "csv" in fmts:
        for vname, result in report.variants.items():
            tables = [(f"seed{s}", result.series[s]) for s in result.seeds] + [("aggregate", result.aggregate)]
            for label, table in tables:
                path = out / f"{name}__{vname}__{label}.csv"
                path.write_text("\n".join(table.csv_lines()) + "\n")
                written.append(path)

    if "json" in fmts:
        summary: dict[str, Any] = {
            "name": name,
            "config_hash": report.config_hash,
            "seeds": list(report.seeds),
            "config": report.config.to_dict(),
            "variants": {},
        }
        for vname, result in report.variants.items():
            agg, final, stabilization = result.aggregate, {}, {}
            finals = agg.values[-1].tolist()  # each column's mean and std, interleaved
            for j, (label, scope) in enumerate(agg.columns[::2]):
                metric = label.removesuffix(":mean")
                per_seed = dict(zip(map(str, result.seeds), result.final_values(metric, scope).tolist()))
                final[f"{metric}|{scope}"] = {"mean": finals[2 * j], "std": finals[2 * j + 1], "per_seed": per_seed}
                stabilization[f"{metric}|{scope}"] = stabilization_step(agg.values[:, 2 * j])
            summary["variants"][vname] = {
                "final": final,
                "stabilization_step": stabilization,
                "ties": {str(s): result.ties[s] for s in result.seeds},
                "role_nodes": {str(s): result.role_nodes[s] for s in result.seeds},
            }
        path = out / f"{name}__summary.json"
        path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        written.append(path)

    return written
