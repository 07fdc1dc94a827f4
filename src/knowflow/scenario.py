"""Scenario configs, seeded experiment runs, and deterministic reporting.

A scenario bundles a network spec, a population spec, an optional role plan
(whose strategy list spawns one variant per strategy, ``none`` being the
reference run), an optional community plan, and run/output settings. Each
seed derives one independent random stream per concern, so two variants of
the same seed share the network, population, and masks, and differ only in
the intervention under study.

The spec dataclasses are the config schema: each field is one JSON key, its
default is the key's default, and its ``metadata["read"]`` is the reader that
parses and bounds it. ``parse_config`` and ``ScenarioConfig.to_dict`` are
derived from them; only the rules that link keys are written per section, in
that section's ``_checked``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace as dc_replace
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .community import Community, TieProposal, accelerate_loop, detect_communities, transfer_efficiency
from .diffusion import (
    DiffusionConfig,
    Probe,
    SimulationState,
    TimeSeries,
    collector_probes,
    probe_average,
    probe_mask,
    probe_node,
    run,
)
from .netgraph import (
    WeightedGraph,
    WeightSpec,
    add_edge,
    assign_weights,
    average_edge_weight,
    generate_watts_strogatz,
)
from .roles import ROLES, RoleAssignment, Strategy, apply_collector, apply_expert, apply_facilitator, rank_nodes, select_top
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

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

REFERENCE_TOKEN = "none"
_STRATEGY_TOKENS = tuple(s.value for s in Strategy)
_TIE_MODES = ("none", "manual", "algorithm", "random")
_NAMED_PROBES = {"average_competence": "average", "collector_intake": "collector"}
# Role-only keys and the role each belongs to.
_ROLE_KEYS = {"boost_range": "expert", "boost_all": "expert", "weight_factor": "facilitator"}

# One independent random stream per concern, all derived from the master seed.
_STREAMS = {"topology": 0, "weights": 1, "population": 2, "strategy": 3, "boost": 4, "ties": 5}


def stream_rng(seed: int, concern: str) -> np.random.Generator:
    """Generator for one named concern, derived from the master seed."""
    if concern not in _STREAMS:
        raise ConfigError(f"unknown random stream {concern!r}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAMS[concern],)))


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the offending key."""


# -- config readers -----------------------------------------------------------------
# A reader takes a raw JSON value and its key path, and returns the parsed value or
# raises ConfigError naming the path.


def _key(read: Callable[..., Any], **options: Any) -> dict:
    """Field metadata: the key is parsed by ``read`` with these bounds or choices."""
    return {"read": partial(read, **options)}


def _is_list(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


def _bounded(value: Any, path: str, lo=None, hi=None, gt=None, lt=None) -> Any:
    for ok, rule, bound in (
        (lo is None or value >= lo, ">=", lo),
        (hi is None or value <= hi, "<=", hi),
        (gt is None or value > gt, ">", gt),
        (lt is None or value < lt, "<", lt),
    ):
        if not ok:
            raise ConfigError(f"{path}: must be {rule} {bound}, got {value}")
    return value


def _as_int(value: Any, path: str, lo: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return _bounded(value, path, lo=lo)


_ID = partial(_as_int, lo=0)


def _as_float(value: Any, path: str, **bounds: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    return _bounded(value, path, **bounds)


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_str(value: Any, path: str, choices: Sequence[str] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _as_name(value: Any, path: str) -> str:
    if not _NAME_RE.match(_as_str(value, path)):
        raise ConfigError(f"{path}: must match [A-Za-z0-9_.-]+, got {value!r}")
    return value


def _or_null(value: Any, path: str, item: Callable[[Any, str], Any]) -> Any:
    """``null`` reads as an absent key, for the optional keys whose default is None."""
    return None if value is None else item(value, path)


def _as_pair(value: Any, path: str, **bounds: float) -> tuple[float, float]:
    if not _is_list(value) or len(value) != 2:
        raise ConfigError(f"{path}: expected a [low, high] pair")
    lo, hi = (_as_float(v, f"{path}[{i}]", **bounds) for i, v in enumerate(value))
    if hi < lo:
        raise ConfigError(f"{path}: interval is reversed: [{lo}, {hi}]")
    return (lo, hi)


def _as_tie(value: Any, path: str) -> tuple[int, int]:
    if not _is_list(value) or len(value) != 2:
        raise ConfigError(f"{path}: expected a [u, v] pair")
    u, v = (_ID(x, f"{path}[{i}]") for i, x in enumerate(value))
    if u == v:
        raise ConfigError(f"{path}: endpoints must be distinct")
    return (u, v)


def _as_list(
    value: Any,
    path: str,
    item: Callable[[Any, str], Any],
    empty: bool = False,
    unique: str | None = None,
    then: Callable[[list], tuple] = tuple,
) -> tuple:
    """Each entry read by ``item``; ``unique`` names the entries that may not repeat."""
    if not _is_list(value) or not (value or empty):
        raise ConfigError(f"{path}: expected a {'' if empty else 'non-empty '}list")
    items = [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if unique is not None:
        seen: set = set()
        for i, v in enumerate(items):
            if v in seen:
                raise ConfigError(f"{path}[{i}]: duplicate {unique} {v!r}; entries must be unique")
            seen.add(v)
    return then(items)


def _sorted(items: Any) -> tuple:
    return tuple(sorted(items))


def _expand_formats(formats: list[str]) -> tuple[str, ...]:
    """``both`` stands for csv and json; a repeated format is kept once, where first named."""
    return tuple(dict.fromkeys(f for token in formats for f in (("csv", "json") if token == "both" else (token,))))


def _as_weights(value: Any, path: str) -> WeightSpec:
    """``{"kind": "constant", "value": c}`` or ``{"kind": "uniform", "low": a, "high": b}``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected an object")
    if "kind" not in value:
        raise ConfigError(f"{path}.kind: required key missing")
    kind = _as_str(value["kind"], f"{path}.kind", choices=("constant", "uniform"))
    keys = ("value",) if kind == "constant" else ("low", "high")
    for key in value:
        if key not in ("kind", *keys):
            raise ConfigError(f"{path}: {kind} weights take {'/'.join(map(repr, keys))}, not {key!r}")
    for key in keys:
        if key not in value:
            raise ConfigError(f"{path}.{key}: required key missing")
    low, high = (_as_float(value[key], f"{path}.{key}") for key in (keys[0], keys[-1]))
    if not (low > 0.0):
        raise ConfigError(f"{path}: weights must be strictly positive")
    if high < low:
        raise ConfigError(f"{path}: interval is reversed: [{low}, {high}]")
    return WeightSpec(kind, low, high)


def _as_probe(value: Any, path: str) -> ProbeSpec:
    if isinstance(value, str) and value in _NAMED_PROBES:
        return ProbeSpec(_NAMED_PROBES[value])
    if isinstance(value, Mapping) and list(value) == ["node"]:
        return ProbeSpec("node", node=_ID(value["node"], f"{path}.node"))
    if isinstance(value, Mapping) and list(value) == ["mask"]:
        return ProbeSpec("mask", mask=_as_spec(value["mask"], f"{path}.mask", MaskProbe))
    raise ConfigError(
        f"{path}: unknown probe {value!r}; expected 'average_competence', 'collector_intake', "
        "a {'node': id} object, or a {'mask': ...} object"
    )


def _as_spec(
    value: Any,
    path: str,
    spec: type,
    prefix: str | None = None,
    readers: Mapping[str, Callable[[Any, str], Any]] | None = None,
) -> Any:
    """The JSON object for the dataclass ``spec``: one key per field, read by the field's reader.

    Unknown keys are rejected, required keys are fields without a default, and
    absent keys take the field default. ``readers`` supplies readers for a
    dataclass declared outside this module. The section's ``_checked`` then
    applies the rules that link its keys.
    """
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected an object")
    prefix = f"{path}." if prefix is None else prefix
    declared = {f.name: f for f in fields(spec)}
    for key in value:
        if key not in declared:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for name, f in declared.items():
        if name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{name}: required key missing")
    read = {name: f.metadata.get("read") for name, f in declared.items()} | dict(readers or {})
    parsed = spec(**{key: read[key](v, prefix + key) for key, v in value.items()})
    checked = getattr(parsed, "_checked", None)
    return checked(value, path) if checked is not None else parsed


# -- config model -------------------------------------------------------------------
# A key that does not apply under the chosen mode is stored as None.


@dataclass(frozen=True)
class NetworkSpec:
    nodes: int = field(metadata=_key(_as_int, lo=3))
    ring_degree: int = field(default=4, metadata=_key(_as_int, lo=2))
    rewire_prob: float = field(default=0.1, metadata=_key(_as_float, lo=0.0, hi=1.0))
    weights: WeightSpec = field(default=WeightSpec.uniform(0.1, 1.0), metadata=_key(_as_weights))

    def _checked(self, data: Mapping, path: str) -> NetworkSpec:
        if self.ring_degree % 2 != 0:
            raise ConfigError(f"{path}.ring_degree: must be even, got {self.ring_degree}")
        if self.ring_degree >= self.nodes:
            raise ConfigError(f"{path}.ring_degree: must be smaller than nodes ({self.nodes}), got {self.ring_degree}")
        return self


@dataclass(frozen=True)
class PopulationSpec:
    competences: int = field(metadata=_key(_as_int, lo=1))
    competence_range: tuple[float, float] = field(default=(0.0, 10.0), metadata=_key(_as_pair, lo=0.0))
    mask_density: float = field(default=0.5, metadata=_key(_as_float, lo=0.0, hi=1.0))
    forgetting: float = field(default=0.006, metadata=_key(_as_float, lo=0.0, lt=1.0))
    cognitive_range: tuple[float, float] = field(default=(0.0, 1.0), metadata=_key(_as_pair, lo=0.0, hi=1.0))
    social_range: tuple[float, float] = field(default=(0.0, 1.0), metadata=_key(_as_pair, lo=0.0, hi=1.0))


@dataclass(frozen=True)
class RolePlan:
    role: str = field(metadata=_key(_as_str, choices=ROLES))
    strategies: tuple[str, ...] = field(
        metadata=_key(_as_list, item=partial(_as_str, choices=(REFERENCE_TOKEN, *_STRATEGY_TOKENS)), unique="strategy")
    )
    fraction: float | None = field(default=None, metadata=_key(_as_float, gt=0.0, hi=1.0))
    count: int | None = field(default=None, metadata=_key(_as_int, lo=1))
    boost_range: tuple[float, float] | None = field(default=None, metadata=_key(_as_pair, lo=0.0))
    boost_all: bool | None = field(default=False, metadata=_key(_as_bool))
    weight_factor: float | None = field(default=None, metadata=_key(_as_float, gt=0.0))
    step: int = field(default=0, metadata=_key(_as_int, lo=0))

    def _checked(self, data: Mapping, path: str) -> RolePlan:
        if (self.fraction is None) == (self.count is None):
            raise ConfigError(f"{path}: exactly one of 'fraction' or 'count' is required")
        for key, owner in _ROLE_KEYS.items():
            if key in data and owner != self.role:
                raise ConfigError(f"{path}.{key}: only valid for the {owner} role")
            if owner == self.role and getattr(self, key) is None:
                raise ConfigError(f"{path}.{key}: required for the {owner} role")
        return self if self.role == "expert" else dc_replace(self, boost_all=None)


@dataclass(frozen=True)
class CommunityFixture:
    members: tuple[int, ...] = field(metadata=_key(_as_list, item=_ID, unique="node id", then=_sorted))
    core: tuple[int, ...] = field(metadata=_key(_as_list, item=_ID, empty=True, then=_sorted))


@dataclass(frozen=True)
class CommunityPlan:
    method: str = field(metadata=_key(_as_str, choices=("fixture", "jaccard")))
    threshold: float | None = field(default=0.5, metadata=_key(_as_float, gt=0.0, hi=1.0))
    core_rule: str | None = field(default="and", metadata=_key(_as_str, choices=("and", "majority")))
    core_theta: float | None = field(default=0.5, metadata=_key(_as_float))
    communities: tuple[CommunityFixture, ...] | None = field(
        default=None, metadata=_key(_as_list, item=partial(_as_spec, spec=CommunityFixture))
    )
    ties: str = field(default="none", metadata=_key(_as_str, choices=_TIE_MODES))
    manual_ties: tuple[tuple[int, int], ...] | None = field(default=None, metadata=_key(_as_list, item=_as_tie))
    community_index: int = field(default=0, metadata=_key(_as_int, lo=0))
    budget: int = field(default=1, metadata=_key(_as_int, lo=0))
    min_efficiency: float | None = field(default=None, metadata=_key(_or_null, item=partial(_as_float, lo=0.0)))
    tie_weight: float | None = field(default=None, metadata=_key(_or_null, item=partial(_as_float, gt=0.0)))
    division: str = field(default="double", metadata=_key(_as_str, choices=("double", "single")))

    def _checked(self, data: Mapping, path: str) -> CommunityPlan:
        if self.method == "fixture":
            if self.communities is None:
                raise ConfigError(f"{path}.communities: fixture method needs a non-empty list")
            if self.community_index >= len(self.communities):
                raise ConfigError(
                    f"{path}.community_index: only {len(self.communities)} communities defined, got {self.community_index}"
                )
            ignored = {"threshold": None, "core_rule": None, "core_theta": None}
        else:
            if self.communities is not None:
                raise ConfigError(f"{path}.communities: only valid with the fixture method")
            if self.core_rule == "majority":
                _bounded(self.core_theta, f"{path}.core_theta", gt=0.0, hi=1.0)
                ignored = {}
            else:
                ignored = {"core_theta": None}
        if self.ties == "manual" and self.manual_ties is None:
            raise ConfigError(f"{path}.manual_ties: manual ties need a non-empty list of [u, v] pairs")
        if self.ties != "manual" and self.manual_ties is not None:
            raise ConfigError(f"{path}.manual_ties: only valid with ties='manual'")
        return dc_replace(self, **ignored)


@dataclass(frozen=True)
class MaskProbe:
    name: str = field(metadata=_key(_as_name))
    competences: tuple[int, ...] = field(metadata=_key(_as_list, item=_ID, then=lambda ids: _sorted(set(ids))))
    members: tuple[int, ...] | None = field(default=None, metadata=_key(_as_list, item=_ID))


@dataclass(frozen=True)
class ProbeSpec:
    kind: str  # "average" | "node" | "mask" | "collector"
    node: int | None = None
    mask: MaskProbe | None = None

    def to_json(self) -> Any:
        if self.kind == "node":
            return {"node": self.node}
        if self.kind == "mask":
            return {"mask": _to_json(self.mask)}
        return next(token for token, kind in _NAMED_PROBES.items() if kind == self.kind)


@dataclass(frozen=True)
class RunSpec:
    steps: int = field(metadata=_key(_as_int, lo=0))
    seeds: tuple[int, ...] = field(metadata=_key(_as_list, item=_ID, unique="seed"))
    probes: tuple[ProbeSpec, ...] = field(default=(ProbeSpec("average"),), metadata=_key(_as_list, item=_as_probe))


@dataclass(frozen=True)
class OutputSpec:
    directory: str | None = field(default=None, metadata=_key(_as_str))
    formats: tuple[str, ...] = field(
        default=("csv", "json"),
        metadata=_key(_as_list, item=partial(_as_str, choices=("csv", "json", "both")), then=_expand_formats),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = field(metadata=_key(_as_name))
    network: NetworkSpec = field(metadata=_key(_as_spec, spec=NetworkSpec))
    population: PopulationSpec = field(metadata=_key(_as_spec, spec=PopulationSpec))
    run: RunSpec = field(metadata=_key(_as_spec, spec=RunSpec))
    role_plan: RolePlan | None = field(default=None, metadata=_key(_as_spec, spec=RolePlan))
    community_plan: CommunityPlan | None = field(default=None, metadata=_key(_as_spec, spec=CommunityPlan))
    diffusion: DiffusionConfig = field(
        default_factory=DiffusionConfig,
        metadata=_key(_as_spec, spec=DiffusionConfig, readers={"cognitive_gain": _as_bool}),
    )
    output: OutputSpec = field(default_factory=OutputSpec, metadata=_key(_as_spec, spec=OutputSpec))

    def to_dict(self) -> dict:
        """The config as JSON data, without the keys its modes ignore; ``parse_config`` inverts it."""
        return _to_json(self)

    def _checked(self, data: Mapping, path: str) -> ScenarioConfig:
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
        return self


def _to_json(value: Any) -> Any:
    """JSON data for a spec: None fields dropped, tuples as lists, nested specs recursed."""
    if isinstance(value, WeightSpec):
        if value.kind == "constant":
            return {"kind": "constant", "value": value.low}
        return {"kind": "uniform", "low": value.low, "high": value.high}
    if isinstance(value, ProbeSpec):
        return value.to_json()
    if is_dataclass(value):
        pairs = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _to_json(v) for name, v in pairs if v is not None}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_hash(config: ScenarioConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_config(data: Any, source: str = "config") -> ScenarioConfig:
    """Validate a raw JSON object into a ScenarioConfig; fail fast on any unknown key."""
    return _as_spec(data, source, ScenarioConfig, prefix="")


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{path}: config file not found") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    return parse_config(data, source=path.name)


# -- shipped fixtures -----------------------------------------------------------------


def fixture_names() -> list[str]:
    root = resources.files("knowflow") / "fixtures"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> ScenarioConfig:
    root = resources.files("knowflow") / "fixtures"
    candidate = root / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    return parse_config(json.loads(candidate.read_text()), source=f"fixture:{name}")


def export_fixtures(out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root = resources.files("knowflow") / "fixtures"
    written = []
    for name in fixture_names():
        target = out / f"{name}.json"
        target.write_text((root / f"{name}.json").read_text())
        written.append(target)
    return written


# -- experiment runner ------------------------------------------------------------------


def _graph_for(network: NetworkSpec, seed: int) -> WeightedGraph:
    """Seeded network build; the variants of one seed share it, which is safe because graphs are immutable."""
    g = generate_watts_strogatz(network.nodes, network.ring_degree, network.rewire_prob, stream_rng(seed, "topology"))
    return assign_weights(g, network.weights, stream_rng(seed, "weights"))


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
    plan: CommunityPlan,
    g: WeightedGraph,
    workers: Population,
    communities: list[Community],
    seed: int,
) -> tuple[WeightedGraph, list[dict]]:
    """The graph with the plan's ties inserted, and one record per inserted tie."""
    if plan.ties == "none":
        return g, []
    single = plan.division == "single"
    proposals: list[TieProposal] = []
    if plan.ties != "manual" and plan.community_index >= len(communities):
        raise ConfigError(
            f"community_plan.community_index: only {len(communities)} communities detected, "
            f"got {plan.community_index}"
        )
    if plan.ties == "algorithm":
        g, proposals = accelerate_loop(
            communities[plan.community_index],
            g,
            workers,
            budget=plan.budget,
            tie_weight=plan.tie_weight,
            min_efficiency=plan.min_efficiency,
            single_division=single,
        )
    else:

        def insert(community: int | None, u: int, v: int) -> None:
            """Add the tie (u, v) and record it with the transfer efficiency before it."""
            nonlocal g
            weight = plan.tie_weight if plan.tie_weight is not None else average_edge_weight(g)
            efficiency = transfer_efficiency(g, workers, u, v, single_division=single)
            g = add_edge(g, u, v, weight)
            proposals.append(TieProposal(community, u, v, weight, efficiency))

        if plan.ties == "manual":
            for u, v in plan.manual_ties:
                if g.has_edge(u, v):
                    logger.warning("manual tie (%d, %d) already present for seed %d; skipped", u, v, seed)
                else:
                    insert(None, u, v)
        else:  # uniformly random intra-community ties, for baselining the algorithm
            target, rng = communities[plan.community_index], stream_rng(seed, "ties")
            pairs = [(u, v) for i, u in enumerate(target.members) for v in target.members[i + 1:]]
            for _ in range(plan.budget):
                eligible = [(u, v) for u, v in pairs if not g.has_edge(u, v)]
                if not eligible:
                    break
                insert(target.id, *eligible[int(rng.integers(len(eligible)))])
    return g, [{"mode": plan.ties, **p.as_record()} for p in proposals]


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


def _intervention(plan: RolePlan, selected: tuple[int, ...], seed: int) -> Callable[[SimulationState], SimulationState]:
    """The plan's role action on the selected nodes, as a state transform."""

    def intervene(state: SimulationState) -> SimulationState:
        if plan.role == "expert":
            rng = stream_rng(seed, "boost")
            boosted = apply_expert(state.population, selected, plan.boost_range, rng, plan.boost_all)  # type: ignore[arg-type]
            return dc_replace(state, population=boosted)
        if plan.role == "facilitator":
            graph = apply_facilitator(state.graph, selected, plan.weight_factor)  # type: ignore[arg-type]
            return dc_replace(state, graph=graph)
        return apply_collector(state, selected)

    return intervene


def _single_run(
    config: ScenarioConfig, variant: str, seed: int, g: WeightedGraph
) -> tuple[TimeSeries, list[dict], RoleAssignment | None]:
    """One (variant, seed) run: its series, its inserted-tie records and its role assignment."""
    pop = _population_for(config.population, config.network.nodes, seed)
    plan = config.role_plan
    assignment: RoleAssignment | None = None
    interventions: dict[int, Callable[[SimulationState], SimulationState]] = {}
    if plan is not None and variant != REFERENCE_TOKEN:
        ranking = rank_nodes(g, variant, rng=stream_rng(seed, "strategy") if variant == Strategy.RANDOM.value else None)
        portion: int | float = plan.count if plan.count is not None else plan.fraction  # type: ignore[assignment]
        assignment = RoleAssignment(role=plan.role, nodes=tuple(select_top(ranking, portion)))
        interventions[plan.step] = _intervention(plan, assignment.nodes, seed)
    ties: list[dict] = []
    if config.community_plan is not None:
        communities = _communities_for(config.community_plan, pop)
        g, ties = _apply_tie_plan(config.community_plan, g, pop, communities, seed)
    collector_ids = assignment.nodes if assignment is not None and assignment.role == "collector" else ()
    probes = _build_probes(config, collector_ids)
    state = SimulationState.initial(g, pop)
    _, series = run(state, config.run.steps, probes, config=config.diffusion, interventions=interventions)
    return series, ties, assignment


@dataclass
class VariantResult:
    """All per-seed series for one variant plus cross-seed aggregates."""

    name: str
    seeds: tuple[int, ...]
    series: dict[int, TimeSeries]
    ties: dict[int, list[dict]]
    assignments: dict[int, RoleAssignment | None]
    steps: list[int] = field(init=False)
    aggregates: dict[tuple[str, str], dict[str, np.ndarray]] = field(init=False)

    def __post_init__(self) -> None:
        """The recorded steps, and the cross-seed mean and std of each column every seed recorded."""
        per_seed = [self.series[s] for s in self.seeds]
        self.steps = list(per_seed[0].steps)
        self.aggregates = {}
        for col in per_seed[0].columns:
            if all(col in series.columns for series in per_seed):
                matrix = np.stack([series.column(*col) for series in per_seed])
                std = matrix.std(axis=0, ddof=1) if matrix.shape[0] > 1 else np.zeros(matrix.shape[1])
                self.aggregates[col] = {"mean": matrix.mean(axis=0), "std": std}

    def final_values(self, metric: str = "average_competence", scope: str = "all") -> np.ndarray:
        """Final recorded value per seed, in the experiment's seed order."""
        return np.array([self.series[s].column(metric, scope)[-1] for s in self.seeds])

    def mean_curve(self, metric: str = "average_competence", scope: str = "all") -> np.ndarray:
        return self.aggregates[(metric, scope)]["mean"]


@dataclass
class ExperimentReport:
    config: ScenarioConfig
    config_hash: str
    seeds: tuple[int, ...]
    variants: dict[str, VariantResult]


def run_experiment(config: ScenarioConfig, seeds: Sequence[int] | None = None) -> ExperimentReport:
    """Run every (variant, seed) combination and aggregate across seeds."""
    seed_list = tuple(int(s) for s in (seeds if seeds is not None else config.run.seeds))
    if not seed_list:
        raise ConfigError("run.seeds: need at least one seed")
    names = config.role_plan.strategies if config.role_plan is not None else ("default",)
    series, ties, assignments = ({name: {} for name in names} for _ in range(3))
    for seed in seed_list:
        g = _graph_for(config.network, seed)
        for name in names:
            logger.info("running %s variant=%s seed=%d", config.name, name, seed)
            series[name][seed], ties[name][seed], assignments[name][seed] = _single_run(config, name, seed, g)
    variants = {name: VariantResult(name, seed_list, series[name], ties[name], assignments[name]) for name in names}
    return ExperimentReport(config=config, config_hash=config_hash(config), seeds=seed_list, variants=variants)


def propose_ties(
    config: ScenarioConfig,
    seed: int | None = None,
    community_index: int | None = None,
    budget: int | None = None,
) -> list[dict]:
    """Energy-guided tie proposals for one seed's network, without running diffusion."""
    if config.community_plan is None:
        raise ConfigError("community_plan: required to propose ties")
    plan = dc_replace(
        config.community_plan,
        ties="algorithm",
        community_index=config.community_plan.community_index if community_index is None else community_index,
        budget=config.community_plan.budget if budget is None else budget,
    )
    if plan.community_index < 0 or plan.budget < 0:
        raise ConfigError("community/budget overrides must be non-negative")
    run_seed = int(config.run.seeds[0] if seed is None else seed)
    g = _graph_for(config.network, run_seed)
    pop = _population_for(config.population, config.network.nodes, run_seed)
    communities = _communities_for(plan, pop)
    _, records = _apply_tie_plan(plan, g, pop, communities, run_seed)
    return records


# -- reporting ---------------------------------------------------------------------------


def stabilization_step(curve: Sequence[float], tolerance: float = 0.05) -> int:
    """First index after which the curve stays within ``tolerance`` of its final value."""
    values = np.asarray(curve, dtype=float)
    final = values[-1]
    bound = tolerance * max(abs(final), np.finfo(float).tiny)
    stable_from = len(values) - 1
    for i in range(len(values) - 1, -1, -1):
        if abs(values[i] - final) <= bound:
            stable_from = i
        else:
            break
    return int(stable_from)


def emit_report(
    report: ExperimentReport,
    out_dir: str | Path,
    formats: Sequence[str] | None = None,
) -> list[Path]:
    """Write per-seed and aggregate CSV series plus a JSON summary.

    Output is byte-deterministic for a given config and seed list: no
    timestamps, sorted JSON keys, shortest round-trip float formatting.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmts = tuple(formats) if formats is not None else report.config.output.formats
    for fmt in fmts:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")
    written: list[Path] = []
    name = report.config.name

    if "csv" in fmts:
        for vname, result in report.variants.items():
            for seed in result.seeds:
                path = out / f"{name}__{vname}__seed{seed}.csv"
                path.write_text("\n".join(result.series[seed].csv_lines()) + "\n")
                written.append(path)
            agg_lines = ["step,metric,scope,value"]
            for i, t in enumerate(result.steps):
                for (metric, scope), stats in result.aggregates.items():
                    agg_lines.append(f"{t},{metric}:mean,{scope},{float(stats['mean'][i])!r}")
                    agg_lines.append(f"{t},{metric}:std,{scope},{float(stats['std'][i])!r}")
            path = out / f"{name}__{vname}__aggregate.csv"
            path.write_text("\n".join(agg_lines) + "\n")
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
            final: dict[str, Any] = {}
            stabilization: dict[str, Any] = {}
            for (metric, scope), stats in result.aggregates.items():
                key = f"{metric}|{scope}"
                per_seed = {str(s): float(result.series[s].column(metric, scope)[-1]) for s in result.seeds}
                final[key] = {
                    "mean": float(stats["mean"][-1]),
                    "std": float(stats["std"][-1]),
                    "per_seed": per_seed,
                }
                stabilization[key] = stabilization_step(stats["mean"])
            summary["variants"][vname] = {
                "final": final,
                "stabilization_step": stabilization,
                "ties": {str(s): result.ties[s] for s in result.seeds},
                "role_nodes": {
                    str(s): (list(result.assignments[s].nodes) if result.assignments[s] else None)
                    for s in result.seeds
                },
            }
        path = out / f"{name}__summary.json"
        path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        written.append(path)

    return written
