"""Spans around the public functions of each knowflow module, installed from outside.

A call resolves a function name in the caller's module: ``scenario`` calls
``run`` through its own ``from .diffusion import run`` binding, ``diffusion``
calls ``step`` through its module globals, and a user calls
``knowflow.run_experiment`` through the package. So each wrapper is bound
under every name, in every module of the package, that holds the original
function. ``unwrapped()`` lists any binding still holding an original, so a
missed lookup site is reported instead of showing up as a low or zero time.

Two public names are not plain functions and are wrapped by hand:
``Population`` (its ``__init__``, which validates, counts as one span per
construction) and ``Probe`` (each probe the factories return gets a timed
``measure``).

Spans are kept in memory as ``[name, start, end, parent index]`` and
summarised after the timed region.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from typing import Callable

MODULES = ("netgraph", "workforce", "diffusion", "roles", "community", "scenario")
PROBE_FACTORIES = ("probe_average", "probe_node", "probe_mask", "collector_probes")
PROBE_SPAN = "diffusion.Probe.measure"
POPULATION_SPAN = "workforce.Population"


def _rank_span(args, kwargs) -> str:
    strategy = args[1] if len(args) > 1 else kwargs["strategy"]
    return f"roles.rank_nodes.{getattr(strategy, 'value', strategy)}"


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def descendants(spans: list[list], root: int) -> list[int]:
    """Indices of ``root`` and every span below it (parents precede children)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._originals: dict[int, Callable] = {}
        self._modules: list = []
        self._population = None
        self._population_init = None

    # -- recording ----------------------------------------------------------

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``name`` may derive from the arguments.

        ``after(args, kwargs, result)`` runs outside the span and returns the
        result handed to the caller.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return after(args, kwargs, result) if after is not None else result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the package's modules at every binding."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        self._modules = [package] + modules
        for short, module in zip(MODULES, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = _rank_span if attr == "rank_nodes" else f"{short}.{attr}"
                    self._rebind(fn, self.wrap(name, fn, self._after_hook(attr, fn)))
                    self._originals[id(fn)] = fn

        population = modules[MODULES.index("workforce")].Population
        self._population, self._population_init = population, population.__init__
        population.__init__ = self.wrap(POPULATION_SPAN, population.__init__)

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for module in self._modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def unwrapped(self) -> list[str]:
        """Bindings that still hold an original function: lookup sites the tracer missed."""
        missed = [
            f"{module.__name__}.{key}"
            for module in self._modules
            for key, value in vars(module).items()
            if self._originals.get(id(value)) is value
        ]
        if self._population is not None and self._population.__init__ is self._population_init:
            missed.append(f"{self._population.__module__}.Population.__init__")
        return missed

    def _after_hook(self, attr: str, fn: Callable) -> Callable | None:
        if attr in PROBE_FACTORIES:
            return self._time_probes
        if attr == "run":
            signature = inspect.signature(fn)

            def count_edge_updates(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                state, steps = bound.arguments["state"], bound.arguments["steps"]
                self.counters["edge_updates"] += 2 * state.graph.edge_count * state.population.n_competences * steps
                return result

            return count_edge_updates
        if attr == "emit_report":

            def count_bytes(args, kwargs, result):
                self.counters["report_bytes"] += sum(os.path.getsize(p) for p in result)
                return result

            return count_bytes
        return None

    def _time_probes(self, args, kwargs, made):
        def timed(probe):
            return dataclasses.replace(probe, measure=self.wrap(PROBE_SPAN, probe.measure))

        return [timed(p) for p in made] if isinstance(made, list) else timed(made)

    # -- summary ------------------------------------------------------------

    def layer_metrics(self, runs: int) -> dict[str, float]:
        """Per-layer metrics of one traced experiment with ``runs`` (variant, seed) runs."""
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), s in zip(self.spans, self_times(self.spans)):
            total[name] += end - start
            own[name] += s
            calls[name] += 1
        step_s = total["diffusion.step"]
        metrics = {
            "netgraph.closeness_s": total["netgraph.weighted_closeness_all"],
            "netgraph.betweenness_s": total["netgraph.weighted_betweenness_all"],
            "netgraph.utility_s": total["netgraph.coauthor_utility"],
            "netgraph.generate_s": total["netgraph.generate_watts_strogatz"],
            "netgraph.weights_s": total["netgraph.assign_weights"],
            "netgraph.hop_path_s": total["netgraph.shortest_hop_path"],
            "netgraph.hop_path_calls": calls["netgraph.shortest_hop_path"],
            "netgraph.graph_builds_per_run": calls["netgraph.generate_watts_strogatz"] / runs,
            "workforce.init_s": total["workforce.init_workers"],
            "workforce.population_inits": calls[POPULATION_SPAN],
            "workforce.population_init_s": total[POPULATION_SPAN],
            "roles.rank_calls_per_run": sum(n for k, n in calls.items() if k.startswith("roles.rank_nodes.")) / runs,
            "roles.apply_s": sum(total[f"roles.apply_{r}"] for r in ("expert", "facilitator", "collector")),
            "diffusion.run_s": total["diffusion.run"],
            "diffusion.run_self_s": own["diffusion.run"],
            "diffusion.steps": calls["diffusion.step"],
            "diffusion.step_us": step_s / calls["diffusion.step"] * 1e6 if calls["diffusion.step"] else 0.0,
            # Computed from array sizes: directed edges x competences x steps.
            "diffusion.edge_updates_per_s": self.counters["edge_updates"] / step_s if step_s else 0.0,
            "diffusion.probe_s": total[PROBE_SPAN],
            "community.detect_s": total["community.detect_communities"],
            "community.accelerate_s": total["community.accelerate_loop"],
            "community.transfer_efficiency_calls": calls["community.transfer_efficiency"],
            "community.ties_inserted": calls["netgraph.add_edge"],
            "scenario.parse_s": total["scenario.parse_config"],
            "scenario.experiment_self_s": own["scenario.run_experiment"],
            "scenario.emit_s": total["scenario.emit_report"],
            "scenario.report_bytes": self.counters["report_bytes"],
        }
        for strategy in ("random", "degree", "closeness", "betweenness", "timesharing", "dissemination"):
            metrics[f"roles.rank_s.{strategy}"] = own[f"roles.rank_nodes.{strategy}"]
        return metrics

    def fired(self) -> set[str]:
        return {span[0] for span in self.spans}
