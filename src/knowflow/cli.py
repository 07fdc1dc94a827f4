"""Command line front end: run scenarios, rank nodes, propose ties, manage fixtures."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .community import CommunityError
from .diffusion import DiffusionError
from .netgraph import GraphError, read_edge_list
from .roles import STRATEGIES, RoleError, rank_nodes, select_top
from .scenario import (
    _ID,
    ConfigError,
    ScenarioConfig,
    _as_str,
    emit_report,
    export_fixtures,
    fixture_names,
    load_config,
    load_fixture,
    propose_ties,
    run_experiment,
    stream_rng,
)
from .workforce import WorkforceError

_RUNTIME_ERRORS = (GraphError, WorkforceError, DiffusionError, RoleError, CommunityError, OSError, MemoryError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knowflow",
        description="Simulate knowledge diffusion, allocated roles, and community acceleration "
        "on weighted small-world networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write CSV/JSON reports")
    p_run.add_argument("config", help="path to a scenario JSON file, or a shipped fixture name")
    p_run.add_argument("--seed", type=int, default=None, help="first seed; overrides the config seed list")
    p_run.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="K",
        help="run K consecutive seeds starting at --seed (default: the config's first seed)",
    )
    p_run.add_argument("--out", default=None, help="output directory (default: config output.directory or ./out)")
    p_run.add_argument("--format", choices=["csv", "json", "both"], default=None)

    p_rank = sub.add_parser("rank", help="rank nodes of an edge-list graph under a strategy")
    p_rank.add_argument("graph", help="edge-list file: '# nodes=N' header, then 'u,v,weight' lines")
    p_rank.add_argument("--strategy", required=True, help="|".join(STRATEGIES))
    p_rank.add_argument("--seed", type=int, default=0, help="seed for the random strategy")
    p_rank.add_argument("--top", default=None, help="keep an int count or a float fraction of the ranking")

    p_acc = sub.add_parser("accelerate", help="print energy-guided tie proposals for a scenario")
    p_acc.add_argument("config", help="path to a scenario JSON file, or a shipped fixture name")
    p_acc.add_argument("--community", dest="community_index", type=int, default=None, help="community index override")
    p_acc.add_argument("--budget", type=int, default=None, help="number of ties to propose")
    p_acc.add_argument("--seed", type=int, default=None, help="seed whose network to use (default: first config seed)")

    p_fix = sub.add_parser("fixtures", help="list or export the shipped scenario fixtures")
    p_fix.add_argument("action", choices=["list", "export"])
    p_fix.add_argument("--out", default="fixtures", help="target directory for export")

    return parser


def _load_scenario(token: str) -> ScenarioConfig:
    # a real file wins; otherwise fall back to the shipped fixture of that name
    if Path(token).is_file():
        return load_config(token)
    if token in fixture_names():
        return load_fixture(token)
    return load_config(token)  # raises with the file-not-found message


def _seed_override(args: argparse.Namespace, config: ScenarioConfig) -> list[int] | None:
    if args.seed is None and args.seeds is None:
        return None
    start = config.run.seeds[0] if args.seed is None else _ID(args.seed, "--seed")
    count = _ID(args.seeds, "--seeds", lo=1) if args.seeds is not None else 1
    try:
        return list(range(start, start + count))
    except OverflowError:  # more seeds than a list can index
        raise ConfigError(f"--seeds: too many seeds, got {count}") from None


def _parse_top(raw: str, nodes: int) -> int:
    """The number of ranked nodes ``--top`` keeps: an int count, or a float fraction of ``nodes``."""
    try:
        portion: int | float = int(raw)
    except ValueError:
        try:
            portion = float(raw)
        except ValueError:
            raise ConfigError(f"--top: expected an int count or float fraction, got {raw!r}") from None
    try:
        return len(select_top(range(nodes), portion))
    except RoleError as exc:
        raise ConfigError(f"--top: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_scenario(args.config)
    seeds = _seed_override(args, config)
    report = run_experiment(config, seeds=seeds)
    out_dir = args.out or config.output.directory or "out"
    for path in emit_report(report, out_dir, None if args.format is None else [args.format]):
        print(path)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    strategy = _as_str(args.strategy, "--strategy", choices=STRATEGIES)
    seed = _ID(args.seed, "--seed")
    g = read_edge_list(args.graph)
    top = None if args.top is None else _parse_top(args.top, g.node_count)
    rng = stream_rng(seed, "strategy") if strategy == "random" else None
    for node in rank_nodes(g, strategy, rng=rng)[:top]:
        print(node)
    return 0


def _cmd_accelerate(args: argparse.Namespace) -> int:
    config = _load_scenario(args.config)
    flags = {"seed": "--seed", "community_index": "--community", "budget": "--budget"}
    overrides = {key: vars(args)[key] for key in flags if vars(args)[key] is not None}
    try:
        print(json.dumps(propose_ties(config, **overrides), sort_keys=True, indent=2))
    except ConfigError as exc:  # an error about an override names its keyword: name the option instead
        key, _, reason = str(exc).partition(": ")
        if key not in overrides:
            raise
        raise ConfigError(f"{flags[key]}: {reason}") from None
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in fixture_names():
            print(name)
    else:
        for path in export_fixtures(args.out):
            print(path)
    return 0


_COMMANDS = {"run": _cmd_run, "rank": _cmd_rank, "accelerate": _cmd_accelerate, "fixtures": _cmd_fixtures}
_LOG_LEVELS = ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        level = os.environ.get("KNOWFLOW_LOG_LEVEL", "WARNING").upper()
        logging.basicConfig(level=_as_str(level, "KNOWFLOW_LOG_LEVEL", choices=_LOG_LEVELS), format="%(message)s")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
