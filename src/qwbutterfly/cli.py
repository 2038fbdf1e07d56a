"""Command-line front end: run one scenario, sweep placements, or rebuild
the reference average-fidelity tables.

Exit codes: 0 success, 2 configuration error, 3 numeric-domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from .graphs import Graph, build_butterfly, build_path, read_edge_list
from .noise import FAMILY_PARAMS, NOISE_FAMILIES, NoiseDomainError, NoiseSpec, param_key
from .runner import (
    NOISE_MODES,
    ConfigError,
    ScenarioConfig,
    evaluate_reference_tables,
    export,
    export_sweep,
    run_scenario,
    sweep_placements,
)
from .walk import RECEIVER_CONVENTIONS, WalkOperator

# Flag destinations of `run` that are not scenario-file keys.
_NOT_SCENARIO_KEYS = {"command", "scenario", "dump_operators"}


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed-path", type=int, metavar="N",
                   help="build the walk graph as a butterfly grown from the N-vertex path")
    p.add_argument("--wings", type=int, metavar="K",
                   help="number of wings to attach to the seed (default 0)")
    p.add_argument("--graph-file", metavar="PATH",
                   help="read the walk graph from an edge-list file instead")


def _add_horizon_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, metavar="T",
                   help=f"walk horizon (default {ScenarioConfig.steps})")
    p.add_argument("--receiver-convention", choices=RECEIVER_CONVENTIONS,
                   help="arc orientation of the receiver state; outgoing reproduces "
                        f"the reference tables (default {ScenarioConfig.receiver_convention})")


def _add_channel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", choices=NOISE_FAMILIES,
                   help="noise channel family: rtn random telegraph, oun Ornstein-Uhlenbeck, "
                        f"nmad amplitude damping (default {ScenarioConfig.noise.family})")
    for family, params in FAMILY_PARAMS.items():
        for name, value in params.items():
            key = param_key(family, name)
            p.add_argument("--" + key.replace(".", "-"), dest=key, type=float,
                           metavar=name[0].upper(),
                           help=f"{family} channel parameter (default {value:g})")
    p.add_argument("--noise-mode", choices=NOISE_MODES,
                   help="snapshot: channel at time t acts on the clean state at t; "
                        "stepwise: channel compounds after every step, for comparison only "
                        f"(default {ScenarioConfig.noise_mode})")
    p.add_argument("--peak-threshold", type=float, metavar="X",
                   help="fidelity level counted as a peak "
                        f"(default {ScenarioConfig.peak_threshold:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwbutterfly",
        description="Coined quantum walks on butterfly graphs: state-transfer "
                    "fidelity and coherence, with and without non-Markovian noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single sender/receiver scenario")
    run.add_argument("--scenario", metavar="PATH",
                     help="JSON scenario file with flat keys matching the flags "
                          "(flags override file fields)")
    _add_graph_args(run)
    run.add_argument("--sender", type=int, metavar="S")
    run.add_argument("--receiver", type=int, metavar="R")
    _add_horizon_args(run)
    _add_channel_args(run)
    run.add_argument("--out-csv", metavar="PATH", help="write the per-step series here")
    run.add_argument("--out-json", metavar="PATH", help="write the run summary here")
    run.add_argument("--dump-operators", action="store_true",
                     help="print the coin, shift and evolution matrices")

    sweep = sub.add_parser("sweep", help="rank every ordered sender/receiver pair")
    _add_graph_args(sweep)
    _add_horizon_args(sweep)
    _add_channel_args(sweep)
    sweep.add_argument("--out-json", metavar="PATH", help="write the ranked summaries here")

    tables = sub.add_parser("tables", help="recompute the reference average-fidelity tables")
    _add_horizon_args(tables)
    return parser


def _load_scenario_file(path: str, known: set[str]) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"scenario: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario: {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario: {path} must hold a JSON object")
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"scenario: unknown field(s) {', '.join(unknown)} in {path}")
    return raw


def _resolve(args: argparse.Namespace, scenario: dict) -> dict:
    """Merge CLI flags over scenario-file fields, keeping only the values set."""
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_SCENARIO_KEYS}
    return {k: v for source in (scenario, flags) for k, v in source.items() if v is not None}


def _build_graph(opts: dict) -> Graph:
    if opts.get("graph_file") is not None:
        if opts.get("seed_path") is not None:
            raise ConfigError("graph: give either --graph-file or --seed-path, not both")
        try:
            return read_edge_list(opts["graph_file"])
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"graph_file: {exc}") from exc
    if opts.get("seed_path") is None:
        raise ConfigError("graph: one of --seed-path or --graph-file is required")
    try:
        seed = build_path(opts["seed_path"])
    except ValueError as exc:
        raise ConfigError(f"seed_path: {exc}") from exc
    try:
        return build_butterfly(seed, opts.get("wings", 0))
    except ValueError as exc:
        raise ConfigError(f"wings: {exc}") from exc


def _scenario_fields(opts: dict) -> dict:
    """The ScenarioConfig fields, graph aside, that flags or the file set."""
    fields = {f.name: opts[f.name] for f in dataclasses.fields(ScenarioConfig)
              if f.name in opts and f.name != "noise"}
    if "noise" in opts:
        family = opts["noise"]
        params = FAMILY_PARAMS[family] if family in NOISE_FAMILIES else {}
        try:
            fields["noise"] = NoiseSpec(family, **{
                name: opts.get(param_key(family, name), value) for name, value in params.items()})
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from exc
    return fields


def _format_entry(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _dump_operators(walk: WalkOperator, out) -> None:
    for name, mat in (("coin", walk.coin), ("shift", walk.shift),
                      ("evolution", walk.evolution)):
        print(f"# {name} {mat.shape[0]}x{mat.shape[1]}", file=out)
        for row in mat:
            print(" ".join(_format_entry(z) for z in row), file=out)


def _print_summary(summary, out) -> None:
    print(f"average fidelity  {summary.average_fidelity:.6f}", file=out)
    print(f"max fidelity      {summary.max_fidelity:.6f} at t={summary.argmax_t} (earliest)",
          file=out)
    peaks = ", ".join(str(t) for t in summary.peak_times) or "none"
    print(f"peaks >= {summary.peak_threshold:g}      t = {peaks}", file=out)


def _cmd_run(args: argparse.Namespace, out) -> int:
    known = set(vars(args)) - _NOT_SCENARIO_KEYS
    scenario = _load_scenario_file(args.scenario, known) if args.scenario else {}
    opts = _resolve(args, scenario)
    graph = _build_graph(opts)
    for field in ("sender", "receiver"):
        if field not in opts:
            raise ConfigError(f"{field}: required (flag --{field} or scenario file)")
    for field in ("out_csv", "out_json"):
        if not isinstance(opts.get(field, ""), str):
            raise ConfigError(f"{field}: must be a path string, got {opts[field]!r}")
    cfg = ScenarioConfig(graph=graph, **_scenario_fields(opts))
    result = run_scenario(cfg)
    if args.dump_operators:
        _dump_operators(WalkOperator.assemble(graph, cfg.sender, cfg.receiver), out)
    print(f"graph: {graph.n} vertices, {graph.m} edges; "
          f"sender {cfg.sender} -> receiver {cfg.receiver}; steps {cfg.steps}; "
          f"noise {cfg.noise.family}", file=out)
    _print_summary(result.summary, out)
    csv_path, json_path = opts.get("out_csv"), opts.get("out_json")
    export(result, csv_path=csv_path or None, json_path=json_path or None)
    for label, path in (("series", csv_path), ("summary", json_path)):
        if path:
            print(f"wrote {label} to {path}", file=out)
    return 0


def _cmd_sweep(args: argparse.Namespace, out) -> int:
    opts = _resolve(args, {})
    graph = _build_graph(opts)
    fields = _scenario_fields(opts)
    summaries = sweep_placements(graph, **fields)
    print(f"graph: {graph.n} vertices, {graph.m} edges; "
          f"steps {fields.get('steps', ScenarioConfig.steps)}; "
          f"noise {summaries[0].noise_family}; {len(summaries)} ordered pairs", file=out)
    print("rank  s -> r   avg fidelity   max fidelity   at t", file=out)
    for i, s in enumerate(summaries, start=1):
        print(f"{i:4d}  {s.sender} -> {s.receiver}   {s.average_fidelity:12.6f}"
              f"   {s.max_fidelity:12.6f}   {s.argmax_t}", file=out)
    if opts.get("out_json"):
        export_sweep(summaries, opts["out_json"])
        print(f"wrote summaries to {opts['out_json']}", file=out)
    return 0


def _cmd_tables(args: argparse.Namespace, out) -> int:
    opts = _resolve(args, {})
    steps = opts.get("steps", ScenarioConfig.steps)
    convention = opts.get("receiver_convention", ScenarioConfig.receiver_convention)
    results = evaluate_reference_tables(steps=steps, receiver_convention=convention)
    worst = 0.0
    for table, rows in results:
        print(f"== {table.label} (steps={steps}, receiver convention {convention})", file=out)
        print("   s -> r    computed    reference   residual", file=out)
        for s, r, computed, expected, residual in rows:
            worst = max(worst, abs(residual))
            print(f"   {s} -> {r}   {computed:9.6f}   {expected:9.6f}   {residual:+.6f}",
                  file=out)
    print(f"worst |residual| = {worst:.6f}", file=out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        return _cmd_tables(args, out)
    except NoiseDomainError as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
