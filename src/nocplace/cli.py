"""Command-line interface: counting, analysis, optimization, simulation,
sweeps and model-vs-simulation comparison.

Exit codes: 0 success, 1 model errors (instability, infeasibility, ...),
2 usage errors. Stochastic commands echo the seed they ran with; omitted
seeds are generated and printed, never silent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
import time
from pathlib import Path

from . import __version__
from .errors import NocError
from .latency import Mode, objective
from .mesh import (
    CanonicalFamily,
    FamilyParams,
    MeshGrid,
    Placement,
    canonical_placement,
    placement_count,
)
from .optimizer import SearchSpace, exhaustive_search, local_search, two_phase_optimize
from .queueing import packet_delay_inspector
from .routing import channel_loads, flow_set
from .simulator import (
    SimConfig,
    compare_to_analytical,
    run_sim,
    sweep_latency,
    write_sweep_csv,
)
from .traffic import ServiceSpec, TrafficSpec


def _parse_grid(text: str) -> MeshGrid:
    try:
        w, h = text.lower().split("x")
        return MeshGrid(int(w), int(h))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 8x8, got {text!r}") from exc


def _load_placement(path: str) -> Placement:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return Placement.from_json(text)
    return Placement.from_text(text)


def _traffic_from_args(args) -> TrafficSpec:
    return TrafficSpec(
        lambda_g=args.lambda_g,
        hit_l1=1.0 - args.miss_l1,
        miss_l2=args.miss_l2,
        svc=ServiceSpec(mean_service=args.mean_service),
        mem_fixed_latency=getattr(args, "mem_fixed_latency", 0.0),
    )


def _write_manifest(args, seeds: list[int], outputs: list[str]) -> None:
    path = getattr(args, "manifest", None)
    if not path:
        return
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("func", "manifest") and not callable(v)
    }
    hashes = {}
    placement = getattr(args, "placement", None)
    if placement and Path(placement).exists():
        hashes[placement] = hashlib.sha256(Path(placement).read_bytes()).hexdigest()
    manifest = {
        "command": args.command,
        "version": __version__,
        "parameters": {k: (str(v) if isinstance(v, Path) else v) for k, v in params.items()},
        "seeds": seeds,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "input_hashes": hashes,
        "outputs": outputs,
    }
    Path(path).write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _require_seed(args) -> int:
    if args.seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed: {seed}")
        return seed
    return args.seed


def cmd_count(args) -> int:
    count = placement_count(args.grid.n_tiles, args.cores, args.caches, args.mcs)
    print(count)
    group = 8 if args.grid.is_square else 4
    print(f"symmetry-reduced estimate: >= {-(-count // group)}")
    _write_manifest(args, [], [])
    return 0


def cmd_analyze(args) -> int:
    placement = _load_placement(args.placement)
    spec = _traffic_from_args(args)
    outputs = []
    if args.out_loads:
        loads = channel_loads(flow_set(placement, spec), placement.grid)
        with open(args.out_loads, "w", newline="") as fh:
            loads.write_csv(fh)
        outputs.append(args.out_loads)
    report = None
    if args.mode is Mode.HIGH:
        report = packet_delay_inspector(placement, spec)
        if args.out_routers:
            with open(args.out_routers, "w", newline="") as fh:
                report.write_router_csv(fh)
            outputs.append(args.out_routers)
        if args.out_flows:
            with open(args.out_flows, "w", newline="") as fh:
                report.write_flow_csv(fh)
            outputs.append(args.out_flows)
    elif args.out_routers or args.out_flows:
        print("note: --out-routers/--out-flows apply to --mode high only",
              file=sys.stderr)
    lat = objective(placement, spec, args.mode)
    summary = {"objective": lat.objective_value, "mode": args.mode.value}
    if report is not None:
        router, port = report.peak_channel
        summary.update(peak_rho_e=report.peak_rho_e,
                       peak_channel=[router.x, router.y, port.value])
    if args.format == "json":
        print(json.dumps(summary))
    elif args.format == "csv":
        print("objective,mode")
        print(f"{lat.objective_value!r},{args.mode.value}")
    else:
        print(f"objective {lat.objective_value:.6g} ({args.mode.value} traffic)")
    if args.out_report:
        with open(args.out_report, "w") as fh:
            lat.write_json(fh)
        outputs.append(args.out_report)
    _write_manifest(args, [], outputs)
    return 0


def cmd_optimize(args) -> int:
    space = SearchSpace(
        grid=args.grid,
        n_cores=args.cores,
        n_caches=args.caches,
        n_mcs=args.mcs,
        mode=args.mode,
    )
    spec = _traffic_from_args(args)
    seeds: list[int] = []
    if args.method == "exhaustive":
        result = exhaustive_search(space, spec, budget=args.budget, jobs=args.jobs)
    elif args.method == "two-phase":
        result = two_phase_optimize(space, spec, budget=args.budget, jobs=args.jobs)
    else:
        seed = _require_seed(args)
        seeds.append(seed)
        result = local_search(space, spec, seed=seed, budget=args.budget)
    print(f"objective {result.objective_value:.6g} "
          f"({len(result.best)} optimal placement(s), {result.evaluated} evaluated)")
    show = result.best if args.all_ties else result.best[:1]
    for p in show:
        print(p.to_text())
    outputs = []
    if args.out:
        Path(args.out).write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")
        outputs.append(args.out)
    _write_manifest(args, seeds, outputs)
    return 0


def cmd_simulate(args) -> int:
    placement = _load_placement(args.placement)
    seed = _require_seed(args)
    cfg = SimConfig(
        placement=placement,
        traffic=_traffic_from_args(args),
        mean_message_size=args.mean_message_size,
        mu=args.mu,
        messages=args.messages,
        warmup_frac=args.warmup,
        seed=seed,
    )
    stats = run_sim(cfg)
    print(f"mean latency {stats.mean_latency:.6g} +- {stats.ci95:.3g} "
          f"({stats.latency_samples} samples{', saturated' if stats.saturated else ''})")
    outputs = []
    if args.out:
        Path(args.out).write_text(json.dumps(stats.to_json_dict(), indent=2) + "\n")
        outputs.append(args.out)
    _write_manifest(args, [seed], outputs)
    return 0


_FAMILY_OF_NAME = {f.value: f for f in CanonicalFamily}


def cmd_sweep(args) -> int:
    families = [name.strip() for name in args.families.split(",") if name.strip()]
    unknown = [f for f in families if f not in _FAMILY_OF_NAME]
    if unknown:
        raise NocError(f"unknown families: {', '.join(unknown)}")
    rates = [float(v) for v in args.rates.split(",") if v.strip()]
    params = FamilyParams(rings=args.rings, stripe_width=args.stripe_width,
                          cluster=args.cluster)
    placements = [
        (name, canonical_placement(_FAMILY_OF_NAME[name], args.grid,
                                   args.cores, args.caches, args.mcs, params))
        for name in families
    ]
    seed0 = _require_seed(args)
    seeds = [seed0 + i for i in range(args.seeds)]
    base = SimConfig(
        placement=placements[0][1],
        traffic=_traffic_from_args(args),
        mean_message_size=args.mean_message_size,
        mu=args.mu,
        messages=args.messages,
        warmup_frac=args.warmup,
        seed=seed0,
    )
    rows = sweep_latency(placements, rates, base, seeds, jobs=args.jobs)
    with open(args.out, "w", newline="") as fh:
        write_sweep_csv(rows, fh)
    best = min(rows, key=lambda r: r.mean_latency)
    print(f"wrote {args.out}: best cell {best.family} at rate {best.lambda_g} "
          f"(mean inter-arrival {1.0 / best.lambda_g:.4g}), latency {best.mean_latency:.6g}")
    _write_manifest(args, seeds, [args.out])
    return 0


def cmd_compare(args) -> int:
    placement = _load_placement(args.placement)
    seed = _require_seed(args)
    cfg = SimConfig(
        placement=placement,
        traffic=_traffic_from_args(args),
        mean_message_size=args.mean_message_size,
        mu=args.mu,
        messages=args.messages,
        warmup_frac=args.warmup,
        seed=seed,
    )
    report = compare_to_analytical(cfg)
    outputs = []
    if args.out:
        with open(args.out, "w", newline="") as fh:
            report.write_csv(fh)
        outputs.append(args.out)
    if report.analytical_available:
        print(f"max rel err {report.max_rel_err:.4g}, mean rel err {report.mean_rel_err:.4g} "
              f"over {len(report.rows)} channels")
    else:
        print(report.detail)
    _write_manifest(args, [seed], outputs)
    return 0


def _add_traffic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-g", type=float, default=0.1, dest="lambda_g",
                   help="per-core packet generation rate")
    p.add_argument("--miss-l1", type=float, default=1.0, dest="miss_l1",
                   help="fraction of requests entering the network (default 1.0)")
    p.add_argument("--miss-l2", type=float, default=0.1, dest="miss_l2",
                   help="fraction of cache traffic forwarded to memory controllers")
    p.add_argument("--mean-service", type=float, default=1.0,
                   help="mean per-hop service time for the analytical models")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=10.0, help="router service rate, packets/time")
    p.add_argument("--mean-message-size", type=float, default=10.0,
                   help="mean message length in packets")
    p.add_argument("--messages", type=int, default=100_000)
    p.add_argument("--warmup", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nocplace",
        description="Mesh NoC placement analysis, optimization and simulation.",
    )
    parser.add_argument("--version", action="version", version=f"nocplace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count placements for given node counts")
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--caches", type=int, required=True)
    p.add_argument("--mcs", type=int, default=0)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("analyze", help="channel loads and latency model for a placement file")
    p.add_argument("--placement", required=True)
    p.add_argument("--mode", type=Mode, choices=list(Mode), default=Mode.LOW)
    _add_traffic_args(p)
    p.add_argument("--mem-fixed-latency", type=float, default=0.0)
    p.add_argument("--out-loads", help="write channel load CSV here")
    p.add_argument("--out-routers", help="write per-router queue CSV here (high mode)")
    p.add_argument("--out-flows", help="write per-flow delay CSV here (high mode)")
    p.add_argument("--out-report", help="write the latency report JSON here")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="search placements for the minimum objective")
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--caches", type=int, required=True)
    p.add_argument("--mcs", type=int, default=0)
    p.add_argument("--mode", type=Mode, choices=list(Mode), default=Mode.LOW)
    p.add_argument("--method", choices=["exhaustive", "two-phase", "local"],
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--all-ties", action="store_true",
                   help="print every tied optimum, not just the first")
    _add_traffic_args(p)
    p.add_argument("--out", help="write the SearchResult JSON here")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="discrete-event simulation of one placement")
    p.add_argument("--placement", required=True)
    _add_traffic_args(p)
    _add_sim_args(p)
    p.add_argument("--out", help="write SimStats JSON here")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="latency sweep over canonical families and rates")
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--caches", type=int, required=True)
    p.add_argument("--mcs", type=int, default=0)
    p.add_argument("--families", default="central,concentric,striped,checkerboard,distributed")
    p.add_argument("--rates", required=True, help="comma-separated lambda_g values")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds per cell")
    p.add_argument("--rings", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--stripe-width", type=int, default=1)
    p.add_argument("--cluster", type=int, default=2)
    _add_traffic_args(p)
    _add_sim_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="simulated vs analytical per-router response times")
    p.add_argument("--placement", required=True)
    _add_traffic_args(p)
    _add_sim_args(p)
    p.add_argument("--out", help="write the delta CSV here")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
