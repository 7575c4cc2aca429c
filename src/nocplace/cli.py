"""Command-line interface: counting, analysis, optimization, simulation,
sweeps and model-vs-simulation comparison.

Exit codes: 0 success, 1 model errors (instability, infeasibility, ...),
2 usage errors (a malformed option, an unreadable file). Either failure
prints one line on stderr. Stochastic commands echo the seed they ran with;
omitted seeds are generated and printed, never silent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
import time
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

from . import __version__
from .errors import NocError, OutOfBoundsError
from .latency import Mode, objective
from .mesh import (
    CanonicalFamily,
    FamilyParams,
    MeshGrid,
    Placement,
    canonical_placement,
    placement_count,
)
from .queueing import packet_delay_inspector
from .routing import channel_loads, flow_set
from .traffic import ServiceSpec, TrafficSpec

# The search and the simulator are imported by the commands that run them, so
# ``count`` and ``analyze`` compile neither.
if TYPE_CHECKING:
    from .simulator import SimConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # One line, without the usage text.
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> MeshGrid:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 8x8, got {text!r}") from exc
    try:
        return MeshGrid(w, h)
    except NocError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_list(text: str) -> list[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return items


def _parse_rates(text: str) -> list[float]:
    try:
        return [float(v) for v in _parse_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"rates must be numbers, got {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _load_placement(path: str) -> Placement:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise OutOfBoundsError(f"placement file {path!r} is not text: {exc.reason}") from exc
    if path.endswith(".json"):
        return Placement.from_json(text)
    return Placement.from_text(text)


def _traffic_from_args(args) -> TrafficSpec:
    # Only the analytical commands take --mean-service: the simulator's E{S}
    # is --mean-message-size / --mu.
    svc = ServiceSpec(args.mean_service) if "mean_service" in args else ServiceSpec()
    return TrafficSpec(
        lambda_g=args.lambda_g,
        hit_l1=1.0 - args.miss_l1,
        miss_l2=args.miss_l2,
        svc=svc,
        mem_fixed_latency=getattr(args, "mem_fixed_latency", 0.0),
    )


def _sim_config(args, placement: Placement, seed: int) -> SimConfig:
    from .simulator import SimConfig

    return SimConfig(
        placement=placement,
        traffic=_traffic_from_args(args),
        mean_message_size=args.mean_message_size,
        mu=args.mu,
        messages=args.messages,
        warmup_frac=args.warmup,
        seed=seed,
    )


def _write(outputs: list[str], path: str | None, write: Callable[[IO[str]], object]) -> None:
    """Write an ``--out*`` file, when one is named, through ``write(fh)``, and
    record its path for the manifest."""
    if path:
        with open(path, "w", newline="") as fh:
            write(fh)
        outputs.append(path)


def _spelling(value):
    """A parsed option value as its option spells it: ``3x3``, ``high``, a
    comma-joined list."""
    if isinstance(value, MeshGrid):
        return f"{value.width}x{value.height}"
    if isinstance(value, Mode):
        return value.value
    if isinstance(value, list):
        return ",".join(map(str, value))
    return value


def _write_manifest(args, argv: list[str], seeds: list[int], outputs: list[str]) -> None:
    """The run manifest: ``argv`` as given, which reruns the command (with
    ``--seed`` from ``seeds`` when the seed was generated), and each
    parameter in the spelling its option parses."""
    if not args.manifest:
        return
    hashes = {}
    placement = getattr(args, "placement", None)
    if placement and Path(placement).exists():
        hashes[placement] = hashlib.sha256(Path(placement).read_bytes()).hexdigest()
    manifest = {
        "command": args.command,
        "argv": argv,
        "version": __version__,
        "parameters": {k: _spelling(v) for k, v in vars(args).items()
                       if k not in ("command", "manifest") and not callable(v)},
        "seeds": seeds,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "input_hashes": hashes,
        "outputs": outputs,
    }
    Path(args.manifest).write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _require_seed(args) -> int:
    if args.seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed: {seed}")
        return seed
    return args.seed


def cmd_count(args) -> tuple[list[int], list[str]]:
    count = placement_count(args.grid.n_tiles, args.cores, args.caches, args.mcs)
    print(count)
    group = len(args.grid.symmetry_permutations())
    print(f"symmetry-reduced estimate: >= {-(-count // group)}")
    return [], []


def cmd_analyze(args) -> tuple[list[int], list[str]]:
    placement = _load_placement(args.placement)
    spec = _traffic_from_args(args)
    outputs: list[str] = []
    _write(outputs, args.out_loads,
           lambda fh: channel_loads(flow_set(placement, spec), placement.grid).write_csv(fh))
    report = None
    if args.mode is Mode.HIGH:
        report = packet_delay_inspector(placement, spec)
        _write(outputs, args.out_routers, report.write_router_csv)
        _write(outputs, args.out_flows, report.write_flow_csv)
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
    _write(outputs, args.out_report, lat.write_json)
    return [], outputs


def cmd_optimize(args) -> tuple[list[int], list[str]]:
    from .optimizer import SearchSpace, exhaustive_search, local_search, two_phase_optimize

    space = SearchSpace(
        grid=args.grid,
        n_cores=args.cores,
        n_caches=args.caches,
        n_mcs=args.mcs,
        mode=args.mode,
    )
    spec = _traffic_from_args(args)
    seeds: list[int] = []
    # Unset, each method keeps its own default budget.
    budget = {} if args.budget is None else {"budget": args.budget}
    if args.method == "exhaustive":
        result = exhaustive_search(space, spec, jobs=args.jobs, **budget)
    elif args.method == "two-phase":
        result = two_phase_optimize(space, spec, jobs=args.jobs, **budget)
    else:
        seed = _require_seed(args)
        seeds.append(seed)
        result = local_search(space, spec, seed=seed, **budget)
    print(f"objective {result.objective_value:.6g} "
          f"({len(result.best)} optimal placement(s), {result.evaluated} evaluated)")
    show = result.best if args.all_ties else result.best[:1]
    for p in show:
        print(p.to_text())
    outputs: list[str] = []
    _write(outputs, args.out,
           lambda fh: print(json.dumps(result.to_json_dict(), indent=2), file=fh))
    return seeds, outputs


def cmd_simulate(args) -> tuple[list[int], list[str]]:
    from .simulator import run_sim

    placement = _load_placement(args.placement)
    seed = _require_seed(args)
    stats = run_sim(_sim_config(args, placement, seed))
    print(f"mean latency {stats.mean_latency:.6g} +- {stats.ci95:.3g} "
          f"({stats.latency_samples} samples{', saturated' if stats.saturated else ''})")
    outputs: list[str] = []
    _write(outputs, args.out,
           lambda fh: print(json.dumps(stats.to_json_dict(), indent=2), file=fh))
    return [seed], outputs


_FAMILY_OF_NAME = {f.value: f for f in CanonicalFamily}


def cmd_sweep(args) -> tuple[list[int], list[str]]:
    from .simulator import sweep_latency, write_sweep_csv

    families, rates = args.families, args.rates
    unknown = [f for f in families if f not in _FAMILY_OF_NAME]
    if unknown:
        raise NocError(f"unknown families: {', '.join(unknown)}")
    params = FamilyParams(rings=args.rings, stripe_width=args.stripe_width,
                          cluster=args.cluster)
    placements = [
        (name, canonical_placement(_FAMILY_OF_NAME[name], args.grid,
                                   args.cores, args.caches, args.mcs, params))
        for name in families
    ]
    seed0 = _require_seed(args)
    seeds = [seed0 + i for i in range(args.seeds)]
    base = _sim_config(args, placements[0][1], seed0)
    rows = sweep_latency(placements, rates, base, seeds, jobs=args.jobs)
    outputs: list[str] = []
    _write(outputs, args.out, lambda fh: write_sweep_csv(rows, fh))
    best = min(rows, key=lambda r: r.mean_latency)
    print(f"wrote {args.out}: best cell {best.family} at rate {best.lambda_g} "
          f"(mean inter-arrival {1.0 / best.lambda_g:.4g}), latency {best.mean_latency:.6g}")
    return seeds, outputs


def cmd_compare(args) -> tuple[list[int], list[str]]:
    from .simulator import compare_to_analytical

    placement = _load_placement(args.placement)
    seed = _require_seed(args)
    report = compare_to_analytical(_sim_config(args, placement, seed))
    outputs: list[str] = []
    _write(outputs, args.out, report.write_csv)
    if report.analytical_available:
        print(f"max rel err {report.max_rel_err:.4g}, mean rel err {report.mean_rel_err:.4g} "
              f"over {len(report.rows)} channels")
    else:
        print(report.detail)
    return [seed], outputs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nocplace",
        description="Mesh NoC placement analysis, optimization and simulation.",
    )
    parser.add_argument("--version", action="version", version=f"nocplace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups, each declared once and shared by the commands that take it.
    counts = _Parser(add_help=False)
    counts.add_argument("--grid", type=_parse_grid, required=True)
    counts.add_argument("--cores", type=int, required=True)
    counts.add_argument("--caches", type=int, required=True)
    counts.add_argument("--mcs", type=int, default=0)
    placement = _Parser(add_help=False)
    placement.add_argument("--placement", required=True)
    model = _Parser(add_help=False)
    model.add_argument("--mode", type=Mode, choices=list(Mode), default=Mode.LOW)
    model.add_argument("--mean-service", type=float, default=1.0,
                       help="mean per-hop service time for the analytical models")
    traffic = _Parser(add_help=False)
    traffic.add_argument("--lambda-g", type=float, default=0.1, dest="lambda_g",
                         help="per-core packet generation rate")
    traffic.add_argument("--miss-l1", type=float, default=1.0, dest="miss_l1",
                         help="fraction of requests entering the network (default 1.0)")
    traffic.add_argument("--miss-l2", type=float, default=0.1, dest="miss_l2",
                         help="fraction of cache traffic forwarded to memory controllers")
    sim = _Parser(add_help=False)
    sim.add_argument("--mu", type=float, default=10.0, help="router service rate, packets/time")
    sim.add_argument("--mean-message-size", type=float, default=10.0,
                     help="mean message length in packets")
    sim.add_argument("--messages", type=int, default=100_000)
    sim.add_argument("--warmup", type=float, default=0.1)
    sim.add_argument("--seed", type=int, default=None)

    def command(name, func, help, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=groups)
        p.add_argument("--manifest", help="write a JSON run manifest here")
        p.set_defaults(func=func)
        return p

    command("count", cmd_count, "count placements for given node counts", counts)

    p = command("analyze", cmd_analyze, "channel loads and latency model for a placement file",
                placement, model, traffic)
    p.add_argument("--mem-fixed-latency", type=float, default=0.0)
    p.add_argument("--out-loads", help="write channel load CSV here")
    p.add_argument("--out-routers", help="write per-router queue CSV here (high mode)")
    p.add_argument("--out-flows", help="write per-flow delay CSV here (high mode)")
    p.add_argument("--out-report", help="write the latency report JSON here")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = command("optimize", cmd_optimize, "search placements for the minimum objective",
                counts, model, traffic)
    p.add_argument("--method", choices=["exhaustive", "two-phase", "local"],
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=None,
                   help="most candidates to score (default: the method's own, "
                        "10,000,000 for exhaustive and two-phase, 10,000 for local)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--all-ties", action="store_true",
                   help="print every tied optimum, not just the first")
    p.add_argument("--out", help="write the SearchResult JSON here")

    p = command("simulate", cmd_simulate, "discrete-event simulation of one placement",
                placement, traffic, sim)
    p.add_argument("--out", help="write SimStats JSON here")

    p = command("sweep", cmd_sweep, "latency sweep over canonical families and rates",
                counts, traffic, sim)
    p.add_argument("--families", type=_parse_list,
                   default="central,concentric,striped,checkerboard,distributed")
    p.add_argument("--rates", type=_parse_rates, required=True,
                   help="comma-separated lambda_g values")
    p.add_argument("--seeds", type=_positive_int, default=3, help="number of seeds per cell")
    p.add_argument("--rings", type=int, default=1)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--stripe-width", type=int, default=1)
    p.add_argument("--cluster", type=int, default=2)
    p.add_argument("--out", required=True)

    p = command("compare", cmd_compare, "simulated vs analytical per-router response times",
                placement, traffic, sim)
    p.add_argument("--out", help="write the delta CSV here")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The manifest is written only after the command succeeds.
        _write_manifest(args, argv, *args.func(args))
    except NocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file named on the command line
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
