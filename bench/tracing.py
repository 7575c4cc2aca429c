"""Per-layer tracing from the benchmark's side of the API.

The tracer replaces the public functions of each ``nocplace`` layer module
with timing wrappers, at every module attribute that is bound to the
function (``nocplace.optimizer.objective`` is where the search looks
``objective`` up, ``nocplace.objective`` is where the benchmark does). A
function that a later version removes is skipped, so its counters read zero.

Spans nest through a stack: a span's self time is its duration minus the
durations of the spans it caused. Spans are aggregated in memory per
benchmark case, never stored one by one, because the exhaustive search
alone makes several hundred thousand of them per pass.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, attribute); "Class.method" names a method.
SPANS = (
    ("mesh.tiles_of", "nocplace.mesh", "Placement.tiles_of"),
    ("mesh.placement_from_string", "nocplace.mesh", "placement_from_string"),
    ("traffic.resolve", "nocplace.traffic", "resolve"),
    ("routing.build_flows", "nocplace.routing", "build_flows"),
    ("routing.derive_channel_rates", "nocplace.routing", "derive_channel_rates"),
    ("queueing.packet_delay_inspector", "nocplace.queueing", "packet_delay_inspector"),
    ("queueing.solve_router", "nocplace.queueing", "solve_router"),
    ("latency.objective", "nocplace.latency", "objective"),
    ("optimizer.exhaustive_search", "nocplace.optimizer", "exhaustive_search"),
    ("optimizer.two_phase_optimize", "nocplace.optimizer", "two_phase_optimize"),
    ("optimizer.local_search", "nocplace.optimizer", "local_search"),
    ("simulator.run_sim", "nocplace.simulator", "run_sim"),
    ("simulator.compare_to_analytical", "nocplace.simulator", "compare_to_analytical"),
)

# Counted, not timed: one call per channel per fixed-point iteration.
KINGMAN = ("nocplace.queueing", "kingman_wait")


def _nocplace_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "nocplace" or name.startswith("nocplace.")]


class Patches:
    """Replaces a function at every place nocplace binds it; undoes it all."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make) -> bool:
        """Bind ``make(original)`` wherever ``module.attr`` is bound. Returns
        False, changing nothing, when the function does not exist."""
        owner = sys.modules.get(module)
        *cls_path, name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if not callable(original):
            return False
        if cls_path:
            sites = [(owner, name)]
        else:
            sites = [(m, a) for m in _nocplace_modules()
                     for a, v in list(vars(m).items()) if v is original]
        replacement = make(original)
        for obj, a in sites:
            self._undo.append((obj, a, getattr(obj, a)))
            setattr(obj, a, replacement)
        return True

    def restore(self) -> None:
        while self._undo:
            obj, a, old = self._undo.pop()
            setattr(obj, a, old)


def _flow_hops(flows) -> int:
    # Channels a flow set occupies: manhattan + 1 per nonzero flow.
    return sum(abs(f.src.x - f.dst.x) + abs(f.src.y - f.dst.y) + 1
               for f in flows if f.rate != 0.0)


def _count_flows(b, args, kwargs, result) -> None:
    b["routing.flows"] += len(result)


def _count_hops(b, args, kwargs, result) -> None:
    b["routing.channel_hops"] += _flow_hops(args[0] if args else kwargs["flows"])


def _count_channels(b, args, kwargs, result) -> None:
    # Counted for raising calls too: their kingman_wait calls are counted.
    b["queueing.channels"] += len((args[0] if args else kwargs["rl"]).ports)


# Work counts read at a span's boundary from its arguments and result.
_HOOKS = {
    "routing.build_flows": _count_flows,
    "routing.derive_channel_rates": _count_hops,
    "queueing.solve_router": _count_channels,
}


class Tracer:
    """Span and counter aggregation, bucketed by the current benchmark case."""

    def __init__(self, unstable_error: type):
        self.unstable_error = unstable_error
        self.buckets: dict[str, defaultdict] = {}
        self.bucket: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._patches = Patches()
        self.spans_found: list[str] = []

    def use_bucket(self, key: str) -> None:
        self.bucket = self.buckets.setdefault(key, defaultdict(float))

    def install(self) -> None:
        """Wrap every traced function; ``spans_found`` names those that exist."""
        self.spans_found = [name for name, module, attr in SPANS
                            if self._patches.replace(module, attr,
                                                     functools.partial(self._span, name))]
        self._patches.replace(*KINGMAN, self._counter)

    def uninstall(self) -> None:
        self._patches.restore()

    def _counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.bucket["queueing.kingman_wait.calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, fn):
        hook = _HOOKS.get(name)
        counts_unstable = name == "latency.objective"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except self.unstable_error:
                if counts_unstable and parent is not None and parent[0].startswith("optimizer."):
                    self.bucket["optimizer.unstable"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                b = self.bucket
                b[name + ".calls"] += 1
                b[name + ".total_s"] += dt
                b[name + ".self_s"] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                else:
                    b["covered_s"] += dt
                if hook is not None:
                    try:
                        hook(b, args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        pass  # the function's interface changed: count nothing
        return span
