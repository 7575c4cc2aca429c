"""nocplace: mesh NoC core/cache/memory-controller placement toolkit.

Evaluate placements with analytical latency models (low-traffic Manhattan
objective, high-traffic queueing model), search for optimal placements, and
validate predictions with a discrete-event simulator.

Public names are looked up in their home module when they are accessed, so
``import nocplace`` compiles no submodule, and a caller of the models never
compiles the search or the simulator. The package binds none of them: a name
read through the package is always its home module's current binding.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Home module of each public name.
_EXPORTS = {
    "errors": (
        "BudgetExceededError", "DimensionMismatchError", "InfeasibleError",
        "InvalidConfigError", "InvalidTrafficError", "NoCachesError", "NocError",
        "NonConvergentError", "OutOfBoundsError", "UnstableError",
    ),
    "latency": ("LatencyReport", "Mode", "objective"),
    "mesh": (
        "CanonicalFamily", "Coord", "FamilyParams", "MeshGrid", "NodeKind", "Placement",
        "build_placement", "canonical_placement", "manhattan", "placement_count",
    ),
    "optimizer": (
        "SearchResult", "SearchSpace", "exhaustive_search", "local_search",
        "two_phase_optimize",
    ),
    "queueing": (
        "PAPER", "STANDARD", "DelayReport", "RouterQueueModel", "effective_utilization",
        "kingman_wait", "mm1_response", "packet_delay_inspector",
    ),
    "routing": ("ChannelLoadMap", "Flow", "FlowKind", "Port"),
    "simulator": (
        "CompareReport", "SimConfig", "SimStats", "SweepRow", "aggregate_sweep",
        "compare_to_analytical", "run_sim", "sweep_latency",
    ),
    "traffic": ("ServiceSpec", "TrafficSpec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# ``from nocplace import *`` binds these names, never the submodules.
__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
