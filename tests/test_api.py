"""The package's public names: what ``from nocplace import *`` binds."""

from types import ModuleType

import nocplace
from test_source_size import loaded_after

PUBLIC = [
    "BudgetExceededError", "CanonicalFamily", "ChannelLoadMap", "CompareReport", "Coord",
    "DelayReport", "DimensionMismatchError", "FamilyParams", "Flow", "FlowKind",
    "InfeasibleError", "InvalidConfigError", "InvalidTrafficError", "LatencyReport",
    "MeshGrid", "Mode", "NoCachesError", "NocError", "NodeKind", "NonConvergentError",
    "OutOfBoundsError", "PAPER", "Placement", "Port", "RouterQueueModel", "STANDARD",
    "SearchResult", "SearchSpace", "ServiceSpec", "SimConfig", "SimStats", "SweepRow",
    "TrafficSpec", "UnstableError", "aggregate_sweep", "build_placement",
    "canonical_placement", "compare_to_analytical", "effective_utilization",
    "exhaustive_search", "kingman_wait", "local_search", "manhattan", "mm1_response",
    "objective", "packet_delay_inspector", "placement_count", "run_sim", "sweep_latency",
    "two_phase_optimize",
]


def test_public_names_are_pinned():
    # An API change shows here as a diff line.
    assert sorted(nocplace.__all__) == PUBLIC


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from nocplace import *", namespace)
    assert not [n for n, v in namespace.items() if isinstance(v, ModuleType)]


def test_public_names_are_listed_before_any_is_touched():
    # In a fresh interpreter: ``dir`` lists every public name before any home
    # module is loaded, and reading one binds nothing in the package, so a
    # patch of the home module shows through the package.
    loaded_after("import nocplace\n"
                 "assert set(nocplace.__all__) <= set(dir(nocplace))\n"
                 "nocplace.objective\n"
                 "assert not set(nocplace.__all__) & set(vars(nocplace))")
