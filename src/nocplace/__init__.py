"""nocplace: mesh NoC core/cache/memory-controller placement toolkit.

Evaluate placements with analytical latency models (low-traffic Manhattan
objective, high-traffic queueing model), search for optimal placements, and
validate predictions with a discrete-event simulator.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InfeasibleError,
    InvalidConfigError,
    InvalidTrafficError,
    NoCachesError,
    NocError,
    NonConvergentError,
    OutOfBoundsError,
    UnstableError,
)
from .latency import LatencyReport, Mode, objective
from .mesh import (
    CanonicalFamily,
    Coord,
    FamilyParams,
    MeshGrid,
    NodeKind,
    Placement,
    build_placement,
    canonical_placement,
    manhattan,
    placement_count,
)
from .optimizer import SearchResult, SearchSpace, exhaustive_search, local_search, two_phase_optimize
from .queueing import (
    PAPER,
    STANDARD,
    DelayReport,
    RouterQueueModel,
    effective_utilization,
    kingman_wait,
    mm1_response,
    packet_delay_inspector,
)
from .routing import ChannelLoadMap, Flow, FlowKind, Port
from .simulator import (
    CompareReport,
    SimConfig,
    SimStats,
    SweepRow,
    aggregate_sweep,
    compare_to_analytical,
    run_sim,
    sweep_latency,
)
from .traffic import ServiceSpec, TrafficSpec

__version__ = "0.1.0"

# The submodules bound by the imports above are not part of ``import *``.
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
