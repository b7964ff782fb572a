"""Process-mining toolkit for SLURM-style scheduler queues.

Observes a queue through periodic snapshots, extracts a job event log by
diffing, assigns case identifiers via explicit dependency chains or
account-group keys, and discovers frequency/performance-annotated
directly-follows models.

The simulator is not imported here: its names come from ``hpcmine.simulator``.
"""

from .snapshots import (
    DependencyClause,
    DependencySpec,
    JobRow,
    normalize_command,
    parse_dependency_spec,
    parse_snapshot,
)
from .eventlog import (
    CaseLog,
    EventKind,
    JobEvent,
    LogStats,
    compute_stats,
    read_csv,
    render_stats,
    write_csv,
)
from .observer import (
    ObserverState,
    ReplayDirectorySource,
    diff_snapshot,
    finalize_vanished,
    run_observation,
)
from .correlation import (
    CaseAssignment,
    DependencyGraph,
    apply_cases,
    assign_cases_explicit,
    assign_cases_implicit,
    build_dependency_graph,
)
from .discovery import (
    Dfg,
    DurationMode,
    detect_parallel,
    discover_dfg,
    export_dot,
    project_case_traces,
)

__version__ = "0.1.0"
