"""Case-identifier assignment for job events.

Two strategies: explicit (weakly-connected components of the declared
dependency graph; every chain of connected jobs becomes one case) and
implicit (one case per ACCOUNT-GROUP combination, for jobs whose logical
dependencies only the submitting user knows about).

Explicit components come from one union-find over every declared edge;
cycles are found by Kahn's algorithm (``cyclic_jobs``), run once more on the
reversed edges only when there is a cycle.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

# extract_first_dependencies is re-exported: perfbench/traced.py reads it here.
from .eventlog import CaseLog, extract_first_dependencies

DEFAULT_GROUP = "default"

MAX_CASE_ID_LENGTH = 64  # a longer explicit case id takes the hashed form


class CorrelationError(Exception):
    pass


class UnassignedJob(CorrelationError):
    def __init__(self, job_id: str) -> None:
        super().__init__(f"no case assigned for job {job_id}")
        self.job_id = job_id


def find_root(parent: dict[str, str], item: str) -> str:
    """Root of ``item``'s set in the union-find ``parent``, halving the path.

    An item that was never joined is its own root. Join two sets with
    ``parent[find_root(parent, a)] = find_root(parent, b)``.
    """
    up = parent.get(item, item)
    while up != item:
        grandparent = parent.get(up, up)
        parent[item] = grandparent
        item, up = grandparent, parent.get(grandparent, grandparent)
    return item


def cyclic_jobs(edges: Iterable[tuple[str, str]]) -> set[str]:
    """Jobs on or behind a cycle of ``edges`` ((a, b): b depends on a), by Kahn's algorithm."""
    unmet: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    for source, target in edges:
        unmet.setdefault(source, 0)
        unmet[target] = unmet.get(target, 0) + 1
        dependents.setdefault(source, []).append(target)
    ready = [job for job, count in unmet.items() if count == 0]
    while ready:
        job = ready.pop()
        del unmet[job]
        for dependent in dependents.get(job, ()):
            unmet[dependent] -= 1
            if unmet[dependent] == 0:
                ready.append(dependent)
    return set(unmet)


class DependencyGraph:
    """Directed graph over job ids; edge (a, b) means b depends on a.

    ``add_edge`` keeps ``parent`` in step with ``edges``. Edges between jobs
    on or between cycles end in ``dropped_edges``; they never change a component.
    """

    __slots__ = ("vertices", "edges", "external", "dropped_edges", "parent")

    def __init__(self) -> None:
        self.vertices: set[str] = set()
        self.edges: set[tuple[str, str]] = set()
        self.external: set[str] = set()
        self.dropped_edges: list[tuple[str, str]] = []
        # Union-find over the weak components of every added edge (see ``find_root``).
        self.parent: dict[str, str] = {}

    def add_edge(self, source: str, target: str) -> None:
        """Record the edge and join its ends' components."""
        self.vertices.add(source)
        self.vertices.add(target)
        self.edges.add((source, target))
        self.parent[find_root(self.parent, source)] = find_root(self.parent, target)


class CaseAssignment(NamedTuple):
    cases: Mapping[str, str]


def build_dependency_graph(
    log: CaseLog, first_deps: Mapping[str, tuple[str, ...]]
) -> DependencyGraph:
    """Build the declared-dependency DAG over the observed jobs.

    Dependency targets never observed in the window become isolated
    placeholder vertices flagged external; no edges are drawn to them. Edges
    between two jobs that are each on a cycle or between two cycles move,
    sorted, to ``dropped_edges``.
    """
    graph = DependencyGraph()
    observed = log.job_ids()
    graph.vertices |= observed
    for job_id, targets in first_deps.items():
        if job_id not in graph.vertices:
            continue
        for target in targets:
            if target in observed:
                graph.add_edge(target, job_id)
            else:
                graph.vertices.add(target)
                graph.external.add(target)
    cyclic = cyclic_jobs(graph.edges)
    if cyclic:
        # Reversed, Kahn's pass also peels the jobs only downstream of a cycle.
        cyclic = cyclic_jobs((b, a) for a, b in graph.edges if a in cyclic and b in cyclic)
        graph.dropped_edges = sorted(
            edge for edge in graph.edges if edge[0] in cyclic and edge[1] in cyclic
        )
        graph.edges.difference_update(graph.dropped_edges)
        import logging  # loaded only when there is something to report

        logging.getLogger(__name__).warning(
            "dependency cycle among %s; edges between them dropped", sorted(cyclic)
        )
    return graph


def _component_case_id(component: Iterable[str], hash_ids: bool) -> str:
    def sort_key(job_id: str):
        # Only plain ASCII digits count as numeric: int() would also read
        # "100_1", "+7", " 7" and non-ASCII digits as numbers.
        if job_id.isascii() and job_id.isdigit():
            return (0, -int(job_id), "")
        return (1, 0, job_id)

    ordered = sorted(component, key=sort_key)
    case_id = "JID" + "".join(ordered)
    if hash_ids or len(case_id) > MAX_CASE_ID_LENGTH:
        import hashlib  # loads OpenSSL: paid only by a run that hashes an id

        digest = hashlib.sha256(",".join(ordered).encode()).hexdigest()[:16]
        return f"JID{digest}"
    return case_id


def _numbered(names: Iterable[str]) -> list[str]:
    """Each name in turn, or, if an earlier one took it, itself with the least
    suffix ``-2``, ``-3``, ... that none took, so no two are the same."""
    taken: set[str] = set()
    out = []
    for name in names:
        unique, n = name, 1
        while unique in taken:
            n += 1
            unique = f"{name}-{n}"
        taken.add(unique)
        out.append(unique)
    return out


def assign_cases_explicit(graph: DependencyGraph, hash_ids: bool = False) -> CaseAssignment:
    """One case per weakly-connected component of the dependency graph.

    The case id concatenates the component's job ids in descending numeric
    order (a 4-job chain with ids 1-4 yields "JID4321"). Only all-ASCII-digit
    ids are numeric; the others sort lexicographically after them. An id
    longer than ``MAX_CASE_ID_LENGTH``, or any id when ``hash_ids`` is set,
    is ``JID`` and 16 hex digits of the SHA-256 of the ordered ids.
    Concatenations can collide ({1, 4} and {41} both read "JID41"): taking
    components in the string order of their least member, one whose id an
    earlier one took gets the least free suffix ("JID41-2").
    """
    components: dict[str, list[str]] = {}
    for vertex in sorted(graph.vertices):
        components.setdefault(find_root(graph.parent, vertex), []).append(vertex)
    names = _numbered(_component_case_id(c, hash_ids) for c in components.values())
    return CaseAssignment(
        {member: name for c, name in zip(components.values(), names) for member in c}
    )


def assign_cases_implicit(log: CaseLog) -> CaseAssignment:
    """One case per ACCOUNT-GROUP combination of each job's last event; an empty
    group reads "default". Combinations whose ``account-group`` texts collide
    (``p``, ``a-b`` and ``p-a``, ``b``) are told apart as explicit ids are,
    taken in sorted order."""
    jobs = log.field("job_id")[0]
    accounts, codes = log.field("account")
    groups = log.field("group")[0]
    last = log.by_job(codes)  # -1 for a job with no event here
    pair_of = {code: (accounts[code], groups[code] or DEFAULT_GROUP) for code in set(last) - {-1}}
    distinct = sorted(set(pair_of.values()))
    name_of = dict(zip(distinct, _numbered(f"{a}-{g}" for a, g in distinct)))
    case_of = {code: name_of[pair] for code, pair in pair_of.items()}
    return CaseAssignment({jobs[job]: case_of[code] for job, code in enumerate(last) if code >= 0})


def apply_cases(log: CaseLog, assignment: CaseAssignment) -> CaseLog:
    """Stamp the events of ``log`` with their jobs' case ids and sort them,
    in place, by case, time and job id; events equal on all three keep their
    order. Returns ``log``.

    ``UnassignedJob`` names the job of the first event, in log order, whose
    job has no case, and leaves ``log`` as it was.
    """
    jobs, job_codes = log.field("job_id")
    case_ids = list(map(assignment.cases.get, jobs))
    if None in case_ids:
        missing = {code for code, case_id in enumerate(case_ids) if case_id is None}
        first = next(filter(missing.__contains__, job_codes), None)
        if first is not None:
            raise UnassignedJob(jobs[first])
        case_ids = ["" if case_id is None else case_id for case_id in case_ids]  # no event here
    log.stamp(case_ids)
    return log
