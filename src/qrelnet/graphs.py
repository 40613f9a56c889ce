"""Finite multigraphs with a stable edge order and their frontier connectivity.

Edge ``i`` of a graph owns bit ``i`` of every edge-state bitmask, so a state
is just an integer in ``range(2 ** num_edges)``.  The text form of a state
writes edge 0 leftmost: ``"10"`` activates edge 0 and deactivates edge 1.
Self-loops and parallel edges are allowed everywhere; a graph with no
vertices, or a single vertex, counts as connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CapacityError, QrelnetError, WidthMismatchError
from .partitions import Partition, partition_of

# numpy loads in the functions that build arrays, so the per-state compile
# of ``reliability`` (factor, and enum while its states fit one chunk) and
# of ``split-verify`` runs without it.
if TYPE_CHECKING:
    import numpy as np

# 2**24 basis states is the largest dense vector this package will touch.
MAX_EDGES = 24


@dataclass(frozen=True)
class Graph:
    """Multigraph with named vertices and an ordered edge list."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        if len(set(self.vertices)) != len(self.vertices):
            raise QrelnetError("duplicate vertex names", code="invalid_graph")
        if len(self.edges) > MAX_EDGES:
            raise CapacityError(f"graph has {len(self.edges)} edges, cap is {MAX_EDGES}")
        known = set(self.vertices)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise QrelnetError(f"edge ({a!r}, {b!r}) references an unknown vertex", code="invalid_graph")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_states(self) -> int:
        return 1 << len(self.edges)


def check_state(g: Graph, state: int) -> None:
    """Reject a bitmask that does not fit the graph's edge count."""
    if not isinstance(state, int) or isinstance(state, bool):
        raise QrelnetError("edge state must be an integer bitmask", code="invalid_state")
    if not 0 <= state < g.num_states:
        raise WidthMismatchError(f"state {state} out of range for {g.num_edges} edges")


def edge_state_from_text(text: str) -> int:
    """Parse the text form of a state; width is the string length."""
    bits = 0
    for i, c in enumerate(text):
        if c == "1":
            bits |= 1 << i
        elif c != "0":
            raise QrelnetError(f"edge state strings are over '0'/'1', got {c!r}", code="invalid_state")
    return bits


def merged_name(names) -> str:
    """Deterministic name for a merged vertex set."""
    return "+".join(sorted(names))


def delete_edge(g: Graph, e: int) -> Graph:
    """Remove edge ``e``; later edges shift down by one, vertices unchanged."""
    if not 0 <= e < g.num_edges:
        raise QrelnetError(f"edge index {e} out of range", code="invalid_edge")
    return Graph(g.vertices, g.edges[:e] + g.edges[e + 1 :])


def vertex_partition_map(g: Graph, u, gamma: Partition) -> dict[str, int]:
    """Block index of every vertex under a partition of the vertex subset ``u``.

    Vertices outside ``u`` stay in singleton blocks.  ``gamma`` must partition
    exactly the set ``u``.  Block indices run from 0 in order of first
    appearance in the graph's vertex order, which keeps quotients
    deterministic.
    """
    uset = set(u)
    if not uset <= set(g.vertices):
        raise QrelnetError("subset mentions a vertex not in the graph", code="invalid_partition")
    if gamma.ground_set() != uset:
        raise QrelnetError("partition does not cover exactly the given subset", code="invalid_partition")
    block_of = {}
    for i, block in enumerate(gamma.blocks):
        for v in block:
            block_of[v] = i
    assignment: dict[str, int] = {}
    fresh: dict[object, int] = {}
    for v in g.vertices:
        key = ("b", block_of[v]) if v in block_of else ("v", v)
        if key not in fresh:
            fresh[key] = len(fresh)
        assignment[v] = fresh[key]
    return assignment


def quotient(g: Graph, u, gamma: Partition) -> Graph:
    """Merge the vertices of each block of ``gamma``; edges keep their order.

    Edges inside a block become self-loops.  A merged vertex is named by
    joining its members with ``+``; quotient by all-singletons is the
    identity.
    """
    block = vertex_partition_map(g, u, gamma)
    members: dict[int, list[str]] = {}
    for v in g.vertices:
        members.setdefault(block[v], []).append(v)
    names = {i: merged_name(vs) for i, vs in members.items()}
    vertices = tuple(names[i] for i in range(len(names)))
    edges = tuple((names[block[a]], names[block[b]]) for a, b in g.edges)
    return Graph(vertices, edges)


def contract_edge(g: Graph, e: int) -> Graph:
    """Remove edge ``e`` and merge its endpoints by :func:`quotient` (no merge for a loop)."""
    rest = delete_edge(g, e)
    a, b = g.edges[e]
    return rest if a == b else quotient(rest, (a, b), Partition(((a, b),)))


def _frontier_schedule(g: Graph, u) -> tuple[list[str], bool, list[tuple]]:
    """The frontier of every edge of ``g``, shared by both numberings of its states.

    Returns ``(frontier, stranded, steps)``.  Edges are taken in index order,
    and the live vertices are those of ``u``, kept to the end, and those with
    an edge still to come; a vertex leaves after its last edge.
    ``frontier`` lists the live vertices before edge 0, and ``stranded``
    says that a vertex outside ``u`` has no edge, an island in every state.
    ``steps[k]`` is ``(grown, ia, ib, leaving, kept)``: the live vertices
    once edge ``k``'s endpoints have joined (the old ones first), the
    columns of its endpoints, the columns of the endpoints that leave after
    it, and the columns that stay, in order.
    """
    uset = set(u)
    if not uset <= set(g.vertices):
        raise QrelnetError("subset mentions a vertex not in the graph", code="invalid_partition")
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for k, edge in enumerate(g.edges):
        for v in edge:
            first.setdefault(v, k)
            last[v] = k
    frontier = [v for v in g.vertices if v in uset]
    stranded = any(v not in uset and v not in first for v in g.vertices)
    steps, live = [], frontier
    for k, (a, b) in enumerate(g.edges):
        grown = live + [v for v in dict.fromkeys((a, b)) if v not in uset and first[v] == k]
        ia, ib = grown.index(a), grown.index(b)
        leaving = [i for i in {ia, ib} if grown[i] not in uset and last[grown[i]] == k]
        kept = [i for i in range(len(grown)) if i not in leaving]
        steps.append((grown, ia, ib, leaving, kept))
        live = [grown[i] for i in kept]
    return frontier, stranded, steps


def _number_partitions(live: np.ndarray, num_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct partitions in the rows of ``live`` from 1, by first appearance.

    A row partitions the columns by their labels, all below ``num_labels``.
    Its canonical form names each column by the first column with its label
    (``[2, 0, 2, 1]`` becomes ``[0, 1, 0, 3]``), so column ``j`` holds at most
    ``j`` and the row reads as a mixed-radix code, digit ``j`` of radix
    ``j + 1``, ranked densely before it could pass 2**62.  Returns
    ``(ids, distinct)``: the number of each row, the canonical form of each number.
    """
    import numpy as np

    slots = np.arange(len(live))[:, None] * num_labels + live
    first = np.empty(len(live) * num_labels, dtype=live.dtype)
    for j in reversed(range(live.shape[1])):
        first[slots[:, j]] = j
    key = first[slots]
    code, bound = np.zeros(len(live), dtype=np.int64), 1
    for j in range(key.shape[1]):
        if bound * (j + 1) > 2**62:
            uniques, code = np.unique(code, return_inverse=True)
            bound = len(uniques)
        code, bound = code * (j + 1) + key[:, j], bound * (j + 1)
    # return_index sorts stably, so ``heads`` are first occurrences.
    _, heads, group = np.unique(code, return_index=True, return_inverse=True)
    number = np.argsort(np.argsort(heads)) + 1
    return number[group], key[np.sort(heads)]


def frontier_tables(g: Graph, u) -> tuple[int, list[np.ndarray], list[Partition | None]]:
    """Compile ``g`` into per-edge transition tables over frontier partitions.

    Returns ``(start, tables, finals)``.  Edges are taken in index order, and
    a search state is the partition of the live vertices (see
    :func:`_frontier_schedule`) into components, or the dead state 0 once a
    component has closed without reaching ``u``.  ``tables[k]`` has shape
    ``(2, S_k + 1)``: row 0 maps each state before edge ``k`` to its
    successor with the edge absent, row 1 with it present; the dead state
    maps to itself.  ``start`` is the state before edge 0, and ``finals[s]``
    is the component trace on ``u`` of final state ``s`` (``None`` for the
    dead state).  Edge ``k`` meets at most ``2 ** k`` search states, so
    compiling never costs more than enumerating.

    The states before an edge are one ``(S_k, width)`` matrix of component
    labels, each vertex labelled by the first frontier column in its
    component; both successors of every state are built at once, and new
    states are numbered by first appearance, state by state, edge absent
    before edge present.  :func:`frontier_lists` gives the same numbers.
    """
    import numpy as np

    frontier, stranded, steps = _frontier_schedule(g, u)
    # Row i holds the labels of state i + 1, one column per frontier vertex.
    labels = np.arange(len(frontier), dtype=np.int32).reshape(1, -1)[: 0 if stranded else 1]
    tables = []
    for grown, ia, ib, leaving, kept in steps:
        n, width = len(labels), len(frontier)
        # Row 2i is state i + 1 with the edge absent, row 2i + 1 with it present.
        both = np.empty((n, 2, len(grown)), dtype=np.int32)
        both[:, 0, :width] = labels
        both[:, 0, width:] = np.arange(width, len(grown))
        absent = both[:, 0]
        both[:, 1] = np.where(absent == absent[:, ib, None], absent[:, ia, None], absent)
        both = both.reshape(2 * n, len(grown))
        live = both[:, kept]
        alive = np.ones(2 * n, dtype=bool)
        for i in leaving:
            alive &= (live == both[:, i, None]).any(axis=1)
        ids = np.zeros(2 * n, dtype=np.int32)
        ids[alive], labels = _number_partitions(live[alive], len(grown))
        table = np.zeros((2, n + 1), dtype=np.int32)
        table[:, 1:] = ids.reshape(n, 2).T
        tables.append(table)
        frontier = [grown[i] for i in kept]
    finals = [None] + [partition_of(frontier, row) for row in labels.tolist()]
    return 0 if stranded else 1, tables, finals


def frontier_lists(g: Graph, u) -> tuple[int, list[tuple[list[int], list[int]]], list[Partition | None]]:
    """:func:`frontier_tables` compiled state by state, with no numpy.

    Returns the same ``(start, tables, finals)``, each table a pair of
    Python int lists (edge absent, edge present).  A state is a tuple of
    labels, each vertex labelled by the first frontier column in its
    component, and a dict numbers the new ones by first appearance, state
    by state, edge absent before edge present.  On a 2-vCPU VM it costs
    about 4-6 us per search state against about 0.5-1 us for the arrays;
    it serves the routes that never expand the ``2 ** |E|`` states
    (factoring and the split check), and enumeration while the numpy
    import would cost more than the slower compile.
    """
    frontier, stranded, steps = _frontier_schedule(g, u)
    states = [] if stranded else [tuple(range(len(frontier)))]
    tables = []
    for grown, ia, ib, leaving, kept in steps:
        fresh = tuple(range(len(frontier), len(grown)))
        number: dict[tuple, int] = {}
        absent, present = [0], [0]
        for labels in states:
            labels += fresh
            x, y = labels[ia], labels[ib]
            live = [labels[i] for i in kept]
            if all(labels[i] in live for i in leaving):
                absent.append(number.setdefault(tuple(map(live.index, live)), len(number) + 1))
            else:
                absent.append(0)
            if x == y:
                present.append(absent[-1])
            elif x not in live and y not in live:
                # The joined component is the leaving endpoints' alone: it closes.
                present.append(0)
            else:
                live = [x if lab == y else lab for lab in live]
                present.append(number.setdefault(tuple(map(live.index, live)), len(number) + 1))
        tables.append((absent, present))
        states = list(number)
        frontier = [grown[i] for i in kept]
    finals = [None] + [partition_of(frontier, labels) for labels in states]
    return 0 if stranded else 1, tables, finals


def trace_lists(g: Graph, u) -> tuple[list[int], list[Partition | None]]:
    """:func:`component_traces` on the tables of :func:`frontier_lists`, with no numpy.

    Returns ``(ids, finals)`` with ``ids`` a Python int list, doubled once
    per edge, so edge ``k`` stays bit ``k`` of the state index.
    """
    start, tables, finals = frontier_lists(g, u)
    ids = [start]
    for t0, t1 in tables:
        ids = list(map(t0.__getitem__, ids)) + list(map(t1.__getitem__, ids))
    return ids, finals


def component_traces(g: Graph, u) -> tuple[np.ndarray, list[Partition | None]]:
    """Component trace on ``u`` of every edge state at once, by frontier search.

    Returns ``(ids, finals)``: ``finals[ids[state]]`` is the partition of
    ``u`` whose blocks are the intersections of the active components with
    ``u``, or ``None`` when some component misses ``u`` entirely (an island,
    which no vertex merge can ever reconnect).  Applies the tables of
    :func:`frontier_tables` with one gather per edge and bit value, with
    edge ``k`` on bit ``k`` of the state index.
    """
    import numpy as np

    start, tables, finals = frontier_tables(g, u)
    ids = np.array([start], dtype=np.int32)
    for table in tables:
        ids = np.concatenate((table[0][ids], table[1][ids]))
    return ids, finals


def connectivity_flags(g: Graph) -> np.ndarray:
    """``uint8`` 0/1 flag of every edge state: 1 where it connects all of ``g``.

    One kept vertex turns "no island" into "one component"; graphs with no
    vertex or a single vertex are connected in every state.
    """
    import numpy as np

    ids, finals = component_traces(g, g.vertices[:1])
    return np.array([f is not None for f in finals], dtype=np.uint8)[ids]
