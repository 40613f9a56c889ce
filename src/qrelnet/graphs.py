"""Finite multigraphs with a stable edge order and their frontier connectivity.

Edge ``i`` of a graph owns bit ``i`` of every edge-state bitmask, so a state
is just an integer in ``range(2 ** num_edges)``.  The text form of a state
writes edge 0 leftmost: ``"10"`` activates edge 0 and deactivates edge 1.
Self-loops and parallel edges are allowed everywhere; a graph with no
vertices, or a single vertex, counts as connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, QrelnetError, WidthMismatchError
from .partitions import Partition

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


def edge_state_to_text(state: int, num_edges: int) -> str:
    """Render a bitmask with edge 0 leftmost."""
    if not 0 <= state < (1 << num_edges):
        raise WidthMismatchError(f"state {state} out of range for {num_edges} edges")
    return "".join("1" if state >> i & 1 else "0" for i in range(num_edges))


def edge_state_from_text(text: str) -> int:
    """Parse the text form of a state; width is the string length."""
    bits = 0
    for i, c in enumerate(text):
        if c == "1":
            bits |= 1 << i
        elif c != "0":
            raise QrelnetError(f"edge state strings are over '0'/'1', got {c!r}", code="invalid_state")
    return bits


def _check_edge_index(g: Graph, e: int) -> None:
    if not 0 <= e < g.num_edges:
        raise QrelnetError(f"edge index {e} out of range", code="invalid_edge")


def merged_name(names) -> str:
    """Deterministic name for a merged vertex set."""
    return "+".join(sorted(names))


def delete_edge(g: Graph, e: int) -> Graph:
    """Remove edge ``e``; later edges shift down by one, vertices unchanged."""
    _check_edge_index(g, e)
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
    """Remove edge ``e`` and merge its endpoints (a no-op merge for a loop)."""
    _check_edge_index(g, e)
    a, b = g.edges[e]
    rest = g.edges[:e] + g.edges[e + 1 :]
    if a == b:
        return Graph(g.vertices, rest)
    new = merged_name((a, b))
    relabel = {a: new, b: new}
    vertices = []
    for v in g.vertices:
        w = relabel.get(v, v)
        if w not in vertices:
            vertices.append(w)
    edges = tuple((relabel.get(x, x), relabel.get(y, y)) for x, y in rest)
    return Graph(tuple(vertices), edges)


def _first_appearance(live: np.ndarray, num_labels: int) -> np.ndarray:
    """Relabel every row by first appearance: ``[2, 0, 2, 1]`` becomes ``[0, 1, 0, 2]``.

    Labels lie below ``num_labels``; one column at a time, a label seen for
    the first time in its row takes the row's next number.
    """
    slots = np.arange(len(live))[:, None] * num_labels + live
    rename = np.full(len(live) * num_labels, -1, dtype=np.int32)
    count = np.zeros(len(live), dtype=np.int32)
    key = np.empty_like(live)
    for j in range(live.shape[1]):
        slot = slots[:, j]
        seen = rename[slot]
        new = seen < 0
        key[:, j] = rename[slot] = np.where(new, count, seen)
        count += new
    return key


def _number_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of ``key`` from 1 in order of first appearance.

    ``key`` is relabelled by first appearance, so column ``j`` holds at most
    ``j`` and each row reads as a mixed-radix number with digit ``j`` of
    radix ``j + 1``; columns are cut into chunks whose numbers fit int64.
    One stable sort of those numbers puts each distinct row's first
    occurrence at the head of its group.  Returns ``(ids, distinct)``:
    ``ids[r]`` is the number of row ``r``, ``distinct`` one row per number.
    """
    bounds, weights, weight = [0], [], 1
    for j in range(key.shape[1]):
        if weight * (j + 1) > 2**63:
            bounds.append(j)
            weight = 1
        weights.append(weight)
        weight *= j + 1
    bounds.append(key.shape[1])
    codes = [key[:, a:b] @ np.array(weights[a:b], dtype=np.int64) for a, b in zip(bounds, bounds[1:])]
    order = np.lexsort(codes)
    ranked = np.array(codes)[:, order]
    head = np.ones(len(key), dtype=bool)
    head[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    firsts = order[head]
    by_first = np.argsort(firsts)
    number = np.empty(len(firsts), dtype=np.int32)
    number[by_first] = np.arange(1, len(firsts) + 1, dtype=np.int32)
    ids = np.empty(len(key), dtype=np.int32)
    ids[order] = number[np.cumsum(head) - 1]
    return ids, key[firsts[by_first]]


def frontier_tables(g: Graph, u) -> tuple[int, list[np.ndarray], list[Partition | None]]:
    """Compile ``g`` into per-edge transition tables over frontier partitions.

    Returns ``(start, tables, finals)``.  Edges are taken in index order, and
    a search state is the partition of the live vertices (those of ``u``,
    kept to the end, and those with an edge still to come) into components,
    or the dead state 0 once a component has closed without reaching ``u``.
    A vertex leaves after its last edge.  ``tables[k]`` has shape
    ``(2, S_k + 1)``: row 0 maps each state before edge ``k`` to its successor
    with the edge absent, row 1 with it present; the dead state maps to
    itself.  ``start`` is the state before edge 0, and ``finals[s]`` is the
    component trace on ``u`` of final state ``s`` (``None`` for the dead
    state).  Edge ``k`` meets at most ``2 ** k`` search states, so compiling
    never costs more than enumerating.

    The states before an edge are one ``(S_k, width)`` matrix of component
    labels, relabelled by first appearance; both successors of every state
    are built at once, and new states are numbered by first appearance,
    state by state, edge absent before edge present.
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
    # A vertex outside ``u`` with no edge is an island in every state.
    stranded = any(v not in uset and v not in first for v in g.vertices)
    # Row i holds the labels of state i + 1, one column per frontier vertex.
    labels = np.arange(len(frontier), dtype=np.int32).reshape(1, -1)[: 0 if stranded else 1]
    tables = []
    for k, (a, b) in enumerate(g.edges):
        grown = frontier + [v for v in dict.fromkeys((a, b)) if v not in uset and first[v] == k]
        ia, ib = grown.index(a), grown.index(b)
        leaving = [i for i in {ia, ib} if grown[i] not in uset and last[grown[i]] == k]
        kept = [i for i in range(len(grown)) if i not in leaving]
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
        ids[alive], labels = _number_rows(_first_appearance(live[alive], len(grown)))
        table = np.zeros((2, n + 1), dtype=np.int32)
        table[:, 1:] = ids.reshape(n, 2).T
        tables.append(table)
        frontier = [grown[i] for i in kept]
    finals: list[Partition | None] = [None]
    for row in labels.tolist():
        blocks: dict[int, list[str]] = {}
        for v, lab in zip(frontier, row):
            blocks.setdefault(lab, []).append(v)
        finals.append(Partition(tuple(tuple(b) for b in blocks.values())))
    return 0 if stranded else 1, tables, finals


def component_traces(g: Graph, u) -> tuple[np.ndarray, list[Partition | None]]:
    """Component trace on ``u`` of every edge state at once, by frontier search.

    Returns ``(ids, finals)``: ``finals[ids[state]]`` is the partition of
    ``u`` whose blocks are the intersections of the active components with
    ``u``, or ``None`` when some component misses ``u`` entirely (an island,
    which no vertex merge can ever reconnect).  Applies the tables of
    :func:`frontier_tables` with one gather per edge and bit value, with
    edge ``k`` on bit ``k`` of the state index.
    """
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
    ids, finals = component_traces(g, g.vertices[:1])
    return np.array([f is not None for f in finals], dtype=np.uint8)[ids]
