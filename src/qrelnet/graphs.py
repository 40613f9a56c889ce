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
    states = {} if stranded else {tuple(range(len(frontier))): 1}
    tables = []
    for k, (a, b) in enumerate(g.edges):
        grown = frontier + [v for v in dict.fromkeys((a, b)) if v not in uset and first[v] == k]
        ia, ib = grown.index(a), grown.index(b)
        leaving = [i for i in {ia, ib} if grown[i] not in uset and last[grown[i]] == k]
        kept = [i for i in range(len(grown)) if i not in leaving]
        fresh = tuple(range(len(frontier), len(grown)))
        table = np.zeros((2, len(states) + 1), dtype=np.int32)
        nxt: dict[tuple, int] = {}
        for labels, idx in states.items():
            labels += fresh
            x, y = labels[ia], labels[ib]
            joined = tuple(x if lab == y else lab for lab in labels)
            for bit, labs in enumerate((labels, joined)):
                live = [labs[i] for i in kept]
                if any(labs[i] not in live for i in leaving):
                    continue
                rename: dict[int, int] = {}
                key = tuple(rename.setdefault(lab, len(rename)) for lab in live)
                table[bit, idx] = nxt.setdefault(key, len(nxt) + 1)
        tables.append(table)
        states = nxt
        frontier = [grown[i] for i in kept]
    finals: list[Partition | None] = [None] * (len(states) + 1)
    for labels, idx in states.items():
        blocks: dict[int, list[str]] = {}
        for v, lab in zip(frontier, labels):
            blocks.setdefault(lab, []).append(v)
        finals[idx] = Partition(tuple(tuple(b) for b in blocks.values()))
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
