"""Finite multigraphs with a stable edge order and their frontier connectivity.

Edge ``i`` of a graph owns bit ``i`` of every edge-state bitmask, so a state
is just an integer in ``range(2 ** num_edges)``.  The text form of a state
writes edge 0 leftmost: ``"10"`` activates edge 0 and deactivates edge 1.
Self-loops and parallel edges are allowed everywhere; a graph with no
vertices, or a single vertex, counts as connected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import CapacityError, QrelnetError, Record, WidthMismatchError
from .partitions import Partition, partition_of

# numpy loads only in the functions that build ``2 ** |E|`` arrays, so the
# one frontier compile, ``frontier_lists``, serves ``split-verify``,
# ``reliability --method factor``, and enum, ``qr``, ``hybrid`` and
# ``sublayer`` while their states are held in lists, without it.
if TYPE_CHECKING:
    import numpy as np

# 2**24 basis states is the largest dense vector this package will touch.
MAX_EDGES = 24
# Up to this many edges the 2 ** |E| edge states, their traces and their
# weights are Python lists and tuples, which need no numpy; past it numpy
# arrays, since lists would cost several times their time and memory.
LIST_EDGES = 16


def in_lists(num_edges: int) -> bool:
    """Whether the states of ``num_edges`` edges are held in Python lists, not numpy arrays."""
    return num_edges <= LIST_EDGES


class Graph(Record):
    """Multigraph with named vertices and an ordered edge list."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...]):
        vertices = tuple(vertices)
        edges = tuple((a, b) for a, b in edges)
        if len(set(vertices)) != len(vertices):
            raise QrelnetError("duplicate vertex names", code="invalid_graph")
        if len(edges) > MAX_EDGES:
            raise CapacityError(f"graph has {len(edges)} edges, cap is {MAX_EDGES}")
        known = set(vertices)
        for a, b in edges:
            if a not in known or b not in known:
                raise QrelnetError(f"edge ({a!r}, {b!r}) references an unknown vertex", code="invalid_graph")
        self._set(vertices=vertices, edges=edges)

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


def delete_edge(g: Graph, e: int) -> Graph:
    """Remove edge ``e``; later edges shift down by one, vertices unchanged."""
    if not 0 <= e < g.num_edges:
        raise QrelnetError(f"edge index {e} out of range", code="invalid_edge")
    return Graph(g.vertices, g.edges[:e] + g.edges[e + 1 :])


def quotient(g: Graph, u, gamma: Partition) -> Graph:
    """Merge the vertices of each block of ``gamma``; edges keep their order.

    ``gamma`` must partition exactly the vertex subset ``u``; vertices
    outside ``u`` stay as they are.  Edges inside a block become self-loops.
    A merged vertex is named by joining its members, sorted, with ``+`` and
    takes the place of its first member in the vertex order; quotient by
    all-singletons is the identity.
    """
    uset = set(u)
    if not uset <= set(g.vertices):
        raise QrelnetError("subset mentions a vertex not in the graph", code="invalid_partition")
    if gamma.ground_set() != uset:
        raise QrelnetError("partition does not cover exactly the given subset", code="invalid_partition")
    block_of = {v: block for block in gamma.blocks for v in block}
    key = {v: block_of.get(v, (v,)) for v in g.vertices}
    return Graph(tuple("+".join(b) for b in dict.fromkeys(key.values())),
                 tuple(("+".join(key[a]), "+".join(key[b])) for a, b in g.edges))


def contract_edge(g: Graph, e: int) -> Graph:
    """Remove edge ``e`` and merge its endpoints by :func:`quotient` (no merge for a loop)."""
    rest = delete_edge(g, e)
    a, b = g.edges[e]
    return rest if a == b else quotient(rest, (a, b), Partition(((a, b),)))


def frontier_lists(g: Graph, u) -> tuple[int, list[tuple[list[int], list[int]]], list[Partition | None]]:
    """Compile ``g`` into per-edge transition tables over frontier partitions, with no numpy.

    Returns ``(start, tables, finals)``.  Edges are taken in index order, and
    the live vertices are those of ``u``, kept to the end, and those with an
    edge still to come; a vertex leaves after its last edge.  A search state
    is the partition of the live vertices into components, or the dead
    state 0 once a component has closed without reaching ``u`` (from the
    start if a vertex outside ``u`` has no edge).  ``tables[k]`` is a pair
    of Python int lists (edge absent, edge present) that map each state
    before edge ``k`` to its successor; the dead state maps to itself.
    ``start`` is the state before edge 0, and ``finals[s]`` is the
    component trace on ``u`` of final state ``s`` (``None`` for the dead
    state).

    A state is a tuple of labels, each vertex labelled by the first live
    column in its component, and a dict numbers the new ones by first
    appearance, state by state, edge absent before edge present.  Edge
    ``k`` meets at most ``2 ** k`` search states, so compiling never costs
    more than enumerating, but how many it meets depends on the edge order,
    which the trace passes therefore choose breadth first
    (:func:`_breadth_first_compile`).
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
    states = [] if stranded else [tuple(range(len(frontier)))]
    tables = []
    for k, (a, b) in enumerate(g.edges):
        # The live vertices once the edge's endpoints have joined, old ones first.
        grown = frontier + [v for v in dict.fromkeys((a, b)) if v not in uset and first[v] == k]
        ia, ib = grown.index(a), grown.index(b)
        leaving = [i for i in {ia, ib} if grown[i] not in uset and last[grown[i]] == k]
        kept = [i for i in range(len(grown)) if i not in leaving]
        fresh = tuple(range(len(frontier), len(grown)))
        number: dict[tuple, int] = {}
        absent, present = [0], [0]
        for labels in states:
            labels += fresh
            x, y = sorted((labels[ia], labels[ib]))
            if not leaving:
                # The state, and its merge into the lower label, keep the canonical form.
                absent.append(number.setdefault(labels, len(number) + 1))
                merged = tuple([x if lab == y else lab for lab in labels])
                present.append(number.setdefault(merged, len(number) + 1))
                continue
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


def _breadth_first_order(g: Graph) -> list[int]:
    """The edge indices of ``g`` in a breadth-first order, which keeps the frontier narrow.

    Numbers the vertices breadth first from the first listed vertex of each
    component, neighbours in edge order, and sorts the edges stably by their
    later endpoint's number, then their earlier one's: the bandwidth-reducing
    order of Cuthill & McKee (1969).
    """
    neighbours: dict[str, list[str]] = {v: [] for v in g.vertices}
    for a, b in g.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    number: dict[str, int] = {}
    for root in g.vertices:
        if root in number:
            continue
        number[root] = len(number)
        queue = [root]
        for v in queue:
            for w in neighbours[v]:
                if w not in number:
                    number[w] = len(number)
                    queue.append(w)
    return sorted(range(g.num_edges), key=lambda k: sorted(map(number.__getitem__, g.edges[k]), reverse=True))


def _breadth_first_compile(g: Graph, u) -> tuple:
    """``(order, start, tables, finals)``: :func:`frontier_lists` on ``g``'s edges in :func:`_breadth_first_order`.

    Both trace forms apply ``tables[j]`` onto bit ``order[j]``, so they
    number the final states alike.
    """
    order = _breadth_first_order(g)
    return order, *frontier_lists(Graph(g.vertices, [g.edges[k] for k in order]), u)


def trace_lists(g: Graph, u) -> tuple[list[int], list[Partition | None]]:
    """:func:`component_traces` as Python lists, with no numpy: the same ``ids`` and ``finals``.

    Table ``j`` of the breadth-first compile, of edge ``k = order[j]``,
    doubles ``ids``: each block of ``2 ** b`` entries, ``b`` the edges
    already placed below ``k``, is followed by its image with edge ``k``
    present, so edge ``k`` lands on its own bit.  Few long blocks map
    whole, many short ones a position at a time by strided slices.
    """
    order, start, tables, finals = _breadth_first_compile(g, u)
    ids = [start]
    for j, (k, (t0, t1)) in enumerate(zip(order, tables)):
        n, block = len(ids), 1 << sum(i < k for i in order[:j])
        if block * block >= n:
            ids = [t[x] for i in range(0, n, block) for t in (t0, t1) for x in ids[i : i + block]]
            continue
        absent, present = list(map(t0.__getitem__, ids)), list(map(t1.__getitem__, ids))
        ids = [0] * (2 * n)
        for r in range(block):
            ids[r :: 2 * block] = absent[r::block]
            ids[block + r :: 2 * block] = present[r::block]
    return ids, finals


def component_traces(g: Graph, u) -> tuple[np.ndarray, list[Partition | None]]:
    """Component trace on ``u`` of every edge state at once, by frontier search.

    Returns ``(ids, finals)``: ``finals[ids[state]]`` is the partition of
    ``u`` whose blocks are the intersections of the active components with
    ``u``, or ``None`` when some component misses ``u`` entirely (an island,
    which no vertex merge can ever reconnect).  Applies table ``j`` of
    :func:`_breadth_first_compile`, of edge ``k = order[j]``, with one
    gather per bit value along the axis of bit ``k`` of a ``(2,) * |E|``
    array, so edge ``k`` stays bit ``k`` of the state index.
    """
    import numpy as np

    order, start, tables, finals = _breadth_first_compile(g, u)
    n = g.num_edges
    ids = np.full((1,) * n, start, dtype=np.int32)
    for k, pair in zip(order, tables):
        absent, present = np.array(pair, dtype=np.int32)
        # ``take`` gathers by int32 indices without converting them to intp.
        ids = np.concatenate((absent.take(ids), present.take(ids)), axis=n - 1 - k)
    return ids.reshape(-1), finals


def traces(g: Graph, u):
    """``(ids, finals)`` of :func:`trace_lists` if ``in_lists(g.num_edges)``, else of :func:`component_traces`.

    Either way ``finals[ids[state]]`` is the component trace of ``state`` on
    ``u``, and the two forms hold the same numbers.
    """
    return (trace_lists if in_lists(g.num_edges) else component_traces)(g, u)
