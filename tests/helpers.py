"""Shared test utilities: random instances and independent oracles.

The oracles deliberately use different algorithms than the library (breadth
first search and networkx instead of frontier tables, block-graph closure
instead of label union, pairwise merges and elimination instead of the
Moebius closed form, rational loops instead of integer products, a per-state
loop and the plain deletion/contraction recursion instead of vectorized
enumeration and the frontier dynamic program, a block-index map and
member lists instead of block tuples as keys for a quotient graph, one
quotient graph per partition instead of one frontier pass per side, int64 matrix products
instead of packed-int sums for the split contraction, one masked copy of
the whole Born vector per quotient row instead of chunks walked with the
rows inside, both split operators
over every edge state instead of the reachable product states of three
frontier automata for the split check, a per-state dict walk instead of
label arrays for the frontier compile, the given edge order doubled once
per edge instead of the breadth-first compile placed bit by bit for the
traces, a per-entry decoder instead
of one flat conversion for amplitudes, a tree walk that emits text pieces
instead of one string per value for canonical JSON, a per-state product of
qubit factors instead of Kronecker products of lists or arrays, a float64
copy of the diagonal averaged by ``np.mean`` instead of a count of the
``uint8`` flags for Born draws) so agreement
is evidence, not tautology.  ``random_state`` builds test states; no library
path uses it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import tracemalloc
from collections import deque
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import networkx as nx
import numpy as np

from qrelnet import (
    MAX_EDGES,
    BornEstimate,
    CapacityError,
    Graph,
    Partition,
    QrelnetError,
    StateVector,
    WidthMismatchError,
    contract_edge,
    delete_edge,
    enumerate_partitions,
    qr_operator,
    quotient,
    single_block,
    singletons,
)
from qrelnet.classical import sum_in_order as prefix_sum
from qrelnet.graphs import component_traces, frontier_lists
from qrelnet.operators import _quotient_rows, _split_weights
from qrelnet.partitions import contract
from qrelnet.serialize import _float_text


def edge_state_to_text(state: int, num_edges: int) -> str:
    """Render a bitmask with edge 0 leftmost, the inverse of ``edge_state_from_text``."""
    if not 0 <= state < (1 << num_edges):
        raise WidthMismatchError(f"state {state} out of range for {num_edges} edges")
    return "".join("1" if state >> i & 1 else "0" for i in range(num_edges))


def bfs_is_connected(g: Graph, state: int) -> bool:
    """Connectivity by breadth-first search over the active edges."""
    nv = len(g.vertices)
    if nv <= 1:
        return True
    index = {v: i for i, v in enumerate(g.vertices)}
    adj: list[list[int]] = [[] for _ in range(nv)]
    for i, (a, b) in enumerate(g.edges):
        if state >> i & 1:
            adj[index[a]].append(index[b])
            adj[index[b]].append(index[a])
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == nv


def nx_is_connected(g: Graph, state: int) -> bool:
    """Connectivity of the active subgraph, by networkx."""
    if len(g.vertices) <= 1:
        return True
    h = nx.MultiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(e for i, e in enumerate(g.edges) if state >> i & 1)
    return nx.is_connected(h)


def bfs_components(g: Graph, state: int) -> list[set[str]]:
    """Connected components as vertex-name sets, by breadth-first search."""
    nv = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    adj: list[list[int]] = [[] for _ in range(nv)]
    for i, (a, b) in enumerate(g.edges):
        if state >> i & 1:
            adj[index[a]].append(index[b])
            adj[index[b]].append(index[a])
    comps = []
    unseen = set(range(nv))
    while unseen:
        start = min(unseen)
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        unseen -= seen
        comps.append({g.vertices[i] for i in seen})
    return comps


def bfs_trace(g: Graph, u, state: int) -> Partition | None:
    """Component trace on ``u`` by breadth-first search; ``None`` on an island."""
    uset = set(u)
    comps = bfs_components(g, state)
    if any(not (c & uset) for c in comps):
        return None
    return Partition(tuple(tuple(c & uset) for c in comps))


def closure_merge(p: Partition, q: Partition) -> Partition:
    """Common coarsening by graph closure over block-sharing elements."""
    elems = sorted(p.ground_set())
    adj: dict[str, set[str]] = {v: set() for v in elems}
    for part in (p, q):
        for block in part.blocks:
            for a in block:
                for b in block:
                    if a != b:
                        adj[a].add(b)
    blocks = []
    unseen = set(elems)
    while unseen:
        start = min(unseen)
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        unseen -= seen
        blocks.append(tuple(sorted(seen)))
    return Partition(tuple(blocks))


def random_graph(rng, max_vertices: int, max_edges: int, *, min_vertices: int = 1,
                 min_edges: int = 0, allow_loops: bool = True) -> Graph:
    """Random multigraph; occasionally leaves isolated vertices and adds loops."""
    nv = rng.randint(min_vertices, max_vertices)
    vertices = tuple(f"v{i}" for i in range(nv))
    ne = rng.randint(min_edges, max_edges)
    edges = []
    for _ in range(ne):
        a = rng.choice(vertices)
        if allow_loops and rng.random() < 0.08:
            edges.append((a, a))
        else:
            b = rng.choice(vertices)
            edges.append((a, b))
    # Bias toward instances without stranded vertices most of the time.
    if edges and rng.random() < 0.7:
        touched = {v for e in edges for v in e}
        for v in vertices:
            if v not in touched and len(edges) < max_edges:
                edges.append((v, rng.choice(vertices)))
                touched.add(v)
    return Graph(vertices, tuple(edges))


def random_probabilities(rng, n: int) -> list[float]:
    return [rng.random() for _ in range(n)]


def scrambled_k6() -> Graph:
    """K6 in an edge order that keeps all six vertices live almost to the end."""
    rng = random.Random(5)
    edges = list(itertools.combinations("abcdef", 2))
    rng.shuffle(edges)
    return Graph(tuple("abcdef"), tuple(edges))


def edge_case_graphs(seed: int, count: int, max_vertices: int, max_edges: int):
    """Small edge cases first, then random multigraphs with loops and strays."""
    yield Graph((), ())
    yield Graph(("a",), ())
    yield Graph(("a",), (("a", "a"), ("a", "a")))
    yield Graph(("a", "b"), ())
    yield Graph(("a", "b", "c"), (("a", "b"), ("a", "b"), ("b", "b")))
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, max_vertices, max_edges)


def _exact(probs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in probs)


def enumerate_oracle(g: Graph, probs, connected=bfs_is_connected):
    """Reliability by the plain per-state loop.

    Ascending states; each connected state's weight multiplies ``p`` or
    ``1 - p`` (formed in ``p``'s own type) in edge order, starting from one
    in the result type, and the weights are added one by one.
    """
    comp = [1 - x for x in probs]
    one = Fraction(1) if _exact(probs) else 1.0
    total = one * 0
    for state in range(g.num_states):
        if not connected(g, state):
            continue
        w = one
        for i in range(g.num_edges):
            w *= probs[i] if state >> i & 1 else comp[i]
        total += w
    return total


def factorize_oracle(g: Graph, probs):
    """Reliability by the plain deletion/contraction recursion.

    Splits on the lowest-index edge that is not a self-loop: contract with
    weight p, delete with weight 1 - p.  Self-loops are dropped eagerly.
    """
    exact = _exact(probs)

    def recurse(h: Graph, ps: list):
        keep = [i for i, (a, b) in enumerate(h.edges) if a != b]
        if len(keep) != h.num_edges:
            h = Graph(h.vertices, tuple(h.edges[i] for i in keep))
            ps = [ps[i] for i in keep]
        if not h.edges:
            connected = len(h.vertices) <= 1
            if exact:
                return Fraction(1 if connected else 0)
            return 1.0 if connected else 0.0
        r = ps[0]
        rest = ps[1:]
        return r * recurse(contract_edge(h, 0), rest) + (1 - r) * recurse(delete_edge(h, 0), rest)

    return recurse(g, list(probs))


def random_split(rng, num_shared: int, max_side_extra: int, max_total_edges: int, *,
                 min_side_edges: int = 1, min_total_edges: int = 2):
    """Random (k, h, shared) with vertex overlap exactly the shared set.

    Each side gets at least ``min_side_edges`` edges; extra vertices may be
    left without any edge.
    """
    shared = [f"s{i}" for i in range(num_shared)]
    k_extra = [f"k{i}" for i in range(rng.randint(0, max_side_extra))]
    h_extra = [f"h{i}" for i in range(rng.randint(0, max_side_extra))]
    k_verts = tuple(shared + k_extra)
    h_verts = tuple(shared + h_extra)
    total = rng.randint(min_total_edges, max_total_edges)
    nk = rng.randint(min_side_edges, total - min_side_edges)

    def side_edges(verts, count):
        edges = []
        for _ in range(count):
            a = rng.choice(verts)
            b = a if rng.random() < 0.06 else rng.choice(verts)
            edges.append((a, b))
        return tuple(edges)

    k = Graph(k_verts, side_edges(k_verts, nk))
    h = Graph(h_verts, side_edges(h_verts, total - nk))
    return k, h, shared


def _merge_is_single_block(lab_p: list[int], lab_q: list[int], m: int) -> bool:
    # Union-find over element indices, driven by both label vectors.
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (lab_p, lab_q):
        first: dict[int, int] = {}
        for i, lab in enumerate(labels):
            if lab in first:
                ra, rb = find(first[lab]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                first[lab] = i
    root = find(0)
    return all(find(i) == root for i in range(1, m))


def pairwise_merge_alpha(parts) -> list[list[int]]:
    """alpha[i][j] = 1 iff partitions i and j merge into one block, pair by pair."""
    elems = sorted(parts[0].ground_set())
    index = {v: i for i, v in enumerate(elems)}
    labels = []
    for p in parts:
        lab = [0] * len(elems)
        for b, block in enumerate(p.blocks):
            for v in block:
                lab[index[v]] = b
        labels.append(lab)
    return [[int(_merge_is_single_block(lp, lq, len(elems))) for lq in labels] for lp in labels]


def invert_exact(alpha: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix by one-step fraction-free elimination.

    Works on the augmented matrix [alpha | I] keeping every entry an integer;
    each elimination step divides by the previous pivot, which the one-step
    recurrence guarantees to be exact.  The inverse entry is then the
    right-half entry over the row's diagonal entry.
    """
    n = len(alpha)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(alpha)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        pivot = m[k][k]
        row_k = m[k]
        for i in range(n):
            if i == k:
                continue
            row_i = m[i]
            f = row_i[k]
            m[i] = [(pivot * x - f * y) // prev for x, y in zip(row_i, row_k)]
            m[i][k] = 0
        prev = pivot
    return [[Fraction(m[i][n + j], m[i][i]) for j in range(n)] for i in range(n)]


def assert_beta_identities(cm) -> None:
    """The two exact identities of the inverse weights, read on ``cm.scaled``.

    With ``den = cm.denominator``, the single-block row is ``den`` times the
    indicator of the all-singletons partition, and every row sums to zero
    except that same row, which sums to ``den``.
    """
    ground = cm.order[0].ground_set()
    ti = cm.order.index(single_block(ground))
    fi = cm.order.index(singletons(ground))
    den, n = cm.denominator, len(cm.order)
    assert list(cm.scaled[ti]) == [den if j == fi else 0 for j in range(n)]
    assert [sum(row) for row in cm.scaled] == [den if i == ti else 0 for i in range(n)]


def merged_name(names) -> str:
    """Deterministic name for a merged vertex set."""
    return "+".join(sorted(names))


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


def quotient_oracle(g: Graph, u, gamma: Partition) -> Graph:
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


def split_diag_fraction_loop(k: Graph, h: Graph, shared) -> list:
    """The splitting sum over (gamma, gamma') in nested rational loops, k-major.

    The weights come from elimination on the pairwise-merge alpha.
    """
    parts = enumerate_partitions(shared)
    beta = invert_exact(pairwise_merge_alpha(parts))
    nb = len(parts)
    kd = [qr_operator(quotient(k, shared, p)).tolist() for p in parts]
    hd = [qr_operator(quotient(h, shared, p)).tolist() for p in parts]
    mid = [
        [sum(beta[i][j] * kd[i][sk] for i in range(nb) if kd[i][sk]) for sk in range(k.num_states)]
        for j in range(nb)
    ]
    diag = []
    for sk in range(k.num_states):
        weights = [mid[j][sk] for j in range(nb)]
        for sh in range(h.num_states):
            diag.append(sum(weights[j] for j in range(nb) if hd[j][sh]))
    return diag


def quotient_loop(g: Graph, shared, value) -> list:
    """``value(quotient(g, shared, p))`` for every partition ``p`` of ``shared``.

    Canonical partition order, one quotient graph built and evaluated at a
    time.
    """
    return [value(quotient(g, shared, p)) for p in enumerate_partitions(shared)]


def quotient_values_oracle(side, psi: StateVector) -> list[float]:
    """``qr_value`` on ``psi`` of every quotient in a ``(rows, ids)`` side, to the same bits.

    The Born-weight route that ``classical.weigh_rows`` replaced.  Each
    row's flagged Born weights are added in state order: on a list side
    from ``psi.weights``; on an array side from one ``psi.probabilities()``
    for all the rows, masked whole by each row.
    """
    rows, ids = side
    if isinstance(ids, list):
        return [prefix_sum(itertools.compress(psi.weights, map(row.__getitem__, ids))) for row in rows]
    weights = psi.probabilities()
    return [prefix_sum(weights[np.array(row, dtype=bool).take(ids)]) for row in rows]


def split_terms_oracle(shared, left, right) -> list[tuple]:
    """``(gamma, gamma', beta, float(beta) * left[i] * right[j])`` per nonzero weight.

    Row by row over beta, here from elimination on the pairwise-merge alpha.
    """
    parts = enumerate_partitions(shared)
    beta = invert_exact(pairwise_merge_alpha(parts))
    return [(parts[i], parts[j], b, float(b) * left[i] * right[j])
            for i, row in enumerate(beta) for j, b in enumerate(row) if b]


@functools.cache
def quotient_connections(g: Graph, shared) -> list[list[bool]]:
    """Row ``i``, state ``s``: whether ``s`` connects ``g`` over the ``i``-th partition of ``shared``.

    One breadth-first search per state on each quotient graph, the
    partitions in ``enumerate_partitions`` order.
    """
    quotients = [quotient_oracle(g, shared, p) for p in enumerate_partitions(shared)]
    return [[bfs_is_connected(q, s) for s in range(1 << g.num_edges)] for q in quotients]


class SplitFormula(NamedTuple):
    """The splitting formula of a hybrid state, every value an integer over ``den``."""

    den: int
    terms: dict  # (gamma, gamma') -> (beta, numerator of beta * Q(k / gamma) * R(h / gamma')) for every nonzero beta
    classical: int  # R(h / singletons), the classical reliability of h


def split_formula_exact(decomp, state) -> SplitFormula:
    """Every term of ``hybrid``'s and ``sublayer``'s formula in exact arithmetic.

    ``Q(k / gamma)`` adds the exact Born weights ``re ** 2 + im ** 2`` of the
    state's float parts, and ``R(h / gamma')`` the exact Bernoulli weights
    of its probabilities, over the states that :func:`quotient_connections`
    marks; beta comes from elimination on the pairwise-merge alpha.  The Born
    weights are integers over ``P ** 2`` (:func:`born_exact`), the
    Bernoulli weights integers over ``D`` (:func:`bernoulli_exact`), and
    beta is over the lcm ``B`` of its denominators.  So every value is an
    integer over ``den = B * P ** 2 * D``.
    """
    k, h, shared = decomp.quantum, decomp.classical, decomp.shared
    parts = enumerate_partitions(shared)
    beta = invert_exact(pairwise_merge_alpha(parts))
    born, p_den_sq = born_exact(state.quantum)
    bernoulli, d_den = bernoulli_exact(state.classical)
    left = [sum(itertools.compress(born, row)) for row in quotient_connections(k, shared)]
    right = [sum(itertools.compress(bernoulli, row)) for row in quotient_connections(h, shared)]
    b_den = math.lcm(*(b.denominator for row in beta for b in row))
    terms = {(parts[i], parts[j]): (b, b.numerator * (b_den // b.denominator) * left[i] * right[j])
             for i, row in enumerate(beta) for j, b in enumerate(row) if b}
    classical = right[parts.index(singletons(shared))] * b_den * p_den_sq
    return SplitFormula(b_den * p_den_sq * d_den, terms, classical)


def born_exact(psi: StateVector) -> tuple[list[int], int]:
    """The exact Born weights ``re ** 2 + im ** 2`` of a state's float parts, as integers over ``P ** 2``.

    Float parts are integers over one power of two ``P``, the largest of
    their denominators.
    """
    xs = [x.as_integer_ratio() for a in psi.amplitudes.tolist() for x in (a.real, a.imag)]
    den = max(d for _, d in xs)
    ints = [n * (den // d) for n, d in xs]
    return [x * x + y * y for x, y in zip(ints[0::2], ints[1::2])], den * den


def bernoulli_exact(probs) -> tuple[list[int], int]:
    """The exact Bernoulli weight of every edge state, as integers over the product ``D`` of the denominators.

    Edge ``e`` is bit ``e`` of a state and weighs ``p_e`` present, ``1 - p_e``
    absent, in exact rationals (a power-of-two denominator for a float).
    """
    fracs = list(map(Fraction, probs))
    table = [1]
    for p in fracs:
        table = [w * (p.denominator - p.numerator) for w in table] + [w * p.numerator for w in table]
    return table, math.prod(p.denominator for p in fracs)


UNIT_ROUNDOFF = Fraction(1, 1 << 53)


def gamma(k: int) -> Fraction:
    """Higham's ``gamma_k = k u / (1 - k u)``, the binary64 unit roundoff ``u``: ``k`` roundings stay within it."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def error_bound(values, roundings) -> Fraction:
    """A-priori bound on |float sum - exact sum| of exact ``values``, with no underflow.

    The float of ``values[i]`` comes through ``roundings[i]`` roundings, so it
    is within ``gamma(k_i) |x_i|`` (Higham, Lemma 3.3); the ``n`` floats are
    then added in any order, within ``gamma(n - 1)`` times the sum of their
    magnitudes (Higham, eq. 4.4), each at most ``(1 + gamma(k_i)) |x_i|``.
    """
    values, magnitudes = list(values), {}
    for x, k in zip(values, roundings):  # grouped by k, so integer values add as integers
        magnitudes[k] = magnitudes.get(k, 0) + abs(x)
    spread = gamma(len(values) - 1)
    return sum(m * (gamma(k) + spread * (1 + gamma(k))) for k, m in magnitudes.items())


def ulps(value: float, exact: Fraction) -> float:
    """``|value - exact|`` in units in the last place of ``value``, to two decimals."""
    return round(float(abs(Fraction(value) - exact) / Fraction(math.ulp(value))), 2)


def sum_in_order(values) -> float:
    """Float sum strictly left to right, the same on every Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def int64_contraction(cm, left, right) -> list[list[int]]:
    """``left^T (beta * den) right`` by int64 numpy products, for 0/1 rows ``left`` and ``right``."""
    scaled = np.array(cm.scaled, dtype=np.int64)
    left, right = (np.array(rows, dtype=np.int64) for rows in (left, right))
    return (left.T @ (scaled @ right)).tolist()


def given_order_traces(g: Graph, u) -> tuple[list[int], list]:
    """``(ids, finals)`` of ``frontier_lists`` on the edges in their given order, doubled once per edge.

    The numbering of the compile that ``verify_split`` and
    ``reliability_factorize`` run: ``finals[ids[state]]`` is the trace of
    ``state`` on ``u``, as in ``trace_lists``, but the numbers may differ.
    """
    start, tables, finals = frontier_lists(g, u)
    ids = [start]
    for t0, t1 in tables:
        ids = list(map(t0.__getitem__, ids)) + list(map(t1.__getitem__, ids))
    return ids, finals


def split_table(cm, k_finals, h_finals) -> list[list[int]]:
    """The splitting sum times ``cm.denominator`` on every pair of final states ``(a, b)`` of the two sides."""
    return contract(cm, _quotient_rows(cm, k_finals), _quotient_rows(cm, h_finals))


def split_operator_oracle(k: Graph, h: Graph, shared) -> np.ndarray:
    """``split_operator`` as it was built before ``split_sides``: ``component_traces`` arrays on both sides.

    Contracts the weights over the two sides' final traces, divides that
    table by the denominator and gathers every state pair's entry.
    """
    _, cm = _split_weights(k, h, shared)
    k_ids, k_finals = component_traces(k, shared)
    h_ids, h_finals = component_traces(h, shared)
    table = np.array(split_table(cm, k_finals, h_finals), dtype=np.int64)
    whole, rest = np.divmod(table, cm.denominator)
    if rest.any():
        whole = np.array([[Fraction(x, cm.denominator) for x in row] for row in table.tolist()], dtype=object)
    op = whole[k_ids[:, None], h_ids].reshape(-1)
    op.flags.writeable = False
    return op


def split_lists(cm, k: Graph, h: Graph, shared, union: Graph) -> tuple[list, list]:
    """The assembled and the direct operator of the glued graph, times ``cm.denominator``.

    Both are Python int lists over all ``2 ** |E|`` states of the union,
    from the given-order compile of ``given_order_traces``: the first is
    ``split_operator`` times the denominator, the second the denominator
    times ``qr_operator(union)``.
    """
    k_ids, k_finals = given_order_traces(k, shared)
    h_ids, h_finals = given_order_traces(h, shared)
    # Each k final state's entries over the h states, in h state order.
    rows = [list(map(row.__getitem__, h_ids)) for row in split_table(cm, k_finals, h_finals)]
    assembled = list(itertools.chain.from_iterable(map(rows.__getitem__, k_ids)))
    ids, finals = given_order_traces(union, union.vertices[:1])
    flags = [cm.denominator * (f is not None) for f in finals]
    return assembled, list(map(flags.__getitem__, ids))


def random_state(num_edges: int, seed: int) -> StateVector:
    """Haar-ish random state: i.i.d. complex Gaussian amplitudes, normalized in real arithmetic."""
    if not 0 <= num_edges <= MAX_EDGES:
        raise CapacityError(f"states support 0..{MAX_EDGES} edges, got {num_edges}")
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(1 << num_edges)
    im = rng.standard_normal(1 << num_edges)
    norm = np.sqrt(prefix_sum(re * re + im * im))
    v = np.empty(1 << num_edges, dtype=np.complex128)
    v.real, v.imag = re / norm, im / norm
    return StateVector(num_edges, v)


def product_amplitudes_oracle(specs) -> list[tuple[float, float]]:
    """``(re, im)`` of every amplitude of ``product_state(specs)``, one state at a time.

    Multiplies the qubit factors of the state's bits in edge order, each
    factor on the left, as ``(ac - bd, ad + bc)`` in Python floats, one
    rounding per operation; the inactive factor is ``(sqrt(1 - p), 0)``
    times the phase in the same way.
    """
    out = []
    for state in range(1 << len(specs)):
        re, im = 1.0, 0.0
        for k, spec in enumerate(specs):
            if state >> k & 1:
                fr, fi = math.sqrt(spec.p), 0.0
            else:
                r, z = math.sqrt(1.0 - spec.p), complex(spec.phase)
                fr, fi = r * z.real - 0.0 * z.imag, r * z.imag + 0.0 * z.real
            re, im = fr * re - fi * im, fr * im + fi * re
        out.append((re, im))
    return out


def kron_outer_oracle(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The array tensor product of ``(re, im)`` pairs as four whole outer products, ``a`` in the high bits."""
    (ar, ai), (br, bi) = a, b
    outer = np.multiply.outer
    re = outer(ar, br)
    re -= outer(ai, bi)
    im = outer(ar, bi)
    im += outer(ai, br)
    return re.reshape(-1), im.reshape(-1)


def born_oracle(amplitudes) -> list[float]:
    """``re * re + im * im`` of every amplitude, in Python floats."""
    return [a.real * a.real + a.imag * a.imag for a in map(complex, amplitudes)]


def born_sample_oracle(g: Graph, psi: StateVector, n: int, seed: int) -> BornEstimate:
    """``born_sample`` past its argument checks, by the route it replaced.

    A sorted copy of the draws, the last positive weight by ``np.flatnonzero``,
    and ``np.mean`` over a float64 copy of the diagonal, built after the
    cumulative table.
    """
    rng = np.random.default_rng(seed)
    probs = np.asarray(psi.weights)
    cdf = np.cumsum(probs)
    # The estimate counts flags, so the draws' order is free; sorted draws
    # walk the cumulative table in one direction.
    draws = np.sort(rng.random(n))
    states = np.searchsorted(cdf, draws, side="right")
    # cdf[-1] may end below 1: later draws take the last state of positive weight.
    np.clip(states, 0, np.flatnonzero(probs)[-1], out=states)
    flags = qr_operator(g).astype(float)
    estimate = float(np.mean(flags[states]))
    stderr = math.sqrt(estimate * (1.0 - estimate) / n)
    return BornEstimate(estimate, stderr)


def frontier_tables_oracle(g: Graph, u):
    """The tables of ``frontier_lists`` as int32 arrays, by a walk over label tuples and dict keys.

    Search states are numbered by first appearance as their successors are
    built, state by state, edge absent before edge present.
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


def rejection(fn, *args) -> tuple[str, int]:
    """Code of the ``QrelnetError`` that ``fn(*args)`` raises, and the peak bytes it traced."""
    tracemalloc.start()
    try:
        fn(*args)
    except QrelnetError as exc:
        return exc.code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    raise AssertionError(f"{fn.__name__}{args!r} raised nothing")


def horizontal_first_grid(rows: int, cols: int) -> Graph:
    """Grid with every horizontal edge listed before any vertical one (a wide frontier)."""
    name = lambda r, c: f"g{r}_{c}"
    vertices = tuple(name(r, c) for r in range(rows) for c in range(cols))
    edges = [(name(r, c), name(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(name(r, c), name(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph(vertices, tuple(edges))


def amplitudes_oracle(values) -> np.ndarray:
    """Decode ``[re, im]`` pairs one entry at a time, as ``complex(re, im)``.

    Raises the parser's ``invalid_state`` errors: a malformed entry (not a
    two-number list, or a bool) or a part too large for a float.
    """
    out = []
    for obj in values:
        ok = (isinstance(obj, list) and len(obj) == 2
              and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj))
        if not ok:
            raise QrelnetError("complex numbers are [re, im] pairs", code="invalid_state")
        try:
            out.append(complex(obj[0], obj[1]))
        except OverflowError:
            raise QrelnetError("complex part too large for a float", code="invalid_state") from None
    return np.array(out, dtype=np.complex128)


def _write(value, emit) -> None:
    if value is None or value is True or value is False:
        emit("null" if value is None else ("true" if value else "false"))
    elif isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif isinstance(value, int):
        emit(str(value))
    elif isinstance(value, float):
        emit(_float_text(value))
    elif isinstance(value, dict):
        emit("{")
        first = True
        for key in sorted(value):
            if not isinstance(key, str):
                raise QrelnetError("JSON object keys must be strings", code="invalid_input")
            if not first:
                emit(",")
            first = False
            emit(encode_basestring_ascii(key))
            emit(":")
            _write(value[key], emit)
        emit("}")
    elif isinstance(value, (list, tuple)):
        # Lists of exact strs or exact ints (no bools) are one join each:
        # the bulk of a large output, such as a connectivity matrix.
        kinds = set(map(type, value))
        if kinds == {str} or kinds == {int}:
            item_text = encode_basestring_ascii if str in kinds else str
            emit("[" + ",".join(map(item_text, value)) + "]")
        else:
            emit("[")
            for i, item in enumerate(value):
                if i:
                    emit(",")
                _write(item, emit)
            emit("]")
    else:
        raise QrelnetError(f"cannot serialize {type(value).__name__}", code="invalid_input")


def dumps_canonical_oracle(value) -> str:
    """Canonical JSON by a tree walk that emits text pieces into one list."""
    out: list[str] = []
    _write(value, out.append)
    return "".join(out)
