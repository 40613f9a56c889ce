"""Shared test utilities: random instances and independent oracles.

The oracles deliberately use different algorithms than the library (breadth
first search and networkx instead of frontier tables, block-graph closure
instead of label union, pairwise merges and elimination instead of the
Moebius closed form, rational loops instead of integer products, a per-state
loop and the plain deletion/contraction recursion instead of vectorized
enumeration and the frontier dynamic program, one quotient graph per
partition instead of one frontier pass per side) so agreement is evidence,
not tautology.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

import networkx as nx

from qrelnet import (
    Graph,
    Partition,
    contract_edge,
    delete_edge,
    enumerate_partitions,
    qr_operator,
    quotient,
    single_block,
    singletons,
)


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
                 min_side_edges: int = 1):
    """Random (k, h, shared) with vertex overlap exactly the shared set.

    Each side gets at least ``min_side_edges`` edges; extra vertices may be
    left without any edge.
    """
    shared = [f"s{i}" for i in range(num_shared)]
    k_extra = [f"k{i}" for i in range(rng.randint(0, max_side_extra))]
    h_extra = [f"h{i}" for i in range(rng.randint(0, max_side_extra))]
    k_verts = tuple(shared + k_extra)
    h_verts = tuple(shared + h_extra)
    total = rng.randint(2, max_total_edges)
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
    assert cm.scaled[ti].tolist() == [den if j == fi else 0 for j in range(n)]
    assert cm.scaled.sum(axis=1).tolist() == [den if i == ti else 0 for i in range(n)]


def split_diag_fraction_loop(k: Graph, h: Graph, shared) -> list:
    """The splitting sum over (gamma, gamma') in nested rational loops, k-major.

    The weights come from elimination on the pairwise-merge alpha.
    """
    parts = enumerate_partitions(shared)
    beta = invert_exact(pairwise_merge_alpha(parts))
    nb = len(parts)
    kd = [qr_operator(quotient(k, shared, p)).diag.tolist() for p in parts]
    hd = [qr_operator(quotient(h, shared, p)).diag.tolist() for p in parts]
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


def split_terms_oracle(shared, left, right) -> list[tuple]:
    """``(gamma, gamma', beta, float(beta) * left[i] * right[j])`` per nonzero weight.

    Row by row over beta, here from elimination on the pairwise-merge alpha.
    """
    parts = enumerate_partitions(shared)
    beta = invert_exact(pairwise_merge_alpha(parts))
    return [(parts[i], parts[j], b, float(b) * left[i] * right[j])
            for i, row in enumerate(beta) for j, b in enumerate(row) if b]


def sum_in_order(values) -> float:
    """Float sum strictly left to right, the same on every Python version."""
    total = 0.0
    for v in values:
        total += v
    return total
