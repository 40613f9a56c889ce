"""Shared test utilities: random instances and independent oracles.

The oracles deliberately use different algorithms than the library (breadth
first search instead of union-find, block-graph closure instead of label
union, pairwise merges and elimination instead of the Moebius closed form,
rational loops instead of integer products) so agreement is evidence, not
tautology.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from qrelnet import Graph, Partition, enumerate_partitions, qr_operator, quotient


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


def random_split(rng, num_shared: int, max_side_extra: int, max_total_edges: int):
    """Random (k, h, shared) with vertex overlap exactly the shared set."""
    shared = [f"s{i}" for i in range(num_shared)]
    k_extra = [f"k{i}" for i in range(rng.randint(0, max_side_extra))]
    h_extra = [f"h{i}" for i in range(rng.randint(0, max_side_extra))]
    k_verts = tuple(shared + k_extra)
    h_verts = tuple(shared + h_extra)
    total = rng.randint(2, max_total_edges)
    nk = rng.randint(1, total - 1)

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


def split_diag_fraction_loop(k: Graph, h: Graph, shared) -> list:
    """The splitting sum over (gamma, gamma') in nested rational loops, k-major.

    The weights come from elimination on the pairwise-merge alpha.
    """
    parts = enumerate_partitions(shared)
    beta = invert_exact(pairwise_merge_alpha(parts))
    nb = len(parts)
    kd = [qr_operator(quotient(k, shared, p)).diag for p in parts]
    hd = [qr_operator(quotient(h, shared, p)).diag for p in parts]
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
