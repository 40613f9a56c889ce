"""Graph construction, edit operations, and connectivity conventions."""

import random

import pytest

from qrelnet import (
    CapacityError,
    Graph,
    Partition,
    QrelnetError,
    contract_edge,
    delete_edge,
    edge_state_from_text,
    qr_operator,
    quotient,
    singletons,
    two_term_state,
)
from qrelnet.graphs import component_traces

from helpers import edge_state_to_text, quotient_oracle, random_graph, rejection


def triangle():
    return Graph(("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "c")))


def test_graph_rejects_duplicate_vertices():
    with pytest.raises(QrelnetError):
        Graph(("a", "a"), ())


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(QrelnetError):
        Graph(("a",), (("a", "b"),))


def test_graph_edge_cap():
    verts = ("a", "b")
    with pytest.raises(CapacityError):
        Graph(verts, tuple([("a", "b")] * 25))
    Graph(verts, tuple([("a", "b")] * 24))


def test_edge_state_text_roundtrip():
    assert edge_state_from_text("10") == 0b01
    assert edge_state_from_text("011") == 0b110
    assert edge_state_to_text(0b01, 2) == "10"
    for width in range(0, 6):
        for state in range(1 << width):
            assert edge_state_from_text(edge_state_to_text(state, width)) == state


def test_edge_state_text_rejects_junk():
    with pytest.raises(QrelnetError):
        edge_state_from_text("10x")


def test_delete_edge_shifts_indices():
    g = triangle()
    d = delete_edge(g, 1)
    assert d.edges == (("a", "b"), ("b", "c"))
    assert d.vertices == g.vertices


def test_contract_parallel_pair_leaves_loop():
    g2 = Graph(("a", "b"), (("a", "b"), ("a", "b")))
    c = contract_edge(g2, 0)
    assert c.vertices == ("a+b",)
    assert c.edges == (("a+b", "a+b"),)


def test_contract_path_edge():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    c = contract_edge(g, 0)
    assert c.vertices == ("a+b", "c")
    assert c.edges == (("a+b", "c"),)


def test_contract_loop_just_removes_it():
    g = Graph(("a", "b"), (("a", "a"), ("a", "b")))
    c = contract_edge(g, 0)
    assert c.vertices == ("a", "b")
    assert c.edges == (("a", "b"),)


def test_contract_and_delete_commute_on_distinct_edges():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_graph(rng, 5, 6, min_edges=2)
        e1, e2 = rng.sample(range(g.num_edges), 2) if g.num_edges >= 2 else (0, 0)
        if e1 == e2:
            continue
        first, second = (e1, e2) if e1 < e2 else (e2, e1)
        # Contract the later edge first so the earlier index is untouched.
        a = delete_edge(contract_edge(g, second), first)
        b = contract_edge(delete_edge(g, first), second - 1)
        assert a == b


def test_quotient_identity_under_singletons():
    g = triangle()
    assert quotient(g, ("a", "b", "c"), singletons(("a", "b", "c"))) == g


def test_quotient_merges_block_and_keeps_edge_order():
    g = triangle()
    q = quotient(g, ("a", "b"), Partition((("a", "b"),)))
    assert q.vertices == ("a+b", "c")
    assert q.edges == (("a+b", "a+b"), ("a+b", "c"), ("a+b", "c"))


def test_quotient_validates_subset_and_cover():
    g = triangle()
    with pytest.raises(QrelnetError):
        quotient(g, ("a", "z"), Partition((("a", "z"),)))
    with pytest.raises(QrelnetError):
        quotient(g, ("a", "b"), Partition((("a",),)))


def test_quotient_places_each_block_at_its_first_member():
    g = triangle()
    q = quotient(g, ("b", "c"), Partition((("b", "c"),)))
    assert q.vertices == ("a", "b+c")
    assert q.edges == (("a", "b+c"), ("a", "b+c"), ("b+c", "b+c"))
    g = Graph(("c", "x", "a", "d", "b"), (("a", "x"), ("d", "b")))
    q = quotient(g, ("a", "b", "c", "d"), Partition((("a", "b"), ("d", "c"))))
    assert q.vertices == ("c+d", "x", "a+b")
    assert q.edges == (("a+b", "x"), ("c+d", "a+b"))


# Vertex names for the differential cases; several are the merged names of others.
NAMES = ("a", "b", "c", "d", "a+b", "b+c", "a+b+c", "c+d", "+", "a+", "+b")


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, code and message of the ``QrelnetError`` it raises."""
    try:
        return fn(*args)
    except QrelnetError as exc:
        return type(exc), exc.code, str(exc)


def _quotient_cases():
    """Fixed edge cases, then seeded random graphs on ``NAMES`` with a subset and a partition of it.

    The random graphs have loops, parallel edges and isolated vertices, and
    their vertex order is shuffled.  About one subset in eight has a vertex
    the graph lacks, and about one partition in eight leaves out a vertex of
    its subset or has one more.
    """
    tri = triangle()
    yield Graph((), ()), (), Partition(())
    yield tri, ("a", "b", "c"), singletons(("a", "b", "c"))
    yield tri, ("a", "z"), Partition((("a", "z"),))
    yield tri, ("a", "b"), Partition((("a",),))
    yield tri, ("a",), Partition((("a", "b"),))
    yield Graph(("a", "b", "a+b", "c"), (("a", "b"), ("a+b", "c"))), ("a", "b"), Partition((("a", "b"),))
    yield Graph(("b", "a", "a+b"), ()), ("a", "b", "a+b"), Partition((("a", "b"), ("a+b",)))
    rng = random.Random(30)
    for _ in range(3000):
        vertices = tuple(rng.sample(NAMES, rng.randint(0, len(NAMES))))
        edges = []
        for _ in range(rng.randint(0, 8) if vertices else 0):
            a = rng.choice(vertices)
            edges.append((a, a) if rng.random() < 0.15 else (a, rng.choice(vertices)))
            if rng.random() < 0.2:
                edges.append(edges[-1])
        u = [v for v in vertices if rng.random() < 0.6]
        if rng.random() < 0.125:
            u.append("z")
        ground = list(u)
        if rng.random() < 0.125:
            if ground and rng.random() < 0.5:
                ground.pop(rng.randrange(len(ground)))
            else:
                ground.append(rng.choice(NAMES + ("y",)))
        blocks: dict[int, list[str]] = {}
        for v in dict.fromkeys(ground):
            blocks.setdefault(rng.randrange(max(1, len(ground) // 2)), []).append(v)
        yield Graph(vertices, tuple(edges)), tuple(u), Partition(tuple(blocks.values()))


def _contract_oracle(g: Graph, e: int) -> Graph:
    rest = delete_edge(g, e)
    a, b = g.edges[e]
    return rest if a == b else quotient_oracle(rest, (a, b), Partition(((a, b),)))


def test_quotient_and_contract_edge_match_the_block_index_route():
    seen = set()
    for g, u, gamma in _quotient_cases():
        got = _outcome(quotient, g, u, gamma)
        assert got == _outcome(quotient_oracle, g, u, gamma), (g, u, gamma)
        seen.add(got[1:] if isinstance(got, tuple) else "graph")
        for e in range(-1, g.num_edges + 1):
            assert _outcome(contract_edge, g, e) == _outcome(_contract_oracle, g, e), (g, e)
    # Every outcome occurs: a quotient, an unknown vertex, a bad cover and a name collision.
    assert seen == {"graph", ("invalid_partition", "subset mentions a vertex not in the graph"),
                    ("invalid_partition", "partition does not cover exactly the given subset"),
                    ("invalid_graph", "duplicate vertex names")}


def test_connectivity_conventions():
    assert qr_operator(Graph((), ())).tolist() == [1]
    assert qr_operator(Graph(("a",), ())).tolist() == [1]
    assert qr_operator(Graph(("a", "b"), ())).tolist() == [0]
    loop_only = Graph(("a", "b"), (("a", "a"),))
    assert qr_operator(loop_only).tolist() == [0, 0]


def test_one_kept_vertex_makes_the_trace_ids_the_flags():
    # A partition of one vertex is unique, so at most one final state is
    # live, and it is numbered 1: qr_operator reads the ids as flags.
    rng = random.Random(17)
    stranded = Graph(("a", "b", "c"), (("a", "b"), ("b", "a")))
    graphs = [Graph((), ()), Graph(("a",), ()), Graph(("a",), (("a", "a"),)), stranded, triangle()]
    graphs += [random_graph(rng, 6, 9) for _ in range(60)]
    for g in graphs:
        ids, finals = component_traces(g, g.vertices[:1])
        assert set(ids.tolist()) <= {0, 1}
        assert sum(f is not None for f in finals[1:]) <= 1
        assert qr_operator(g).tolist() == ids.tolist()
    assert qr_operator(stranded).tolist() == [0] * 4


def test_component_trace_island_example():
    g = Graph(("a", "b", "c"), (("a", "b"),))
    # c is stranded: no partition of u can ever absorb it.
    ids, finals = component_traces(g, ("a", "b"))
    assert finals[ids[0b1]] is None
    ids, finals = component_traces(g, ("a", "b", "c"))
    assert finals[ids[0b1]] == Partition((("a", "b"), ("c",)))


@pytest.mark.parametrize("fn, args, expected", [
    (two_term_state, (Graph(("a", "b"), (("a", "b"),)), True, 0, 0.5), "invalid_state"),
    (edge_state_to_text, (4, 2), "width_mismatch"),
    (contract_edge, (Graph(("a", "b"), (("a", "b"),)), 1), "invalid_edge"),
    (delete_edge, (Graph(("a", "b"), (("a", "b"),)), -1), "invalid_edge"),
    (component_traces, (Graph(("a", "b"), (("a", "b"),)), ["zz"]), "invalid_partition"),
    # The merged name "a+b" is another vertex's; merging that one too would connect the graph.
    (contract_edge, (Graph(("a", "b", "a+b", "c"), (("a", "b"), ("a+b", "c"))), 0), "invalid_graph"),
], ids=lambda x: getattr(x, "__name__", None))
def test_graph_guards(fn, args, expected):
    code, peak = rejection(fn, *args)
    assert code == expected and peak < 1 << 20
