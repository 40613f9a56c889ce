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
    edge_state_to_text,
    qr_operator,
    quotient,
    singletons,
    vertex_partition_map,
)
from qrelnet.graphs import component_traces

from helpers import random_graph


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


def test_vertex_partition_map_is_contiguous():
    g = triangle()
    vpm = vertex_partition_map(g, ("b", "c"), Partition((("b", "c"),)))
    assert vpm == {"a": 0, "b": 1, "c": 1}


def test_connectivity_conventions():
    assert qr_operator(Graph((), ())).diag.tolist() == [1]
    assert qr_operator(Graph(("a",), ())).diag.tolist() == [1]
    assert qr_operator(Graph(("a", "b"), ())).diag.tolist() == [0]
    loop_only = Graph(("a", "b"), (("a", "a"),))
    assert qr_operator(loop_only).diag.tolist() == [0, 0]


def test_component_trace_island_example():
    g = Graph(("a", "b", "c"), (("a", "b"),))
    # c is stranded: no partition of u can ever absorb it.
    ids, finals = component_traces(g, ("a", "b"))
    assert finals[ids[0b1]] is None
    ids, finals = component_traces(g, ("a", "b", "c"))
    assert finals[ids[0b1]] == Partition((("a", "b"), ("c",)))
