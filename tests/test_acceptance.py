"""Acceptance gate: ten behavior checks, one printed pass/fail line each.

Every check runs against a fixed seed and a pinned tolerance, and every
check carries a wall-clock budget.  The printed lines are the scoreboard;
the asserts make pytest agree with it.
"""

import contextlib
import io
import json
import math
import random
import time

from qrelnet import (
    Graph,
    HybridState,
    QubitSpec,
    born_sample,
    canonical_decomposition,
    connectivity_matrix,
    contract_edge,
    delete_edge,
    hybrid_qr,
    o_gamma_operator,
    product_state,
    qr_operator,
    qr_split_value,
    qr_value,
    quotient,
    random_state,
    reliability_enumerate,
    reliability_factorize,
    sublayer_qr,
    two_term_state,
    union_graph,
    verify_split,
)
from qrelnet.cli import main as cli_main

from helpers import assert_beta_identities, random_graph, random_probabilities, random_split


def _run(number, label, budget_seconds, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"\nFAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"\n{verdict} criterion {number}: {label} ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"criterion {number} blew its {budget_seconds}s budget: {elapsed:.2f}s"


def _side_edges(rng, verts, count):
    edges = []
    for _ in range(count):
        a = rng.choice(verts)
        b = a if rng.random() < 0.06 else rng.choice(verts)
        edges.append((a, b))
    return tuple(edges)


# 1. Reference tables ------------------------------------------------------

GOLDEN_ORDER = [
    [["1"], ["2"], ["3"]],
    [["1"], ["2", "3"]],
    [["1", "3"], ["2"]],
    [["1", "2"], ["3"]],
    [["1", "2", "3"]],
]
GOLDEN_ALPHA = [
    [0, 0, 0, 0, 1],
    [0, 0, 1, 1, 1],
    [0, 1, 0, 1, 1],
    [0, 1, 1, 0, 1],
    [1, 1, 1, 1, 1],
]
GOLDEN_BETA = [
    ["1/2", "-1/2", "-1/2", "-1/2", "1"],
    ["-1/2", "-1/2", "1/2", "1/2", "0"],
    ["-1/2", "1/2", "-1/2", "1/2", "0"],
    ["-1/2", "1/2", "1/2", "-1/2", "0"],
    ["1", "0", "0", "0", "0"],
]


def test_criterion_01_reference_connectivity_tables():
    def check():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["matrix", "--m", "3", "--paper-order"])
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["order"] == GOLDEN_ORDER
        assert payload["alpha"] == GOLDEN_ALPHA
        assert payload["beta"] == GOLDEN_BETA
        assert payload["beta"][0] == ["1/2", "-1/2", "-1/2", "-1/2", "1"]
        assert payload["beta"][-1] == ["1", "0", "0", "0", "0"]

    _run(1, "reference connectivity tables reproduced exactly", 1.0, check)


# 2. Entangled pair values -------------------------------------------------


def test_criterion_02_entangled_pair_values():
    def check():
        g2 = Graph(("a", "b"), (("a", "b"), ("a", "b")))
        op = qr_operator(g2)
        rng = random.Random(202)
        for _ in range(20):
            p = rng.uniform(0.02, 0.98)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(math.cos(theta), math.sin(theta))
            both_or_none = two_term_state(g2, 0b11, 0b00, p, z)
            one_each_way = two_term_state(g2, 0b01, 0b10, p, z)
            assert abs(qr_value(op, both_or_none) - p) <= 1e-12
            assert abs(qr_value(op, one_each_way) - 1.0) <= 1e-12

    _run(2, "entangled pair values exact for random (p, z)", 1.0, check)


# 3. Product states match classical reliability ----------------------------


def test_criterion_03_product_states_match_classical():
    def check():
        rng = random.Random(303)
        for _ in range(200):
            g = random_graph(rng, 6, 10, min_edges=1)
            probs = random_probabilities(rng, g.num_edges)
            by_enum = reliability_enumerate(g, probs)
            by_factor = reliability_factorize(g, probs)
            assert abs(by_enum - by_factor) <= 1e-12
            psi = product_state([QubitSpec(p) for p in probs])
            assert abs(qr_value(qr_operator(g), psi) - by_enum) <= 1e-10

    _run(3, "product states match classical reliability", 30.0, check)


# 4. Splitting operator exactness ------------------------------------------


def test_criterion_04_splitting_exactness():
    def check():
        # Two parallel edges cut at both endpoints.
        single = Graph(("a", "b"), (("a", "b"),))
        assert verify_split(single, single, ["a", "b"])
        # Triangle cut into an edge and a two-edge path.
        path = Graph(("a", "b", "c"), (("a", "c"), ("c", "b")))
        assert verify_split(single, path, ["a", "b"])
        rng = random.Random(404)
        for _ in range(100):
            k, h, shared = random_split(rng, rng.randint(2, 4), 3, 10)
            assert verify_split(k, h, shared)

    _run(4, "splitting operator equals the direct operator exactly", 60.0, check)


# 5. Component projector identities ----------------------------------------


def test_criterion_05_component_projector_identities():
    def check():
        rng = random.Random(505)
        for _ in range(50):
            m = rng.randint(1, 4)
            shared = [f"s{i}" for i in range(m)]
            k_verts = tuple(shared + [f"k{i}" for i in range(rng.randint(0, 2))])
            h_verts = tuple(shared + [f"h{i}" for i in range(rng.randint(0, 3))])
            k = Graph(k_verts, _side_edges(rng, k_verts, rng.randint(1, 4)))
            h = Graph(h_verts, _side_edges(rng, h_verts, rng.randint(0, 8)))
            cm = connectivity_matrix(shared)
            ogs = [o_gamma_operator(h, shared, gamma).diag.tolist() for gamma in cm.order]
            # Every quotient projector on the classical side is the
            # alpha-weighted sum of component projectors, entry by entry.
            for j, gamma_prime in enumerate(cm.order):
                direct = qr_operator(quotient(h, shared, gamma_prime)).diag.tolist()
                for s in range(h.num_states):
                    total = sum(cm.alpha[j][i] * ogs[i][s] for i in range(len(cm.order)))
                    assert total == direct[s]
            # The glued projector is the sum of quotient-projector tensor
            # component-projector blocks, with integer equality.
            g = union_graph(k, h, shared)
            direct_union = qr_operator(g).diag.tolist()
            assembled = [0] * g.num_states
            for i, gamma in enumerate(cm.order):
                dk = qr_operator(quotient(k, shared, gamma)).diag.tolist()
                for ik, bit in enumerate(dk):
                    if not bit:
                        continue
                    base = ik << h.num_edges
                    row = ogs[i]
                    for ih in range(h.num_states):
                        assembled[base + ih] += row[ih]
            assert assembled == direct_union

    _run(5, "component projector identities hold exactly", 30.0, check)


# 6. Single-edge cut factorization -----------------------------------------


def test_criterion_06_single_edge_cut_factorization():
    def check():
        rng = random.Random(606)
        shared = ["s0", "s1"]
        k = Graph(("s0", "s1"), (("s0", "s1"),))
        for _ in range(50):
            h_verts = tuple(shared + [f"h{i}" for i in range(rng.randint(0, 3))])
            h = Graph(h_verts, _side_edges(rng, h_verts, rng.randint(1, 8)))
            p = rng.uniform(0.0, 1.0)
            probs = random_probabilities(rng, h.num_edges)
            value = qr_split_value(k, h, shared, product_state([QubitSpec(p)]),
                                   product_state([QubitSpec(r) for r in probs]))
            g = union_graph(k, h, shared)
            cut = h.num_edges
            oracle = p * reliability_enumerate(contract_edge(g, cut), probs) \
                + (1.0 - p) * reliability_enumerate(delete_edge(g, cut), probs)
            assert abs(value - oracle) <= 1e-12

    _run(6, "single-edge cut reduces to contract/delete mixture", 10.0, check)


# 7. Sublayer decomposition totals -----------------------------------------


def _random_sublayer(rng):
    nv = rng.randint(2, 5)
    verts = [f"v{i}" for i in range(nv)]
    chain = verts[:]
    rng.shuffle(chain)
    edges = []
    kinds = []
    # Classical edges cover every vertex, so the quantum piece sits inside.
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
        kinds.append("classical")
    for _ in range(rng.randint(0, 3)):
        edges.append((rng.choice(verts), rng.choice(verts)))
        kinds.append("classical")
    for _ in range(rng.randint(1, 3)):
        edges.append((rng.choice(verts), rng.choice(verts)))
        kinds.append("quantum")
    g = Graph(tuple(verts), tuple(edges))
    return canonical_decomposition(g, kinds)


def test_criterion_07_sublayer_totals():
    def check():
        rng = random.Random(707)
        for i in range(50):
            d = _random_sublayer(rng)
            probs = tuple(rng.random() for _ in range(d.classical.num_edges))
            live = HybridState(random_state(d.quantum.num_edges, seed=7000 + i), probs)
            result = sublayer_qr(d, live)
            assert abs(result.total - hybrid_qr(d, live)) <= 1e-10
            idle = HybridState(product_state([QubitSpec(0.0)] * d.quantum.num_edges), probs)
            idle_result = sublayer_qr(d, idle)
            assert sum(term.value for term in idle_result.corrections) == 0.0
            assert idle_result.total == idle_result.classical
            assert idle_result.classical == float(reliability_enumerate(d.classical, list(probs)))

    _run(7, "sublayer corrections reconcile with the one-shot value", 30.0, check)


# 8. Imperfect-node replacement --------------------------------------------


def _gadget_instance(rng, n):
    spokes = [f"u{i}" for i in range(n)]
    extras = [f"w{i}" for i in range(rng.randint(0, 2))]
    host = spokes + extras
    host_edges = _side_edges(rng, host, rng.randint(1, 8 - n))
    host_probs = random_probabilities(rng, len(host_edges))
    gadget = [f"g{i}" for i in range(n)]
    edges = []
    kinds = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((gadget[i], gadget[j]))
            kinds.append("quantum")
    for i in range(n):
        edges.append((gadget[i], spokes[i]))
        kinds.append("classical")
    edges.extend(host_edges)
    kinds.extend("classical" for _ in host_edges)
    g = Graph(tuple(gadget + host), tuple(edges))
    d = canonical_decomposition(g, kinds)
    # Hub links stay perfect; only the node itself and the rest of the
    # host carry randomness.
    classical_probs = tuple([1.0] * n + host_probs)
    return d, classical_probs, host, spokes, host_edges, host_probs


def test_criterion_08_imperfect_node_replacement():
    def check():
        rng = random.Random(808)
        for n in (3, 4):
            for _ in range(20):
                d, cps, host, spokes, host_edges, host_probs = _gadget_instance(rng, n)
                p = rng.uniform(0.0, 1.0)
                theta = rng.uniform(0.0, 2.0 * math.pi)
                z = complex(math.cos(theta), math.sin(theta))
                psi = two_term_state(d.quantum, d.quantum.num_states - 1, 0, p, z)
                value = hybrid_qr(d, HybridState(psi, cps))
                hub = Graph(tuple(["hub"] + host),
                            tuple(("hub", u) for u in spokes) + tuple(host_edges))
                up = reliability_enumerate(hub, [1.0] * n + host_probs)
                down = reliability_enumerate(Graph(tuple(host), tuple(host_edges)), host_probs)
                assert abs(value - (p * up + (1.0 - p) * down)) <= 1e-10

    _run(8, "imperfect node equals its entangled replacement", 30.0, check)


# 9. Sampled estimates match exact values ----------------------------------


def test_criterion_09_sampling_consistency():
    def check():
        rng = random.Random(909)
        for _ in range(20):
            g = random_graph(rng, 5, 6, min_edges=1)
            psi = random_state(g.num_edges, seed=rng.randrange(2 ** 31))
            exact = qr_value(qr_operator(g), psi)
            seed = rng.randrange(2 ** 31)
            est = born_sample(g, psi, 100000, seed)
            assert born_sample(g, psi, 100000, seed) == est
            # 1e-12 covers rounding in the exact reference when stderr is 0.
            assert abs(est.estimate - exact) <= 3.0 * est.stderr + 1e-12

    _run(9, "sampled estimates stay within three standard errors", 30.0, check)


# 10. Inverse weight identities --------------------------------------------


def test_criterion_10_inverse_weight_identities():
    def check():
        for m in range(1, 7):
            cm = connectivity_matrix([str(i) for i in range(1, m + 1)])
            assert_beta_identities(cm)

    _run(10, "inverse weight identities hold through six shared nodes", 60.0, check)
