"""Deterministic inputs for the CLI benchmark: graphs, state files, job lists.

Every workload is a fixed list of ``qrelnet`` CLI jobs over fixed topologies.
The seed only drives values whose size does not change the work: edge
probabilities (multiples of 1/100, so exact Fractions stay comparable across
seeds), qubit phases, dense amplitudes, two-term bit strings and the
``sample`` seed.  The same seed gives byte-identical files.

Each job carries the check its answer must pass (see ``oracles.py``); the
oracle values are computed here, before any timing starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracles

DEFAULT_SEED = 0
SAMPLE_COUNT = 200_000

WORKLOADS = ("quantum_states", "classical_exact", "lattice_split")


@dataclass(frozen=True)
class Graph:
    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` names files relative to the work directory."""

    id: str
    command: str
    argv: tuple[str, ...]
    check: tuple  # (kind, *data), interpreted by oracles.check_outputs


@dataclass
class Fixture:
    workload: str
    seed: int
    files: dict[str, bytes] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)

    def write(self, directory) -> None:
        for name, data in self.files.items():
            (directory / name).write_bytes(data)


def grid(rows: int, cols: int) -> Graph:
    name = lambda r, c: f"g{r}_{c}"
    vertices = tuple(name(r, c) for r in range(rows) for c in range(cols))
    edges = [(name(r, c), name(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(name(r, c), name(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph(f"grid{rows}x{cols}", vertices, tuple(edges))


def complete(n: int) -> Graph:
    vertices = tuple(f"k{i}" for i in range(n))
    edges = tuple((vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n))
    return Graph(f"k{n}", vertices, edges)


def ladder(length: int) -> Graph:
    g = grid(2, length)
    return Graph(f"ladder2x{length}", g.vertices, g.edges)


def k5_multi() -> Graph:
    """K5 plus two parallel edges and a self-loop: 13 edges."""
    k5 = complete(5)
    v = k5.vertices
    extra = ((v[0], v[1]), (v[2], v[3]), (v[4], v[4]))
    return Graph("k5multi", v, k5.edges + extra)


# Two sides of a vertex cut for split-verify: side K uses private vertices
# a*, side H private vertices b*, and they share exactly s1..sm.
SPLIT_SIDES = {
    3: (
        (("s1", "a1"), ("a1", "s2"), ("s2", "a2"), ("a2", "s3"), ("s3", "a1"), ("a1", "a2"),
         ("s1", "s2"), ("s1", "a2")),
        (("s1", "b1"), ("b1", "s3"), ("s3", "b2"), ("b2", "s2"), ("s2", "b1"), ("b1", "b2"),
         ("s1", "b2"), ("s2", "s3")),
    ),
    4: (
        (("s1", "a1"), ("a1", "s2"), ("s2", "a2"), ("a2", "s3"), ("s3", "a1"), ("a2", "s4"),
         ("s4", "a1"), ("a1", "a2")),
        (("s1", "b1"), ("b1", "s2"), ("s2", "b2"), ("b2", "s3"), ("s3", "b1"), ("b1", "s4"),
         ("s4", "b2"), ("b1", "b2")),
    ),
}


def side_graph(name: str, edges) -> Graph:
    vertices = []
    for a, b in edges:
        for v in (a, b):
            if v not in vertices:
                vertices.append(v)
    return Graph(name, tuple(vertices), tuple(edges))


def dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def graph_json(g: Graph) -> bytes:
    return dump({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]})


def bits_text(state: int, width: int) -> str:
    return "".join("1" if state >> i & 1 else "0" for i in range(width))


class _Draw:
    """Seeded draws of the values the seed is allowed to change."""

    def __init__(self, seed: int, stream: int):
        self.rng = np.random.default_rng([seed, stream])

    def probs(self, n: int) -> list[Fraction]:
        return [Fraction(int(k), 100) for k in self.rng.integers(1, 100, size=n)]

    def phase(self) -> list[float]:
        theta = float(self.rng.uniform(0.0, 2.0 * math.pi))
        return [math.cos(theta), math.sin(theta)]

    def two_configs(self, width: int) -> tuple[int, int]:
        zeta, chi = (int(x) for x in self.rng.choice(1 << width, size=2, replace=False))
        return zeta, chi

    def amplitudes(self, width: int) -> np.ndarray:
        v = self.rng.standard_normal(1 << width) + 1j * self.rng.standard_normal(1 << width)
        return v / np.linalg.norm(v)


def product_state_json(probs, phases) -> dict:
    return {"type": "product", "qubits": [{"p": float(p), "phase": ph} for p, ph in zip(probs, phases)]}


def two_term_json(width: int, zeta: int, chi: int, p: Fraction, phase) -> dict:
    return {"type": "two_term", "zeta": bits_text(zeta, width), "chi": bits_text(chi, width),
            "p": float(p), "phase": phase}


def _quantum_states(fx: Fixture) -> None:
    draw = _Draw(fx.seed, 1)
    g34, k6, lad = grid(3, 4), complete(6), ladder(6)
    for g in (g34, k6, lad):
        fx.files[f"{g.name}.json"] = graph_json(g)
    conn = {g.name: oracles.connected_table(g.vertices, g.edges) for g in (g34, k6, lad)}

    # Product state on the 3x4 grid, shared by qr and sample.
    probs = draw.probs(len(g34.edges))
    phases = [draw.phase() for _ in probs]
    fx.files["grid3x4.product.json"] = dump(product_state_json(probs, phases))
    product_value = oracles.product_value(conn[g34.name], [float(p) for p in probs])
    fx.jobs.append(Job("qr.grid3x4.product", "qr", ("--graph", "grid3x4.json", "--state", "grid3x4.product.json"),
                       ("value", product_value)))

    # Two-term states on K6 and on the ladder.
    for g in (k6, lad):
        zeta, chi = draw.two_configs(len(g.edges))
        p = draw.probs(1)[0]
        fx.files[f"{g.name}.two_term.json"] = dump(two_term_json(len(g.edges), zeta, chi, p, draw.phase()))
        value = oracles.two_term_value(g.vertices, g.edges, zeta, chi, float(p))
        fx.jobs.append(Job(f"qr.{g.name}.two_term", "qr",
                           ("--graph", f"{g.name}.json", "--state", f"{g.name}.two_term.json"),
                           ("value", value)))

    # Dense amplitudes: 2^16 and 2^15 entries, which load the JSON parser.
    for g in (lad, k6):
        amps = draw.amplitudes(len(g.edges))
        values = [[float(a.real), float(a.imag)] for a in amps]
        fx.files[f"{g.name}.amplitudes.json"] = dump({"type": "amplitudes", "values": values})
        value = oracles.amplitudes_value(conn[g.name], amps)
        fx.jobs.append(Job(f"qr.{g.name}.amplitudes", "qr",
                           ("--graph", f"{g.name}.json", "--state", f"{g.name}.amplitudes.json"),
                           ("value", value)))

    sample_seed = int(draw.rng.integers(0, 2**31))
    fx.jobs.append(Job("sample.grid3x4.product", "sample",
                       ("--graph", "grid3x4.json", "--state", "grid3x4.product.json",
                        "-n", str(SAMPLE_COUNT), "--seed", str(sample_seed)),
                       ("sample", product_value)))


# Graphs run in floats and exact, by both methods.  The 17-edge grid runs in
# floats only, checked against the oracle: its exact runs take 4.7 s, which
# would leave too few rounds in a run.
CLASSICAL_GRAPHS = (grid(3, 3), complete(6), k5_multi())
FLOAT_ONLY_GRAPH = grid(3, 4)


def _classical_exact(fx: Fixture) -> None:
    draw = _Draw(fx.seed, 2)
    for g in CLASSICAL_GRAPHS + (FLOAT_ONLY_GRAPH,):
        fx.files[f"{g.name}.json"] = graph_json(g)
        probs = draw.probs(len(g.edges))
        exact_p = ",".join(f"{p.numerator}/{p.denominator}" for p in probs)
        float_p = ",".join(repr(float(p)) for p in probs)
        if g is FLOAT_ONLY_GRAPH:
            value = oracles.product_value(oracles.connected_table(g.vertices, g.edges), [float(p) for p in probs])
            float_checks = {"enum": ("value", value), "factor": ("value", value)}
        else:
            enum_id = f"reliability.{g.name}.enum.exact"
            fx.jobs.append(Job(enum_id, "reliability",
                               ("--graph", f"{g.name}.json", "--p", exact_p, "--method", "enum", "--exact"),
                               ("exact",)))
            fx.jobs.append(Job(f"reliability.{g.name}.factor.exact", "reliability",
                               ("--graph", f"{g.name}.json", "--p", exact_p, "--method", "factor", "--exact"),
                               ("same_as", enum_id)))
            float_checks = {"enum": ("float_of", enum_id), "factor": ("float_of", enum_id)}
        for method, check in float_checks.items():
            fx.jobs.append(Job(f"reliability.{g.name}.{method}.float", "reliability",
                               ("--graph", f"{g.name}.json", "--p", float_p, "--method", method), check))


def _lattice_split(fx: Fixture) -> None:
    draw = _Draw(fx.seed, 3)
    for m in (5, 6):
        fx.jobs.append(Job(f"matrix.m{m}", "matrix", ("--m", str(m)), ("matrix", m)))
    for m, (k_edges, h_edges) in SPLIT_SIDES.items():
        k, h = side_graph(f"split{m}.k", k_edges), side_graph(f"split{m}.h", h_edges)
        for g in (k, h):
            fx.files[f"{g.name}.json"] = graph_json(g)
        shared = ",".join(f"s{i}" for i in range(1, m + 1))
        fx.jobs.append(Job(f"split-verify.m{m}", "split-verify",
                           ("--k", f"{k.name}.json", "--h", f"{h.name}.json", "--shared", shared),
                           ("split_equal",)))

    # Sublayer: a quantum 4-cycle on the corners of a classical 3x3 grid.
    # Quantum edges come first, so bit k of a whole-graph state is quantum
    # edge k for k < 4 and classical edge k - 4 after that.
    base = grid(3, 3)
    corners = ("g0_0", "g0_2", "g2_2", "g2_0")
    q_edges = tuple((corners[i], corners[(i + 1) % 4]) for i in range(4))
    whole_edges = q_edges + base.edges
    fx.files["sublayer.json"] = dump({
        "vertices": list(base.vertices),
        "edges": [{"endpoints": list(e), "kind": "quantum"} for e in q_edges]
        + [{"endpoints": list(e), "kind": "classical"} for e in base.edges],
    })
    conn = oracles.connected_table(base.vertices, whole_edges)
    nq = len(q_edges)

    q_probs = draw.probs(nq)
    c_probs = [float(p) for p in draw.probs(len(base.edges))]
    zeta, chi = draw.two_configs(nq)
    p = draw.probs(1)[0]
    states = {
        "product": (product_state_json(q_probs, [draw.phase() for _ in q_probs]),
                    oracles.product_weights([float(x) for x in q_probs])),
        "two_term": (two_term_json(nq, zeta, chi, p, draw.phase()),
                     oracles.two_term_weights(nq, zeta, chi, float(p))),
    }
    for kind, (quantum, q_weights) in states.items():
        fx.files[f"sublayer.{kind}.json"] = dump({"quantum": quantum, "classical": c_probs})
        value = oracles.hybrid_value(conn, q_weights, c_probs)
        args = ("--graph", "sublayer.json", "--state", f"sublayer.{kind}.json")
        fx.jobs.append(Job(f"hybrid.sublayer.{kind}", "hybrid", args, ("value", value)))
        fx.jobs.append(Job(f"sublayer.sublayer.{kind}", "sublayer", args,
                           ("sublayer_total", f"hybrid.sublayer.{kind}")))


_MAKERS = {
    "quantum_states": _quantum_states,
    "classical_exact": _classical_exact,
    "lattice_split": _lattice_split,
}


def build(workload: str, seed: int) -> Fixture:
    """Input files, jobs and oracle values of one workload at one seed."""
    fx = Fixture(workload, seed)
    _MAKERS[workload](fx)
    return fx


# The set-up probe: interpreter start, ``import qrelnet`` and argparse.
SETUP_JOB = Job("setup.matrix.m1", "matrix", ("--m", "1"), ("matrix", 1))
