"""Answer checks for the CLI benchmark, by routes other than the one under test.

Connectivity here is breadth-first reachability from the first vertex, never
the package's union-find: per state for single configurations, and
vectorized over all states with numpy for whole tables.  Cross-job checks
compare two routes of the package itself (enumeration against
deletion/contraction, floats against exact rationals, ``sublayer`` against
``hybrid``).
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

import numpy as np

VALUE_TOL = 1e-9
FLOAT_REL_TOL = 1e-12
SAMPLE_STDERRS = 5


def connected(vertices, edges, state: int) -> bool:
    """Whether the edges active in ``state`` join every vertex, by BFS."""
    index = {v: i for i, v in enumerate(vertices)}
    adj = [[] for _ in vertices]
    for i, (a, b) in enumerate(edges):
        if state >> i & 1:
            adj[index[a]].append(index[b])
            adj[index[b]].append(index[a])
    seen = {0}
    queue = deque([0])
    while queue:
        for y in adj[queue.popleft()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(vertices)


def connected_table(vertices, edges) -> np.ndarray:
    """``connected`` for every state at once: reachability sets as bitmasks."""
    index = {v: i for i, v in enumerate(vertices)}
    nv = len(vertices)
    if nv > 62:
        raise ValueError("reachability bitmasks hold at most 62 vertices")
    states = np.arange(1 << len(edges), dtype=np.int64)
    active = [(states >> e) & 1 for e in range(len(edges))]
    reached = np.ones_like(states)
    while True:
        before = reached.copy()
        for e, (a, b) in enumerate(edges):
            ia, ib = index[a], index[b]
            reached |= (((reached >> ia) & active[e]) << ib) | (((reached >> ib) & active[e]) << ia)
        if np.array_equal(before, reached):
            return reached == (1 << nv) - 1


def product_weights(probs) -> np.ndarray:
    """Bernoulli weight of every state; edge k is bit k."""
    w = np.ones(1)
    for p in probs:
        w = np.kron(np.array([1.0 - p, p]), w)
    return w


def two_term_weights(width: int, zeta: int, chi: int, p: float) -> np.ndarray:
    w = np.zeros(1 << width)
    w[zeta], w[chi] = p, 1.0 - p
    return w


def product_value(conn: np.ndarray, probs) -> float:
    return float(np.sum(product_weights(probs)[conn]))


def two_term_value(vertices, edges, zeta: int, chi: int, p: float) -> float:
    return p * connected(vertices, edges, zeta) + (1.0 - p) * connected(vertices, edges, chi)


def amplitudes_value(conn: np.ndarray, amps: np.ndarray) -> float:
    return float(np.sum(np.abs(amps[conn]) ** 2))


def hybrid_value(conn: np.ndarray, quantum_weights: np.ndarray, classical_probs) -> float:
    """Quantum edges in the low bits, classical edges in the high bits."""
    return float(np.sum(np.kron(product_weights(classical_probs), quantum_weights)[conn]))


def bell(m: int) -> int:
    return sum(math.comb(m - 1, k) * bell(k) for k in range(m)) if m else 1


def _matrix_error(doc: dict, m: int) -> str | None:
    """alpha . (beta . x) must give back x exactly, for an integer x."""
    n = bell(m)
    if doc.get("m") != m or len(doc["order"]) != n or len(doc["alpha"]) != n:
        return f"expected {n} partitions of {m} elements"
    x = list(range(1, n + 1))
    bx = [sum(Fraction(b) * xj for b, xj in zip(row, x) if b != "0") for row in doc["beta"]]
    abx = [sum(v for a, v in zip(row, bx) if a) for row in doc["alpha"]]
    return None if abx == x else "alpha.(beta.x) != x"


def check_outputs(jobs, outputs: dict) -> dict:
    """Error text per failed job id; ``outputs`` maps id -> (code, stdout, stderr)."""
    docs, errors = {}, {}
    for job in jobs:
        code, out, err = outputs[job.id]
        if code != 0 or err:
            errors[job.id] = f"exit {code}, stderr {err[:200]!r}"
            continue
        try:
            docs[job.id] = json.loads(out)
        except ValueError as exc:
            errors[job.id] = f"unparsable stdout: {exc}"
    for job in jobs:
        if job.id in errors:
            continue
        try:
            problem = _check(job.check, docs[job.id], docs)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            errors[job.id] = problem
    return errors


def _check(check: tuple, doc: dict, docs: dict) -> str | None:
    kind, *data = check
    if kind == "value":
        (expected,) = data
        got = doc["value"]
        return None if abs(got - expected) <= VALUE_TOL else f"value {got!r} != oracle {expected!r}"
    if kind == "sample":
        (expected,) = data
        est, stderr = doc["estimate"], doc["stderr"]
        ok = abs(est - expected) <= SAMPLE_STDERRS * stderr
        return None if ok else f"estimate {est!r} is more than {SAMPLE_STDERRS} stderr from {expected!r}"
    if kind == "exact":
        Fraction(doc["value"])
        return None
    if kind == "same_as":
        (other,) = data
        return None if doc["value"] == docs[other]["value"] else f"{doc['value']} != {other}"
    if kind == "float_of":
        (other,) = data
        exact = float(Fraction(docs[other]["value"]))
        got = doc["value"]
        ok = abs(got - exact) <= FLOAT_REL_TOL * abs(exact)
        return None if ok else f"float {got!r} != float(exact) {exact!r}"
    if kind == "split_equal":
        return None if doc["equal"] is True else "split operator differs from the direct one"
    if kind == "matrix":
        return _matrix_error(doc, *data)
    if kind == "sublayer_total":
        (other,) = data
        total, direct = doc["total"], docs[other]["value"]
        return None if abs(total - direct) <= VALUE_TOL else f"total {total!r} != hybrid {direct!r}"
    raise ValueError(f"unknown check {kind!r}")
