"""In-process span tracing of ``qrelnet``'s public functions, from outside.

``Tracer.install`` rebinds each traced function in every ``qrelnet.*``
namespace that holds it, so internal calls (``hybrid`` -> ``qr_operator``)
are caught as well as the CLI's own.  Each call records a span: name, start,
end, parent span and the job it ran in.  Recursion helpers
(``contract_edge`` / ``delete_edge``) only bump a counter; a span per call
would cost more than the work it measures.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import types
from collections import Counter
from time import perf_counter

MODULES = ("qrelnet", "qrelnet.cli", "qrelnet.serialize", "qrelnet.states", "qrelnet.graphs",
           "qrelnet.partitions", "qrelnet.operators", "qrelnet.classical", "qrelnet.hybrid")


def _input_bytes(c, args, result):
    c["cli.input_bytes"] += os.path.getsize(args[0])


def _output_bytes(c, args, result):
    c["serialize.output_bytes"] += len(result)


def _quotient(c, args, result):
    c["graphs.quotient_calls"] += 1


def _matrix(c, args, result):
    c["partitions.matrix_calls"] += 1
    c["partitions.bell_sum"] += len(result.order)
    c["partitions.beta_nonzero"] += sum(1 for row in result.beta for x in row if x)


def _qr_operator(c, args, result):
    c["operators.qr_operator_calls"] += 1
    c["operators.diag_states"] += 1 << args[0].num_edges


def _born_sample(c, args, result):
    c["operators.samples"] += args[2]


def _enumerate(c, args, result):
    c["classical.enumerate_calls"] += 1
    c["classical.enumerate_states"] += 1 << args[0].num_edges


def _sublayer(c, args, result):
    c["hybrid.corrections"] += len(result.corrections)


# (module, function, span name, counter hook run after the call).  The CLI
# calls every traced function positionally, which the hooks rely on.
SPANS = (
    ("cli", "main", "cli.self", None),
    ("cli", "_load_json", "cli.json_load", _input_bytes),
    ("serialize", "parse_graph", "serialize.parse", None),
    ("serialize", "parse_tagged_graph", "serialize.parse", None),
    ("serialize", "parse_state", "serialize.parse", None),
    ("serialize", "parse_hybrid_state", "serialize.parse", None),
    ("serialize", "parse_probability_list", "serialize.parse", None),
    ("serialize", "dumps_canonical", "serialize.dumps", _output_bytes),
    ("states", "product_state", "states.build", None),
    ("states", "two_term_state", "states.build", None),
    ("graphs", "quotient", "graphs.quotient", _quotient),
    ("partitions", "enumerate_partitions", "partitions.enumerate", None),
    ("partitions", "matrix_for_order", "partitions.matrix", _matrix),
    ("partitions", "connectivity_matrix", "partitions.connectivity", None),
    ("operators", "qr_operator", "operators.qr_operator", _qr_operator),
    ("operators", "qr_value", "operators.qr_value", None),
    ("operators", "split_operator", "operators.split_contract", None),
    ("operators", "verify_split", "operators.verify_compare", None),
    ("operators", "born_sample", "operators.sample_self", _born_sample),
    ("classical", "reliability_enumerate", "classical.enumerate", _enumerate),
    ("classical", "reliability_factorize", "classical.factorize", None),
    ("hybrid", "hybrid_qr", "hybrid.contract", None),
    ("hybrid", "sublayer_qr", "hybrid.contract", _sublayer),
    ("hybrid", "canonical_decomposition", "hybrid.decompose", None),
)
COUNTED = (("graphs", "contract_edge", "classical.factorize_branches"),
           ("graphs", "delete_edge", "classical.factorize_branches"))

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))
COUNTER_NAMES = ("cli.input_bytes", "serialize.output_bytes", "graphs.quotient_calls",
                 "partitions.matrix_calls", "partitions.bell_sum", "partitions.beta_nonzero",
                 "operators.qr_operator_calls", "operators.diag_states", "operators.samples",
                 "classical.enumerate_calls", "classical.enumerate_states",
                 "classical.factorize_branches", "hybrid.corrections")


class Tracer:
    """Collects spans ``[name, start, end, parent, job]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _spanned(self, fn, name, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for mod, fn_name, name, hook in SPANS:
            fn = getattr(importlib.import_module(f"qrelnet.{mod}"), fn_name)
            wrappers[fn] = self._spanned(fn, name, hook)
        for mod, fn_name, name in COUNTED:
            fn = getattr(importlib.import_module(f"qrelnet.{mod}"), fn_name)
            wrappers[fn] = self._counted(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: self seconds, total seconds and call count.

        Self time is a span's duration minus its direct children's.  Total
        time counts a span only when no enclosing span has the same name, so
        nested parses are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["self_s"] += end - start - child[i]
            row["calls"] += 1
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        return out
