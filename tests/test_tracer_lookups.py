"""The names that the benchmark's tracer looks up in ``qrelnet``.

``perfbench/tracer.py`` finds every function it wraps by ``(module, name)``
with ``getattr`` and reads ``ConnectivityMatrix.beta`` in a counter hook, so
a renamed or deleted one would otherwise fail only a traced benchmark run.
The tracer is loaded from its path without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

from qrelnet import connectivity_matrix

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()
LOOKUPS = [(module, name) for module, name, *_ in tracer.SPANS + tracer.COUNTED]


def test_the_tracer_looks_up_names_in_the_modules_it_rebinds():
    assert LOOKUPS
    for module in tracer.MODULES:
        importlib.import_module(module)
    assert {f"qrelnet.{module}" for module, _ in LOOKUPS} <= set(tracer.MODULES)


@pytest.mark.parametrize("module, name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_every_traced_name_is_a_function_of_its_module(module, name):
    fn = getattr(importlib.import_module(f"qrelnet.{module}"), name, None)
    assert isinstance(fn, types.FunctionType), f"qrelnet.{module}.{name}"


def test_the_tracer_can_read_beta():
    cm = connectivity_matrix(["1", "2", "3"])
    assert sum(1 for row in cm.beta for x in row if x) == sum(1 for _ in cm.weight_pairs()) > 0
