"""The README's examples, run as written: every line it shows is what the code prints."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qrelnet.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# The input files that the CLI examples name, each as the README shows it.
FILES = {
    "triangle.json": '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}',
    "pair.json": '{"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]}',
    "swap.json": '{"type": "two_term", "zeta": "10", "chi": "01", "p": 0.3}',
    "k.json": '{"vertices": ["a", "b"], "edges": [["a", "b"]]}',
    "h.json": '{"vertices": ["a", "b", "c"], "edges": [["a", "c"], ["c", "b"]]}',
    "tagged.json": ('{"vertices": ["a", "b"],\n'
                    ' "edges": [{"endpoints": ["a", "b"], "kind": "quantum"},\n'
                    '           {"endpoints": ["a", "b"], "kind": "classical"}]}'),
    "hstate.json": '{"quantum": {"type": "product", "qubits": [{"p": 0.5}]}, "classical": [0.25]}',
}

# (arguments after "$ qrelnet", the stdout line the README prints under them)
EXAMPLES = [
    ("reliability --graph triangle.json --p 0.9,0.8,0.7",
     '{"schema":"qrelnet/1","value":0.90200000000000002}'),
    ("reliability --graph triangle.json --p 1/2,1/2,1/2 --exact",
     '{"schema":"qrelnet/1","value":"1/2"}'),
    ("qr --graph pair.json --state swap.json",
     '{"schema":"qrelnet/1","value":1.0}'),
    ("split-verify --k k.json --h h.json --shared a,b",
     '{"equal":true,"schema":"qrelnet/1"}'),
    ("hybrid --graph tagged.json --state hstate.json",
     '{"schema":"qrelnet/1","value":0.62500000000000022}'),
    ("sublayer --graph tagged.json --state hstate.json",
     '{"classical":0.25,"corrections":[{"beta":"1","gamma":[["a"],["b"]],"gamma_prime":[["a","b"]],'
     '"value":0.50000000000000011},{"beta":"-1","gamma":[["a"],["b"]],"gamma_prime":[["a"],["b"]],'
     '"value":-0.12500000000000003}],"schema":"qrelnet/1","total":0.62500000000000011}'),
    ("sample --graph pair.json --state swap.json -n 100000 --seed 42",
     '{"estimate":1.0,"n":100000,"schema":"qrelnet/1","seed":42,"stderr":0.0}'),
    ("matrix --m 2",
     '{"alpha":[[1,1],[1,0]],"beta":[["0","1"],["1","-1"]],"m":2,"order":[[["1","2"]],[["1"],["2"]]],'
     '"schema":"qrelnet/1"}'),
]


def test_every_cli_example_of_the_readme_is_pinned_here():
    shown = re.findall(r"^\$ qrelnet (.*)$", README, re.M)
    assert sorted(shown) == sorted(command for command, _ in EXAMPLES)
    for command, output in EXAMPLES:
        assert f"$ qrelnet {command}\n{output}\n" in README


def test_input_files_are_the_readme_json_blocks():
    blocks = "\n".join(re.findall(r"^```json\n(.*?)^```$", README, re.M | re.S))
    for text in FILES.values():
        assert text in blocks


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[command.split()[0] for command, _ in EXAMPLES])
def test_cli_example_prints_the_readme_line(tmp_path, monkeypatch, command, output):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    assert (code, out.getvalue(), err.getvalue()) == (0, output + "\n", "")


def test_quick_start_prints_its_comments():
    code = re.search(r"^## Quick start\n\n```python\n(.*?)^```$", README, re.M | re.S).group(1)
    namespace = {}
    exec(code, namespace)
    # Each line "expression   # value" states the repr of the expression.
    claims = re.findall(r"^([^#\s].*?)\s+# (\S+)$", code, re.M)
    assert [value for _, value in claims] == ["0.98", "1.0"]
    for expression, value in claims:
        assert repr(eval(expression, namespace)) == value
