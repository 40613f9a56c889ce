"""Command-line front end: JSON files in, one canonical JSON object out.

Exit codes: 0 on success, 2 for rejected input (bad JSON, bad widths, caps,
usage), 1 for internal faults.  Errors are a single JSON object on stderr
with a stable ``code`` field; results go to stdout and nothing else does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Before anything in this process imports numpy: OpenBLAS reads this once,
# when it loads.  qrelnet makes no BLAS call (it has no matrix product), so
# one thread changes no output byte and starts no worker pool; a user's
# value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import CapacityError, QrelnetError
from .serialize import (
    SCHEMA,
    dumps_canonical,
    parse_graph,
    parse_hybrid_state,
    parse_probability_list,
    parse_state,
    parse_tagged_graph,
    partition_to_json,
    rational_text,
)

if TYPE_CHECKING:
    from .graphs import Graph

ENV_CAP = "QRELNET_MAX_EDGES"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise QrelnetError(message, code="usage")


def _edge_cap() -> int:
    from .graphs import MAX_EDGES

    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return MAX_EDGES
    try:
        cap = int(raw)
    except ValueError:
        raise QrelnetError(f"{ENV_CAP} must be an integer, got {raw!r}", code="usage") from None
    if cap < 0:
        raise QrelnetError(f"{ENV_CAP} must be non-negative, got {cap}", code="usage")
    return min(cap, MAX_EDGES)


def _check_cap(*graphs: Graph) -> None:
    cap = _edge_cap()
    total = sum(g.num_edges for g in graphs)
    if total > cap:
        raise CapacityError(f"{total} edges exceed the active cap of {cap}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise QrelnetError(f"cannot read {path}: {exc}", code="unreadable_file") from None
    except UnicodeDecodeError as exc:
        raise QrelnetError(f"{path} is not UTF-8 text: {exc}", code="malformed_json") from None
    except RecursionError:
        raise QrelnetError(f"{path} nests deeper than the recursion limit", code="malformed_json") from None
    except json.JSONDecodeError as exc:
        raise QrelnetError(str(exc), code="malformed_json") from None
    except ValueError:  # an integer literal past int's string-conversion digit limit
        raise CapacityError(f"{path} holds an integer with too many digits") from None


def _split_shared(text: str) -> list[str]:
    names = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not names:
        raise QrelnetError("shared vertex list is empty", code="invalid_partition")
    return names


# Each command imports the modules it runs beyond ``serialize``, so one
# start loads no others, and a usage error loads no numpy.
def _cmd_reliability(args) -> dict:
    from .classical import reliability_enumerate, reliability_factorize

    g = parse_graph(_load_json(args.graph))
    _check_cap(g)
    probs = parse_probability_list(args.p, args.exact)
    fn = reliability_enumerate if args.method == "enum" else reliability_factorize
    value = fn(g, probs)
    return {"value": rational_text(value) if args.exact else float(value)}


def _cmd_qr(args) -> dict:
    from .operators import quantum_reliability

    g = parse_graph(_load_json(args.graph))
    _check_cap(g)
    psi = parse_state(_load_json(args.state), g)
    return {"value": quantum_reliability(g, psi)}


def _cmd_split_verify(args) -> dict:
    from .operators import verify_split

    k = parse_graph(_load_json(args.k))
    h = parse_graph(_load_json(args.h))
    _check_cap(k, h)
    shared = _split_shared(args.shared)
    return {"equal": verify_split(k, h, shared)}


def _hybrid_inputs(args):
    """The decomposition of ``--graph`` and the hybrid state of ``--state``."""
    from .hybrid import canonical_decomposition

    g, kinds = parse_tagged_graph(_load_json(args.graph))
    _check_cap(g)
    decomp = canonical_decomposition(g, kinds)
    return decomp, parse_hybrid_state(_load_json(args.state), decomp)


def _cmd_hybrid(args) -> dict:
    from .hybrid import hybrid_qr

    return {"value": hybrid_qr(*_hybrid_inputs(args))}


def _cmd_sublayer(args) -> dict:
    from .hybrid import sublayer_qr

    result = sublayer_qr(*_hybrid_inputs(args))
    corrections = [
        {
            "gamma": partition_to_json(term.gamma),
            "gamma_prime": partition_to_json(term.gamma_prime),
            "beta": rational_text(term.weight),
            "value": term.value,
        }
        for term in result.corrections
    ]
    return {"total": result.total, "classical": result.classical, "corrections": corrections}


def _cmd_sample(args) -> dict:
    from .operators import born_sample

    g = parse_graph(_load_json(args.graph))
    _check_cap(g)
    psi = parse_state(_load_json(args.state), g)
    est = born_sample(g, psi, args.n, args.seed)
    return {"estimate": est.estimate, "stderr": est.stderr, "n": args.n, "seed": args.seed}


def _cmd_matrix(args) -> dict:
    from .partitions import M3_REFERENCE_ORDER, check_matrix_size, connectivity_matrix, matrix_for_order

    if args.m < 1:
        raise QrelnetError(f"--m must be at least 1, got {args.m}", code="usage")
    if args.paper_order:
        if args.m != 3:
            raise QrelnetError("--paper-order is only defined for --m 3", code="usage")
        cm = matrix_for_order(M3_REFERENCE_ORDER)
    else:
        check_matrix_size(args.m)  # before the name list, which a huge --m could not hold
        cm = connectivity_matrix([str(i) for i in range(1, args.m + 1)])
    text = {v: rational_text(Fraction(v, cm.denominator)) for v in set().union(*cm.scaled)}
    return {
        "m": args.m,
        "order": [partition_to_json(p) for p in cm.order],
        "alpha": cm.alpha,
        "beta": [list(map(text.__getitem__, row)) for row in cm.scaled],
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="qrelnet", description="Classical and quantum network reliability.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reliability", help="all-terminal reliability of a graph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--p", required=True, help="comma-separated edge probabilities")
    p.add_argument("--method", choices=("enum", "factor"), default="enum")
    p.add_argument("--exact", action="store_true", help="rational arithmetic end to end")
    p.set_defaults(run=_cmd_reliability)

    p = sub.add_parser("qr", help="quantum reliability of a state on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--state", required=True, help="state JSON file")
    p.set_defaults(run=_cmd_qr)

    p = sub.add_parser("split-verify", help="check the splitting against the direct operator")
    p.add_argument("--k", required=True, help="first graph JSON file")
    p.add_argument("--h", required=True, help="second graph JSON file")
    p.add_argument("--shared", required=True, help="comma-separated shared vertices")
    p.set_defaults(run=_cmd_split_verify)

    p = sub.add_parser("hybrid", help="reliability of a quantum/classical tagged graph")
    p.add_argument("--graph", required=True, help="tagged graph JSON file")
    p.add_argument("--state", required=True, help="hybrid state JSON file")
    p.set_defaults(run=_cmd_hybrid)

    p = sub.add_parser("sublayer", help="classical baseline plus quantum corrections")
    p.add_argument("--graph", required=True, help="tagged graph JSON file")
    p.add_argument("--state", required=True, help="hybrid state JSON file")
    p.set_defaults(run=_cmd_sublayer)

    p = sub.add_parser("sample", help="Monte Carlo quantum reliability estimate")
    p.add_argument("--graph", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("-n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("matrix", help="partition order, connectivity matrix, exact inverse")
    p.add_argument("--m", type=int, required=True, help="number of shared vertices")
    p.add_argument("--paper-order", action="store_true",
                   help="emit the reference three-node ordering instead of the canonical one")
    p.set_defaults(run=_cmd_matrix)

    return parser


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(dumps_canonical({"schema": SCHEMA, "error": {"code": code, "message": message}}) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        text = dumps_canonical({"schema": SCHEMA, **args.run(args)})
    except QrelnetError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except MemoryError:
        _emit_error("capacity", "out of memory")
        return 2
    except RecursionError:
        _emit_error("internal", "recursion limit hit")
        return 1
    except Exception as exc:
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 1
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
