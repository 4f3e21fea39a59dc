"""Command-line interface.

Subcommands cover generation of the named graph families, the exact
solver queries, edge-removal analysis, the walk-regularity certificate,
and Monte Carlo verification. Graphs travel as edge-list documents on
stdin/stdout or files, so commands compose with pipes::

    ohmwalk gen hypercube 3 | ohmwalk remove-edge --edge 0 1

Exit codes: 0 success, 1 verification failure (mc-verify only), 2 input
or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from itertools import chain
from typing import Iterable, Sequence

from . import generators
from .edgelist import LabeledNetwork, format_edge_list, parse_edge_list
from .errors import BadParameter, NoSuchEdge, OhmwalkError, WouldDisconnect
from .montecarlo import estimate_hitting_time, estimate_return_time, verify_pendant_identities
from .perturbation import analyze_edge_removal
from .solver import effective_resistance_matrix, hitting_time_matrix, return_time
from .walk_regular import check_walk_regular

__all__ = ["main", "run_cli"]

_FAMILIES = {
    "cycle": (generators.cycle, 1),
    "complete": (generators.complete, 1),
    "hypercube": (generators.hypercube, 1),
    "unitary-cayley": (generators.unitary_cayley, 1),
    "petersen": (generators.petersen, 0),
}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit(args: argparse.Namespace, document: dict, lines: Iterable[str]) -> None:
    """Print ``document`` as JSON under ``--json``, otherwise the text ``lines``.

    ``lines`` is consumed only for text output, so a generator defers
    formatting that ``--json`` does not need.
    """
    print(json.dumps(document, indent=2) if args.json else "\n".join(lines))


def _show(value: float | bool | None) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value)


def _cmd_gen(args: argparse.Namespace) -> int:
    family = args.family.replace("_", "-")
    if family not in _FAMILIES:
        raise BadParameter(f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}")
    builder, arity = _FAMILIES[family]
    if len(args.params) != arity:
        raise BadParameter(f"{family} takes {arity} parameter(s), got {len(args.params)}")
    net = builder(*args.params)
    _write_text(args.output, format_edge_list(net))
    return 0


def _cmd_resistance(args: argparse.Namespace, doc: LabeledNetwork) -> int:
    report = effective_resistance_matrix(doc.network)
    if args.pair is not None:
        a, b = (doc.id_of(t) for t in args.pair)
        value = float(report.resistance[a, b])
        _emit(args, {"pair": list(args.pair), "resistance": value}, [_fmt(value)])
        return 0
    document = {
        "resistance": report.resistance.tolist(),
        "kirchhoff_index": report.kirchhoff_index,
        "labels": list(doc.labels),
    }
    rows = (" ".join(map(_fmt, row)) for row in report.resistance)
    _emit(args, document, chain(rows, [f"kirchhoff_index: {_fmt(report.kirchhoff_index)}"]))
    return 0


def _cmd_kirchhoff(args: argparse.Namespace, doc: LabeledNetwork) -> int:
    value = effective_resistance_matrix(doc.network).kirchhoff_index
    _emit(args, {"kirchhoff_index": value}, [_fmt(value)])
    return 0


def _cmd_hitting(args: argparse.Namespace, doc: LabeledNetwork) -> int:
    a, b = doc.id_of(args.src), doc.id_of(args.dst)
    value = float(hitting_time_matrix(doc.network).hitting[a, b])
    _emit(args, {"from": args.src, "to": args.dst, "hitting": value}, [_fmt(value)])
    return 0


def _cmd_return_time(args: argparse.Namespace, doc: LabeledNetwork) -> int:
    value = return_time(doc.network, doc.id_of(args.vertex))
    _emit(args, {"vertex": args.vertex, "return_time": value}, [_fmt(value)])
    return 0


def _cmd_remove_edge(args: argparse.Namespace, doc: LabeledNetwork) -> int:
    a, b = (doc.id_of(t) for t in args.edge)
    pair = "({}, {})".format(*args.edge)  # the library names ids, the user gave labels
    try:
        report = analyze_edge_removal(doc.network, a, b)
    except NoSuchEdge:
        raise NoSuchEdge(f"{pair} is not an edge") from None
    except WouldDisconnect:
        raise WouldDisconnect(f"{pair} is a cut-edge; removal would disconnect the graph") from None
    document = {**asdict(report), "labels": list(doc.labels)}
    lines = [f"edge: {doc.labels[report.edge.a]} {doc.labels[report.edge.b]}"]
    lines += [f"{f.name}: {_show(getattr(report, f.name))}" for f in fields(report) if f.name != "edge"]
    _emit(args, document, lines)
    return 0


def _cmd_walk_regular(args: argparse.Namespace, doc: LabeledNetwork) -> int:
    report = check_walk_regular(doc.network)
    v = report.first_violation
    witness = "none" if v is None else f"k={v.k} x={doc.labels[v.x]} y={doc.labels[v.y]}"
    _emit(
        args,
        {**asdict(report), "labels": list(doc.labels)},
        [
            f"is_regular: {_show(report.is_regular)}",
            f"is_walk_regular: {_show(report.is_walk_regular)}",
            f"first_violation: {witness}",
            f"checked_k_max: {report.checked_k_max}",
        ],
    )
    return 0


def _cmd_mc_verify(args: argparse.Namespace, doc: LabeledNetwork) -> int:
    net = doc.network
    document: dict = {"what": args.what, "samples": args.samples, "seed": args.seed}
    if args.what == "return":
        if args.vertex is None:
            raise BadParameter("mc-verify --what return needs --vertex")
        z = doc.id_of(args.vertex)
        exact = return_time(net, z)
        estimate = estimate_return_time(net, z, args.samples, args.seed)
        document["vertex"] = args.vertex
    elif args.what == "hitting":
        if args.src is None or args.dst is None:
            raise BadParameter("mc-verify --what hitting needs --from and --to")
        a, b = doc.id_of(args.src), doc.id_of(args.dst)
        exact = float(hitting_time_matrix(net).hitting[a, b])
        estimate = estimate_hitting_time(net, a, b, args.samples, args.seed)
        document["from"] = args.src
        document["to"] = args.dst
    else:  # pendant
        if args.vertex is None:
            raise BadParameter("mc-verify --what pendant needs --vertex")
        z = doc.id_of(args.vertex)
        check = verify_pendant_identities(net, z, args.samples, args.seed)
        exact = check.c_plus_1
        estimate = check.lhs
        document["vertex"] = args.vertex
        document["c_plus_1"] = check.c_plus_1
        document["cz_formula"] = check.cz_formula

    passed = abs(estimate.mean - exact) <= 3.0 * estimate.stderr
    document.update({"exact": exact, "mean": estimate.mean, "stderr": estimate.stderr, "pass": passed})
    _emit(
        args,
        document,
        [
            f"what: {args.what}",
            f"exact: {_fmt(exact)}",
            f"mean: {_fmt(estimate.mean)}",
            f"stderr: {_fmt(estimate.stderr)}",
            f"samples: {estimate.samples}",
            f"seed: {estimate.seed}",
            f"result: {'PASS' if passed else 'FAIL'} (threshold 3*stderr)",
        ],
    )
    return 0 if passed else 1


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--input", default="-", help="edge-list file ('-' for stdin)")
    parser.add_argument("--json", action="store_true", help="emit a machine-readable document")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohmwalk",
        description="Random-walk and electric-network analysis of connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write an edge list for a named graph family")
    p.add_argument("family", help=f"one of: {', '.join(sorted(_FAMILIES))}")
    p.add_argument("params", nargs="*", type=int, help="family parameters")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("resistance", help="effective resistance matrix or a single pair")
    _add_input(p)
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), default=None)
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("kirchhoff", help="sum of effective resistances over vertex pairs")
    _add_input(p)
    p.set_defaults(handler=_cmd_kirchhoff)

    p = sub.add_parser("hitting", help="expected steps from one vertex to another")
    _add_input(p)
    p.add_argument("--from", dest="src", required=True, metavar="A")
    p.add_argument("--to", dest="dst", required=True, metavar="B")
    p.set_defaults(handler=_cmd_hitting)

    p = sub.add_parser("return-time", help="expected first-return steps at a vertex")
    _add_input(p)
    p.add_argument("--vertex", required=True, metavar="Z")
    p.set_defaults(handler=_cmd_return_time)

    p = sub.add_parser("remove-edge", help="closed-form vs. recomputed effects of deleting an edge")
    _add_input(p)
    p.add_argument("--edge", nargs=2, required=True, metavar=("A", "B"))
    p.set_defaults(handler=_cmd_remove_edge)

    p = sub.add_parser("walk-regular", help="certify walk-regularity by closed-walk counts")
    _add_input(p)
    p.set_defaults(handler=_cmd_walk_regular)

    p = sub.add_parser("mc-verify", help="Monte Carlo check of an exact quantity")
    _add_input(p)
    p.add_argument("--what", choices=("return", "hitting", "pendant"), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertex", default=None, metavar="Z")
    p.add_argument("--from", dest="src", default=None, metavar="A")
    p.add_argument("--to", dest="dst", default=None, metavar="B")
    p.set_defaults(handler=_cmd_mc_verify)

    return parser


# Built once per process: parsing leaves no state on the parser, so every
# call starts from the same one.
_PARSER = _build_parser()


def run_cli(argv: Sequence[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        return args.handler(args, parse_edge_list(_read_document(args.input)))
    except (OhmwalkError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
