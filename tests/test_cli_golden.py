"""Byte-for-byte text output of every reporting subcommand.

``golden/cli_text.txt`` holds one block per case: the command line, its
exit code, its stdout and its stderr. ``--json`` is left out on purpose:
its trailing digits follow the order of floating-point operations (see the
README). Regenerate the file, only when a change to the text is intended,
with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from ohmwalk import cycle, format_edge_list, hypercube, petersen
from ohmwalk.cli import run_cli

GOLDEN = Path(__file__).parent / "golden" / "cli_text.txt"

GRAPHS = {
    "cycle8": format_edge_list(cycle(8)),
    "cube3": format_edge_list(hypercube(3)),
    "petersen": format_edge_list(petersen()),
    "triangle": "a b 1\na c 2\nb c 3\n",
    # Labeled, 8 vertices, conductances exact in binary.
    "dyadic8": (
        "p q 0.5\np r 2\nq r 0.25\nq s 1.5\nr t 0.75\ns t 4\n"
        "s u 0.125\nt v 1\nu v 2.5\nu w 0.5\nv w 3\np w 1.25\n"
    ),
}

# (graph, vertex a, vertex b, the edge to remove)
QUERIES = {
    "cycle8": ("0", "4", ("0", "1")),
    "cube3": ("0", "7", ("0", "1")),
    "petersen": ("0", "7", ("0", "1")),
    "triangle": ("a", "c", ("b", "c")),
    "dyadic8": ("p", "u", ("s", "t")),
}

MC_SAMPLES = "400"


def _cases() -> list[tuple[str, tuple[str, ...]]]:
    cases = []
    for graph, (a, b, edge) in QUERIES.items():
        cases += [
            (graph, ("resistance",)),
            (graph, ("resistance", "--pair", a, b)),
            (graph, ("kirchhoff",)),
            (graph, ("hitting", "--from", a, "--to", b)),
            (graph, ("hitting", "--from", b, "--to", a)),
            (graph, ("return-time", "--vertex", b)),
            (graph, ("remove-edge", "--edge", *edge)),
            (graph, ("walk-regular",)),
        ]
        mc = ("mc-verify", "--samples", MC_SAMPLES, "--seed", "11")
        cases += [
            (graph, (*mc, "--what", "return", "--vertex", a)),
            (graph, (*mc, "--what", "hitting", "--from", a, "--to", b)),
            (graph, (*mc, "--what", "pendant", "--vertex", b)),
        ]
    return cases


CASES = _cases()


def _header(graph: str, argv: tuple[str, ...]) -> str:
    return f"$ ohmwalk {' '.join(argv)} < {graph}"


def render(graph: str, argv: tuple[str, ...]) -> str:
    """One golden block: the command, its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(GRAPHS[graph])), redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    return f"{_header(graph, argv)}\nexit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def golden_blocks() -> dict[str, str]:
    blocks = re.split(r"(?m)^(?=\$ ohmwalk )", GOLDEN.read_text(encoding="utf-8"))
    return {block.split("\n", 1)[0]: block for block in blocks if block}


def test_golden_file_lists_exactly_the_cases():
    assert list(golden_blocks()) == [_header(graph, argv) for graph, argv in CASES]


@pytest.mark.parametrize(("graph", "argv"), CASES, ids=[_header(g, a) for g, a in CASES])
def test_text_output_matches_golden(graph, argv):
    assert render(graph, argv) == golden_blocks()[_header(graph, argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(render(graph, argv) for graph, argv in CASES), encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
