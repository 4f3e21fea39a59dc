"""Correctness of every job's output against the oracles' expectations.

Expectations are computed once per plan, before any job is timed. A check
returns ``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import oracles
from .workloads import Call, Graph, Plan

# The test suite's relative tolerance for exact quantities.
REL = 1e-9
# A Monte Carlo mean further than this many standard errors from the exact
# value fails the job; the CLI's own 3-sigma FAIL verdict is only counted.
MC_SIGMAS = 5.0
GOLDEN_MEAN_LINE = "mean: 7.0508"

# Certificate verdicts known for each family used in removal jobs.
WALK_REGULAR = {
    "hypercube": True,
    "cycle": True,
    "complete": True,
    "unitary-cayley": True,
    "petersen": True,
    "uneven-cubic": False,
}
# Vertex- and edge-transitive families: by Foster's theorem every edge has
# R = (n - 1) / m, and the hitting time across it is m R = n - 1.
EDGE_TRANSITIVE = ("hypercube", "cycle", "complete", "unitary-cayley", "petersen")


@dataclass(frozen=True)
class CliOutput:
    rc: int
    stdout: str
    stderr: str


def close(x: float, y: float) -> bool:
    return abs(x - y) <= REL * max(abs(x), abs(y))


def expectation(graph: Graph, call: Call) -> dict:
    q = call.query
    if call.kind == "hitting":
        return {"value": oracles.hitting(graph, q["a"], q["b"])}
    if call.kind == "resistance":
        return {"value": oracles.resistance(graph, q["a"], q["b"])}
    if call.kind == "kirchhoff":
        return {"value": oracles.kirchhoff(graph)}
    if call.kind == "return-time":
        return {"value": oracles.return_time(graph, q["z"])}
    if call.kind == "remove-edge":
        a, b = q["a"], q["b"]
        if graph.family in EDGE_TRANSITIVE:
            r, h = (graph.n - 1) / len(graph.edges), float(graph.n - 1)
        else:
            r, h = oracles.resistance(graph, a, b), oracles.hitting(graph, a, b)
        return {
            "r_before": r,
            "hitting_before": h,
            "kirchhoff_before": oracles.kirchhoff(graph),
            "walk_regular": WALK_REGULAR[graph.family],
        }
    if call.kind == "walk-regular":
        return {"witness": oracles.walk_regular_witness(graph.n, graph.edges)}
    if call.kind == "mc-verify":
        if q["what"] == "return":
            exact = oracles.return_time(graph, q["z"])
        elif q["what"] == "hitting":
            exact = oracles.hitting(graph, q["a"], q["b"])
        else:
            exact = 2.0 * len(graph.edges) + 1.0
        return {"exact": exact}
    if call.kind == "removals":
        g = oracles.grounded_inverse(graph.n, graph.edges)
        return {
            "resistance": {
                (a, b): float(g[a, a] + g[b, b] - 2.0 * g[a, b])
                for a, b in oracles.non_bridges(graph.n, graph.edges)
            },
            "walk_regular": oracles.walk_regular_witness(graph.n, graph.edges) is None,
        }
    raise ValueError(f"no expectation for job kind {call.kind!r}")


def expectations(plan: Plan) -> list[dict]:
    return [expectation(plan.graphs[call.graph], call) for call in plan.calls]


def _fields(text: str) -> dict[str, str]:
    pairs = (line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return {key: value for key, value in pairs}


def _check_value(call: Call, expect: dict, out: CliOutput) -> str | None:
    if "--json" in call.argv:
        key = {"kirchhoff": "kirchhoff_index", "return-time": "return_time"}.get(call.kind, call.kind)
        value = float(json.loads(out.stdout)[key])
    else:
        value = float(out.stdout.strip())
    if not close(value, expect["value"]):
        return f"{call.kind}: got {value!r}, expected {expect['value']!r}"
    return None


def _check_remove_edge(expect: dict, out: CliOutput) -> str | None:
    f = _fields(out.stdout)
    for key in ("r_before", "hitting_before", "kirchhoff_before"):
        if not close(float(f[key]), expect[key]):
            return f"{key}: got {f[key]}, expected {expect[key]!r}"
    if not close(float(f["r_after_predicted"]), float(f["r_after_direct"])):
        return f"r_after predicted {f['r_after_predicted']} != direct {f['r_after_direct']}"
    walk_regular = f["walk_regular"] == "true"
    if walk_regular != expect["walk_regular"]:
        return f"walk_regular: got {f['walk_regular']}"
    if walk_regular:
        if not close(float(f["hitting_after_predicted"]), float(f["hitting_after_direct"])):
            return "hitting_after predicted != direct"
    elif f["hitting_after_predicted"] != "n/a":
        return "hitting_after_predicted given without the certificate"
    return None


def _check_walk_regular(expect: dict, out: CliOutput) -> str | None:
    f = _fields(out.stdout)
    witness = expect["witness"]
    if f["is_walk_regular"] != str(witness is None).lower():
        return f"is_walk_regular: got {f['is_walk_regular']}"
    if witness is not None and not f["first_violation"].startswith(f"k={witness} "):
        return f"first_violation: got {f['first_violation']}, expected k={witness}"
    return None


def _check_mc(call: Call, expect: dict, out: CliOutput, seen: dict) -> str | None:
    if call.query.get("golden"):
        f = _fields(out.stdout)
        if GOLDEN_MEAN_LINE not in out.stdout.splitlines():
            return f"golden job: got 'mean: {f.get('mean')}', expected '{GOLDEN_MEAN_LINE}'"
        exact, mean, stderr = float(f["exact"]), float(f["mean"]), float(f["stderr"])
    else:
        doc = json.loads(out.stdout)
        exact, mean, stderr = doc["exact"], doc["mean"], doc["stderr"]
    if not close(exact, expect["exact"]):
        return f"exact: got {exact!r}, expected {expect['exact']!r}"
    key = (call.graph, call.argv)
    if seen.setdefault(key, mean) != mean:
        return f"estimate not reproducible at a fixed (seed, samples): {mean!r} != {seen[key]!r}"
    if abs(mean - exact) > MC_SIGMAS * stderr:
        return f"mean {mean!r} is more than {MC_SIGMAS} stderr from {exact!r}"
    return None


def _check_removals(expect: dict, reports: list) -> str | None:
    resistance = expect["resistance"]
    analysed = [(r.edge.a, r.edge.b) for r in reports]
    if sorted(analysed) != sorted(resistance):
        return f"analysed edges {sorted(analysed)} != non-bridges {sorted(resistance)}"
    for r in reports:
        edge = (r.edge.a, r.edge.b)
        if not close(r.r_before, resistance[edge]):
            return f"r_before at {edge}: got {r.r_before!r}, expected {resistance[edge]!r}"
        if not close(r.r_after_predicted, r.r_after_direct):
            return f"r_after predicted {r.r_after_predicted!r} != direct {r.r_after_direct!r} at {edge}"
        if r.walk_regular != expect["walk_regular"]:
            return f"walk_regular: got {r.walk_regular} at {edge}"
        if r.walk_regular and not close(r.hitting_after_predicted, r.hitting_after_direct):
            return f"hitting_after predicted != direct at {edge}"
    return None


def check(call: Call, expect: dict, output, seen: dict) -> str | None:
    """``None`` when ``output`` is right for ``call``, else the reason.

    ``seen`` maps each Monte Carlo job to its first mean, so a job that
    recurs must repeat its estimate bit for bit.
    """
    if call.kind == "removals":
        return _check_removals(expect, output)
    # mc-verify exits 1 on its own 3-sigma FAIL verdict, which is counted, not failed.
    if output.rc != 0 and not (output.rc == 1 and call.kind == "mc-verify"):
        return f"exit code {output.rc}: {output.stderr.strip()}"
    try:
        if call.kind == "remove-edge":
            return _check_remove_edge(expect, output)
        if call.kind == "walk-regular":
            return _check_walk_regular(expect, output)
        if call.kind == "mc-verify":
            return _check_mc(call, expect, output, seen)
        return _check_value(call, expect, output)
    except (KeyError, ValueError) as exc:
        return f"unreadable output ({exc!r}): {output.stdout[:200]!r}"

