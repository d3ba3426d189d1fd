"""File formats: state JSON, adjacency text, gate-sequence JSON, DOT.

Everything round-trips bit-identically through the canonical forms, and
all emitted text is deterministic (sorted nodes and edges) so outputs
can be diffed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .hypergraph import (
    SimpleGraph,
    WeightedHypergraph,
    check_vertex_count,
    from_graph,
    to_graph,
)
from .transforms import GateApplication, GateSequence
from .weights import Weight


def hypergraph_to_dict(h: WeightedHypergraph) -> dict:
    return {
        "n": h.n,
        "edges": [{"v": list(e), "w": str(w)} for e, w in h.edges],
        "phase": str(h.phase),
    }


def hypergraph_from_dict(data: dict) -> WeightedHypergraph:
    n = int(data["n"])
    check_vertex_count(n)
    return WeightedHypergraph.make(
        n,
        [(tuple(item["v"]), Weight.parse(item["w"])) for item in data["edges"]],
        Weight.parse(data.get("phase", "0")),
    )


def dump_hypergraph(h: WeightedHypergraph) -> str:
    return json.dumps(hypergraph_to_dict(h), indent=2) + "\n"


def load_hypergraph(path: str | Path) -> WeightedHypergraph:
    return hypergraph_from_dict(json.loads(Path(path).read_text()))


def graph_to_adjacency_text(g: SimpleGraph) -> str:
    lines = [str(g.n)]
    for i in range(g.n):
        lines.append("".join("1" if (g.rows[i] >> j) & 1 else "0" for j in range(g.n)))
    return "\n".join(lines) + "\n"


def graph_from_adjacency_text(text: str) -> SimpleGraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty adjacency input")
    n = int(lines[0])
    check_vertex_count(n)
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} adjacency rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"bad adjacency row {ln!r}")
        rows.append(int(ln[::-1], 2))
    return SimpleGraph(n, tuple(rows))


def load_graph(path: str | Path) -> SimpleGraph:
    """Graph from adjacency text or from graph-state JSON."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        h = hypergraph_from_dict(json.loads(text))
        return to_graph(h)
    return graph_from_adjacency_text(text)


def load_state(path: str | Path) -> WeightedHypergraph:
    """State from JSON, or from adjacency text via the graph state."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return hypergraph_from_dict(json.loads(text))
    return from_graph(graph_from_adjacency_text(text))


_KINDS = {"X", "Xp", "Zp", "LC"}


def sequence_to_list(seq: GateSequence | list[GateApplication]) -> list[dict]:
    out = []
    for gate in seq:
        item: dict[str, Any] = {"q": gate.qubit, "g": gate.kind}
        if gate.exponent is not None:
            item["a"] = str(gate.exponent)
        out.append(item)
    return out


def sequence_from_list(items: list[dict]) -> GateSequence:
    gates = []
    for item in items:
        kind = item["g"]
        if kind not in _KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        exponent = Weight.parse(item["a"]) if "a" in item else None
        gates.append(GateApplication(int(item["q"]), kind, exponent))
    return tuple(gates)


def dump_sequence(seq: GateSequence) -> str:
    return json.dumps(sequence_to_list(seq), indent=2) + "\n"


def load_sequence(path: str | Path) -> GateSequence:
    return sequence_from_list(json.loads(Path(path).read_text()))


def hypergraph_to_dot(h: WeightedHypergraph, name: str = "state") -> str:
    """DOT rendering: plain edges for weight-1 two-edges, dashed labeled
    edges for fractional two-edges, box auxiliary nodes for other
    cardinalities."""
    lines = [f"graph {name} {{"]
    if h.phase:
        lines.append(f'  label="phase {h.phase}";')
    lines.append("  node [shape=circle];")
    for v in range(h.n):
        lines.append(f"  q{v};")
    aux = 0
    for e, w in h.edges:
        if len(e) == 2 and w == Weight(1):
            lines.append(f"  q{e[0]} -- q{e[1]};")
        elif len(e) == 2:
            lines.append(f'  q{e[0]} -- q{e[1]} [style=dashed, label="{w}"];')
        else:
            lines.append(f'  w{aux} [shape=box, label="{w}"];')
            for v in e:
                lines.append(f"  q{v} -- w{aux};")
            aux += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(g: SimpleGraph, name: str = "graph") -> str:
    return hypergraph_to_dot(from_graph(g), name=name)


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
