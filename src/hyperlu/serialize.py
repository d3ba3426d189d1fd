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
    check_edge_bits,
    check_vertex_count,
    from_graph,
    to_graph,
)
from .transforms import GateApplication, GateSequence
from .weights import Weight


_JSON_TYPES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object", type(None): "null",
}


def _json_type(value: Any) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _field(obj: Any, key: str, kind: type, what: str, index: int | None = None) -> Any:
    """``obj[key]``, which must be of the JSON type ``kind``; ``what``
    and ``index`` name ``obj`` in the error.

    Types are matched exactly, so a boolean is not an integer and a
    number with a fraction is not a vertex. A missing key or a wrong
    type is a data error (``ValueError``), never a crash.
    """
    if type(obj) is dict and type(value := obj.get(key)) is kind:
        return value
    where = what if index is None else f"{what} {index}"
    if type(obj) is not dict:
        raise ValueError(f"{where} must be an object, not {_json_type(obj)}")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    raise ValueError(f"{where}: {key!r} must be {_JSON_TYPES[kind]}, not {_json_type(value)}")


def _weight(obj: dict, key: str, what: str, index: int | None = None) -> Weight:
    return Weight.parse(_field(obj, key, str, what, index))


def hypergraph_to_dict(h: WeightedHypergraph) -> dict:
    return {
        "n": h.n,
        "edges": [{"v": list(e), "w": str(w)} for e, w in h.edges],
        "phase": str(h.phase),
    }


def hypergraph_from_dict(data: dict) -> WeightedHypergraph:
    n = _field(data, "n", int, "state")
    if n < 0:
        raise ValueError(f"state: vertex count {n} is negative")
    check_vertex_count(n)
    items = []
    bits = 0
    for i, item in enumerate(_field(data, "edges", list, "state")):
        vertices = _field(item, "v", list, "state edge", i)
        for v in vertices:
            if type(v) is not int:
                raise ValueError(f"state edge {i}: vertex must be an integer, not {_json_type(v)}")
        if vertices:  # a vertex past n counts as n; make() refuses it with its own message
            bits += min(max(vertices), n) + 1
            check_edge_bits(bits)
        items.append((vertices, _weight(item, "w", "state edge", i)))
    phase = _weight(data, "phase", "state") if "phase" in data else Weight(0)
    return WeightedHypergraph.make(n, items, phase)


def _loads(text: str) -> Any:
    """``json.loads``, with nesting too deep to parse a data error
    (``ValueError``) rather than a ``RecursionError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply to parse") from None


def dump_hypergraph(h: WeightedHypergraph) -> str:
    return json.dumps(hypergraph_to_dict(h), indent=2) + "\n"


def load_hypergraph(path: str | Path) -> WeightedHypergraph:
    return hypergraph_from_dict(_loads(Path(path).read_text()))


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
        h = hypergraph_from_dict(_loads(text))
        return to_graph(h)
    return graph_from_adjacency_text(text)


def load_state(path: str | Path) -> WeightedHypergraph:
    """State from JSON, or from adjacency text via the graph state."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return hypergraph_from_dict(_loads(text))
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
    if type(items) is not list:
        raise ValueError(f"gate sequence must be an array, not {_json_type(items)}")
    gates = []
    for i, item in enumerate(items):
        kind = _field(item, "g", str, "gate", i)
        if kind not in _KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        exponent = _weight(item, "a", "gate", i) if "a" in item else None
        gates.append(GateApplication(_field(item, "q", int, "gate", i), kind, exponent))
    return tuple(gates)


def dump_sequence(seq: GateSequence) -> str:
    return json.dumps(sequence_to_list(seq), indent=2) + "\n"


def load_sequence(path: str | Path) -> GateSequence:
    return sequence_from_list(_loads(Path(path).read_text()))


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
