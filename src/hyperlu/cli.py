"""Command-line interface.

Exit codes: 0 success or confirmed, 1 negative verdict, 2 inconclusive,
3 data errors, 64 usage errors, 70 internal errors (a failed internal
check or any other crash, never read as a verdict). All runs are
deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import counterexamples as cx
from . import serialize
from .errors import HyperluError, InconclusiveError
from .hypergraph import check_vertex_count, from_graph, star_graph, to_graph
from .lc_solver import lc_equivalent, lc_orbit
from .transforms import apply_sequence, state_delta

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_DATA = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep 2 reserved for "inconclusive"
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an integer no smaller than ``low`` and, when
    ``high`` is given, no larger than it (else exit 64)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        serialize.write_text(path, text)


def _cmd_gen(args) -> int:
    if args.kind in ("star", "bipartite"):
        check_vertex_count(args.n)
    if args.kind == "star":
        graph = star_graph(args.n)
    elif args.kind == "g2h7":
        graph, witness, expected = cx.build_graph_to_hypergraph7()
        if args.witness:
            _emit(args.witness, serialize.dump_sequence(witness))
        if args.expected:
            _emit(args.expected, serialize.dump_hypergraph(expected))
    elif args.kind == "bipartite":
        graph, _ = cx.build(cx.BipartiteSubsets(args.n, args.r))
    elif args.kind == "twentyseven":
        graph, _ = cx.build(cx.TwentySeven())
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.kind)
    _emit(args.out, serialize.dump_hypergraph(from_graph(graph)))
    if args.adj:
        _emit(args.adj, serialize.graph_to_adjacency_text(graph))
    if args.dot:
        _emit(args.dot, serialize.graph_to_dot(graph))
    return EXIT_OK


def _cmd_transform(args) -> int:
    state = serialize.load_state(args.state)
    seq = serialize.load_sequence(args.sequence)
    result = apply_sequence(state, seq)
    if args.ledger:
        for e, w in state_delta(state, result).items():
            label = "{" + ",".join(map(str, e)) + "}" if e else "phase"
            print(f"{label}: {w}")
    _emit(args.out, serialize.dump_hypergraph(result))
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = cx.parse_spec(args.spec)
    own, split = cx.build(spec)
    report = cx.verify_construction(spec, (own, split))
    payload = report.as_dict()

    if args.against:
        payload["against"] = _verify_against(own, split, args)

    text = json.dumps(payload, indent=2) + "\n"
    if args.report:
        serialize.write_text(args.report, text)
    sys.stdout.write(text)

    if args.against:
        sub = payload["against"]
        definite = sub["lc_verdict"] != "inconclusive" and not sub["search"][
            "budget_exhausted"
        ]
        return EXIT_OK if definite else EXIT_INCONCLUSIVE
    if report.confirmed:
        return EXIT_OK
    if report.lu_equivalent and report.lc_verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_NEGATIVE


def _verify_against(own, split, args) -> dict:
    """Compare a construction against a user-imported adjacency matrix."""
    imported = serialize.load_graph(args.against)
    out: dict = {"imported_n": imported.n}
    if imported.n != own.n:
        out["lc_verdict"] = "size-mismatch"
        out["search"] = {"candidates": [], "examined": 0, "budget_exhausted": False}
        return out
    try:
        witness = lc_equivalent(own, imported)
        out["lc_verdict"] = "witness" if witness else "none"
        out["lc_witness"] = witness.as_dict() if witness else None
    except InconclusiveError as exc:
        out["lc_verdict"] = "inconclusive"
        out["lc_detail"] = str(exc)
    search = cx.degree_distribution_search(
        own, split, imported.degrees(), budget=args.budget
    )
    out["search"] = search.as_dict()
    return out


def _cmd_check_lc(args) -> int:
    g1 = serialize.load_graph(args.graph1)
    g2 = serialize.load_graph(args.graph2)
    try:
        witness = lc_equivalent(g1, g2)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    if witness is None:
        print("not LC-equivalent")
        return EXIT_NEGATIVE
    print(json.dumps(witness.as_dict()))
    return EXIT_OK


def _cmd_orbit(args) -> int:
    g = serialize.load_graph(args.graph)
    orbit = lc_orbit(g, cap=args.cap)
    print(f"orbit size: {orbit.size}")
    if args.out:
        blocks = sorted(
            serialize.graph_to_adjacency_text(member) for member in orbit.graphs
        )
        serialize.write_text(args.out, "\n".join(blocks))
    if orbit.truncated:
        print(f"truncated at cap {args.cap}")
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    from . import oracle  # numpy-backed; loaded only for this command

    state = serialize.load_state(args.state)
    seq = serialize.load_sequence(args.sequence)
    symbolic = apply_sequence(state, list(seq))
    dense = oracle.replay_dense(state, list(seq))
    predicted = oracle.dense_state(symbolic)
    dev = oracle.global_phase_deviation(predicted, dense)
    ok = dev <= args.tol
    print(f"{'PASS' if ok else 'FAIL'} (max deviation {dev:.2e}, tol {args.tol:.0e})")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_export(args) -> int:
    state = serialize.load_state(args.input)
    wrote = False
    if args.dot:
        _emit(args.dot, serialize.hypergraph_to_dot(state))
        wrote = True
    if args.adj:
        _emit(args.adj, serialize.graph_to_adjacency_text(to_graph(state)))
        wrote = True
    if args.json_out:
        _emit(args.json_out, serialize.dump_hypergraph(state))
        wrote = True
    if not wrote:
        print("error: export needs at least one of --dot/--adj/--json", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# twelve parsers take about 1.4 ms to build: build them once, on first use
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperlu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate construction files")
    gen_kind = gen.add_subparsers(dest="kind", required=True)
    p = gen_kind.add_parser("bipartite")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--r", type=int, required=True)
    p = gen_kind.add_parser("twentyseven")
    p = gen_kind.add_parser("g2h7")
    p.add_argument("--witness", help="also write the gate sequence")
    p.add_argument("--expected", help="also write the expected hypergraph")
    p = gen_kind.add_parser("star")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    for sp in gen_kind.choices.values():
        sp.add_argument("--out", help="state JSON output (default stdout)")
        sp.add_argument("--adj", help="also write adjacency text")
        sp.add_argument("--dot", help="also write DOT")
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("transform", help="apply a gate sequence to a state file")
    tr.add_argument("state")
    tr.add_argument("sequence")
    tr.add_argument("--out", help="output state JSON (default stdout)")
    tr.add_argument("--ledger", action="store_true", help="print per-edge deltas")
    tr.set_defaults(func=_cmd_transform)

    ver = sub.add_parser("verify", help="verify a constructed pair")
    ver.add_argument("--spec", required=True, help="bipartite:N:R, twentyseven or g2h7")
    ver.add_argument("--report", help="write the JSON report here")
    ver.add_argument("--against", help="adjacency file to compare against")
    ver.add_argument(
        "--budget", type=_int_at_least(0, sys.maxsize), default=1000, help="search budget"
    )
    ver.set_defaults(func=_cmd_verify)

    chk = sub.add_parser("check-lc", help="decide LC equivalence of two graphs")
    chk.add_argument("graph1")
    chk.add_argument("graph2")
    chk.set_defaults(func=_cmd_check_lc)

    orb = sub.add_parser("orbit", help="local-complementation orbit of a graph")
    orb.add_argument("graph")
    orb.add_argument("--cap", type=_int_at_least(1), default=10_000)
    orb.add_argument("--out", help="write orbit members as adjacency blocks")
    orb.set_defaults(func=_cmd_orbit)

    oc = sub.add_parser("oracle-check", help="validate a sequence against the oracle")
    oc.add_argument("state")
    oc.add_argument("sequence")
    oc.add_argument("--tol", type=float, default=1e-10)
    oc.set_defaults(func=_cmd_oracle_check)

    ex = sub.add_parser("export", help="convert a state file")
    ex.add_argument("input")
    ex.add_argument("--dot")
    ex.add_argument("--adj")
    ex.add_argument("--json", dest="json_out")
    ex.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, HyperluError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # a crash must never read as a verdict
        import traceback  # loaded on the crash path only, not at start-up

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
