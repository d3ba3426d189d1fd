"""End-to-end command-line behaviour and the exit-code contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperlu import serialize
from hyperlu.cli import main
from hyperlu.hypergraph import from_graph, star_graph, states_equal
from hyperlu.transforms import local_complement
from hyperlu.weights import Weight


def run(*argv) -> int:
    return main(list(argv))


def test_gen_star_round_trips(tmp_path):
    out = tmp_path / "star.json"
    assert run("gen", "star", "--n", "4", "--out", str(out)) == 0
    assert serialize.load_state(out) == from_graph(star_graph(4))


def test_gen_bipartite_writes_all_formats(tmp_path):
    out, adj, dot = (tmp_path / n for n in ("g.json", "g.adj", "g.dot"))
    code = run(
        "gen", "bipartite", "--n", "7", "--r", "5",
        "--out", str(out), "--adj", str(adj), "--dot", str(dot),
    )
    assert code == 0
    g = serialize.load_graph(adj)
    assert g.n == 28
    assert serialize.load_state(out) == from_graph(g)
    assert dot.read_text().startswith("graph")


def test_transform_star_quarter_power(tmp_path):
    state = tmp_path / "star.json"
    seq = tmp_path / "seq.json"
    out = tmp_path / "out.json"
    run("gen", "star", "--n", "4", "--out", str(state))
    seq.write_text(json.dumps([{"q": 0, "g": "Xp", "a": "1/4"}]))
    assert run("transform", str(state), str(seq), "--out", str(out), "--ledger") == 0
    result = serialize.load_hypergraph(out)
    assert result.weight((1, 2, 3)) == Weight(1)
    assert result.weight((1, 2)) == Weight(3, 1)
    assert result.weight((1,)) == Weight(1, 2)


def test_transform_empty_sequence_is_identity(tmp_path):
    state = tmp_path / "star.json"
    seq = tmp_path / "seq.json"
    out = tmp_path / "out.json"
    run("gen", "star", "--n", "4", "--out", str(state))
    seq.write_text("[]")
    run("transform", str(state), str(seq), "--out", str(out))
    assert out.read_text() == state.read_text()


def test_g2h7_files_compose(tmp_path):
    state = tmp_path / "in.json"
    wit = tmp_path / "wit.json"
    exp = tmp_path / "exp.json"
    out = tmp_path / "out.json"
    assert run(
        "gen", "g2h7", "--out", str(state), "--witness", str(wit), "--expected", str(exp)
    ) == 0
    assert run("transform", str(state), str(wit), "--out", str(out)) == 0
    assert states_equal(serialize.load_hypergraph(out), serialize.load_hypergraph(exp))
    assert run("oracle-check", str(state), str(wit)) == 0


def test_verify_28_confirms(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run("verify", "--spec", "bipartite:7:5", "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["confirmed"] is True
    assert payload["lc"]["verdict"] in ("no-by-solver", "no-by-parity")
    capsys.readouterr()


def test_verify_toy_fails_cancellation(capsys):
    assert run("verify", "--spec", "bipartite:3:2") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["confirmed"] is False
    assert payload["lu"]["equivalent"] is False


def test_verify_twentyseven_confirms(capsys):
    assert run("verify", "--spec", "twentyseven") == 0
    capsys.readouterr()


def test_check_lc_identical_prints_witness(tmp_path, capsys):
    p = tmp_path / "g.adj"
    p.write_text(serialize.graph_to_adjacency_text(star_graph(4)))
    assert run("check-lc", str(p), str(p)) == 0
    witness = json.loads(capsys.readouterr().out)
    assert witness["a"] == [1, 1, 1, 1] and witness["b"] == [0, 0, 0, 0]


def test_check_lc_complement_pair(tmp_path, capsys):
    g = star_graph(4)
    p1, p2 = tmp_path / "a.adj", tmp_path / "b.adj"
    p1.write_text(serialize.graph_to_adjacency_text(g))
    p2.write_text(serialize.graph_to_adjacency_text(local_complement(g, 0)))
    assert run("check-lc", str(p1), str(p2)) == 0
    capsys.readouterr()


def test_check_lc_negative(tmp_path, capsys):
    from hyperlu.hypergraph import SimpleGraph

    p1, p2 = tmp_path / "a.adj", tmp_path / "b.adj"
    p1.write_text(serialize.graph_to_adjacency_text(SimpleGraph.from_edges(2, [(0, 1)])))
    p2.write_text(serialize.graph_to_adjacency_text(SimpleGraph.empty(2)))
    assert run("check-lc", str(p1), str(p2)) == 1
    assert "not LC-equivalent" in capsys.readouterr().out


def test_orbit_triangle(tmp_path, capsys):
    from hyperlu.hypergraph import complete_graph

    p = tmp_path / "k3.adj"
    p.write_text(serialize.graph_to_adjacency_text(complete_graph(3)))
    assert run("orbit", str(p)) == 0
    assert "orbit size: 4" in capsys.readouterr().out


def test_orbit_cap_gives_inconclusive_exit(tmp_path, capsys):
    p = tmp_path / "s.adj"
    p.write_text(serialize.graph_to_adjacency_text(star_graph(6)))
    assert run("orbit", str(p), "--cap", "2") == 2
    capsys.readouterr()


def test_orbit_without_out_builds_no_member_graph(tmp_path, capsys, monkeypatch):
    """The size is counted on the walk's own members; SimpleGraphs are
    built only when ``--out`` reads them."""
    from hyperlu.hypergraph import SimpleGraph, path_graph

    built = []
    trusted = SimpleGraph._trusted.__func__
    monkeypatch.setattr(
        SimpleGraph, "_trusted", classmethod(lambda cls, n, rows: built.append(n) or trusted(cls, n, rows))
    )
    for n in (9, 17):  # packed walk and row walk
        p = tmp_path / f"p{n}.adj"
        p.write_text(serialize.graph_to_adjacency_text(path_graph(n)))
        built.clear()
        assert run("orbit", str(p), "--cap", "500") == 2
        assert "orbit size: 500" in capsys.readouterr().out
        assert built == []
        assert run("orbit", str(p), "--cap", "500", "--out", str(tmp_path / "o.txt")) == 2
        assert len(built) == 500
    capsys.readouterr()


def test_export_dot_and_adjacency(tmp_path):
    state = tmp_path / "star.json"
    dot = tmp_path / "star.dot"
    adj = tmp_path / "star.adj"
    run("gen", "star", "--n", "4", "--out", str(state))
    assert run("export", str(state), "--dot", str(dot), "--adj", str(adj)) == 0
    assert serialize.load_graph(adj) == star_graph(4)
    assert "q0 -- q1" in dot.read_text()


def test_export_without_outputs_is_usage_error(tmp_path):
    state = tmp_path / "star.json"
    run("gen", "star", "--n", "4", "--out", str(state))
    assert run("export", str(state)) == 64


def test_missing_file_is_data_error(capsys):
    assert run("check-lc", "nope.adj", "nope.adj") == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [("check-lc", "{d}", "{d}"), ("verify", "--spec", "twentyseven", "--report", "{d}")]
)
def test_unreadable_path_is_a_data_error(tmp_path, capsys, argv):
    """A directory where a file is read or written is a data error (exit
    3), not a crash. A directory, not a file without permissions, since
    the tests may run as root."""
    assert run(*[a.format(d=tmp_path) for a in argv]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("verify")  # --spec missing
    assert exc.value.code == 64


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    from hyperlu import counterexamples as cx

    g, _ = cx.build(cx.TwentySeven())
    imported = tmp_path / "imported.adj"
    imported.write_text(serialize.graph_to_adjacency_text(g))
    argv = ("verify", "--spec", "twentyseven", "--against", str(imported), "--budget")
    with pytest.raises(SystemExit) as exc:
        run(*argv, "-5")
    assert exc.value.code == 64
    assert "argument --budget: must be at least 0, got -5" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(*argv, str(sys.maxsize + 1))
    assert exc.value.code == 64
    assert f"argument --budget: must be at most {sys.maxsize}, got {sys.maxsize + 1}" in (
        capsys.readouterr().err
    )
    # budget 0 stays legal: an exhausted search, reported as inconclusive
    assert run(*argv, "0") == 2
    search = json.loads(capsys.readouterr().out)["against"]["search"]
    assert search == {"candidates": [], "examined": 0, "budget_exhausted": True}


def test_orbit_cap_below_one_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "s.adj"
    p.write_text(serialize.graph_to_adjacency_text(star_graph(6)))
    for cap in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run("orbit", str(p), "--cap", cap)
        assert exc.value.code == 64
        assert f"argument --cap: must be at least 1, got {cap}" in capsys.readouterr().err
    assert run("orbit", str(p), "--cap", "1") == 2
    assert capsys.readouterr().out == "orbit size: 1\ntruncated at cap 1\n"


@pytest.mark.parametrize("kind", [("star",), ("bipartite", "--r", "1")])
def test_negative_gen_vertex_count_is_a_usage_error(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        run("gen", kind[0], "--n", "-1", *kind[1:])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and "argument --n: must be at least 0, got -1" in err


def test_verify_against_imported_matrix(tmp_path, capsys):
    """A user-supplied 27-vertex adjacency file gets a definite or
    explicitly inconclusive verdict from both the solver and the
    degree-distribution search."""
    from hyperlu import counterexamples as cx

    g, split = cx.build(cx.TwentySeven())
    relabeled = local_complement(local_complement(g, 0), 0)  # identity, same graph
    imported = tmp_path / "imported.adj"
    imported.write_text(serialize.graph_to_adjacency_text(relabeled))
    code = run(
        "verify", "--spec", "twentyseven",
        "--against", str(imported), "--budget", "300",
    )
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["against"]["lc_verdict"] in ("witness", "none", "inconclusive")
    assert "search" in payload["against"]
    assert code in (0, 2)


def test_verify_against_builds_the_construction_once(tmp_path, monkeypatch, capsys):
    from hyperlu import counterexamples as cx

    g, _ = cx.build(cx.TwentySeven())
    imported = tmp_path / "imported.adj"
    imported.write_text(serialize.graph_to_adjacency_text(g))
    calls = []
    build = cx.build
    monkeypatch.setattr(cx, "build", lambda spec: calls.append(spec) or build(spec))
    code = run("verify", "--spec", "twentyseven", "--against", str(imported), "--budget", "50")
    payload = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert payload["confirmed"] and payload["against"]["lc_verdict"] == "witness"
    assert [] in payload["against"]["search"]["candidates"] and code == 2


# fault numerators over 2**2, added to the sweep sum at its first expansion;
# mask 65 is the edge (0, 6), 192 is (6, 7) and 6 is (1, 2), below (0, 6)'s mask
_DROP_EDGE = {65: 4}  # (0, 6) from weight 1 to 0
_ADD_RIGHT_EDGE = {192: 4}  # (6, 7) at weight 1
_WRONG_WEIGHT = {65: 6}  # (0, 6) at weight 1/2
_TWO_FAULTS = {65: 4, 6: 2}


@pytest.mark.parametrize(
    "fault, where",
    [
        (_DROP_EDGE, "(0, 6)"), (_ADD_RIGHT_EDGE, "(6, 7)"), (_WRONG_WEIGHT, "(0, 6)"),
        (_TWO_FAULTS, "(0, 6)"),
    ],
)
def test_faulty_sweep_fold_exits_70(monkeypatch, capsys, fault, where):
    """A sweep that drops, adds or misweighs an edge is caught by the raw
    weight ledger and is a crash, not a data error or a verdict. The
    message names the smallest differing edge as a vertex tuple."""
    from hyperlu import counterexamples

    expand = counterexamples.add_expansion
    calls = []

    def faulty(acc, masks, alpha):
        expand(acc, masks, alpha)
        if not calls:
            for m, num in fault.items():
                acc[m] = acc.get(m, 0) + num
        calls.append(1)

    monkeypatch.setattr(counterexamples, "add_expansion", faulty)
    assert run("verify", "--spec", "twentyseven") == 70
    err = capsys.readouterr().err
    assert f"engine sweep state disagrees with the raw ledger at {where}" in err


def test_verify_help_names_every_spec_form(capsys):
    with pytest.raises(SystemExit) as exc:
        run("verify", "--help")
    assert exc.value.code == 0
    assert "bipartite:N:R, twentyseven or g2h7" in capsys.readouterr().out


def test_verify_496_qubit_member_confirms(capsys):
    """bipartite:31:29 is checked against its closed-form ledger; the
    enumerated one would need 465 * (2^29 - 1) subsets."""
    assert run("verify", "--spec", "bipartite:31:29") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["confirmed"] is True
    assert payload["lemma"]["certificate"] == "parity"


def test_verify_non_cancelling_62_qubit_member_lists_residues(capsys):
    assert run("verify", "--spec", "bipartite:31:30") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["lu"]["equivalent"] is False
    residues = payload["lu"]["ledger"]["residues"]
    assert len(residues) == 465 and residues[0] == {"v": [0, 1], "w": "3/2"}


def test_over_cap_sweep_names_its_step(capsys):
    """Every right vertex's link is 466 edges: the batched sweep refuses
    the first gate's expansion with that gate's index."""
    assert run("verify", "--spec", "bipartite:467:466") == 3
    assert capsys.readouterr().err == (
        "error: step 0: expansion over 466 edges up to size 3 enumerates "
        "more than 16777215 subsets\n"
    )


def test_deep_nullspace_search_is_a_verdict(tmp_path, capsys):
    """400 vertices, edges 0-1 and 1-2, against the local complement at 1:
    the nullspace has over a thousand dimensions, deeper than Python's
    recursion limit, and the search still ends in a checked witness."""
    from hyperlu.hypergraph import SimpleGraph
    from hyperlu.lc_solver import CliffordWitness, verify_witness

    g1 = SimpleGraph.from_edges(400, [(0, 1), (1, 2)])
    g2 = local_complement(g1, 1)
    a, b = tmp_path / "a.adj", tmp_path / "b.adj"
    a.write_text(serialize.graph_to_adjacency_text(g1))
    b.write_text(serialize.graph_to_adjacency_text(g2))
    assert run("check-lc", str(a), str(b)) == 0
    witness = CliffordWitness(**{k: tuple(v) for k, v in json.loads(capsys.readouterr().out).items()})
    assert verify_witness(g1, g2, witness)


@pytest.mark.parametrize("where", ["state", "sequence"])
def test_huge_weight_exponent_is_a_data_error(tmp_path, capsys, where):
    """An exponent far beyond any exact computation is refused at parse
    time, before the reduction allocates anything of its size."""
    import time

    huge = "1/2^100000000"
    state = tmp_path / "s.json"
    seq = tmp_path / "q.json"
    w = huge if where == "state" else "1"
    a = huge if where == "sequence" else "1/4"
    state.write_text(json.dumps({"n": 2, "edges": [{"v": [0, 1], "w": w}], "phase": "0"}))
    seq.write_text(json.dumps([{"q": 0, "g": "Xp", "a": a}]))
    start = time.perf_counter()
    assert run("transform", str(state), str(seq)) == 3
    assert time.perf_counter() - start < 1.0
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "{state}", "{seq}"],
        ["check-lc", "{adj}", "{adj}"],
        ["gen", "star", "--n", "1000000000000"],
        ["gen", "bipartite", "--n", "1000000000000", "--r", "1000000000000"],
        ["verify", "--spec", "bipartite:1000000000000:1000000000000"],
    ],
)
def test_huge_vertex_count_is_a_data_error(tmp_path, capsys, argv):
    """A vertex count beyond MAX_VERTICES is refused where it enters,
    before any mask or adjacency row of that size is built."""
    import time

    state = tmp_path / "s.json"
    seq = tmp_path / "q.json"
    adj = tmp_path / "g.adj"
    n = 10**12
    state.write_text(json.dumps({"n": n, "edges": [{"v": [n - 1], "w": "1"}], "phase": "0"}))
    seq.write_text(json.dumps([{"q": 0, "g": "Xp", "a": "1/4"}]))
    adj.write_text(f"{n}\n")
    paths = {"state": state, "seq": seq, "adj": adj}
    start = time.perf_counter()
    assert run(*[a.format(**paths) for a in argv]) == 3
    assert time.perf_counter() - start < 1.0
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--spec", "bipartite:100000:1"],
        ["verify", "--spec", "bipartite:20:6"],
        ["gen", "bipartite", "--n", "262143", "--r", "262143"],
        ["transform", "{state}", "{seq}"],
        ["check-lc", "{state}", "{state}"],
        ["export", "{state}", "--adj", "-"],
    ],
)
def test_over_budget_edge_bits_are_a_data_error(tmp_path, capsys, argv):
    """Edges whose top vertex + 1 sum past MAX_EDGE_BITS are refused where
    they enter, before any edge mask or adjacency row is built: about
    2^33.8, 2^32.1 and 2^36 bits for the specs, 2^34 for the state of
    2^16 edges (i, 2^18 - 1)."""
    import time

    n = 1 << 18
    state = tmp_path / "s.json"
    seq = tmp_path / "q.json"
    edges = [{"v": [i, n - 1], "w": "1"} for i in range(1 << 16)]
    state.write_text(json.dumps({"n": n, "edges": edges, "phase": "0"}))
    seq.write_text(json.dumps([{"q": 0, "g": "Xp", "a": "1/4"}]))
    start = time.perf_counter()
    assert run(*[a.format(state=state, seq=seq) for a in argv]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "bits exceed 4294967296" in err


def test_over_cap_binomial_is_refused_without_computing_it(capsys):
    """C(2^18, 2^17) has about 78,000 digits; the incremental binomial
    stops at the first partial product past the right-side cap."""
    import time

    start = time.perf_counter()
    assert run("verify", "--spec", "bipartite:262144:131072") == 3
    assert time.perf_counter() - start < 0.2
    assert "C(262144,131072) exceeds cap 100000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, alpha",
    [(1101, "1/2^1024"), (41, "1/4096")],
    ids=["deep-recursion", "billions-of-subsets"],
)
def test_over_cap_x_power_expansion_is_a_data_error(tmp_path, capsys, n, alpha):
    """X^alpha at the centre of a star expands subsets of its n - 1 leaf
    edges up to size exp + 1; past 2^24 - 1 subsets it is refused before
    any enumeration (the first once crashed on the recursion limit, the
    second needs about 2.1e10 subsets)."""
    import time

    state, seq = tmp_path / "star.json", tmp_path / "seq.json"
    state.write_text(serialize.dump_hypergraph(from_graph(star_graph(n))))
    seq.write_text(json.dumps([{"q": 0, "g": "Xp", "a": alpha}]))
    start = time.perf_counter()
    assert run("transform", str(state), str(seq)) == 3
    assert time.perf_counter() - start < 1.0
    assert "more than 16777215 subsets" in capsys.readouterr().err


def test_state_at_the_vertex_cap_transforms(tmp_path, capsys):
    from hyperlu.hypergraph import MAX_VERTICES

    n = MAX_VERTICES
    state = tmp_path / "s.json"
    seq = tmp_path / "q.json"
    edges = [{"v": [0, n - 1], "w": "1"}, {"v": [1, n - 1], "w": "1"}, {"v": [n - 2], "w": "1/4"}]
    state.write_text(json.dumps({"n": n, "edges": edges, "phase": "0"}))
    seq.write_text(json.dumps([{"q": n - 1, "g": "LC"}, {"q": n - 1, "g": "Xp", "a": "1/4"}]))
    assert run("transform", str(state), str(seq), "--out", str(tmp_path / "o.json")) == 0
    out = serialize.load_hypergraph(tmp_path / "o.json")
    assert out.n == n and out.weight((n - 2,)) == Weight(1, 2)
    state.write_text(json.dumps({"n": n + 1, "edges": [], "phase": "0"}))
    assert run("transform", str(state), str(seq)) == 3


_GOOD_STATE = {"n": 2, "edges": [{"v": [0, 1], "w": "1"}], "phase": "0"}
_GOOD_SEQ = [{"q": 0, "g": "X"}]


@pytest.mark.parametrize(
    "state, seq, message",
    [
        ({"n": 2, "edges": [{"w": "1"}]}, _GOOD_SEQ, "state edge 0 has no 'v'"),
        ({"n": 2, "edges": 5}, _GOOD_SEQ, "state: 'edges' must be an array, not an integer"),
        (_GOOD_STATE, [{"g": "X"}], "gate 0 has no 'q'"),
        ({"edges": []}, _GOOD_SEQ, "state has no 'n'"),
        ({"n": 2, "edges": [{"v": [0, 1]}]}, _GOOD_SEQ, "state edge 0 has no 'w'"),
        ({"n": 2, "edges": [[0, 1]]}, _GOOD_SEQ, "state edge 0 must be an object, not an array"),
        ({"n": 2, "edges": [{"v": [0, 1], "w": 1}]}, _GOOD_SEQ, "'w' must be a string"),
        ({**_GOOD_STATE, "phase": 1}, _GOOD_SEQ, "state: 'phase' must be a string"),
        ({"n": -1, "edges": []}, _GOOD_SEQ, "vertex count -1 is negative"),
        (_GOOD_STATE, [{"q": 0}], "gate 0 has no 'g'"),
        (_GOOD_STATE, [{"q": 0, "g": ["X"]}], "gate 0: 'g' must be a string"),
        (_GOOD_STATE, [{"q": 0, "g": "Xp", "a": 0.25}], "gate 0: 'a' must be a string"),
        (_GOOD_STATE, {"q": 0, "g": "X"}, "gate sequence must be an array, not an object"),
        (_GOOD_STATE, ["X"], "gate 0 must be an object, not a string"),
    ],
)
def test_malformed_json_is_a_data_error(tmp_path, capsys, state, seq, message):
    """A missing key or a wrong JSON type is refused where the file is
    read (exit 3), not left to crash deeper in (exit 70)."""
    (tmp_path / "s.json").write_text(json.dumps(state))
    (tmp_path / "q.json").write_text(json.dumps(seq))
    assert run("transform", str(tmp_path / "s.json"), str(tmp_path / "q.json")) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "state, seq, message",
    [
        # {0, True} would load as the edge (0, True) and write back as true
        ({"n": 2, "edges": [{"v": [0, True], "w": "1"}]}, _GOOD_SEQ, "not a boolean"),
        # {1, True} == {1} would silently become the edge (1,)
        ({"n": 2, "edges": [{"v": [1, True], "w": "1"}]}, _GOOD_SEQ, "not a boolean"),
        ({"n": 2, "edges": [{"v": [0, 1.0], "w": "1"}]}, _GOOD_SEQ, "not a number"),
        ({"n": 2, "edges": [{"v": [0, "1"], "w": "1"}]}, _GOOD_SEQ, "not a string"),
        ({"n": 2.9, "edges": []}, _GOOD_SEQ, "'n' must be an integer, not a number"),
        ({"n": True, "edges": []}, _GOOD_SEQ, "'n' must be an integer, not a boolean"),
        ({"n": "2", "edges": []}, _GOOD_SEQ, "'n' must be an integer, not a string"),
        (_GOOD_STATE, [{"q": 1.7, "g": "X"}], "'q' must be an integer, not a number"),
        (_GOOD_STATE, [{"q": True, "g": "X"}], "'q' must be an integer, not a boolean"),
    ],
)
def test_indices_must_be_integers(tmp_path, capsys, state, seq, message):
    (tmp_path / "s.json").write_text(json.dumps(state))
    (tmp_path / "q.json").write_text(json.dumps(seq))
    assert run("transform", str(tmp_path / "s.json"), str(tmp_path / "q.json")) == 3
    assert message in capsys.readouterr().err


_DEEP = "[" * 100_000 + "]" * 100_000  # about 200 KB, past the parser's recursion limit


@pytest.mark.parametrize(
    "state, seq",
    [('{"n": ' + _DEEP + "}", json.dumps(_GOOD_SEQ)), (json.dumps(_GOOD_STATE), _DEEP)],
    ids=["state", "sequence"],
)
def test_deeply_nested_json_is_a_data_error(tmp_path, capsys, state, seq):
    """A state or a sequence nested too deeply for the JSON parser is a
    data error (exit 3), not a crash."""
    (tmp_path / "s.json").write_text(state)
    (tmp_path / "q.json").write_text(seq)
    assert run("transform", str(tmp_path / "s.json"), str(tmp_path / "q.json")) == 3
    assert capsys.readouterr().err == "error: JSON input is nested too deeply to parse\n"


def test_export_refuses_a_boolean_vertex(tmp_path, capsys):
    state = tmp_path / "s.json"
    state.write_text('{"n": 2, "edges": [{"v": [0, true], "w": "1"}]}')
    assert run("export", str(state), "--json", "-") == 3
    out, err = capsys.readouterr()
    assert out == "" and "not a boolean" in err


_START_UP_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
import hyperlu.cli
assert "numpy" not in sys.modules, "import hyperlu.cli loaded numpy"
from hyperlu import serialize
from hyperlu.hypergraph import star_graph
from hyperlu.transforms import local_complement
with contextlib.redirect_stdout(io.StringIO()):
    assert hyperlu.cli.main(["verify", "--spec", "twentyseven"]) == 0
assert "numpy" not in sys.modules, "verify twentyseven loaded numpy"
with contextlib.redirect_stdout(io.StringIO()) as out:
    hyperlu.cli.main(["verify", "--spec", "bipartite:11:6"])
assert json.loads(out.getvalue())["lc"]["witness"], "bipartite:11:6 found no LC witness"
assert "numpy" not in sys.modules, "the witness re-check of bipartite:11:6 loaded numpy"
a, b = Path(sys.argv[1], "a.adj"), Path(sys.argv[1], "b.adj")
a.write_text(serialize.graph_to_adjacency_text(star_graph(4)))
b.write_text(serialize.graph_to_adjacency_text(local_complement(star_graph(4), 0)))
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert hyperlu.cli.main(["check-lc", str(a), str(b)]) == 0
assert sorted(json.loads(out.getvalue())) == ["a", "b", "c", "d"]
assert "numpy" not in sys.modules, "check-lc with a witness loaded numpy"
"""


def _fresh_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_numpy_loads_only_where_a_numpy_path_runs(tmp_path):
    """In a fresh interpreter, importing the CLI, verifying
    ``twentyseven`` and ``bipartite:11:6`` (whose LC witness is
    re-checked) and a ``check-lc`` that prints a witness all leave numpy
    unloaded: only the oracle and ``involution_power_check`` load it."""
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_PROBE, str(tmp_path)],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_successive_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; successive ``main`` calls
    with different subcommands, help and usage errors print and exit as
    they do in a fresh interpreter each."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    g = star_graph(4)
    a, b = tmp_path / "a.adj", tmp_path / "b.adj"
    a.write_text(serialize.graph_to_adjacency_text(g))
    b.write_text(serialize.graph_to_adjacency_text(local_complement(g, 0)))
    runs = [
        ("--help",),
        ("gen", "star", "--n", "3"),
        ("check-lc", str(a), str(b)),
        ("gen", "bipartite", "--n", "-1", "--r", "1"),
        ("orbit", str(a), "--cap", "2"),
        ("verify",),
        ("orbit", "--help"),
        ("check-lc", str(a), str(tmp_path / "missing.adj")),
        ("gen", "star", "--help"),
        ("check-lc", str(a), str(b)),
    ]
    in_process = []
    for argv in runs:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "hyperlu", *argv],
            env=_fresh_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        for argv in runs
    ]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert [code for code, _, _ in in_process] == [0, 0, 0, 64, 2, 64, 0, 3, 0, 0]
