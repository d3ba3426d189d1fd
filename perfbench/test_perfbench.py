"""Tests of the benchmark's own parts: tracer, reference models, metric lists.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Spans, Target, Tracer  # noqa: E402

from hyperlu import cli, counterexamples, gf2, lc_solver, serialize, transforms  # noqa: E402
from hyperlu.hypergraph import SimpleGraph  # noqa: E402


def test_missing_target_is_skipped_with_a_note():
    tracer = Tracer(targets={
        "gf2.solve_linear_gf2": Target("gf2.solve_s"),
        "gf2.renamed_away": Target("gf2.renamed_s", None, ("gf2.renamed_calls",)),
        "no_such_module.f": Target("nowhere.self_s"),
    })
    tracer.install()
    try:
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        tracer.job(0, lc_solver.lc_equivalent, g, transforms.local_complement(g, 1))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert metrics["gf2.solve_s"] > 0
    assert "gf2.renamed_s" not in metrics and "gf2.renamed_calls" not in metrics
    assert "nowhere.self_s" not in metrics
    assert any("gf2.renamed_away" in note for note in tracer.notes)
    assert any("no_such_module.f" in note for note in tracer.notes)


def test_counter_that_no_longer_fits_is_dropped_with_a_note():
    def broken(c, args, kwargs, result):
        raise AttributeError("exp")

    tracer = Tracer(targets={"gf2.solve_linear_gf2": Target("gf2.solve_s", broken, ("gf2.solve_calls",))})
    tracer.install()
    try:
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        (witness, _) = tracer.job(0, lc_solver.lc_equivalent, g, transforms.local_complement(g, 1))
    finally:
        tracer.uninstall()
    assert witness is not None
    metrics = tracer.metrics(1)
    assert metrics["gf2.solve_s"] > 0 and "gf2.solve_calls" not in metrics
    assert any("counting gf2.solve_linear_gf2 failed" in note for note in tracer.notes)


def test_functions_are_wrapped_in_every_binding_module_and_restored():
    original = gf2.solve_linear_gf2
    make = type(serialize.hypergraph_from_dict({"n": 1, "edges": []})).__dict__["make"]
    tracer = Tracer()
    tracer.install()
    try:
        assert gf2.solve_linear_gf2.__wrapped__ is original
        assert lc_solver.solve_linear_gf2 is gf2.solve_linear_gf2
        assert cli.lc_equivalent is lc_solver.lc_equivalent is counterexamples.lc_equivalent
        assert SimpleGraph.__post_init__.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert gf2.solve_linear_gf2 is original and lc_solver.solve_linear_gf2 is original
    assert type(serialize.hypergraph_from_dict({"n": 1, "edges": []})).__dict__["make"] is make
    assert not hasattr(SimpleGraph.__post_init__, "__wrapped__")


def test_wrapper_work_is_charged_to_bookkeeping_not_to_layers():
    def slow_count(c, args, kwargs, result):
        time.sleep(0.05)
        c["gf2.solve_calls"] += 1

    tracer = Tracer(targets={
        "lc_solver.lc_equivalent": Target("lc_solver.self_s"),
        "gf2.solve_linear_gf2": Target("gf2.solve_s", slow_count, ("gf2.solve_calls",)),
    })
    tracer.install()
    try:
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        tracer.job(0, lc_solver.lc_equivalent, g, transforms.local_complement(g, 1))
    finally:
        tracer.uninstall()
    m = tracer.metrics(1)
    calls = m["gf2.solve_calls"]
    assert calls >= 1 and m["trace.bookkeeping_s"] >= 0.05 * calls
    assert m["gf2.solve_s"] < 0.05 and m["lc_solver.self_s"] < 0.05


def test_self_time_subtracts_direct_children():
    spans = Spans()
    root = spans.open(spans.name_id("root"), -1, 0)
    child = spans.open(spans.name_id("child"), root, 0)
    grandchild = spans.open(spans.name_id("leaf"), child, 0)
    spans.close(grandchild, 2.0, 3.0)
    spans.close(child, 1.0, 4.0)
    spans.close(root, 0.0, 10.0)
    assert spans.self_times() == {"root": 7.0, "child": 2.0, "leaf": 1.0}


def test_traced_counts_come_from_arguments_and_results():
    g, split = counterexamples.build(counterexamples.TwentySeven())
    tracer = Tracer()
    tracer.install()
    try:
        _, wall = tracer.job(0, counterexamples.verify_construction, counterexamples.TwentySeven())
    finally:
        tracer.uninstall()
    m = tracer.metrics(1)
    assert m["counterexamples.derive_calls"] == 2
    assert m["gf2.rows_raw"] >= g.n * g.n
    assert 0 < m["gf2.useful_row_ratio"] <= 1
    assert m["phase_algebra.power_of_product_calls"] >= len(split.right)
    assert abs(sum(v for k, v in m.items() if k.endswith("_s")) - wall) < 1e-6


def test_state_model_matches_the_program():
    for seed in range(6):
        start, seq, final = workloads._transform_case(random.Random(seed), 9, 25)
        state = serialize.hypergraph_from_dict(ref.state_json(start))
        out = transforms.apply_sequence(state, serialize.sequence_from_list(seq))
        assert serialize.hypergraph_to_dict(out) == ref.state_json(final)
        deltas = transforms.sequence_deltas(state, serialize.sequence_from_list(seq))
        printed = [("{" + ",".join(map(str, e)) + "}" if e else "phase") + f": {w}" for e, w in deltas.items()]
        assert printed == ref.ledger_lines(start, final)


def test_reference_search_matches_the_program():
    g, split = counterexamples.build(counterexamples.TwentySeven())
    rows, left, right = ref.construction("twentyseven")
    assert list(g.rows) == rows and list(split.left) == left and list(split.right) == right
    target = ref.local_complement(ref.with_clique(rows, left), 3)
    result = counterexamples.degree_distribution_search(
        g, split, [r.bit_count() for r in target], budget=300
    )
    assert ref.degree_search(rows, left, right, [r.bit_count() for r in target], 300) == (
        [list(c) for c in result.candidates], result.examined, result.budget_exhausted
    )


def test_replayed_lu_witness_gives_the_program_partner():
    for spec in ("twentyseven", "bipartite:7:5", "bipartite:8:5"):
        g, split = counterexamples.build(counterexamples.parse_spec(spec))
        derivation = counterexamples.derive_lu_partner(g, split)
        rows, _, _ = ref.construction(spec)
        gates = serialize.sequence_to_list(derivation.witness)
        assert ref.graph_of(ref.replay(rows, gates)) == list(derivation.target.rows)
        if spec in ("twentyseven", "bipartite:7:5"):  # lc_walk builds these partners directly
            assert list(derivation.target.rows) == ref.with_clique(rows, list(split.left))


def test_reference_witness_check_matches_the_program():
    rng = random.Random(7)
    for n in (5, 9, 14):
        rows = ref.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4])
        other = rows
        for _ in range(6):
            other = ref.local_complement(other, rng.randrange(n))
        g1, g2 = SimpleGraph(n, tuple(rows)), SimpleGraph(n, tuple(other))
        witness = lc_solver.lc_equivalent(g1, g2)
        assert witness is not None and ref.lc_witness_ok(rows, other, witness.as_dict())
        for k in "abcd":  # flip one bit of each vector and swap b, c at a vertex
            bad = witness.as_dict()
            bad[k][0] ^= 1
            assert ref.lc_witness_ok(rows, other, bad) is False
            if k == "a":
                bad["b"][0], bad["c"][0] = bad["c"][0], bad["b"][0]
            try:
                accepted = lc_solver.verify_witness(g1, g2, lc_solver.CliffordWitness(*map(tuple, bad.values())))
            except ValueError:
                accepted = False
            assert ref.lc_witness_ok(rows, other, bad) is accepted


def test_reference_lemma_matches_the_program():
    for spec in ("twentyseven", "bipartite:7:5", "bipartite:11:7", "bipartite:9:5"):
        g, split = counterexamples.build(counterexamples.parse_spec(spec))
        rows, left, right = ref.construction(spec)
        partner = ref.with_clique(rows, left)
        lemma = lc_solver.lemma_case_analysis(g, split, SimpleGraph(g.n, tuple(partner)))
        assert ref.lemma_solvable(rows, left, right, partner) is lemma.case2_solvable
        one_edge = ref.from_edges(g.n, [(left[0], left[1])])
        partner = [r ^ e for r, e in zip(rows, one_edge)]
        lemma = lc_solver.lemma_case_analysis(g, split, SimpleGraph(g.n, tuple(partner)))
        assert ref.lemma_solvable(rows, left, right, partner) is lemma.case2_solvable


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_needs_ten_samples_beyond():
    value, pct, beyond = run._tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10) and pct == 75.0
    value, pct, beyond = run._tail([1.0, 3.0, 2.0])
    assert (value, pct, beyond) == (3.0, 100.0, 0)
