"""Construction factory, LU derivation ledger, and full verification."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from conftest import SMALL_SPECS, VERIFY_LADDER, per_subset_ledger
from hyperlu import counterexamples as cx
from hyperlu import oracle, serialize, transforms
from hyperlu.errors import CancellationError, PreconditionError, SizeLimitError
from hyperlu.hypergraph import SimpleGraph, from_graph, is_graph_state, states_equal
from hyperlu.lc_solver import BipartiteSplit
from hyperlu.transforms import apply_sequence, x_power_gate
from hyperlu.weights import QUARTER, Weight


class TestBuild:
    def test_28_vertex_construction(self):
        g, split = cx.build(cx.BipartiteSubsets(7, 5))
        assert g.n == 28
        assert split.k1 == 7 and split.k2 == 21
        assert all(g.degree(v) == 15 for v in split.left)
        assert all(g.degree(v) == 5 for v in split.right)
        split.validate(g)

    def test_27_vertex_construction(self):
        g, split = cx.build(cx.TwentySeven())
        assert g.n == 27
        assert split.left == tuple(range(6))
        assert all(g.degree(v) == 15 for v in range(6))
        assert sorted(g.degree(v) for v in split.right) == [4] * 15 + [5] * 6
        split.validate(g)

    def test_toy_construction(self):
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        assert g.n == 6

    def test_builds_are_deterministic(self):
        a, _ = cx.build(cx.TwentySeven())
        b, _ = cx.build(cx.TwentySeven())
        assert a == b and a.rows == b.rows

    def test_right_cap(self):
        with pytest.raises(SizeLimitError, match=r"C\(30,15\) exceeds cap 100000"):
            cx.build(cx.BipartiteSubsets(30, 15))

    @pytest.mark.parametrize(
        "spec, sizes",
        [("bipartite:7:5", (5,)), ("bipartite:15:13", (13,)), ("bipartite:1:1", (1,)),
         ("twentyseven", (5, 4)), ("g2h7", (3, 2))],
    )
    def test_every_spec_builds_a_subset_family(self, spec, sizes):
        """Each built spec joins its right vertices to every left subset of
        each listed size once, so its sweep takes the closed-form ledger."""
        g, split = cx.build(cx.parse_spec(spec))
        assert cx._subset_sizes(g, split) == sizes

    @pytest.mark.parametrize("spec", ["bipartite:7:5", "bipartite:15:4", "bipartite:31:29"])
    def test_edge_bit_count_is_the_built_sum(self, monkeypatch, spec):
        """The bits a bipartite spec is checked for are the sum over its
        edges of top vertex + 1, counted before any edge exists."""
        counted = []
        monkeypatch.setattr(cx, "check_edge_bits", counted.append)
        g, _ = cx.build(cx.parse_spec(spec))
        assert counted == [sum(j + 1 for _, j in g.edge_list())]

    def test_parse_spec(self):
        assert cx.parse_spec("bipartite:7:5") == cx.BipartiteSubsets(7, 5)
        assert cx.parse_spec("twentyseven") == cx.TwentySeven()
        assert cx.parse_spec("g2h7") == cx.GraphToHypergraph7()
        with pytest.raises(ValueError):
            cx.parse_spec("nonsense")


# the benchmark's verify ladder without bipartite:9:5, whose sweep does
# not cancel
CANCELLING_LADDER = (
    "bipartite:7:5", "twentyseven", "bipartite:7:4", "bipartite:8:5", "bipartite:11:9",
    "bipartite:11:8", "bipartite:11:4", "bipartite:11:7", "bipartite:11:6",
)


class TestDeriveLuPartner:
    def test_28_target_is_cross_plus_complete_left(self):
        g, split = cx.build(cx.BipartiteSubsets(7, 5))
        d = cx.derive_lu_partner(g, split)
        for i in range(7):
            for j in range(i + 1, 7):
                assert d.target.has_edge(i, j)
        for i, j in g.edge_list():
            assert d.target.has_edge(i, j)
        assert d.target.edge_count() == g.edge_count() + math.comb(7, 2)

    def test_27_target_completes_the_centrals(self):
        g, split = cx.build(cx.TwentySeven())
        d = cx.derive_lu_partner(g, split)
        assert all(d.target.has_edge(i, j) for i in range(6) for j in range(i + 1, 6))
        assert d.target.edge_count() == g.edge_count() + 15

    @pytest.mark.parametrize("spec", CANCELLING_LADDER)
    def test_witness_replays_to_target(self, spec):
        g, split = cx.build(cx.parse_spec(spec))
        d = cx.derive_lu_partner(g, split)
        replay = apply_sequence(from_graph(g), d.witness)
        assert is_graph_state(replay)
        assert states_equal(replay, from_graph(d.target), ignore_global_phase=True)

    def test_toy_fails_with_fractional_residues(self):
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        with pytest.raises(CancellationError) as exc:
            cx.derive_lu_partner(g, split)
        ledger = exc.value.ledger
        assert [(list(e), str(w)) for e, w in ledger.residues] == [
            ([0, 1], "3/2"),
            ([0, 2], "3/2"),
            ([1, 2], "3/2"),
        ]

    def test_28_ledger_rows(self):
        g, split = cx.build(cx.BipartiteSubsets(7, 5))
        d = cx.derive_lu_partner(g, split)
        by_card = {
            row.cardinality: row for row in d.ledger.rows
        }
        assert by_card[1].raw == Fraction(15, 4) and by_card[1].count == 7
        assert by_card[2].raw == Fraction(-5) and by_card[2].reduced == Weight(1)
        assert by_card[3].raw == Fraction(6) and by_card[3].reduced == Weight(0)
        assert by_card[4].reduced == Weight(0)
        assert by_card[5].reduced == Weight(0)

    @pytest.mark.parametrize("n", [5, 6, 7, 9])
    def test_ledger_matches_closed_forms(self, n):
        """Engine bookkeeping equals the covering-count formulas for the
        subset family with r = 5 (only n = 7 cancels)."""
        r = 5
        if n < r:
            pytest.skip("needs n >= r")
        g, split = cx.build(cx.BipartiteSubsets(n, r))
        try:
            ledger = cx.derive_lu_partner(g, split).ledger
        except CancellationError as exc:
            ledger = exc.ledger
        for card in range(1, r + 1):
            rows = ledger.rows_for(card)
            assert len(rows) == 1
            covers = math.comb(n - card, r - card)
            expected_raw = Fraction((-2) ** (card - 1), 4) * covers
            assert rows[0].raw == expected_raw
            assert rows[0].count == math.comb(n, card)
            assert rows[0].reduced == Weight.from_fraction(expected_raw % 2)


def ledger_from_raw(raw: dict) -> tuple[list, dict]:
    """Rows and nonzero reduced deltas of raw per-edge Fraction weights."""
    grouped = collections.Counter((len(e), frac) for e, frac in raw.items())
    rows = [
        cx.LedgerRow(card, frac, Weight.from_fraction(frac % 2), count)
        for (card, frac), count in sorted(grouped.items())
    ]
    deltas = {e: Weight.from_fraction(f % 2) for e, f in raw.items() if f % 2}
    return rows, deltas


def without_last_right(g: SimpleGraph, split: BipartiteSplit):
    last = split.right[-1]
    edges = [e for e in g.edge_list() if last not in e]
    return SimpleGraph.from_edges(g.n - 1, edges), BipartiteSplit(split.left, split.right[:-1])


def with_right(g: SimpleGraph, split: BipartiteSplit, nbrs):
    edges = g.edge_list() + [(u, g.n) for u in nbrs]
    return SimpleGraph.from_edges(g.n + 1, edges), BipartiteSplit(split.left, split.right + (g.n,))


def derive_outcome(g: SimpleGraph, split: BipartiteSplit):
    try:
        d = cx.derive_lu_partner(g, split)
    except CancellationError as exc:
        return None, None, exc.ledger.as_dict()
    return d.target, d.witness, d.ledger.as_dict()


def outcome_digest(g: SimpleGraph, split: BipartiteSplit) -> str:
    """sha256 of the target rows, witness and ledger that derivation gives."""
    target, witness, ledger = derive_outcome(g, split)
    payload = [
        target.rows if target else None,
        serialize.sequence_to_list(witness) if witness else None,
        ledger,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


NON_FAMILY_CHANGES = [
    without_last_right,
    lambda g, split: with_right(g, split, g.neighbors(split.right[-1])),
    lambda g, split: with_right(g, split, (0, 1)),
    lambda g, split: with_right(*without_last_right(g, split), g.neighbors(split.right[0])),
    lambda g, split: (
        SimpleGraph.from_edges(g.n + 1, g.edge_list()),
        BipartiteSplit(split.left + (g.n,), split.right),
    ),
]
NON_FAMILY_IDS = [
    "right-vertex-removed", "right-vertex-duplicated", "second-size-added",
    "right-vertex-duplicated-in-place-of-another", "isolated-left-vertex-added",
]


# outcome_digest of each NON_FAMILY_CHANGES case on bipartite:<base>,
# computed before the sweep check moved onto edge masks
ENUMERATED_DIGESTS = {
    "7:4": [
        "7b4fb1b76b596a8e03d2ac310fa344e05475866f4d84d2c3721f35fd27cbff92",
        "55d0ad4bfaac60922c4f369758b2a9265c7947be7c6e9f82f2c85200dbb7f1e6",
        "571b30baa4a0e87a1f4f8d4a4fbb4b5ab1fef41659f75ba00356e0425bbd6758",
        "884378d3fd12f03179fe9b4e35d1b5901ff74d7b49421c61cd15fcb47dd7f600",
        "ed019f135cfe1665ea8d9c3baa66468e1fb7f282144d47ffe033a5b85c67c135",
    ],
    "7:5": [
        "695434b8bc4ba4e5b3c9efc10a4a1ee82ac0abe9e868c8587e5869c217b7259c",
        "98c5d841c94e0018cfe47a6fa7df95cd6993be1b02a3e02beda603c3a6afd0cd",
        "babe6c6f5c919042d3fb63ef940af45182f60fbc81eb1628fb62903d4c3c127d",
        "9439e7dab176f6eacd21cbe4dcae11d1edfdc76d6bae65209c7647d2f51d9e7d",
        "66038d7512e1ca70b64ff8a5ddd26cb0d7eaded6e42098fce9343d5defa3bf06",
    ],
    "6:3": [
        "5671199f7ceeda6ab37a3fdcac69dacbead5e408d5afe1041156a97d926191e1",
        "cff6184d6c0f2f13839a8c4b35e471600643d20cf63ecd95f1e5a731469bf7a0",
        "aa27eacca8f7d1c8e1c08f6ab778af24db2c01b2dd2d728364a12f0fc5e3081f",
        "a8421c4b28ff4b7965f4070adeb089c38b5842946470f233a67db398c1fbbd19",
        "aef0c1baffe1858d11a157095be0ec987c92c9584079534a2ca59b61e2aa2b7e",
    ],
}


class TestClosedFormLedger:
    """A subset family's ledger, read off the graph, against the test-side
    per-subset ledger; any other graph enumerates."""

    @pytest.mark.parametrize(
        "spec",
        VERIFY_LADDER + ("g2h7",) + SMALL_SPECS
        + ("bipartite:15:4", "bipartite:15:5", "bipartite:15:12", "bipartite:15:13"),
    )
    def test_equals_the_per_subset_ledger(self, spec):
        g, split = cx.build(cx.parse_spec(spec))
        alpha = Fraction(1, 4)
        closed_rows, closed_deltas = cx._closed_form_ledger(
            split.left, cx._subset_sizes(g, split), alpha
        )
        rows, deltas = ledger_from_raw(per_subset_ledger(g, split, alpha))
        assert closed_rows == rows
        assert closed_deltas == {sum(1 << v for v in e): w for e, w in deltas.items()}

    @pytest.mark.parametrize("change", NON_FAMILY_CHANGES, ids=NON_FAMILY_IDS)
    def test_other_graphs_enumerate(self, monkeypatch, change):
        """A family with one right vertex removed, one duplicated, one of a
        second size added, or an isolated left vertex added is no family:
        it derives what a forced enumeration derives. The in-place
        duplicate keeps every size's count and differs only in repeating a
        row."""
        g, split = change(*cx.build(cx.BipartiteSubsets(7, 4)))
        assert cx._subset_sizes(g, split) is None
        got = derive_outcome(g, split)
        monkeypatch.setattr(cx, "_subset_sizes", lambda g, split: None)
        assert got == derive_outcome(g, split)

    @pytest.mark.parametrize("base", ["7:4", "7:5", "6:3"])
    @pytest.mark.parametrize("change", range(len(NON_FAMILY_CHANGES)), ids=NON_FAMILY_IDS)
    def test_enumerated_outcomes_are_pinned(self, base, change):
        """Target, witness and ledger of the non-family graphs, which take
        the enumerated ledger; the last case cancels on 7:4 and 7:5."""
        g, split = NON_FAMILY_CHANGES[change](*cx.build(cx.parse_spec(f"bipartite:{base}")))
        assert outcome_digest(g, split) == ENUMERATED_DIGESTS[base][change]

    def test_spec_paths_do_not_enumerate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated the sweep ledger")

        monkeypatch.setattr(cx, "_raw_sweep_deltas", refuse)
        for spec in VERIFY_LADDER + ("g2h7", "bipartite:3:2", "bipartite:15:13"):
            cx.verify_construction(cx.parse_spec(spec))
        g, split = without_last_right(*cx.build(cx.BipartiteSubsets(7, 5)))
        with pytest.raises(AssertionError, match="enumerated"):
            cx.derive_lu_partner(g, split)

    def test_family_member_past_the_enumeration_cap_verifies(self):
        """bipartite:31:29 would enumerate 465 * (2^29 - 1) subsets; read off
        the graph, its ledger is the closed form and the pair confirms."""
        g, split = cx.build(cx.BipartiteSubsets(31, 29))
        target = SimpleGraph.from_edges(
            g.n, g.edge_list() + list(itertools.combinations(split.left, 2))
        )
        report = cx.verify_counterexample(g, split, target)
        assert report.confirmed and report.lemma.certificate == "parity"

    def test_over_cap_enumeration_is_refused_before_it_starts(self):
        """bipartite:31:30 without its last right vertex is no family, and
        its 30 right vertices of degree 30 hold 30 * (2^30 - 1) subsets."""
        g, split = without_last_right(*cx.build(cx.BipartiteSubsets(31, 30)))
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="more than 16777215 subsets"):
            cx.verify_counterexample(g, split, g)
        assert time.perf_counter() - start < 1.0

    def test_the_cap_is_inclusive(self, monkeypatch):
        """A right vertex of degree 24 holds 2^24 - 1 subsets, exactly the
        cap, and is enumerated; a second right vertex tips it over."""

        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(cx, "combinations", started)
        edges = [(u, 24) for u in range(24)]
        g = SimpleGraph.from_edges(25, edges)
        with pytest.raises(Started):
            cx._raw_sweep_deltas(g, BipartiteSplit(tuple(range(24)), (24,)), Fraction(1, 4))
        g = SimpleGraph.from_edges(27, edges + [(25, 26)])
        split = BipartiteSplit(tuple(range(24)) + (25,), (24, 26))
        with pytest.raises(SizeLimitError):
            cx._raw_sweep_deltas(g, split, Fraction(1, 4))


SWEEP_REFERENCE_CASES = [(spec, None) for spec in VERIFY_LADDER + ("g2h7",) + SMALL_SPECS] + [
    (f"bipartite:{base}", change)
    for base in ("7:4", "7:5", "6:3")
    for change in range(len(NON_FAMILY_CHANGES))
]


@pytest.mark.parametrize(
    "spec, change",
    SWEEP_REFERENCE_CASES,
    ids=[spec if c is None else f"{spec}-{NON_FAMILY_IDS[c]}" for spec, c in SWEEP_REFERENCE_CASES],
)
def test_gate_by_gate_sweep_is_the_derivation(spec, change):
    """X^(1/4) folded gate by gate on every right vertex, cancelling or
    not: its one-vertex edges are the negated corrections, its edges
    other than weight-1 two-edges are the residues, and when the sweep
    cancels its weight-1 two-edges are the target's edges."""
    g, split = cx.build(cx.parse_spec(spec))
    if change is not None:
        g, split = NON_FAMILY_CHANGES[change](g, split)
    try:
        derivation = cx.derive_lu_partner(g, split)
        ledger, target = derivation.ledger, derivation.target
    except CancellationError as exc:
        ledger, target = exc.ledger, None
    folded = apply_sequence(from_graph(g), [x_power_gate(v, QUARTER) for v in split.right])
    one = Weight(1)
    assert folded.phase.is_zero
    assert [(e[0], w) for e, w in folded.edges if len(e) == 1] == [
        (q, -w) for q, w in ledger.corrections
    ]
    others = [(e, w) for e, w in folded.edges if len(e) > 2 or (len(e) == 2 and w != one)]
    assert others == ledger.residues
    if target is not None:
        graph_edges = [e for e, w in folded.edges if len(e) == 2 and w == one]
        assert graph_edges == target.edge_list()


class TestGraphToHypergraph7:
    def test_pipeline_reaches_expected_state(self):
        g, witness, expected = cx.build_graph_to_hypergraph7()
        out = apply_sequence(from_graph(g), witness)
        assert states_equal(out, expected)

    def test_expected_is_not_a_graph_state(self):
        g, _, expected = cx.build_graph_to_hypergraph7()
        assert is_graph_state(from_graph(g))
        assert not is_graph_state(expected)
        assert expected.weight((1, 2, 3)) == Weight(1)

    def test_oracle_confirms_at_seven_qubits(self):
        g, witness, expected = cx.build_graph_to_hypergraph7()
        dense = oracle.replay_dense(from_graph(g), list(witness))
        predicted = oracle.dense_state(expected)
        assert oracle.equal_up_to_global_phase(predicted, dense, tol=1e-10)
        symbolic = apply_sequence(from_graph(g), witness)
        assert oracle.phase_vectors_equal(
            oracle.synthesize(symbolic), oracle.synthesize(expected), tol=1e-10
        )


class TestVerify:
    def test_28_confirmed(self):
        report = cx.verify_construction(cx.BipartiteSubsets(7, 5))
        assert report.confirmed and report.lu_equivalent
        assert report.lc_verdict in ("no-by-solver", "no-by-parity")
        assert report.lemma.certificate == "parity"
        assert report.lemma.needed_edge_count == 21
        assert set(report.lemma.toggle_parities.values()) == {0}

    def test_27_confirmed(self):
        report = cx.verify_construction(cx.TwentySeven())
        assert report.confirmed
        assert report.lemma.needed_edge_count == 15
        degrees = {report.lemma.toggle_parities[j] for j in report.lemma.toggle_parities}
        assert degrees == {0}

    def test_toy_not_confirmed(self):
        report = cx.verify_construction(cx.BipartiteSubsets(3, 2))
        assert not report.confirmed and not report.lu_equivalent
        assert report.ledger is not None and report.ledger.residues

    def test_mismatched_target_rejected(self):
        g, split = cx.build(cx.BipartiteSubsets(7, 5))
        with pytest.raises(PreconditionError):
            cx.verify_counterexample(g, split, g)

    def test_construction_derives_once(self, monkeypatch):
        calls = []
        derive = cx.derive_lu_partner

        def counting(g, split):
            calls.append(g.n)
            return derive(g, split)

        monkeypatch.setattr(cx, "derive_lu_partner", counting)
        report = cx.verify_construction(cx.TwentySeven())
        assert report.confirmed and calls == [27]

    def test_verify_builds_no_fold(self, monkeypatch):
        """The sweep is summed from the graph's rows, not folded."""
        folds = []
        init = transforms._Fold.__init__

        def counting(self, h):
            folds.append(h.n)
            init(self, h)

        monkeypatch.setattr(transforms._Fold, "__init__", counting)
        report = cx.verify_construction(cx.TwentySeven())
        assert report.confirmed and folds == []

    def test_counterexample_report_matches_construction(self):
        g, split = cx.build(cx.TwentySeven())
        target = cx.derive_lu_partner(g, split).target
        report = cx.verify_counterexample(g, split, target, "twentyseven")
        assert report.confirmed
        expected = cx.verify_construction(cx.TwentySeven()).as_dict()
        got = report.as_dict()
        expected.pop("elapsed_seconds")
        got.pop("elapsed_seconds")
        assert got == expected

    def test_report_serializes(self):
        import json

        report = cx.verify_construction(cx.BipartiteSubsets(7, 5))
        payload = json.dumps(report.as_dict())
        assert '"confirmed": true' in payload


class TestBipartitePreserving:
    def test_empty_subset_on_bipartite_graph_is_identity(self):
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        outcome = cx.bipartite_preserving_sequence(g, split, ())
        assert outcome.ok
        assert outcome.graph == g

    def test_path_graph_round_trip(self):
        from hyperlu.hypergraph import path_graph

        g = path_graph(5)
        split = BipartiteSplit((0, 2, 4), (1, 3))
        outcome = cx.bipartite_preserving_sequence(g, split, ())
        assert outcome.ok and outcome.graph == g

    def test_subset_must_come_from_right_side(self):
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        with pytest.raises(PreconditionError):
            cx.bipartite_preserving_sequence(g, split, (0,))

    def test_overlapping_split_is_rejected(self):
        from hyperlu.hypergraph import path_graph

        g = path_graph(4)
        split = BipartiteSplit((0, 1, 2), (1, 2, 3))
        with pytest.raises(PreconditionError, match="sides overlap"):
            cx.bipartite_preserving_sequence(g, split, ())
        with pytest.raises(PreconditionError, match="sides overlap"):
            cx.degree_distribution_search(g, split, g.degrees(), budget=5)

    def test_twentyseven_mixed_subset_keeps_6_21_split(self):
        """Some six-vertex subset, four from one wing and two from the
        other, keeps the graph bipartite with a 6 vs 21 split.

        Which orientation of the 4+2 composition works depends on the
        (fixed, ascending) within-stage complementation order, so both
        are tried."""
        import itertools

        g, split = cx.build(cx.TwentySeven())
        wing5 = split.right[:6]
        wing4 = split.right[6:]
        combos = [
            four + two
            for four in itertools.combinations(wing5, 4)
            for two in itertools.combinations(wing4, 2)
        ] + [
            two + four
            for two in itertools.combinations(wing5, 2)
            for four in itertools.combinations(wing4, 4)
        ]
        hit = None
        for subset in combos:
            outcome = cx.bipartite_preserving_sequence(g, split, subset)
            if outcome.ok and {outcome.split.k1, outcome.split.k2} == {6, 21}:
                hit = subset
                break
        assert hit is not None

    def test_some_subset_breaks_bipartiteness(self):
        g, split = cx.build(cx.TwentySeven())
        found = None
        for v in split.right:
            outcome = cx.bipartite_preserving_sequence(g, split, (v,))
            if not outcome.ok:
                found = outcome
                break
        assert found is not None
        assert found.violating_edge is not None
        i, j = found.violating_edge
        assert found.graph.has_edge(i, j)


class TestDegreeSearch:
    def test_own_degrees_contain_empty_subset(self):
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        result = cx.degree_distribution_search(g, split, g.degrees(), budget=10)
        assert () in result.candidates

    def test_impossible_target_yields_nothing(self):
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        result = cx.degree_distribution_search(g, split, [99] * g.n, budget=20)
        assert result.candidates == []

    def test_matches_pattern_per_subset(self):
        """The search, which runs the first stage once, finds exactly the
        subsets whose full pattern hits the target degrees."""
        g, split = cx.build(cx.TwentySeven())
        pick = (split.right[0], split.right[7])
        target = sorted(cx.bipartite_preserving_sequence(g, split, pick).graph.degrees())
        subsets = [
            subset
            for size in range(split.k2 + 1)
            for subset in itertools.combinations(split.right, size)
        ][:400]
        expected = []
        for subset in subsets:
            outcome = cx.bipartite_preserving_sequence(g, split, subset)
            if outcome.ok and sorted(outcome.graph.degrees()) == target:
                expected.append(subset)
        result = cx.degree_distribution_search(g, split, target, budget=400)
        assert result.candidates == expected and pick in expected

    def test_budget_exhaustion_is_flagged(self):
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        result = cx.degree_distribution_search(g, split, g.degrees(), budget=3)
        assert result.budget_exhausted and result.examined == 3

    @pytest.mark.parametrize("budget", [0, 1, 2, 7, 8, 9])
    def test_budget_edges(self, budget):
        """bipartite:3:2 has 2^3 right subsets: a budget below that stops
        early and is flagged; 8 or more examines all of them."""
        g, split = cx.build(cx.BipartiteSubsets(3, 2))
        result = cx.degree_distribution_search(g, split, g.degrees(), budget=budget)
        assert (result.examined, result.budget_exhausted) == (min(budget, 8), budget < 8)
        assert result.candidates == [()][: result.examined]

    def test_subsets_are_tested_as_drawn(self, monkeypatch):
        """Memory does not grow with the budget: the first subset is
        tested before a second is drawn."""
        drawn = []
        combinations = cx.combinations

        def counting(items, size):
            for subset in combinations(items, size):
                drawn.append(subset)
                yield subset

        class Tested(Exception):
            pass

        def refuse(*args):
            raise Tested

        g, split = cx.build(cx.TwentySeven())
        monkeypatch.setattr(cx, "combinations", counting)
        monkeypatch.setattr(cx, "_finish_pattern", refuse)
        with pytest.raises(Tested):
            cx.degree_distribution_search(g, split, g.degrees(), budget=3000)
        assert len(drawn) <= 1
