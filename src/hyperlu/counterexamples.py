"""Constructions of LU-equivalent, LC-inequivalent graph-state pairs.

The bipartite family: n left vertices, one right vertex per r-subset of
the left side, joined to exactly that subset. Applying X^(1/4) on every
right vertex accumulates, on each left k-subset, the weight
(-2)**(k-1)/4 once per right vertex covering it; for suitable n and r
everything fractional cancels (after local Z corrections) and only the
complete graph on the left side survives, giving a second graph state
reachable by local unitaries. LC equivalence of the pair is then
refuted exactly over GF(2), with an edge-parity certificate.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .errors import (
    CancellationError,
    InconclusiveError,
    PreconditionError,
    SequenceStepError,
    SizeLimitError,
    VertexRangeError,
)
from .hypergraph import (
    Edge,
    SimpleGraph,
    WeightedHypergraph,
    check_edge_bits,
    check_vertex_count,
    edge_to_mask,
    mask_to_edge,
)
from .lc_solver import (
    BipartiteSplit,
    CliffordWitness,
    LemmaReport,
    lc_equivalent,
    lemma_case_analysis,
)
from .phase_algebra import MAX_EXPANSION_DEPTH, MAX_EXPANSION_SUBSETS, add_expansion
from .transforms import GateSequence, local_complement_rows, x_power_gate, z_power_gate
from .weights import QUARTER, Weight

RIGHT_CAP = 100_000


@dataclass(frozen=True)
class BipartiteSubsets:
    """n left vertices, one right vertex per size-r subset of them."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if not (1 <= self.r <= self.n):
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")

    @property
    def name(self) -> str:
        return f"bipartite:{self.n}:{self.r}"


@dataclass(frozen=True)
class TwentySeven:
    """Six central vertices joined to all their 5-subsets and 4-subsets."""

    name = "twentyseven"


@dataclass(frozen=True)
class GraphToHypergraph7:
    """Seven-qubit graph whose state is locally equivalent to a
    hypergraph state with a three-edge."""

    name = "g2h7"


ConstructionSpec = Union[BipartiteSubsets, TwentySeven, GraphToHypergraph7]


def parse_spec(text: str) -> ConstructionSpec:
    parts = text.strip().split(":")
    if parts[0] == "bipartite" and len(parts) == 3:
        return BipartiteSubsets(int(parts[1]), int(parts[2]))
    for spec in (TwentySeven(), GraphToHypergraph7()):
        if text.strip() == spec.name:
            return spec
    raise ValueError(f"unknown construction spec {text!r}")


def build(spec: ConstructionSpec) -> tuple[SimpleGraph, BipartiteSplit]:
    """Deterministic construction: left block first, then one right vertex
    per left subset of each listed size, in lexicographic subset order."""
    if isinstance(spec, GraphToHypergraph7):
        g, _, _ = build_graph_to_hypergraph7()
        return g, BipartiteSplit((1, 2, 3), (0, 4, 5, 6))
    if isinstance(spec, TwentySeven):
        n, sizes = 6, (5, 4)
    elif isinstance(spec, BipartiteSubsets):
        n, r, sizes = spec.n, spec.r, (spec.r,)
        check_vertex_count(n)
        # C(n, r) as C(n - m + k, k) for k = 1..m, m = min(r, n - r): the terms
        # never decrease, so the first one past the cap refuses the spec
        count, m = 1, min(r, n - r)
        for k in range(1, m + 1):
            count = count * (n - m + k) // k
            if count > RIGHT_CAP:
                raise SizeLimitError(f"C({n},{r}) exceeds cap {RIGHT_CAP}")
        check_vertex_count(n + count)
        # right vertex n + j holds r edges of n + j + 1 bits each
        check_edge_bits(r * count * (2 * n + count + 1) // 2)
    else:
        raise TypeError(f"unsupported spec {spec!r}")
    edges = []
    v = n
    for size in sizes:
        for subset in combinations(range(n), size):
            edges += [(u, v) for u in subset]
            v += 1
    g = SimpleGraph.from_edges(v, edges)
    return g, BipartiteSplit(tuple(range(n)), tuple(range(n, v)))


def build_graph_to_hypergraph7() -> tuple[SimpleGraph, GateSequence, WeightedHypergraph]:
    """Input graph, gate witness and expected hypergraph of the
    graph-to-hypergraph pipeline.

    The graph is a four-qubit star on 0..3 (center 0) with three extra
    qubits, each joined to one pair of leaves. X^(1/4) on the center
    creates the three-edge {1,2,3} plus fractional debris; X^(-1/4) on
    the pair qubits cancels the fractional two-edges; Z^(1/4) on the
    leaves removes the leftover single-qubit weights.
    """
    g = SimpleGraph.from_edges(
        7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (3, 5), (2, 6), (3, 6)]
    )
    quarter, minus_quarter = QUARTER, Weight(-1, 2)
    witness: GateSequence = (
        x_power_gate(0, quarter),
        x_power_gate(4, minus_quarter),
        x_power_gate(5, minus_quarter),
        x_power_gate(6, minus_quarter),
        z_power_gate(1, quarter),
        z_power_gate(2, quarter),
        z_power_gate(3, quarter),
    )
    expected = WeightedHypergraph.make(
        g.n,
        {e: Weight(1) for e in g.edge_list()} | {(1, 2, 3): Weight(1)},
    )
    return g, witness, expected


@dataclass
class LedgerRow:
    cardinality: int
    raw: Fraction
    reduced: Weight
    count: int

    def as_dict(self) -> dict:
        return {
            "cardinality": self.cardinality,
            "raw": str(self.raw),
            "reduced": str(self.reduced),
            "count": self.count,
        }


@dataclass
class WeightLedger:
    """Pre-reduction weight bookkeeping of one X^(1/4) sweep."""

    alpha: Weight
    rows: list[LedgerRow]
    corrections: list[tuple[int, Weight]]
    residues: list[tuple[Edge, Weight]]

    def rows_for(self, cardinality: int) -> list[LedgerRow]:
        return [r for r in self.rows if r.cardinality == cardinality]

    def as_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "rows": [r.as_dict() for r in self.rows],
            "corrections": [
                {"qubit": q, "exponent": str(w)} for q, w in self.corrections
            ],
            "residues": [
                {"v": list(e), "w": str(w)} for e, w in self.residues
            ],
        }


@dataclass
class LuDerivation:
    target: SimpleGraph
    witness: GateSequence
    ledger: WeightLedger


def _raw_sweep_deltas(
    g: SimpleGraph, split: BipartiteSplit, alpha: Fraction
) -> dict[Edge, Fraction]:
    """Exact pre-reduction edge deltas of X^alpha on every right vertex.

    Each right vertex contributes (-2)**(|S|-1) * alpha on every nonempty
    subset S of its neighbors; the subsets are counted first and each
    distinct one scaled once, in order of first appearance. Raises
    :class:`SizeLimitError` before enumerating when the right vertices'
    neighborhoods hold more than ``MAX_EXPANSION_SUBSETS`` nonempty
    subsets in all.
    """
    total = 0
    for v in split.right:  # a degree past the depth alone exceeds the cap
        total += (1 << min(g.degree(v), MAX_EXPANSION_DEPTH + 1)) - 1
        if total > MAX_EXPANSION_SUBSETS:
            raise SizeLimitError(
                f"sweep ledger over {len(split.right)} right vertices enumerates "
                f"more than {MAX_EXPANSION_SUBSETS} subsets"
            )
    counts: dict[Edge, int] = defaultdict(int)
    for v in split.right:
        nbrs = g.neighbors(v)
        for size in range(1, len(nbrs) + 1):
            for subset in combinations(nbrs, size):
                counts[subset] += 1
    return {s: Fraction((-2) ** (len(s) - 1)) * alpha * c for s, c in counts.items()}


def _enumerated_ledger(
    g: SimpleGraph, split: BipartiteSplit, alpha: Fraction
) -> tuple[list[LedgerRow], dict[int, Weight]]:
    """The sweep ledger of any split graph, by enumerating every subset:
    the raw weights grouped by cardinality, and every edge mask whose raw
    weight is nonzero mod 2, at that reduced weight."""
    raw = _raw_sweep_deltas(g, split, alpha)
    grouped: dict[tuple[int, Fraction], int] = defaultdict(int)
    for e, frac in raw.items():
        grouped[(len(e), frac)] += 1
    rows = [
        LedgerRow(card, frac, Weight.from_fraction(frac % 2), count)
        for (card, frac), count in sorted(grouped.items())
    ]
    deltas = {edge_to_mask(e): w for e, f in raw.items() if (w := Weight.from_fraction(f % 2))}
    return rows, deltas


def _subset_sizes(g: SimpleGraph, split: BipartiteSplit) -> tuple[int, ...] | None:
    """The right vertices' degrees when, for each such degree s, they are
    joined to every left s-subset once; None for any other graph.

    That holds when the right rows are distinct and C(k1, s) of them have
    degree s, since ``split.validate`` keeps their neighbours on the left.
    """
    rows = [g.rows[v] for v in split.right]
    if len(set(rows)) != len(rows):
        return None
    per_size = Counter(row.bit_count() for row in rows)
    if any(count != math.comb(split.k1, s) for s, count in per_size.items()):
        return None
    return tuple(per_size)


def _closed_form_ledger(
    left: Sequence[int], sizes: Sequence[int], alpha: Fraction
) -> tuple[list[LedgerRow], dict[int, Weight]]:
    """The sweep ledger of a subset family, from its definition: every left
    s-subset is covered by the sum over sizes r of C(n - s, r - s) right
    vertices, so each of the C(n, s) of them carries (-2)**(s-1) * alpha
    times that count. Returned as :func:`_enumerated_ledger` returns it."""
    n = len(left)
    rows: list[LedgerRow] = []
    deltas: dict[int, Weight] = {}
    for s in range(1, max(sizes, default=0) + 1):
        cover = sum(math.comb(n - s, r - s) for r in sizes if r >= s)
        raw = Fraction((-2) ** (s - 1)) * alpha * cover
        reduced = Weight.from_fraction(raw % 2)
        rows.append(LedgerRow(s, raw, reduced, math.comb(n, s)))
        if reduced:  # zero once 2**(s-1) * alpha is even: from s = 4 for alpha = 1/4
            deltas.update(dict.fromkeys(map(edge_to_mask, combinations(left, s)), reduced))
    return rows, deltas


def derive_lu_partner(g: SimpleGraph, split: BipartiteSplit) -> LuDerivation:
    """Run the X^(1/4) sweep plus Z corrections and extract the target graph.

    The sweep is summed from g's adjacency rows, one expansion per right
    vertex over its neighbours; an expansion past the subset cap raises
    :class:`SequenceStepError` with that vertex's index in ``split.right``.
    The sweep is checked against the closed-form ledger when the split
    graph is a subset family, and against the enumerated ledger otherwise.
    Both sides are compared as numerators keyed by edge mask; vertex
    tuples are built only for the report and for a disagreement's message.
    Raises :class:`CancellationError` (carrying the full ledger) when
    fractional or higher-cardinality edges survive, i.e. when the
    construction parameters do not cancel.
    """
    split.validate(g)
    alpha = QUARTER
    sweep: GateSequence = tuple(x_power_gate(v, alpha) for v in split.right)
    # split.validate leaves no edge holding two right vertices, so no gate of the
    # sweep changes another's link: the sweep adds the sum of their expansions
    total: dict[int, int] = {}  # numerators over 2**alpha.exp
    for k, v in enumerate(split.right):
        try:
            add_expansion(total, [1 << u for u in g.neighbors(v)], alpha)
        except SizeLimitError as exc:
            raise SequenceStepError(k, str(exc)) from exc

    sizes = _subset_sizes(g, split)
    if sizes is None:
        rows, deltas = _enumerated_ledger(g, split, alpha.as_fraction())
    else:
        rows, deltas = _closed_form_ledger(split.left, sizes, alpha.as_fraction())
    # the whole sweep state against the ledger, over 2**exp (each delta is a multiple of
    # alpha): g's edges at weight 1 plus every delta mod 2, nothing else, and phase (mask) 0
    exp = alpha.exp
    one = 1 << exp
    edges = [(1 << u) | (1 << v) for u, v in g.edge_list()]

    def plus_edges(delta: Iterable[tuple[int, int]]) -> dict[int, int]:
        state = dict.fromkeys(edges, one)
        for m, d in delta:
            if num := (state.pop(m, 0) + d) % (2 * one):
                state[m] = num
        return state

    nums = plus_edges(total.items())
    expected = plus_edges((m, d.num << (exp - d.exp)) for m, d in deltas.items())
    if nums != expected:
        diff = (m for m in nums.keys() | expected.keys() if nums.get(m) != expected.get(m))
        e, m = min((mask_to_edge(m), m) for m in diff)  # vertex-tuple order, not mask order
        raise AssertionError(
            f"engine sweep state disagrees with the raw ledger at {e}: engine weight "
            f"{Weight(nums.get(m, 0), exp)}, ledger weight {Weight(expected.get(m, 0), exp)}"
        )

    # each fix Z^(-w) on {q} cancels exactly the weight w of the edge {q}
    # and touches no other edge, so the fixes need no second fold
    corrections = sorted(
        (m.bit_length() - 1, Weight(-num, exp)) for m, num in nums.items() if m.bit_count() == 1
    )
    fixes: GateSequence = tuple(z_power_gate(q, w) for q, w in corrections)
    residues = sorted(
        (mask_to_edge(m), Weight(num, exp))
        for m, num in nums.items()
        if m.bit_count() > 2 or (m.bit_count() == 2 and num != one)
    )
    ledger = WeightLedger(alpha, rows, corrections, residues)

    if residues:
        raise CancellationError(
            f"{len(residues)} edges survive the sweep uncancelled", ledger=ledger
        )
    target = [0] * g.n  # adjacency rows of the two-edges left, all at weight 1
    for m in nums:
        if m.bit_count() == 2:
            for bit in (m & -m, m & (m - 1)):  # its low and high vertex
                target[bit.bit_length() - 1] |= m ^ bit
    return LuDerivation(SimpleGraph._trusted(g.n, tuple(target)), sweep + fixes, ledger)


@dataclass
class VerificationReport:
    """Outcome of the LU-yes / LC-no check for one constructed pair."""

    spec_name: str
    lu_equivalent: bool
    witness: GateSequence | None
    ledger: WeightLedger | None
    lc_verdict: str  # yes-with-witness | no-by-solver | no-by-parity | inconclusive
    lc_witness: CliffordWitness | None
    lemma: LemmaReport | None
    confirmed: bool
    elapsed_seconds: float

    def as_dict(self) -> dict:
        from .serialize import sequence_to_list

        return {
            "spec": self.spec_name,
            "confirmed": self.confirmed,
            "lu": {
                "equivalent": self.lu_equivalent,
                "witness": sequence_to_list(self.witness) if self.witness else None,
                "ledger": self.ledger.as_dict() if self.ledger else None,
            },
            "lc": {
                "verdict": self.lc_verdict,
                "witness": self.lc_witness.as_dict() if self.lc_witness else None,
            },
            "lemma": self.lemma.as_dict() if self.lemma else None,
            "elapsed_seconds": self.elapsed_seconds,
        }


def verify_counterexample(
    g1: SimpleGraph,
    split: BipartiteSplit,
    g2: SimpleGraph,
    spec_name: str = "custom",
) -> VerificationReport:
    """Combine the LU derivation, the GF(2) solver and the case analysis.

    The solver verdict and the structural analysis must agree; any
    disagreement aborts loudly rather than producing a report.
    """
    start = time.perf_counter()
    derivation = derive_lu_partner(g1, split)
    if derivation.target != g2:
        raise PreconditionError("derived LU partner differs from the supplied graph")
    return _verify_derived_pair(g1, split, derivation, spec_name, start)


def _verify_derived_pair(
    g1: SimpleGraph,
    split: BipartiteSplit,
    derivation: LuDerivation,
    spec_name: str,
    start: float,
) -> VerificationReport:
    """Decide LC equivalence of g1 and its derived partner.

    The derivation's sweep state was already checked, edge by edge,
    against the sweep's weight ledger.
    """
    g2 = derivation.target
    lc_witness: CliffordWitness | None = None
    solver_outcome: str
    try:
        lc_witness = lc_equivalent(g1, g2)
        solver_outcome = "witness" if lc_witness is not None else "none"
    except InconclusiveError:
        solver_outcome = "inconclusive"

    lemma = lemma_case_analysis(g1, split, g2)

    if lemma.case2_solvable and solver_outcome == "none":
        raise AssertionError(
            "structural analysis found a complementation set but the solver "
            f"reported inequivalence: {lemma.as_dict()}"
        )
    if not lemma.case2_solvable and solver_outcome == "witness":
        raise AssertionError(
            "solver found a witness but the structural analysis proves "
            f"impossibility: {lemma.as_dict()}"
        )

    if solver_outcome == "witness":
        verdict = "yes-with-witness"
    elif solver_outcome == "none":
        verdict = "no-by-solver"
    elif not lemma.case2_solvable:
        verdict = "no-by-parity"
    else:
        verdict = "inconclusive"

    confirmed = verdict in ("no-by-solver", "no-by-parity")
    return VerificationReport(
        spec_name=spec_name,
        lu_equivalent=True,
        witness=derivation.witness,
        ledger=derivation.ledger,
        lc_verdict=verdict,
        lc_witness=lc_witness,
        lemma=lemma,
        confirmed=confirmed,
        elapsed_seconds=time.perf_counter() - start,
    )


def verify_construction(
    spec: ConstructionSpec, built: tuple[SimpleGraph, BipartiteSplit] | None = None
) -> VerificationReport:
    """Build a construction, derive its partner and verify the pair.

    ``built`` is ``build(spec)`` when the caller has already built it.
    """
    start = time.perf_counter()
    g1, split = built if built is not None else build(spec)
    try:
        derivation = derive_lu_partner(g1, split)
    except CancellationError as exc:
        return VerificationReport(
            spec_name=spec.name,
            lu_equivalent=False,
            witness=None,
            ledger=exc.ledger,
            lc_verdict="inconclusive",
            lc_witness=None,
            lemma=None,
            confirmed=False,
            elapsed_seconds=time.perf_counter() - start,
        )
    return _verify_derived_pair(g1, split, derivation, spec.name, start)


@dataclass
class SequenceOutcome:
    """Result of one bipartite-preserving complementation pattern."""

    graph: SimpleGraph
    split: BipartiteSplit | None
    ok: bool
    violating_edge: tuple[int, int] | None


def bipartite_preserving_sequence(
    g: SimpleGraph, split: BipartiteSplit, subset: Iterable[int]
) -> SequenceOutcome:
    """Complement left side, subset, left side again, subset again.

    ``subset`` is drawn from the right (non-central) side, and the split
    must partition the vertices; edges inside a side are allowed. The
    result is re-checked for bipartiteness; failure is returned as a
    value naming a violating edge, never raised.
    """
    chosen = tuple(sorted(set(subset)))
    _check_pattern_input(g, split, chosen)
    return _finish_pattern(g.n, _complement_left(g, split), split.left, chosen)


def _check_pattern_input(g: SimpleGraph, split: BipartiteSplit, chosen: tuple[int, ...]) -> None:
    right = set(split.right)
    for v in chosen:
        if v not in right:
            raise PreconditionError(f"subset vertex {v} is not on the right side")
    for v in split.left + chosen:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    split.validate_partition(g.n)


def _complement_left(g: SimpleGraph, split: BipartiteSplit) -> list[int]:
    """Rows of g after the pattern's first stage, which no subset changes."""
    rows = list(g.rows)
    for v in split.left:
        local_complement_rows(rows, v)
    return rows


def _finish_pattern(
    n: int, rows: list[int], left: tuple[int, ...], chosen: tuple[int, ...]
) -> SequenceOutcome:
    """The pattern's last three stages, in place on first-stage rows."""
    for stage in (chosen, left, chosen):
        for v in stage:
            local_complement_rows(rows, v)
    work = SimpleGraph._trusted(n, tuple(rows))
    colors, violation = work.bipartite_coloring()
    if violation is not None:
        return SequenceOutcome(work, None, False, violation)
    if colors is None:
        raise AssertionError("bipartite coloring returned neither colors nor a violation")
    side0 = tuple(v for v in range(work.n) if colors[v] == 0)
    side1 = tuple(v for v in range(work.n) if colors[v] == 1)
    if (len(side1), side1) < (len(side0), side0):
        side0, side1 = side1, side0
    return SequenceOutcome(work, BipartiteSplit(side0, side1), True, None)


@dataclass
class SearchResult:
    candidates: list[tuple[int, ...]]
    examined: int
    budget_exhausted: bool

    def as_dict(self) -> dict:
        return {
            "candidates": [list(c) for c in self.candidates],
            "examined": self.examined,
            "budget_exhausted": self.budget_exhausted,
        }


def degree_distribution_search(
    g: SimpleGraph,
    split: BipartiteSplit,
    target_degrees: Sequence[int],
    budget: int,
) -> SearchResult:
    """Subsets whose complementation pattern hits a degree multiset.

    Subsets of the right side are enumerated by size then
    lexicographically, up to ``budget`` of them; exhausting the budget
    flags the result as partial. The split is checked and the pattern's
    first stage run once, not per subset.
    """
    target = tuple(sorted(target_degrees))
    _check_pattern_input(g, split, ())
    first = _complement_left(g, split)

    candidates: list[tuple[int, ...]] = []
    examined = 0
    for size in range(split.k2 + 1):
        for subset in combinations(split.right, size):  # tested as drawn
            if examined == budget:
                return SearchResult(candidates, examined, True)
            examined += 1
            outcome = _finish_pattern(g.n, list(first), split.left, subset)
            if outcome.ok and tuple(sorted(outcome.graph.degrees())) == target:
                candidates.append(subset)
    return SearchResult(candidates, examined, False)
