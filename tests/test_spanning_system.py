"""The spanning LC system and the shared elimination against slow paths.

The references below are the full n^2-row LC system and the pivot-scan
elimination the solver used before it assembled a spanning subset of
rows; ``verify_witness`` is compared with the ``np.diag`` formulation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from hyperlu import counterexamples as cx
from hyperlu import lc_solver
from hyperlu.gf2 import GF2Matrix, GF2Solution, echelonize, solve_linear_gf2
from hyperlu.hypergraph import SimpleGraph
from hyperlu.lc_solver import CliffordWitness, lc_equivalent, verify_witness
from hyperlu.transforms import local_complement


def full_lc_system(g1: SimpleGraph, g2: SimpleGraph) -> GF2Matrix:
    """All n^2 rows (j, k) of t1 C t2 + t1 A + D t2 + B, written out."""
    n = g1.n
    t1, t2 = g1.rows, g2.rows
    rows = []
    for j in range(n):
        for k in range(n):
            row = 0
            if (t1[j] >> k) & 1:
                row |= 1 << (4 * k)
            if j == k:
                row |= 1 << (4 * j + 1)
            for i in range(n):
                if (t1[j] >> i) & 1 and (t2[i] >> k) & 1:
                    row |= 1 << (4 * i + 2)
            if (t2[j] >> k) & 1:
                row |= 1 << (4 * j + 3)
            rows.append(row)
    return GF2Matrix(n * n, 4 * n, rows)


def pivot_scan_solve(m: GF2Matrix, rhs_mask: int) -> GF2Solution | None:
    """Row-by-row elimination with immediate back-substitution."""
    aug_bit = 1 << m.ncols
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for i, row in enumerate(m.rows):
        cur = row | (aug_bit if (rhs_mask >> i) & 1 else 0)
        for pr, pc in zip(pivot_rows, pivot_cols):
            if (cur >> pc) & 1:
                cur ^= pr
        if cur == aug_bit:
            return None
        if cur & (aug_bit - 1):
            pc = ((cur & -cur)).bit_length() - 1
            for t, pr in enumerate(pivot_rows):
                if (pr >> pc) & 1:
                    pivot_rows[t] = pr ^ cur
            pivot_rows.append(cur)
            pivot_cols.append(pc)
    pivots = dict(zip(pivot_cols, pivot_rows))
    particular = sum(1 << pc for pc, pr in pivots.items() if pr & aug_bit)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        vec = 1 << f
        for pc, pr in pivots.items():
            if (pr >> f) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return GF2Solution(m.ncols, particular, tuple(basis))


def old_echelonize(vectors) -> list[int]:
    table: dict[int, int] = {}
    for v in vectors:
        cur = v
        while cur:
            lead = (cur & -cur).bit_length() - 1
            if lead in table:
                cur ^= table[lead]
            else:
                table[lead] = cur
                break
    return [table[k] for k in sorted(table)]


def reference_lc_equivalent(g1: SimpleGraph, g2: SimpleGraph) -> CliffordWitness | None:
    """``lc_equivalent`` with the full system and the pivot-scan solver."""
    if g1 == g2:
        ones, zeros = (1,) * g1.n, (0,) * g1.n
        return CliffordWitness(ones, zeros, zeros, ones)
    basis = list(pivot_scan_solve(full_lc_system(g1, g2), 0).nullspace)
    for span in lc_solver._vertex_pattern_spans(basis, g1.n):
        if not (span & lc_solver._VALID_PATTERNS):
            return None
    x = lc_solver._search_nullspace(basis, g1.n, lc_solver.DEFAULT_NODE_BUDGET)
    return None if x is None else lc_solver._witness_from_mask(x, g1.n)


def diag_verify_witness(g1: SimpleGraph, g2: SimpleGraph, w: CliffordWitness) -> bool:
    """Both witness equations with explicit diagonal matrices."""
    n = g1.n
    t1 = np.array([[(g1.rows[i] >> j) & 1 for j in range(n)] for i in range(n)], dtype=np.int64)
    t2 = np.array([[(g2.rows[i] >> j) & 1 for j in range(n)] for i in range(n)], dtype=np.int64)
    a, b = np.diag(np.array(w.a)), np.diag(np.array(w.b))
    c, d = np.diag(np.array(w.c)), np.diag(np.array(w.d))
    if ((t1 @ c @ t2 + t1 @ a + d @ t2 + b) % 2).any():
        return False
    nondeg = (np.array(w.a) * np.array(w.d) + np.array(w.b) * np.array(w.c)) % 2
    return bool(np.all(nondeg == 1))


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def lc_walk(rng: random.Random, g: SimpleGraph, steps: int) -> SimpleGraph:
    for _ in range(steps):
        g = local_complement(g, rng.randrange(g.n))
    return g


def seeded_pairs(seed: int) -> list[tuple[SimpleGraph, SimpleGraph]]:
    """LC walks, unrelated graphs, dense against sparse, disconnected
    graphs and single vertices, all with n <= 12."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(6):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        pairs.append((g, lc_walk(rng, g, rng.randint(1, 6))))
        pairs.append((g, random_graph(rng, n, 0.4)))
        pairs.append((random_graph(rng, n, 0.85), random_graph(rng, n, 0.1)))
        half = n // 2
        split = SimpleGraph.from_edges(
            n, [e for e in random_graph(rng, n, 0.6).edge_list() if (e[0] < half) == (e[1] < half)]
        )
        pairs.append((split, lc_walk(rng, split, 3)))
        pairs.append((split, random_graph(rng, n, 0.3)))
    one = SimpleGraph.empty(1)
    pairs.append((one, one))
    return pairs


def construction_pairs() -> list[tuple[SimpleGraph, SimpleGraph]]:
    pairs = []
    for spec in (cx.TwentySeven(), cx.BipartiteSubsets(7, 5)):
        g, split = cx.build(spec)
        pairs.append((g, cx.derive_lu_partner(g, split).target))
    return pairs


class TestSpanningSystem:
    @pytest.mark.parametrize("seed", range(8))
    def test_nullspace_and_witness_match_the_full_system(self, seed):
        for g1, g2 in seeded_pairs(seed):
            fast = lc_solver._lc_system(g1, g2)
            slow = full_lc_system(g1, g2)
            assert fast.nrows <= slow.nrows
            assert solve_linear_gf2(fast, 0) == pivot_scan_solve(slow, 0), (g1, g2)
            assert lc_equivalent(g1, g2) == reference_lc_equivalent(g1, g2), (g1, g2)

    def test_construction_pairs_match_the_full_system(self):
        for g1, g2 in construction_pairs():
            fast = lc_solver._lc_system(g1, g2)
            assert fast.nrows < g1.n * g1.n
            assert solve_linear_gf2(fast, 0) == pivot_scan_solve(full_lc_system(g1, g2), 0)
            assert lc_equivalent(g1, g2) is None
            assert reference_lc_equivalent(g1, g2) is None


class TestSharedElimination:
    @pytest.mark.parametrize("seed", range(10))
    def test_solution_ignores_row_order_and_duplicates(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) & rng.getrandbits(ncols) for _ in range(nrows)]
        consistent = sum(1 << i for i, r in enumerate(rows) if bin(r & 0b1011).count("1") % 2)
        for rhs in (0, consistent, rng.getrandbits(nrows)):
            expected = pivot_scan_solve(GF2Matrix(nrows, ncols, rows), rhs)
            assert solve_linear_gf2(GF2Matrix(nrows, ncols, rows), rhs) == expected
            for _ in range(5):
                order = [rng.randrange(nrows) for _ in range(2 * nrows)] + list(range(nrows))
                rng.shuffle(order)
                permuted = [rows[i] for i in order]
                permuted_rhs = sum(((rhs >> i) & 1) << t for t, i in enumerate(order))
                got = solve_linear_gf2(GF2Matrix(len(order), ncols, permuted), permuted_rhs)
                assert got == expected

    def test_inconsistent_system_under_duplication(self):
        rows = [0b011, 0b110, 0b101, 0b011]
        assert solve_linear_gf2(GF2Matrix(4, 3, rows), 0b0001) is None
        assert pivot_scan_solve(GF2Matrix(4, 3, rows), 0b0001) is None
        doubled = rows + rows
        assert solve_linear_gf2(GF2Matrix(8, 3, doubled), 0b00010001) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_echelonize_and_rank_match_the_old_elimination(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 40)
        vectors = [rng.getrandbits(width) for _ in range(rng.randint(0, 30))]
        for _ in range(4):
            rng.shuffle(vectors)
            assert echelonize(vectors) == old_echelonize(vectors)
            assert GF2Matrix(len(vectors), width, vectors).rank() == len(old_echelonize(vectors))


def corrupted_witnesses(rng: random.Random, witness: CliffordWitness, count: int):
    """Nondegenerate copies of ``witness`` with one vertex block changed:
    one entry flipped, and its partner in a*d + b*c flipped at random."""
    n = len(witness.a)
    for _ in range(count):
        bad = {k: list(v) for k, v in witness.as_dict().items()}
        v = rng.randrange(n)
        key = rng.choice("abcd")
        bad[key][v] ^= 1
        partner = "dcba"["abcd".index(key)]
        bad[partner][v] ^= rng.getrandbits(1)
        try:
            yield CliffordWitness(*(tuple(bad[k]) for k in "abcd"))
        except ValueError:
            continue


class TestVectorisedWitnessCheck:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_diag_formulation(self, seed):
        rng = random.Random(seed)
        for g1, g2 in seeded_pairs(seed)[:12]:
            witness = lc_equivalent(g1, g2)
            if witness is None:
                continue
            assert verify_witness(g1, g2, witness) is diag_verify_witness(g1, g2, witness) is True
            for w in corrupted_witnesses(rng, witness, 6):
                assert verify_witness(g1, g2, w) is diag_verify_witness(g1, g2, w)

    def test_matches_the_diag_formulation_at_341_vertices(self):
        """bipartite:11:7 against itself plus a left clique, the largest
        LC-equivalent construction pair the benchmark decides."""
        g1, split = cx.build(cx.BipartiteSubsets(11, 7))
        g2 = SimpleGraph.from_edges(
            g1.n, g1.edge_list() + [(u, v) for u in split.left for v in split.left if u < v]
        )
        assert g1.n == 341
        witness = lc_equivalent(g1, g2)
        assert witness is not None
        assert verify_witness(g1, g2, witness) is diag_verify_witness(g1, g2, witness) is True
        verdicts = []
        for w in corrupted_witnesses(random.Random(7), witness, 8):
            verdicts.append(verify_witness(g1, g2, w))
            assert verdicts[-1] is diag_verify_witness(g1, g2, w)
        assert verdicts and not any(verdicts)

    def test_unrelated_graphs_reject_the_identity(self):
        rng = random.Random(3)
        g1, g2 = random_graph(rng, 9, 0.5), random_graph(rng, 9, 0.5)
        ones, zeros = (1,) * 9, (0,) * 9
        w = CliffordWitness(ones, zeros, zeros, ones)
        assert verify_witness(g1, g2, w) is diag_verify_witness(g1, g2, w) is False

    def test_degenerate_blocks_fail_although_the_equation_holds(self):
        """All-zero diagonals solve the linear equation for any pair; only
        the nondegeneracy check rejects them. ``CliffordWitness`` refuses
        to hold such blocks, so a plain namespace carries them here."""
        from types import SimpleNamespace

        g = random_graph(random.Random(4), 9, 0.5)
        zeros = (0,) * 9
        w = SimpleNamespace(a=zeros, b=zeros, c=zeros, d=zeros)
        assert verify_witness(g, g, w) is diag_verify_witness(g, g, w) is False
