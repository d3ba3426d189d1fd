"""Independent reference computations for the benchmark's answer gate.

Nothing here imports hyperlu: graphs are lists of int bitmask rows
(bit j of rows[i] set iff {i, j} is an edge) and hypergraph states are
dicts from sorted vertex tuples to exact ``Fraction`` weights modulo 2.
The generators use these to build inputs and expected answers, and the
checks use them to re-derive what the program printed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------- graphs


def local_complement(rows: list[int], v: int) -> list[int]:
    """Toggle every edge between two neighbours of ``v``."""
    out = list(rows)
    m = rows[v]
    u = m
    while u:
        low = u & -u
        out[low.bit_length() - 1] ^= m ^ low
        u ^= low
    return out


def from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def construction(spec: str) -> tuple[list[int], list[int], list[int]]:
    """Rows, left side and right side of ``bipartite:N:R`` or ``twentyseven``.

    Left block first, then one right vertex per subset in lexicographic
    order (for ``twentyseven``: the 5-subsets of six, then the 4-subsets).
    """
    if spec == "twentyseven":
        n_left, sizes = 6, (5, 4)
    else:
        _, n_text, r_text = spec.split(":")
        n_left, sizes = int(n_text), (int(r_text),)
    edges = []
    v = n_left
    for size in sizes:
        for subset in combinations(range(n_left), size):
            edges += [(u, v) for u in subset]
            v += 1
    return from_edges(v, edges), list(range(n_left)), list(range(n_left, v))


def with_clique(rows: list[int], side: list[int]) -> list[int]:
    """``rows`` plus every edge inside ``side``."""
    mask = sum(1 << v for v in side)
    out = list(rows)
    for v in side:
        out[v] |= mask & ~(1 << v)
    return out


def is_bipartite(rows: list[int]) -> bool:
    n = len(rows)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            m = rows[u]
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_connected(rows: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= rows[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << len(rows)) - 1


def lc_witness_ok(rows1: list[int], rows2: list[int], witness: dict) -> bool:
    """Van den Nest's condition for an LC map from graph 1 to graph 2.

    With adjacency matrices T1, T2 and the witness diagonals A, B, C, D:
    T1 C T2 + T1 A + D T2 + B = 0 mod 2, and a d + b c = 1 at every vertex.
    Row i of T1 C T2 is the XOR of rows2[k] over neighbours k of i with c_k = 1.
    """
    n = len(rows1)
    a, b, c, d = (list(witness[k]) for k in "abcd")
    if len(rows2) != n or any(len(x) != n or set(x) - {0, 1} for x in (a, b, c, d)):
        return False
    if any((a[i] & d[i]) ^ (b[i] & c[i]) != 1 for i in range(n)):
        return False
    a_mask = sum(1 << i for i in range(n) if a[i])
    c_mask = sum(1 << i for i in range(n) if c[i])
    for i in range(n):
        row = (rows1[i] & a_mask) ^ (rows2[i] if d[i] else 0) ^ (b[i] << i)
        m = rows1[i] & c_mask
        while m:
            low = m & -m
            row ^= rows2[low.bit_length() - 1]
            m ^= low
        if row:
            return False
    return True


def lemma_solvable(rows1: list[int], left: list[int], right: list[int], rows2: list[int]) -> bool:
    """Whether connected bipartite graph 1 (sides of unequal size) is LC-equivalent
    to graph 2, which adds left-side edges only.

    By the lemma of Ji, Chen, Wei and Ying this holds iff complementing some
    set x of right vertices adds exactly those edges: for every left pair
    u < v, the parity of the common right neighbours of u and v in x is 1
    iff {u, v} is added. Decided by elimination over GF(2), with the
    right-hand side kept in bit ``n`` of each row.
    """
    n = len(rows1)
    right_mask = sum(1 << v for v in right)
    left_mask = sum(1 << v for v in left)
    side = [left_mask if (left_mask >> v) & 1 else right_mask for v in range(n)]
    if (left_mask & right_mask or left_mask | right_mask != (1 << n) - 1 or len(left) == len(right)
            or not is_connected(rows1) or any(rows1[v] & side[v] for v in range(n))):
        raise ValueError("the lemma needs a connected bipartite graph split into unequal sides")
    if any((rows1[v] ^ rows2[v]) & ~(side[v] & left_mask) for v in range(n)):
        raise ValueError("the second graph must differ from the first in left-side edges only")
    pivots: dict[int, int] = {}
    for i, u in enumerate(left):
        for v in left[i + 1:]:
            row = (rows1[u] & rows1[v] & right_mask) | (((rows2[u] >> v) & 1) << n)
            while row & right_mask:
                top = (row & right_mask).bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
            else:
                if row:
                    return False
    return True


def degree_search(
    rows: list[int], left: list[int], right: list[int], target: list[int], budget: int
) -> tuple[list[list[int]], int, bool]:
    """Right-side subsets whose pattern (left, subset, left, subset) keeps the
    graph bipartite and reaches the target degree multiset.

    Subsets are tried by size, then lexicographically, ``budget`` of them.
    Returns (candidates, examined, budget_exhausted).
    """
    goal = sorted(target)
    candidates = []
    examined = 0
    for size in range(len(right) + 1):
        for subset in combinations(right, size):
            if examined == budget:
                return candidates, examined, True
            examined += 1
            work = rows
            for stage in (left, subset, left, subset):
                for v in stage:
                    work = local_complement(work, v)
            if is_bipartite(work) and sorted(r.bit_count() for r in work) == goal:
                candidates.append(list(subset))
    return candidates, examined, False


# ---------------------------------------------------------------- states

Edge = tuple[int, ...]
TWO = Fraction(2)


class StateModel:
    """Exact weighted hypergraph state under the four gate rules.

    Z^a adds a on {q}. X adds 1 on every link edge. X^a adds
    (-2)**(|S|-1) * a on the union of every nonempty subset S of link
    edges; with a = p / 2**k (p odd) subsets larger than k + 1 add an
    even integer and are skipped. LC is X^(1/2) then Z^(3/2) on each
    neighbour.
    X, X^a and LC require weight 1 on every edge at the target, and LC
    also requires all of them to be two-edges.
    """

    def __init__(self, n: int, edges: dict[Edge, Fraction]):
        self.n = n
        self.edges: dict[Edge, Fraction] = {}
        self.phase = Fraction(0)
        for e, w in edges.items():
            self.add(e, w)

    def copy(self) -> "StateModel":
        out = StateModel(self.n, {})
        out.edges = dict(self.edges)
        out.phase = self.phase
        return out

    def relabeled(self, perm: list[int]) -> "StateModel":
        """The same state with qubit q renamed perm[q]."""
        out = StateModel(self.n, {tuple(sorted(perm[v] for v in e)): w for e, w in self.edges.items()})
        out.phase = self.phase
        return out

    def add(self, e: Edge, w: Fraction) -> None:
        if not e:
            self.phase = (self.phase + w) % TWO
            return
        total = (self.edges.get(e, Fraction(0)) + w) % TWO
        if total:
            self.edges[e] = total
        else:
            self.edges.pop(e, None)

    def at(self, q: int) -> list[tuple[Edge, Fraction]]:
        return [(e, w) for e, w in self.edges.items() if q in e]

    def link(self, q: int) -> list[Edge]:
        return [tuple(v for v in e if v != q) for e, _ in self.at(q)]

    def x_legal(self, q: int) -> bool:
        return all(w == 1 for _, w in self.at(q))

    def lc_legal(self, q: int) -> bool:
        return all(w == 1 and len(e) == 2 for e, w in self.at(q))

    def apply(self, q: int, kind: str, a: Fraction | None = None) -> None:
        if kind == "Zp":
            self.add((q,), a)
        elif kind == "X":
            for e in self.link(q):
                self.add(e, Fraction(1))
        elif kind == "Xp":
            link = self.link(q)
            delta: dict[Edge, Fraction] = {}
            for size in range(1, min(len(link), a.denominator.bit_length()) + 1):
                for subset in combinations(link, size):
                    union = tuple(sorted(set().union(*subset)))
                    delta[union] = delta.get(union, Fraction(0)) + (-2) ** (size - 1) * a
            for e, w in delta.items():
                self.add(e, w)
        elif kind == "LC":
            partners = [e[0] if e[1] == q else e[1] for e, _ in self.at(q)]
            self.apply(q, "Xp", Fraction(1, 2))
            for u in partners:
                self.add((u,), Fraction(3, 2))
        else:
            raise ValueError(kind)


def weight_text(w: Fraction) -> str:
    """A weight in [0, 2) as the program's state JSON writes it."""
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def state_json(s: StateModel) -> dict:
    return {
        "n": s.n,
        "edges": [{"v": list(e), "w": weight_text(w)} for e, w in sorted(s.edges.items())],
        "phase": weight_text(s.phase),
    }


def ledger_lines(before: StateModel, after: StateModel) -> list[str]:
    """Net per-edge change, sorted by edge, phase last, as ``--ledger`` prints it."""
    lines = []
    for e in sorted(set(before.edges) | set(after.edges)):
        d = (after.edges.get(e, Fraction(0)) - before.edges.get(e, Fraction(0))) % TWO
        if d:
            lines.append("{" + ",".join(map(str, e)) + "}: " + weight_text(d))
    d = (after.phase - before.phase) % TWO
    if d:
        lines.append("phase: " + weight_text(d))
    return lines


def replay(rows: list[int], gates: list[dict]) -> StateModel:
    """Graph state of ``rows`` after a gate list in the sequence JSON form."""
    n = len(rows)
    edges = {(i, j): Fraction(1) for i in range(n) for j in range(i + 1, n) if (rows[i] >> j) & 1}
    state = StateModel(n, edges)
    for gate in gates:
        state.apply(gate["q"], gate["g"], Fraction(gate["a"]) if "a" in gate else None)
    return state


def graph_of(state: StateModel) -> list[int] | None:
    """Adjacency rows of a graph state (phase ignored), None for any other state."""
    if any(len(e) != 2 or w != 1 for e, w in state.edges.items()):
        return None
    return from_edges(state.n, state.edges)
