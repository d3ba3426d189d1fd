"""Powers of products of multi-qubit phase gates.

The power of a product of commuting phase gates is not the product of
the powers: every nonempty subset of the factors contributes a
correction on the union of their edges. For a product of gates on edges
e_1 .. e_k raised to a dyadic exponent a, the subset S contributes
weight (-2)**(|S|-1) * a on the edge formed by the union over S.

Since weights only matter modulo 2, a subset of size >= q+2 contributes
nothing when a = p / 2**q in lowest terms; enumeration is pruned
accordingly, which keeps high-degree vertices tractable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import SizeLimitError
from .hypergraph import Edge, edge_to_mask, mask_to_edge, normalize_edge
from .weights import Weight

if TYPE_CHECKING:  # numpy is imported where the oracle check runs, not at start-up
    import numpy as np

_MAX_ORACLE_QUBITS = 12

# Most subsets one expansion enumerates: 2**24 - 1, all subsets of 24
# edges. Since sum_{s<=m} C(k, s) >= 2**m - 1, the cap also bounds the
# enumeration's recursion depth at 24 frames.
MAX_EXPANSION_DEPTH = 24
MAX_EXPANSION_SUBSETS = (1 << MAX_EXPANSION_DEPTH) - 1


def add_expansion(
    acc: dict[int, int], masks: Sequence[int], alpha: Weight, prune: bool = True
) -> None:
    """Add the power-of-product delta of the gates on ``masks`` into ``acc``.

    ``masks`` are the gates' edges as vertex bitmasks (0 is the empty
    edge). Each union mask's numerator over 2**alpha.exp is added to
    ``acc`` unreduced, in first-union order. Both checks (distinct
    masks, the subset cap) run before ``acc`` is touched.
    """
    if len(set(masks)) != len(masks):
        raise ValueError("edges of a gate product must be pairwise distinct")
    if alpha.is_zero or not masks:
        return
    k = len(masks)
    max_size = min(k, alpha.exp + 1) if prune else k
    if k > MAX_EXPANSION_DEPTH:  # 2**k - 1 subsets exceed the cap: count them first
        count, term = 0, 1
        for s in range(1, max_size + 1):  # C(k, s) term by term, stopping past the cap
            term = term * (k - s + 1) // s
            count += term
            if count > MAX_EXPANSION_SUBSETS:
                raise SizeLimitError(
                    f"expansion over {k} edges up to size {max_size} enumerates "
                    f"more than {MAX_EXPANSION_SUBSETS} subsets"
                )

    contribs = [alpha.num * (-2) ** d for d in range(max_size)]

    def extend(start: int, union: int, depth: int) -> None:
        contrib = contribs[depth]
        for j in range(start, k):
            u = union | masks[j]
            acc[u] = acc.get(u, 0) + contrib
            if depth + 1 < max_size:
                extend(j + 1, u, depth + 1)

    extend(0, 0, 0)


def power_of_product(
    edges: Sequence[Edge], alpha: Weight, prune: bool = True
) -> dict[Edge, Weight]:
    """Weighted-edge delta of raising a product of edge gates to ``alpha``.

    ``edges`` must be pairwise distinct; the empty edge is allowed and
    union contributions on it land on the returned () key (a global
    phase). With ``prune`` unset, all 2**k - 1 subsets are enumerated,
    which must agree exactly with the pruned result.
    """
    acc: dict[int, int] = {}
    add_expansion(acc, [edge_to_mask(normalize_edge(e)) for e in edges], alpha, prune)
    wrap = (2 << alpha.exp) - 1  # num & wrap == 0 iff weight is 0 mod 2
    return {
        mask_to_edge(m): Weight(red, alpha.exp) for m, num in acc.items() if (red := num & wrap)
    }


def involution_power_check(diag: np.ndarray, alpha: float | Weight) -> np.ndarray:
    """Brute-force power of an explicit +-1 diagonal operator.

    Replaces every -1 entry by exp(i*pi*alpha). This is the oracle the
    symbolic expansion is validated against, so it stays deliberately
    dumb: no edge structure, just the eigenvalue substitution that
    defines the power of an involution.
    """
    import numpy as np

    d = np.asarray(diag)
    if d.ndim != 1 or d.size == 0 or d.size & (d.size - 1):
        raise ValueError("diagonal length must be a power of two")
    if d.size > 1 << _MAX_ORACLE_QUBITS:
        raise SizeLimitError(f"diagonal larger than 2^{_MAX_ORACLE_QUBITS}")
    if not np.all((d == 1) | (d == -1)):
        raise ValueError("diagonal entries must all be +1 or -1")
    a = float(alpha)
    return np.where(d == -1, np.exp(1j * np.pi * a), 1.0 + 0.0j)
