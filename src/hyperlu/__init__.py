"""Symbolic toolkit for weighted hypergraph states.

Exact dyadic-weight rewriting of graph and hypergraph states under
local gates, GF(2) decision of local-Clifford equivalence, construction
and verification of graph-state pairs that are locally equivalent but
not Clifford equivalent, and a brute-force state-vector oracle backing
every symbolic rule.

The package root exports nothing: callers import the submodules
(``from hyperlu import cli``, ``from hyperlu.lc_solver import lc_equivalent``).
"""

__version__ = "0.1.0"
