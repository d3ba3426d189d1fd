"""GF(2) elimination against brute-force enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlu.errors import DimensionMismatchError
from hyperlu.gf2 import GF2Matrix, echelonize, solve_linear_gf2


def brute_force_solutions(m: GF2Matrix, rhs_bits: list[int]) -> set[int]:
    out = set()
    for x in range(1 << m.ncols):
        ok = True
        for i, row in enumerate(m.rows):
            if (row & x).bit_count() % 2 != rhs_bits[i]:
                ok = False
                break
        if ok:
            out.add(x)
    return out


def span(particular: int, basis: tuple[int, ...]) -> set[int]:
    out = {particular}
    for b in basis:
        out |= {x ^ b for x in out}
    return out


def test_identity_system():
    m = GF2Matrix(3, 3, [0b001, 0b010, 0b100])
    sol = solve_linear_gf2(m, [1, 0, 1])
    assert sol is not None
    assert sol.particular == 0b101
    assert sol.nullspace == ()


def test_zero_matrix_zero_rhs():
    m = GF2Matrix(2, 3, [0, 0])
    sol = solve_linear_gf2(m, [0, 0])
    assert sol is not None
    assert sol.particular == 0
    assert len(sol.nullspace) == 3


def test_zero_matrix_nonzero_rhs():
    m = GF2Matrix(2, 3, [0, 0])
    assert solve_linear_gf2(m, [1, 0]) is None


def test_rhs_length_checked():
    m = GF2Matrix(2, 3, [0, 0])
    with pytest.raises(DimensionMismatchError):
        solve_linear_gf2(m, [1, 0, 0])


def test_rank_examples():
    assert GF2Matrix(2, 2, [0b11, 0b11]).rank() == 1
    assert GF2Matrix(2, 2, [0b01, 0b10]).rank() == 2
    assert GF2Matrix(3, 4, [0, 0, 0]).rank() == 0


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_solution_space_matches_brute_force(nrows, ncols, data):
    rows = [
        data.draw(st.integers(min_value=0, max_value=(1 << ncols) - 1))
        for _ in range(nrows)
    ]
    rhs = [data.draw(st.integers(min_value=0, max_value=1)) for _ in range(nrows)]
    m = GF2Matrix(nrows, ncols, rows)
    sol = solve_linear_gf2(m, rhs)
    expected = brute_force_solutions(m, rhs)
    if sol is None:
        assert expected == set()
    else:
        assert span(sol.particular, sol.nullspace) == expected


@given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=8))
def test_echelonize_preserves_span(vectors):
    basis = echelonize(vectors)
    leads = [(v & -v).bit_length() - 1 for v in basis]
    assert leads == sorted(set(leads))  # strictly increasing distinct leads
    full = {0}
    for v in vectors:
        full |= {x ^ v for x in full}
    reduced = {0}
    for v in basis:
        reduced |= {x ^ v for x in reduced}
    assert full == reduced
