"""Dyadic weight arithmetic, checked against exact Fraction arithmetic."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import weights
from hyperlu.errors import NonDyadicError, SizeLimitError
from hyperlu.weights import MAX_PARSED_EXPONENT, Weight


def test_reduction_into_interval():
    assert Weight(2, 1) == Weight(1)  # 2/2 = 1
    assert Weight(-5) == Weight(1)
    assert Weight(6) == Weight(0)
    assert Weight(-1, 2) == Weight(7, 2)
    assert Weight(10, 2) == Weight(1, 1)  # 10/4 = 5/2 = 1/2 mod 2


def test_quarter_cancellation_chain():
    # 1/4 - 2/4 = -1/4, which is 7/4 modulo 2 (Fraction cross-check below)
    acc = Weight(1, 2) - Weight(2, 2)
    assert acc == Weight(7, 2)
    assert (Fraction(1, 4) - Fraction(2, 4)) % 2 == Fraction(7, 4)


def test_zero_normal_form():
    z = Weight(0, 5)
    assert z.num == 0 and z.exp == 0
    assert z.is_zero and not z


def test_normal_form_matches_fractions_up_to_the_parse_cap():
    """Seeded numerators with many trailing zeros (so the reduction
    cancels many factors of two at once), both signs, against Fraction,
    at denominator exponents up to MAX_PARSED_EXPONENT."""
    rng = random.Random(20261018)
    exps = [0, 1, 2, 63, 64, 65, MAX_PARSED_EXPONENT - 1, MAX_PARSED_EXPONENT]
    exps += [rng.randint(0, MAX_PARSED_EXPONENT) for _ in range(400)]
    for exp in exps:
        for _ in range(5):
            zeros = rng.randint(0, exp + 3)
            num = rng.choice([-1, 1]) * (rng.getrandbits(rng.randint(0, exp + 3)) << zeros)
            # lowest terms within [0, 2): num odd, or zero over 2**0
            expected = Fraction(num, 1 << exp) % 2
            normal = (expected.numerator, expected.denominator.bit_length() - 1)
            for w in (Weight(num, exp), Weight.parse(f"{num}/2^{exp}")):
                assert (w.num, w.exp) == normal


@pytest.mark.parametrize(
    "text,expected",
    [
        ("7/4", Weight(7, 2)),
        ("1", Weight(1)),
        ("-5", Weight(1)),
        ("0", Weight(0)),
        ("3/2^1", Weight(3, 1)),
        ("15/4", Weight(7, 2)),
        (" 1/2 ", Weight(1, 1)),
    ],
)
def test_parse(text, expected):
    assert Weight.parse(text) == expected


@pytest.mark.parametrize("bad", ["1/3", "x", "2/0", "1/6"])
def test_parse_rejects(bad):
    with pytest.raises(NonDyadicError):
        Weight.parse(bad)


def test_parse_bounds_the_exponent_only_at_the_boundary():
    top = MAX_PARSED_EXPONENT
    assert Weight.parse(f"1/2^{top}") == Weight(1, top)
    assert Weight.parse(f"3/{1 << top}") == Weight(3, top)
    for text in (f"1/2^{top + 1}", f"1/{1 << (top + 1)}", "1/2^100000000"):
        with pytest.raises(SizeLimitError):
            Weight.parse(text)
    assert (Weight(1, top) + Weight(1, 3 * top)).exp == 3 * top  # uncapped inside


# the two regexes Weight.parse used before its single one, kept as a reference
_OLD_CARET_RE = re.compile(r"^(-?\d+)\s*/\s*2\^(\d+)$")
_OLD_PLAIN_RE = re.compile(r"^(-?\d+)(?:\s*/\s*(\d+))?$")


def two_regex_parse(text: str) -> Weight:
    """Weight.parse as it was: the "p/2^e" regex first, then "p" or "p/q"."""
    s = text.strip()
    m = _OLD_CARET_RE.match(s)
    if m:
        num, exp = int(m.group(1)), int(m.group(2))
    else:
        m = _OLD_PLAIN_RE.match(s)
        if not m:
            raise NonDyadicError(f"cannot parse weight {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0 or den & (den - 1):
            raise NonDyadicError(f"denominator of {text!r} is not a power of two")
        exp = den.bit_length() - 1
    if exp > MAX_PARSED_EXPONENT:
        raise SizeLimitError(
            f"denominator exponent {exp} of weight {text!r} exceeds {MAX_PARSED_EXPONENT}"
        )
    return Weight(num, exp)


def parse_outcome(parse, text: str):
    try:
        w = parse(text)
    except (NonDyadicError, SizeLimitError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return w.num, w.exp


def test_parse_matches_the_two_regex_reference():
    """A seeded corpus of well-formed and near-miss weight strings parses
    to the same weight, or the same error and message, as before."""
    rng = random.Random(20261020)
    big = str(1 << (MAX_PARSED_EXPONENT + 1))
    pieces = ["0", "1", "2", "3", "4", "7", "8", "12", "16", "1024", big, "-", "--", "/",
              "^", "2^", "/2^", "2 ^", " ", "  ", "\t", "\n", "x", "+", "1025", "00", "2^2^"]
    corpus = ["1/2^", "1/2^3", "1/23", "1/2 ^3", "1 / 2^3", "-0/2^0", f"3/2^{MAX_PARSED_EXPONENT + 1}",
              f"1/{big}", f"1/2^{big}", "1/2^x", "1/ 2^ 3", " 5 / 8 "]
    for _ in range(30_000):
        corpus.append("".join(rng.choice(pieces) for _ in range(rng.randint(1, 6))))
    for _ in range(10_000):
        num = rng.choice(["", "-"]) + str(rng.randint(0, 99))
        sep = rng.choice(["/", " / ", "/ ", " /", "\t/\t"])
        den = rng.choice([str(1 << rng.randint(0, 12)), str(rng.randint(0, 99)),
                          f"2^{rng.randint(0, 1100)}", f"2 ^{rng.randint(0, 9)}", "2^"])
        corpus.append(num + sep + den + rng.choice(["", " ", "\n"]))
    for text in corpus:
        assert parse_outcome(Weight.parse, text) == parse_outcome(two_regex_parse, text), text


def test_from_fraction_rejects_non_dyadic():
    with pytest.raises(NonDyadicError):
        Weight.from_fraction(Fraction(1, 3))


@given(weights())
def test_str_round_trip(w):
    assert Weight.parse(str(w)) == w


@given(weights(), weights())
def test_addition_matches_fractions(a, b):
    assert (a + b).as_fraction() == (a.as_fraction() + b.as_fraction()) % 2


@given(weights())
def test_negation_matches_fractions(a):
    assert (-a).as_fraction() == (-a.as_fraction()) % 2


@given(weights(), st.integers(min_value=-9, max_value=9))
def test_scalar_multiple_matches_fractions(a, k):
    assert (a * k).as_fraction() == (a.as_fraction() * k) % 2


@given(weights())
def test_float_is_exact(a):
    assert float(a) == float(a.as_fraction())
