import copy
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltoid_lab.scalars import FieldScalar, I, J, JBAR, ONE, ZERO, j_power

from conftest import (field_scalars, nonzero_field_scalars, small_rationals,
                      sparse_field_scalars)


def test_constants():
    assert I * I == FieldScalar(Fraction(-1))
    r3 = FieldScalar(Fraction(0), Fraction(0), Fraction(1))
    assert r3 * r3 == FieldScalar(Fraction(3))
    assert J == FieldScalar(Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(1, 2))


def test_j_is_cube_root_of_unity():
    assert J * J * J == ONE
    assert J * J == JBAR
    assert J.conj() == JBAR
    assert j_power(5) == JBAR
    assert j_power(-1) == JBAR


def test_conjugation_swaps_imaginary_components():
    x = FieldScalar(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert x.conj() == FieldScalar(Fraction(1), Fraction(-2), Fraction(3), Fraction(-4))
    assert x.conj().conj() == x


@given(field_scalars, field_scalars, field_scalars)
def test_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(nonzero_field_scalars)
def test_inverse(x):
    assert x * x.inverse() == ONE


@given(field_scalars, field_scalars)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conj() == x.conj() * y.conj()


def test_to_complex_matches_components():
    x = FieldScalar(Fraction(1, 2), Fraction(-1), Fraction(1, 3), Fraction(2))
    expected = complex(0.5 + math.sqrt(3) / 3, -1 + 2 * math.sqrt(3))
    assert abs(x.to_complex() - expected) < 1e-15


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_canonical_string():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(J) == "-1/2+1/2*i*r3"
    assert str(FieldScalar(Fraction(3), Fraction(-1, 2))) == "3-1/2*i"
    assert str(I) == "i"
    assert str(-I) == "-i"


def former_str(x: FieldScalar) -> str:
    """The canonical text as formatted from one Fraction per component."""
    parts: list[str] = []
    for num, tag in zip(x.ints, ("", "i", "r3", "i*r3")):
        if not num:
            continue
        comp = Fraction(num, x.ints[4])
        body = str(comp) if not tag else (f"{comp}*{tag}" if abs(comp) != 1 else ("-" + tag if comp < 0 else tag))
        parts.append(body if not parts or body.startswith("-") else "+" + body)
    return "".join(parts) or "0"


# Zero, +-1, integers, and fractions whose denominators run far past any
# common factor of the others.
text_components = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**15),
)


@given(text_components, text_components, text_components, text_components)
def test_canonical_string_matches_fraction_formatter(a, b, c, d):
    x = FieldScalar(a, b, c, d)
    assert str(x) == former_str(x)
    assert str(-x) == former_str(-x)


def test_rational_value_guard():
    assert FieldScalar(Fraction(7, 3)).rational_value() == Fraction(7, 3)
    with pytest.raises(ValueError):
        I.rational_value()


# -- the integer representation against the four-Fraction formulas ---------
#
# FieldScalar used to hold four Fractions (a, b, c, d).  _FractionScalar keeps
# those formulas, every component product included, as the oracle: each
# operation must give the same components, the same text and the same
# to_complex bits, and every result must be in canonical form.


@dataclass(frozen=True)
class _FractionScalar:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def of(x) -> "_FractionScalar":
        if isinstance(x, FieldScalar):
            return _FractionScalar(x.a, x.b, x.c, x.d)
        return _FractionScalar(Fraction(x), Fraction(0), Fraction(0), Fraction(0))

    def __add__(self, o):
        return _FractionScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o):
        return _FractionScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __mul__(self, o):
        p1, q1, r1, s1 = self.a, self.c, self.b, self.d
        p2, q2, r2, s2 = o.a, o.c, o.b, o.d
        re0 = p1 * p2 + 3 * q1 * q2 - (r1 * r2 + 3 * s1 * s2)
        re1 = p1 * q2 + q1 * p2 - (r1 * s2 + s1 * r2)
        im0 = p1 * r2 + 3 * q1 * s2 + r1 * p2 + 3 * s1 * q2
        im1 = p1 * s2 + q1 * r2 + r1 * q2 + s1 * p2
        return _FractionScalar(re0, im0, re1, im1)

    def conj(self):
        return _FractionScalar(self.a, -self.b, self.c, -self.d)

    def inverse(self):
        if not (self.b or self.c or self.d):
            return _FractionScalar(1 / self.a, Fraction(0), Fraction(0), Fraction(0))
        conj = self.conj()
        norm = self * conj
        denom = norm.a * norm.a - 3 * norm.c * norm.c
        return conj * _FractionScalar(norm.a / denom, Fraction(0), -norm.c / denom, Fraction(0))

    def to_complex(self) -> complex:
        return complex(float(self.a) + float(self.c) * math.sqrt(3.0),
                       float(self.b) + float(self.d) * math.sqrt(3.0))

    def __str__(self) -> str:
        parts: list[str] = []
        for comp, tag in ((self.a, ""), (self.b, "i"), (self.c, "r3"), (self.d, "i*r3")):
            if comp == 0:
                continue
            body = str(comp) if not tag else (f"{comp}*{tag}" if abs(comp) != 1 else ("-" + tag if comp < 0 else tag))
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append("-" + body[1:])
            else:
                parts.append("+" + body)
        return "".join(parts) if parts else "0"


def _complex_bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _assert_canonical(x: FieldScalar) -> None:
    a, b, c, d, q = x.ints
    assert all(type(v) is int for v in x.ints)
    assert q > 0 and math.gcd(a, b, c, d, q) == 1


def _assert_same(result, expected: _FractionScalar) -> None:
    assert isinstance(result, FieldScalar)
    _assert_canonical(result)
    components = (result.a, result.b, result.c, result.d)
    assert components == (expected.a, expected.b, expected.c, expected.d)
    assert all(type(v) is Fraction for v in components)
    assert str(result) == str(expected)
    assert _complex_bits(result.to_complex()) == _complex_bits(expected.to_complex())


# Wider denominators than conftest's, so that sums and products have common
# factors to divide out.
wide_rationals = st.one_of(st.just(Fraction(0)), st.fractions(
    min_value=Fraction(-40), max_value=Fraction(40), max_denominator=60).filter(bool))
wide_field_scalars = st.builds(FieldScalar, wide_rationals, wide_rationals,
                               wide_rationals, wide_rationals)
operands = st.one_of(sparse_field_scalars, wide_field_scalars)
nonzero_operands = operands.filter(bool)
rational_likes = st.one_of(small_rationals, wide_rationals, st.integers(-5, 5),
                           st.integers(-10**30, 10**30))


@given(operands, operands)
def test_mul_matches_full_formula(x, y):
    old = _FractionScalar.of
    _assert_same(x * y, old(x) * old(y))
    _assert_same(y * x, old(x) * old(y))


@given(operands, rational_likes)
def test_mul_by_int_or_fraction_matches_full_formula(x, r):
    expected = _FractionScalar.of(x) * _FractionScalar.of(r)
    _assert_same(x * r, expected)
    _assert_same(r * x, expected)


@given(operands, operands)
def test_add_and_sub_match_componentwise(x, y):
    old = _FractionScalar.of
    _assert_same(x + y, old(x) + old(y))
    _assert_same(x - y, old(x) - old(y))


@given(operands, rational_likes)
def test_add_and_sub_with_int_or_fraction(x, r):
    old = _FractionScalar.of
    _assert_same(x + r, old(x) + old(r))
    _assert_same(r + x, old(x) + old(r))
    _assert_same(x - r, old(x) - old(r))
    _assert_same(r - x, old(r) - old(x))


@given(nonzero_operands)
def test_inverse_matches_full_formula(x):
    _assert_same(x.inverse(), _FractionScalar.of(x).inverse())


@given(operands, nonzero_operands)
def test_division_matches_full_formula(x, y):
    old = _FractionScalar.of
    _assert_same(x / y, old(x) * old(y).inverse())


@given(nonzero_operands, st.integers(-5, 5).filter(bool))
def test_int_divided_by_scalar_matches_full_formula(x, r):
    old = _FractionScalar.of
    _assert_same(r / x, old(r) * old(x).inverse())


@given(operands)
def test_unary_operations_match_full_formula(x):
    old = _FractionScalar.of(x)
    _assert_same(x, old)
    _assert_same(x.conj(), old.conj())
    _assert_same(-x, _FractionScalar.of(0) - old)


@given(operands)
def test_zero_has_one_form(x):
    for zero in (x - x, x * 0, x * Fraction(0, 7), FieldScalar(), FieldScalar(Fraction(0, 5)),
                 FieldScalar.from_rational(0)):
        assert zero.ints == (0, 0, 0, 0, 1)
        assert not zero and zero == ZERO and hash(zero) == hash(ZERO)
    assert bool(x) == any(x.ints[:4])


@given(operands, operands)
def test_equal_values_are_equal_and_hash_equal(x, y):
    # (x + y) - y is x by another route, with other intermediate denominators.
    z = (x + y) - y
    assert z == x and z.ints == x.ints and hash(z) == hash(x)
    assert (x == y) == (str(x) == str(y))


def test_constructor_reduces_to_canonical_form():
    x = FieldScalar(Fraction(1, 6), Fraction(-1, 4), 2, Fraction(5, 3))
    assert x.ints == (2, -3, 24, 20, 12)
    assert FieldScalar(Fraction(2, 4)).ints == (1, 0, 0, 0, 2)
    assert J.ints == (-1, 0, 0, 1, 2) and JBAR.ints == (-1, 0, 0, -1, 2)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        FieldScalar(0.5)
    for op in (lambda: ONE + 0.5, lambda: ONE - 0.5, lambda: ONE * 0.5,
               lambda: 0.5 * ONE, lambda: ONE / 0.5, lambda: FieldScalar.coerce(0.5)):
        with pytest.raises(TypeError):
            op()


def test_scalars_are_immutable():
    x = FieldScalar(1, 2, 3, 4)
    for name, value in (("a", Fraction(5)), ("ints", (5, 0, 0, 0, 1)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        del x.ints
    assert x.ints == (1, 2, 3, 4, 1)


def test_pickle_and_copy_round_trip():
    x = FieldScalar(Fraction(1, 6), Fraction(-1, 4), 2, Fraction(5, 3))
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert y == x and y.ints == x.ints


# -- the names the benchmark's layer trace counts at ------------------------


def test_rmul_is_mul():
    # perfbench/layertrace.py counts FieldScalar products at __mul__ and
    # rebinds every alias of it; a separate __rmul__ would go uncounted.
    assert FieldScalar.__rmul__ is FieldScalar.__mul__


def test_division_goes_through_inverse(monkeypatch):
    calls = []
    inverse = FieldScalar.inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(FieldScalar, "inverse", counted)
    x = FieldScalar(Fraction(1), Fraction(2))
    assert x / J == x * JBAR
    assert x / 3 == x * Fraction(1, 3)
    assert 2 / J == 2 * JBAR
    assert calls == [J, FieldScalar(Fraction(3)), J]
