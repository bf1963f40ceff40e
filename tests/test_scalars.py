import math
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


def test_rational_value_guard():
    assert FieldScalar(Fraction(7, 3)).rational_value() == Fraction(7, 3)
    with pytest.raises(ValueError):
        I.rational_value()


# -- fast paths against the full formula -----------------------------------
#
# The oracle multiplies all 4 x 4 component pairs, zero or not; the fast paths
# in FieldScalar skip zero components and must agree with it exactly.


def _oracle_mul(x: FieldScalar, y: FieldScalar) -> FieldScalar:
    p1, q1, r1, s1 = x.a, x.c, x.b, x.d
    p2, q2, r2, s2 = y.a, y.c, y.b, y.d
    re0 = p1 * p2 + 3 * q1 * q2 - (r1 * r2 + 3 * s1 * s2)
    re1 = p1 * q2 + q1 * p2 - (r1 * s2 + s1 * r2)
    im0 = p1 * r2 + 3 * q1 * s2 + r1 * p2 + 3 * s1 * q2
    im1 = p1 * s2 + q1 * r2 + r1 * q2 + s1 * p2
    return FieldScalar(re0, im0, re1, im1)


def _oracle_inverse(x: FieldScalar) -> FieldScalar:
    conj = FieldScalar(x.a, -x.b, x.c, -x.d)
    norm = _oracle_mul(x, conj)
    denom = norm.a * norm.a - 3 * norm.c * norm.c
    return _oracle_mul(conj, FieldScalar(norm.a / denom, Fraction(0), -norm.c / denom))


def _components(x: FieldScalar) -> tuple:
    return (x.a, x.b, x.c, x.d)


def _assert_same(result, expected: FieldScalar) -> None:
    assert isinstance(result, FieldScalar)
    assert _components(result) == _components(expected)
    assert all(type(v) is Fraction for v in _components(result))
    assert str(result) == str(expected)


sparse_nonzero_field_scalars = sparse_field_scalars.filter(bool)
rational_likes = st.one_of(small_rationals, st.integers(-5, 5))


@given(sparse_field_scalars, sparse_field_scalars)
def test_mul_matches_full_formula(x, y):
    _assert_same(x * y, _oracle_mul(x, y))
    _assert_same(y * x, _oracle_mul(x, y))


@given(sparse_field_scalars, rational_likes)
def test_mul_by_int_or_fraction_matches_full_formula(x, r):
    expected = _oracle_mul(x, FieldScalar(Fraction(r)))
    _assert_same(x * r, expected)
    _assert_same(r * x, expected)


@given(sparse_field_scalars, sparse_field_scalars)
def test_add_and_sub_match_componentwise(x, y):
    _assert_same(x + y, FieldScalar(x.a + y.a, x.b + y.b, x.c + y.c, x.d + y.d))
    _assert_same(x - y, FieldScalar(x.a - y.a, x.b - y.b, x.c - y.c, x.d - y.d))


@given(sparse_field_scalars, rational_likes)
def test_add_and_sub_with_int_or_fraction(x, r):
    q = Fraction(r)
    _assert_same(x + r, FieldScalar(x.a + q, x.b, x.c, x.d))
    _assert_same(r + x, FieldScalar(x.a + q, x.b, x.c, x.d))
    _assert_same(x - r, FieldScalar(x.a - q, x.b, x.c, x.d))
    _assert_same(r - x, FieldScalar(q - x.a, -x.b, -x.c, -x.d))


@given(sparse_nonzero_field_scalars)
def test_inverse_matches_full_formula(x):
    _assert_same(x.inverse(), _oracle_inverse(x))


@given(sparse_field_scalars, sparse_nonzero_field_scalars)
def test_division_matches_full_formula(x, y):
    _assert_same(x / y, _oracle_mul(x, _oracle_inverse(y)))


@given(sparse_nonzero_field_scalars, st.integers(-5, 5).filter(bool))
def test_int_divided_by_scalar_matches_full_formula(x, r):
    _assert_same(r / x, _oracle_mul(FieldScalar(Fraction(r)), _oracle_inverse(x)))


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
