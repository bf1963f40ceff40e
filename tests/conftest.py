"""Shared hypothesis strategies and fixtures."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from deltoid_lab.poly import MPoly
from deltoid_lab.scalars import FieldScalar

small_rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)

field_scalars = st.builds(FieldScalar, small_rationals, small_rationals,
                          small_rationals, small_rationals)

nonzero_field_scalars = field_scalars.filter(bool)

# Each component is zero about half the time, so rational and one-component
# elements, the common operands of the exact layers, are drawn often.
sparse_rationals = st.one_of(st.just(Fraction(0)), small_rationals.filter(bool))

sparse_field_scalars = st.builds(FieldScalar, sparse_rationals, sparse_rationals,
                                 sparse_rationals, sparse_rationals)


def poly_strategy(variables: tuple[str, ...], max_degree: int = 3, max_terms: int = 4):
    nvars = len(variables)
    exponent = st.tuples(*([st.integers(0, max_degree)] * nvars)).filter(
        lambda e: sum(e) <= max_degree
    )
    term = st.tuples(exponent, field_scalars)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: _assemble(variables, terms)
    )


def _assemble(variables, terms):
    out = MPoly.zero(variables)
    for exps, coeff in terms:
        out = out + MPoly(variables, {exps: coeff}) if coeff else out
    return out


deltoid_polys = poly_strategy(("Z", "Zb"))
g2_polys = poly_strategy(("s", "p"))


@pytest.fixture(scope="session")
def deltoid_boundary():
    from deltoid_lab.models import deltoid_boundary_poly

    return deltoid_boundary_poly()
