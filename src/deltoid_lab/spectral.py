"""Exact eigenpolynomial bases by graded triangular solve.

The operators here map each graded slice of the polynomial ring into itself
and act lower-triangularly on monomials: applying L to a monomial returns
the monomial itself (the diagonal, a rational multiple) plus monomials that
are strictly smaller in the grading order.  The eigenpolynomial with a
prescribed leading monomial is therefore found by back-substitution down
the order, one exact rational coefficient at a time, read straight from the
rows of the operator table.  Every entry point reads one module-level cache
keyed by the operator (variables, Gamma table, drift); each entry holds the
graded basis's monomials in the grading order, enumerated once per degree the
table grows to, one operator table (L applied once per monomial) and the
polynomials solved from it.  A row is the monomial's second-order image, made
once per Gamma table for every parameter (diffusion.cometric), plus its image
under the entry's drift.  A solve walks that fixed order down from its lead;
nothing is sorted per solve.

For the deltoid family the grading is the total degree in (Z, Zb) and the
eigenvalue of the leading monomial Z^n Zb^k is

    (lambda - 1)(n + k) + n^2 + k^2 + n k.

For the G2 family the grading is the weighted degree r + 2t of s^r p^t.

Eigenvalue collisions (a strictly smaller monomial with the same diagonal
eigenvalue) make the solve singular when that monomial is actually fed by
higher terms; this raises EigenvalueCollisionError naming the witness.
When the feed is zero the solve stays consistent and the coefficient is
fixed to zero (the choice is conjugation-equivariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .diffusion import DiffusionModel, cometric, l_apply, rewrite_in_images
from .models import (
    DELTOID_CONJ_PAIRS,
    DELTOID_J_WEIGHTS,
    DELTOID_VARS,
    G2_VARS,
    PSI_IMAGES,
    deltoid_model,
)
from .poly import Exponents, MPoly, grlex_key, monomials_up_to
from .scalars import FieldScalar, I, ONE, RationalLike, j_power

OrderKey = Callable[[Exponents], tuple]
# L applied to each monomial of a graded basis up to some degree.
OperatorTable = dict[Exponents, MPoly]


class EigenvalueCollisionError(ArithmeticError):
    """A lower monomial shares the eigenvalue and is genuinely coupled."""

    def __init__(self, lead: Exponents, witness: Exponents, eigenvalue: Fraction):
        self.lead = lead
        self.witness = witness
        self.eigenvalue = eigenvalue
        super().__init__(
            f"eigen solve for leading monomial {lead} is singular: monomial "
            f"{witness} shares eigenvalue {eigenvalue} and receives a nonzero feed"
        )


@dataclass(frozen=True)
class EigenPoly:
    """Indexed eigenpolynomial with exact coefficients.

    eigenvalue stores mu with L(poly) = -mu * poly.  flavor is one of
    'R' (monomial leading term), 'P' (symmetric), 'Q' (antisymmetric),
    'G' (G2 weighted-graded basis).
    """

    n: int
    k: int
    eigenvalue: Fraction
    poly: MPoly
    flavor: str


def eigenvalue_deltoid(lam: Fraction, n: int, k: int) -> Fraction:
    return (lam - 1) * (n + k) + n * n + k * k + n * k


def g2_weighted_degree(e: Exponents) -> int:
    """Weighted degree of s^r p^t, with p counting twice."""
    return e[0] + 2 * e[1]


def _g2_key(e: Exponents) -> tuple:
    return (g2_weighted_degree(e), e[0])


@dataclass(frozen=True)
class GradedBasis:
    """Monomial basis organized by a grading the operator respects.

    flavor is the EigenPoly flavor of the eigenpolynomials it indexes.
    """

    variables: tuple[str, ...]
    degree: Callable[[Exponents], int]
    order_key: OrderKey
    flavor: str

    def monomials(self, max_degree: int) -> list[Exponents]:
        """The monomials of degree <= max_degree in the grading order (order_key)."""
        return sorted(monomials_up_to(self.variables, max_degree, weight=self.degree),
                      key=self.order_key)


DELTOID_BASIS = GradedBasis(DELTOID_VARS, lambda e: sum(e), grlex_key, "R")
G2_BASIS = GradedBasis(G2_VARS, g2_weighted_degree, _g2_key, "G")


def _monomial(variables: Sequence[str], exps: Exponents) -> MPoly:
    return MPoly(variables, {tuple(exps): ONE})


def operator_table(
    model: DiffusionModel, monomials: Iterable[Exponents], table: OperatorTable,
) -> OperatorTable:
    """Apply L once to each of the given monomials the table lacks; return it.

    A row is the memoized second-order image plus L of the drift-only
    operator: l_apply(model, m) exactly, in a term order the solve never reads.
    """
    second = cometric(model)
    first = DiffusionModel(model.variables, {}, model.drift)
    for exps in monomials:
        if exps not in table:
            table[exps] = (second.second_order(exps)
                           + l_apply(first, _monomial(model.variables, exps)))
    return table


def _diagonal(table: OperatorTable, exps: Exponents) -> Fraction:
    coeff = table[exps].coefficient(exps)
    if coeff and not coeff.is_rational():
        raise ValueError(f"non-rational diagonal at {exps}")
    return coeff.rational_value() if coeff else Fraction(0)


def graded_triangular_solve(
    model: DiffusionModel,
    lead: Exponents,
    order: Sequence[Exponents],
    rank: dict[Exponents, int],
    table: OperatorTable,
    eigenvalues: dict[Exponents, Fraction],
) -> tuple[MPoly, Fraction]:
    """Back-substitute the eigenpolynomial with the given leading monomial.

    Returns (polynomial, eigenvalue mu).  order lists the table's monomials
    ascending in the grading order and rank maps each to its position there;
    the table must hold the lead and every monomial below it, and the solve
    reads none above it.  eigenvalues maps a monomial to minus the diagonal
    coefficient of L on it, the eigenvalue of the eigenpolynomial it leads.
    """
    lead = tuple(lead)
    below = order[:rank[lead]][::-1]
    mu = eigenvalues[lead]

    coeffs: dict[Exponents, FieldScalar] = {lead: ONE}
    # acc holds (L + mu)(partial solution), read from the table's rows, except on
    # fixed monomials: their diagonal is never read again ((mu - mu) * lead is 0).
    acc: dict[Exponents, FieldScalar] = {}

    def accumulate(exps: Exponents, scale: FieldScalar) -> None:
        position = rank[exps]
        for e, c in table[exps].terms.items():
            if e == exps:
                continue
            # A feed outside the table lies above the table's top degree.
            if rank.get(e, position) >= position:  # pragma: no cover - structural guard
                raise ValueError(f"operator is not triangular: {exps} feeds {e}")
            total = acc.get(e)
            new = c * scale if total is None else total + c * scale
            if new:
                acc[e] = new
            elif total is not None:
                del acc[e]

    accumulate(lead, ONE)
    for exps in below:
        rhs = acc.pop(exps, None)
        if rhs is None:
            continue
        denom = eigenvalues[exps] - mu
        if denom == 0:
            raise EigenvalueCollisionError(lead, exps, mu)
        c = rhs * (1 / denom)
        coeffs[exps] = c
        accumulate(exps, c)
    return MPoly(model.variables, coeffs), mu


def pq_pair(r_nk: EigenPoly, r_kn: EigenPoly) -> tuple[EigenPoly, EigenPoly]:
    """Symmetric/antisymmetric pair of index (n, k) from R(n, k) and R(k, n).

    P-hat has dominant term (Z^n Zb^k + Z^k Zb^n)/2 and rational
    coefficients; Q-hat has dominant term -i (Z^n Zb^k - Z^k Zb^n)/2 and
    purely imaginary ones.  Q-hat vanishes identically when n = k.
    """
    n, k = r_nk.n, r_nk.k
    half = Fraction(1, 2)
    p_poly = (r_nk.poly + r_kn.poly) * half
    q_poly = (r_nk.poly - r_kn.poly) * (-I * FieldScalar.from_rational(half))
    mu = r_nk.eigenvalue
    return EigenPoly(n, k, mu, p_poly, "P"), EigenPoly(n, k, mu, q_poly, "Q")


class _OperatorBasis:
    """One operator's eigenpolynomials, solved on demand from one growing table.

    A solve never reads the monomials above its lead, so the order of the
    requests changes no polynomial.
    """

    def __init__(self, model: DiffusionModel, basis: GradedBasis):
        self.model = model
        self.basis = basis
        self.degree, self.held = -1, ()  # the table holds the monomials held, of degree <= degree
        self.rank: dict[Exponents, int] = {}  # each held monomial's position in held
        self.table: OperatorTable = {}
        self.eigenvalues: dict[Exponents, Fraction] = {}  # minus L's diagonal, per monomial
        self.leads: dict[Exponents, EigenPoly] = {}
        self.pairs: dict[tuple[int, int], tuple[EigenPoly, EigenPoly]] = {}

    def monomials(self, max_degree: int) -> tuple[Exponents, ...]:
        """The basis monomials of degree <= max_degree in the grading order, each
        in the table; they are enumerated once per degree the table grows to."""
        if max_degree > self.degree:
            self.degree, self.held = max_degree, tuple(self.basis.monomials(max_degree))
            self.rank = {e: i for i, e in enumerate(self.held)}
            operator_table(self.model, self.held, self.table)
            self.eigenvalues = {e: -_diagonal(self.table, e) for e in self.held}
        if max_degree == self.degree:
            return self.held
        return tuple(e for e in self.held if self.basis.degree(e) <= max_degree)

    def solve(self, lead: Exponents) -> EigenPoly:
        if lead not in self.leads:
            if min(lead) < 0:
                raise ValueError("indices must be nonnegative")
            if self.basis.degree(lead) > self.degree:
                self.monomials(self.basis.degree(lead))
            poly, mu = graded_triangular_solve(
                self.model, lead, self.held, self.rank, self.table, self.eigenvalues)
            self.leads[lead] = EigenPoly(lead[0], lead[1], mu, poly, self.basis.flavor)
        return self.leads[lead]

    def pq(self, n: int, k: int) -> tuple[EigenPoly, EigenPoly]:
        if (n, k) not in self.pairs:
            self.pairs[(n, k)] = pq_pair(self.solve((n, k)), self.solve((k, n)))
        return self.pairs[(n, k)]


# Keyed by the operator (variables, Gamma table, drift), so that equal models
# built apart share one entry; the entries live as long as the process.
_OPERATORS: dict[tuple, _OperatorBasis] = {}


def _operator(model: DiffusionModel, flavor: str | None = None) -> _OperatorBasis:
    """The cache entry of model's operator; flavor, if given, is the basis required."""
    basis = next((b for b in (DELTOID_BASIS, G2_BASIS) if b.variables == model.variables), None)
    if basis is None or flavor not in (None, basis.flavor):
        raise ValueError(f"no {flavor or 'graded'} eigenbasis for the variables {model.variables}")
    key = (model.gamma_key, tuple(model.drift[v] for v in model.variables))
    entry = _OPERATORS.get(key)
    if entry is None:
        entry = _OPERATORS[key] = _OperatorBasis(model, basis)
    return entry


def eigenbasis(model: DiffusionModel, max_degree: int) -> dict[Exponents, EigenPoly]:
    """Every eigenpolynomial of degree <= max_degree, keyed by its leading monomial.

    The model's variables pick the graded basis: R(n, k) keyed (n, k) for the
    deltoid variables, the G2 basis keyed (r, t) for (s, p).
    """
    entry = _operator(model)
    return {lead: entry.solve(lead) for lead in entry.monomials(max_degree)}


# ---------------------------------------------------------------------------
# Deltoid basis
# ---------------------------------------------------------------------------


def eigen_R(model: DiffusionModel, n: int, k: int) -> EigenPoly:
    """Eigenpolynomial with leading term Z^n Zb^k on a deltoid-type model."""
    return _operator(model, "R").solve((n, k))


def eigen_PQ(model: DiffusionModel, n: int, k: int) -> tuple[EigenPoly, EigenPoly]:
    """(P-hat, Q-hat) in leading-coefficient normalization; see pq_pair."""
    return _operator(model, "R").pq(n, k)


def eigen_PQ_lambda(lam: RationalLike, n: int, k: int) -> tuple[EigenPoly, EigenPoly]:
    """eigen_PQ on the deltoid model at lam."""
    return eigen_PQ(deltoid_model(lam), n, k)


def pq_indices(degree_max: int, include_constant: bool = False) -> list[tuple[int, int]]:
    """Index pairs (n, k), n >= k, with 1 <= n + k <= degree_max."""
    lo = 0 if include_constant else 1
    return [
        (n, k)
        for d in range(lo, degree_max + 1)
        for k in range(d // 2 + 1)
        for n in (d - k,)
        if n >= k
    ]


def pq_polys(lam: RationalLike, degree_max: int) -> list[tuple[str, int, int, MPoly]]:
    """Every nonzero P-hat and Q-hat with 1 <= n+k <= degree_max as (flavor, n, k, poly).

    In pq_indices order, P-hat before Q-hat; the zero Q-hat(n, n) is left out.
    """
    entry = _operator(deltoid_model(lam), "R")
    out = []
    for n, k in pq_indices(degree_max):
        p_hat, q_hat = entry.pq(n, k)
        out.append(("P", n, k, p_hat.poly))
        if n != k:
            out.append(("Q", n, k, q_hat.poly))
    return out


def rotation_mixes_pair(n: int, k: int) -> bool:
    """Whether Z -> jZ, which multiplies P-hat + i Q-hat by j^(n - k), mixes the
    pair: n - k is not divisible by 3.  Otherwise it fixes both polynomials."""
    return (n - k) % 3 != 0


@dataclass(frozen=True)
class RotationReport:
    """Exact verification of the three-fold rotation action on (P, Q)."""

    n: int
    k: int
    ok_2x2: bool
    ok_scalar: bool

    @property
    def ok(self) -> bool:
        return self.ok_2x2 and self.ok_scalar


def verify_rotation(model: DiffusionModel, n: int, k: int) -> RotationReport:
    """Check the rotation action Z -> jZ on the (P-hat, Q-hat) pair of (n, k), exactly.

    The 2x2 form states, with m = n - k, c = (j^m + jbar^m)/2 and
    b = i (j^m - jbar^m)/2:

        P-hat(jZ, jbar Zb) =  c P-hat + b Q-hat
        Q-hat(jZ, jbar Zb) = -b P-hat + c Q-hat

    which is equivalent to (P-hat + i Q-hat) picking up the scalar j^m.
    """
    p_hat, q_hat = eigen_PQ(model, n, k)
    m = n - k
    jm = j_power(m)
    jmbar = jm.conj()
    c = (jm + jmbar) * Fraction(1, 2)
    b = I * (jm - jmbar) * Fraction(1, 2)
    p_rot = p_hat.poly.rotate_j(DELTOID_J_WEIGHTS)
    q_rot = q_hat.poly.rotate_j(DELTOID_J_WEIGHTS)
    ok_2x2 = (p_rot == p_hat.poly * c + q_hat.poly * b) and (
        q_rot == p_hat.poly * (-b) + q_hat.poly * c
    )
    combo = p_hat.poly + q_hat.poly * I
    ok_scalar = combo.rotate_j(DELTOID_J_WEIGHTS) == combo * jm
    return RotationReport(n, k, ok_2x2, ok_scalar)


# ---------------------------------------------------------------------------
# G2 basis
# ---------------------------------------------------------------------------


def eigen_g2(model: DiffusionModel, weighted_degree: int) -> list[EigenPoly]:
    """All eigenpolynomials of one weighted-degree slice, leading s^r p^t.

    The slice r + 2t = weighted_degree is enumerated with r descending,
    matching the triangular structure of the operator.
    """
    if weighted_degree < 0:
        raise ValueError("weighted degree must be nonnegative")
    entry = _operator(model, "G")
    return [entry.solve((weighted_degree - 2 * t, t)) for t in range(weighted_degree // 2 + 1)]


def rewrite_symmetric_in_sp(poly: MPoly) -> MPoly:
    """Rewrite a swap-symmetric deltoid polynomial in s = Z + Zb, p = Z Zb."""
    if poly.swap_variables(DELTOID_CONJ_PAIRS) != poly:
        raise ValueError("polynomial is not symmetric under the variable swap")
    return rewrite_in_images(poly, PSI_IMAGES, G2_VARS, "symmetric rewrite")


def coefficient_components_ok(e: EigenPoly) -> bool:
    """Realness pattern: R and P have b = c = d = 0; Q has a = c = 0."""
    for coeff in e.poly.terms.values():
        a, _, c, _, _ = coeff.ints
        if e.flavor in ("R", "P", "G") and not coeff.is_rational():
            return False
        if e.flavor == "Q" and (a or c):
            return False
    return True
