"""Carre du champ calculus for polynomial diffusion models.

A DiffusionModel is the universal representation of a symmetric second-order
diffusion operator on polynomials: an ordered variable tuple, the symmetric
table gamma[i][j] = Gamma(x_i, x_j) of cometric entries, and the drift vector
b_i = L(x_i), all sparse exact polynomials.  From the table one recovers

    Gamma(f, g) = sum_ij gamma[i][j] * d_i f * d_j g
    L(f)        = sum_ij gamma[i][j] * d2_ij f + sum_i b_i * d_i f

exactly.  The module also pushes models forward through polynomial maps
(rewriting the transported table in the image variables by an exact linear
solve against a monomial ansatz), derives drifts from power-law measure
densities, and certifies boundary-ideal membership.

A model family shares one Gamma table and differs only in its drift, so the
work that reads the table alone is done once per process: cometric(model) is
the memo of the table, keyed by its value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import (
    Exponents,
    MPoly,
    VariableMismatchError,
    divide_exact,
    monomials_up_to,
    solve_field_linear,
)
from .scalars import ONE, ZERO


class NotClosedError(ValueError):
    """The polynomial map does not carry the operator to the image variables."""


@dataclass(frozen=True)
class DiffusionModel:
    """Variable tuple + symmetric Gamma table + drift vector (+ parameters)."""

    variables: tuple[str, ...]
    gamma: dict[tuple[str, str], MPoly]
    drift: dict[str, MPoly]
    params: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        table: dict[tuple[str, str], MPoly] = {}
        for (u, v), entry in self.gamma.items():
            if u not in self.variables or v not in self.variables:
                raise VariableMismatchError(f"gamma entry ({u},{v}) outside {self.variables}")
            if entry.variables != self.variables:
                raise VariableMismatchError(f"gamma entry ({u},{v}) over wrong ring")
            existing = table.get((u, v))
            if existing is not None and existing != entry:
                raise ValueError(f"conflicting gamma entries for ({u},{v})")
            table[(u, v)] = entry
            table[(v, u)] = entry
        object.__setattr__(self, "gamma", table)
        for v in self.variables:
            if v not in self.drift:
                raise ValueError(f"missing drift entry for {v}")
            if self.drift[v].variables != self.variables:
                raise VariableMismatchError(f"drift entry for {v} over wrong ring")

    @functools.cached_property
    def gamma_key(self) -> tuple:
        """The Gamma table by value, hashable: equal tables give equal keys."""
        return (self.variables, frozenset(self.gamma.items()))

    def gamma_entry(self, u: str, v: str) -> MPoly:
        entry = self.gamma.get((u, v))
        if entry is None:
            return MPoly.zero(self.variables)
        return entry

    def to_jsonable(self) -> dict:
        upper = {
            f"{u},{v}": str(p)
            for (u, v), p in sorted(self.gamma.items())
            if self.variables.index(u) <= self.variables.index(v)
        }
        return {
            "variables": list(self.variables),
            "gamma": upper,
            "drift": {v: str(self.drift[v]) for v in self.variables},
            "params": {k: str(v) for k, v in sorted(self.params.items())},
        }


def gamma_apply(model: DiffusionModel, f: MPoly, g: MPoly) -> MPoly:
    """Gamma(f, g) = sum_ij gamma[i][j] d_i f d_j g, exactly."""
    if f.variables != model.variables or g.variables != model.variables:
        raise VariableMismatchError("polynomials live over a different ring than the model")
    df = {v: f.diff(v) for v in model.variables}
    dg = {v: g.diff(v) for v in model.variables}
    total = MPoly.zero(model.variables)
    for u in model.variables:
        if df[u].is_zero():
            continue
        for v in model.variables:
            if dg[v].is_zero():
                continue
            entry = model.gamma.get((u, v))
            if entry is None or entry.is_zero():
                continue
            total = total + entry * df[u] * dg[v]
    return total


def l_apply(model: DiffusionModel, f: MPoly) -> MPoly:
    """L(f) = sum_ij gamma[i][j] d2_ij f + sum_i drift[i] d_i f, exactly."""
    if f.variables != model.variables:
        raise VariableMismatchError("polynomial lives over a different ring than the model")
    total = MPoly.zero(model.variables)
    first = {v: f.diff(v) for v in model.variables}
    for u in model.variables:
        du = first[u]
        if not du.is_zero():
            b = model.drift[u]
            if not b.is_zero():
                total = total + b * du
        for v in model.variables:
            entry = model.gamma.get((u, v))
            if entry is None or entry.is_zero():
                continue
            second = first[u].diff(v)
            if not second.is_zero():
                total = total + entry * second
    return total


def rewrite_in_images(
    target: MPoly,
    images: Mapping[str, MPoly],
    new_variables: tuple[str, ...],
    what: str = "rewrite",
    built: dict[tuple[int, ...], MPoly] | None = None,
) -> MPoly:
    """Write target exactly as a polynomial in the image expressions.

    Candidate monomials are bounded by the weighted degree that the images
    induce; the coefficients are found by one exact linear solve and the
    result is certified by re-substitution.  Each candidate's image is built
    once per call, by one product; built, if given, shares them across calls.
    """
    if target.is_zero():
        return MPoly.zero(new_variables)
    img_list = [images[v] for v in new_variables]
    img_degrees = [g.total_degree() for g in img_list]
    if any(d < 1 for d in img_degrees):
        raise NotClosedError(f"{what}: image expressions must be non-constant")
    bound = target.total_degree()

    def weighted(e: tuple[int, ...]) -> int:
        return sum(k * d for k, d in zip(e, img_degrees))

    candidates = monomials_up_to(new_variables, bound, weight=weighted)
    # Image of every candidate monomial in the source ring, in graded-lex order:
    # the image of the candidate one variable lower is always built first.
    built = {} if built is None else built
    built.setdefault((0,) * len(new_variables), MPoly.const(target.variables, 1))
    for exps in candidates:
        if exps not in built:
            i = max(j for j, k in enumerate(exps) if k)
            built[exps] = built[exps[:i] + (exps[i] - 1,) + exps[i + 1:]] * img_list[i]
    candidate_polys = [built[exps] for exps in candidates]
    row_index: dict[tuple[int, ...], int] = {}
    for p in candidate_polys + [target]:
        for e in p.terms:
            row_index.setdefault(e, len(row_index))
    rows = [[ZERO] * len(candidates) for _ in range(len(row_index))]
    for col, p in enumerate(candidate_polys):
        for e, c in p.terms.items():
            rows[row_index[e]][col] = c
    rhs = [ZERO] * len(row_index)
    for e, c in target.terms.items():
        rhs[row_index[e]] = c
    solution = solve_field_linear(rows, rhs)
    if solution is None:
        raise NotClosedError(f"{what}: no exact polynomial rewrite in the image variables")
    result = MPoly(new_variables, dict(zip(candidates, solution)))
    check = result.subs(dict(images))
    if check != target:
        raise NotClosedError(f"{what}: rewrite failed certification")  # pragma: no cover
    return result


class Cometric:
    """What one Gamma table alone determines, filled on demand.

    model is the table with zero drift: l_apply on it is the second-order part
    of every operator with this table.
    """

    def __init__(self, model: DiffusionModel):
        variables = model.variables
        self.model = DiffusionModel(variables, model.gamma,
                                    {v: MPoly.zero(variables) for v in variables})
        self._second: dict[Exponents, MPoly] = {}
        self._image_maps: dict[tuple, tuple[dict, dict[Exponents, MPoly]]] = {}
        self._cofactors: dict[MPoly, dict[str, MPoly]] = {}

    def second_order(self, exps: Exponents) -> MPoly:
        """sum_ij gamma[i][j] d2_ij m for the monomial m with these exponents."""
        if exps not in self._second:
            self._second[exps] = l_apply(self.model, MPoly(self.model.variables, {exps: ONE}))
        return self._second[exps]

    def image_map(
        self, images: Mapping[str, MPoly],
    ) -> tuple[dict[tuple[str, str], MPoly], dict[Exponents, MPoly]]:
        """Gamma(X_i, X_j), i <= j, rewritten in the variables of X = images, and
        the candidate images built for it, which later rewrites extend."""
        key = tuple(images.items())
        if key not in self._image_maps:
            new_variables = tuple(images)
            built: dict[Exponents, MPoly] = {}
            gamma: dict[tuple[str, str], MPoly] = {}
            for i, u in enumerate(new_variables):
                for v in new_variables[i:]:
                    upstairs = gamma_apply(self.model, images[u], images[v])
                    gamma[(u, v)] = rewrite_in_images(upstairs, images, new_variables,
                                                      f"Gamma({u},{v})", built)
            self._image_maps[key] = (gamma, built)
        return self._image_maps[key]

    def cofactors(self, base: MPoly) -> dict[str, MPoly]:
        """Gamma(base, x_i)/base per variable; NonDivisibleError if one is not exact."""
        if base not in self._cofactors:
            variables = self.model.variables
            self._cofactors[base] = {
                v: divide_exact(gamma_apply(self.model, base, MPoly.var(variables, v)), base)
                for v in variables
            }
        return self._cofactors[base]


# Keyed by the Gamma table's value (variables, entries), so that every model
# sharing a table shares one entry; the entries live as long as the process.
_COMETRICS: dict[tuple, Cometric] = {}


def cometric(model: DiffusionModel) -> Cometric:
    """The process-wide memo of model's Gamma table."""
    entry = _COMETRICS.get(model.gamma_key)
    if entry is None:
        entry = _COMETRICS[model.gamma_key] = Cometric(model)
    return entry


def pushforward(
    model: DiffusionModel,
    images: Mapping[str, MPoly],
    params: Mapping[str, Fraction] | None = None,
) -> DiffusionModel:
    """Image of the model under the polynomial map X = Phi(x).

    Computes Gamma(X_i, X_j) and L(X_i) upstairs and rewrites both in the
    new variables; the Gamma rewrites and candidate images come from
    cometric(model), so a call rewrites only its L(X_i).  Raises
    NotClosedError when the map does not carry the operator.
    """
    new_variables = tuple(images.keys())
    for name, g in images.items():
        if g.variables != model.variables:
            raise VariableMismatchError(f"image for {name} over wrong ring")
    gamma, built = cometric(model).image_map(images)
    drift: dict[str, MPoly] = {}
    for u in new_variables:
        upstairs = l_apply(model, images[u])
        drift[u] = rewrite_in_images(upstairs, images, new_variables, f"L({u})", built)
    return DiffusionModel(new_variables, dict(gamma), drift, dict(params or {}))


def drift_from_measure(
    variables: Sequence[str],
    gamma: Mapping[tuple[str, str], MPoly],
    factors: Sequence[tuple[MPoly, Fraction]],
) -> dict[str, MPoly]:
    """Drift of the operator symmetric w.r.t. density prod(base**exponent).

    b_i = sum_j d_j gamma[i][j] + sum_factors exponent * Gamma(base, x_i)/base;
    each division must be exact (that is the boundary-compatibility of the
    measure), otherwise NonDivisibleError propagates.  The cofactors come
    from cometric, so each base is divided once per process.
    """
    variables = tuple(variables)
    zero_drift = {v: MPoly.zero(variables) for v in variables}
    memo = cometric(DiffusionModel(variables, dict(gamma), zero_drift))
    drift = divergence_sums(memo.model)
    for base, exponent in factors:
        if exponent != 0:
            cofactors = memo.cofactors(base)
            for u in variables:
                drift[u] = drift[u] + cofactors[u] * exponent
    return drift


def boundary_ideal_check(model: DiffusionModel, f_boundary: MPoly) -> dict[str, MPoly]:
    """Certify Gamma(F, x_i) = h_i * F for every variable; return the h_i.

    NonDivisibleError means the boundary condition fails for F.  The h_i are
    cometric's cofactors, shared with drift_from_measure.
    """
    return dict(cometric(model).cofactors(f_boundary))


def divergence_sums(model: DiffusionModel) -> dict[str, MPoly]:
    """Per-variable divergence sum_j d_j gamma[j][i] of the cometric."""
    out: dict[str, MPoly] = {}
    for u in model.variables:
        total = MPoly.zero(model.variables)
        for v in model.variables:
            entry = model.gamma.get((v, u))
            if entry is not None:
                total = total + entry.diff(v)
        out[u] = total
    return out

