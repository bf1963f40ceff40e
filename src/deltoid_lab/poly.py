"""Sparse multivariate polynomials over Q(i, sqrt(3)).

A polynomial carries an ordered tuple of variable names and a dict mapping
exponent tuples to nonzero FieldScalar coefficients.  Two polynomials are
equal iff they share the variable tuple and the term dict.  Terms are kept
canonical (no zero coefficients); printing and leading-term extraction use
the graded lexicographic order so output is deterministic.

Besides ring arithmetic the module provides the structural operations the
rest of the repository needs: formal partial derivatives, exact polynomial
map composition, the conjugation swap (exchange paired variables and
conjugate coefficients), the j-rotation endomorphism, exact division, and
exact determinants / linear solves over the coefficient field.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .scalars import ONE, ZERO, FieldScalar, j_power

Exponents = tuple[int, ...]
CoeffLike = Union[FieldScalar, int, Fraction]


class VariableMismatchError(ValueError):
    """Operands are defined over different variable tuples."""


class NonDivisibleError(ArithmeticError):
    """Exact division failed; the claimed divisibility does not hold."""


def grlex_key(e: Exponents) -> tuple[int, Exponents]:
    return (sum(e), e)


class MPoly:
    """Sparse polynomial over Q(i, sqrt(3)) in named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, FieldScalar] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        clean: dict[Exponents, FieldScalar] = {}
        if terms:
            nvars = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not match variables {self.variables}")
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms: dict[Exponents, FieldScalar] = clean

    @staticmethod
    def _adopt(variables: tuple[str, ...], terms: dict[Exponents, FieldScalar]) -> "MPoly":
        """MPoly taking over a clean term dict (tuples of the right length, no
        zero coefficients), unchecked and uncopied; for the ring operations."""
        poly = object.__new__(MPoly)
        poly.variables, poly.terms = variables, terms
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "MPoly":
        return MPoly(variables)

    @staticmethod
    def const(variables: Sequence[str], value: CoeffLike) -> "MPoly":
        coeff = FieldScalar.coerce(value)
        if not coeff:
            return MPoly(variables)
        return MPoly(variables, {(0,) * len(tuple(variables)): coeff})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MPoly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"unknown variable {name!r} in {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return MPoly(variables, {exps: ONE})

    @staticmethod
    def variables_ring(variables: Sequence[str]) -> dict[str, "MPoly"]:
        """Convenience: name -> generator polynomial for each variable."""
        return {name: MPoly.var(variables, name) for name in tuple(variables)}

    # -- basic queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Exponents, FieldScalar]:
        """Leading (exponents, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def coefficient(self, exps: Exponents) -> FieldScalar:
        return self.terms.get(tuple(exps), ZERO)

    def constant_term(self) -> FieldScalar:
        return self.terms.get((0,) * len(self.variables), ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def _check_same_ring(self, other: "MPoly") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "MPoly | CoeffLike") -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(self.variables, other)
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            new = coeff if acc is None else acc + coeff
            if new:
                out[exps] = new
            elif acc is not None:
                del out[exps]
        return MPoly._adopt(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._adopt(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly | CoeffLike") -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other: CoeffLike) -> "MPoly":
        return MPoly.const(self.variables, other) + (-self)

    def __mul__(self, other: "MPoly | CoeffLike") -> "MPoly":
        if not isinstance(other, MPoly):
            scalar = FieldScalar.coerce(other)
            if not scalar:
                return MPoly(self.variables)
            return MPoly._adopt(self.variables, {e: c * scalar for e, c in self.terms.items()})
        self._check_same_ring(other)
        out: dict[Exponents, FieldScalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(exps)
                new = prod if acc is None else acc + prod
                if new:
                    out[exps] = new
                elif acc is not None:
                    del out[exps]
        return MPoly._adopt(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = MPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and endomorphisms ------------------------------------------

    def diff(self, name: str) -> "MPoly":
        """Formal partial derivative with respect to one variable."""
        try:
            idx = self.variables.index(name)
        except ValueError:
            raise VariableMismatchError(f"unknown variable {name!r}") from None
        out: dict[Exponents, FieldScalar] = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            new = list(exps)
            new[idx] = k - 1
            out[tuple(new)] = coeff * k
        return MPoly._adopt(self.variables, out)

    def subs(self, images: Mapping[str, "MPoly"]) -> "MPoly":
        """Exact composition f(images); one image per variable of f.

        All images must live over a common target variable tuple, which
        becomes the variable tuple of the result.
        """
        missing = [v for v in self.variables if v not in images]
        if missing:
            raise VariableMismatchError(f"no image supplied for variables {missing}")
        imgs = [images[v] for v in self.variables]
        target = imgs[0].variables if imgs else self.variables
        for g in imgs:
            if g.variables != target:
                raise VariableMismatchError("images live over different variable tuples")
        result = MPoly.zero(target)
        # Cache powers of each image as they are needed.
        pow_cache: list[dict[int, MPoly]] = [
            {0: MPoly.const(target, 1), 1: g} for g in imgs
        ]

        def image_power(i: int, k: int) -> MPoly:
            cache = pow_cache[i]
            if k not in cache:
                cache[k] = image_power(i, k - 1) * cache[1]
            return cache[k]

        for exps, coeff in self.terms.items():
            term = MPoly.const(target, coeff)
            for i, k in enumerate(exps):
                if k:
                    term = term * image_power(i, k)
            result = result + term
        return result

    def conj_swap(self, pairing: Iterable[tuple[str, str]]) -> "MPoly":
        """Exchange paired variables and conjugate every coefficient.

        The pairing must cover all variables; a variable may pair with
        itself.  This realizes complex conjugation on polynomial models
        whose variables come in conjugate pairs.
        """
        return self._permuted(pairing, lambda coeff: coeff.conj())

    def swap_variables(self, pairing: Iterable[tuple[str, str]]) -> "MPoly":
        """Exchange paired variables without touching coefficients.

        This is the reflection symmetry of the function (Z <-> Zb as formal
        variables); conj_swap additionally conjugates coefficients and is
        complex conjugation of the function instead.
        """
        return self._permuted(pairing, lambda coeff: coeff)

    def _permuted(
        self,
        pairing: Iterable[tuple[str, str]],
        coefficient: Callable[[FieldScalar], FieldScalar],
    ) -> "MPoly":
        """Exchange paired variables (covering all of them); map each coefficient."""
        perm: dict[str, str] = {}
        for u, v in pairing:
            perm[u] = v
            perm[v] = u
        uncovered = [v for v in self.variables if v not in perm]
        if uncovered:
            raise VariableMismatchError(f"pairing does not cover variables {uncovered}")
        index_map = [self.variables.index(perm[v]) for v in self.variables]
        out: dict[Exponents, FieldScalar] = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(exps)
            for i, e in enumerate(exps):
                new[index_map[i]] = e
            out[tuple(new)] = coefficient(coeff)
        return MPoly(self.variables, out)

    def rotate_j(self, weights: Mapping[str, int]) -> "MPoly":
        """Substitute v -> j**w(v) * v for each variable (default weight 0)."""
        w = [weights.get(v, 0) for v in self.variables]
        out: dict[Exponents, FieldScalar] = {}
        for exps, coeff in self.terms.items():
            phase = sum(wi * ei for wi, ei in zip(w, exps)) % 3
            out[exps] = coeff * j_power(phase)
        return MPoly(self.variables, out)

    # -- evaluation ----------------------------------------------------------

    def evaluate_exact(self, point: Mapping[str, CoeffLike]) -> FieldScalar:
        vals = [FieldScalar.coerce(point[v]) for v in self.variables]
        total = ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for val, k in zip(vals, exps):
                for _ in range(k):
                    term = term * val
            total = total + term
        return total

    def evaluate(self, point: Mapping[str, "complex | np.ndarray"]):
        """Numeric evaluation; accepts scalars or numpy arrays per variable.

        Arrays broadcast against each other; the result has their shape, or
        is a Python complex when every value is a scalar.
        """
        values = CompiledPolys([self]).values(point)[0]
        return values if values.shape else complex(values)

    # -- canonical text -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, FieldScalar]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def _monomial_str(self, exps: Exponents) -> str:
        factors = []
        for name, k in zip(self.variables, exps):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        return "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = self._monomial_str(exps)
            cs = str(coeff)
            compound = ("+" in cs[1:]) or ("-" in cs[1:])
            if not mono:
                body = f"({cs})" if compound else cs
            elif compound:
                body = f"({cs})*{mono}"
            elif cs == "1":
                body = mono
            elif cs == "-1":
                body = f"-{mono}"
            else:
                body = f"{cs}*{mono}"
            if not chunks:
                chunks.append(body)
            elif body.startswith("-"):
                chunks.append(f" - {body[1:]}")
            else:
                chunks.append(f" + {body}")
        return "".join(chunks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MPoly({self})"


# -- numeric evaluation on point sets --------------------------------------------

# Points per evaluation block: the power table of one block stays in cache,
# and no temporary grows with the size of the point set.
EVAL_CHUNK = 1 << 14


def blocks(n: int, size: int = EVAL_CHUNK) -> Iterator[slice]:
    """Consecutive slices of range(n) with at most size indices each."""
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def _powers(base, top: int) -> list:
    """[1, base, base**2, ..., base**top] by repeated multiplication."""
    out = [1.0, base]
    for _ in range(top - 1):
        out.append(out[-1] * base)
    return out[: top + 1]


def _sum_terms(terms: list[tuple[complex, Exponents]], powers: list[list],
               out: np.ndarray, buffers: np.ndarray) -> None:
    """out = 0 + (c * x1**k1) * x2**k2 * ... over the terms, in term order, with
    the operations of that expression in its order (so its bits) and no
    temporaries.  Each product goes to the row of buffers that is not its
    operand: numpy may round an in-place complex product differently."""
    out.fill(0.0)
    for coeff, exps in terms:
        factors = [p[k] for p, k in zip(powers, exps) if k]
        if not factors:
            out += coeff
            continue
        term, spare = buffers[:, :out.size]
        np.multiply(coeff, factors[0], out=term)
        for factor in factors[1:]:
            np.multiply(term, factor, out=spare)
            term, spare = spare, term
        out += term


class CompiledPolys:
    """Polynomials over one variable tuple, compiled for numeric evaluation.

    Points are evaluated in blocks of EVAL_CHUNK; each block builds the
    powers of every variable once, by repeated multiplication, and every
    polynomial reads its terms from that shared table.  A scalar is the
    point set of shape (): there is one path for every point set.

    values() sums each polynomial's terms in its own term order, so the one
    polynomial case (MPoly.evaluate) keeps the rounding of the term-by-term
    formula.  The real form serves polynomials in a conjugate pair (w, wb)
    at wb = conj(w): since w^a wb^b is w^(a-b) |w|^(2b) for a >= b and the
    conjugate of w^(b-a) |w|^(2a) otherwise, the real parts of all the
    polynomials are one real coefficient matrix times the table of the
    features Re and Im of w^m |w|^(2s).  A zero polynomial is an all-zero row
    of that matrix and evaluates to exact zeros.
    """

    __slots__ = ("variables", "_terms", "_top", "_real")

    def __init__(self, polys: Sequence[MPoly]):
        polys = list(polys)
        if not polys:
            raise ValueError("no polynomials to compile")
        for p in polys[1:]:
            polys[0]._check_same_ring(p)
        self.variables = polys[0].variables
        # Per polynomial, (complex coefficient, exponents) in its term order.
        self._terms = [[(c.to_complex(), e) for e, c in p.terms.items()] for p in polys]
        exponents = [e for p in polys for e in p.terms] or [(0,) * len(self.variables)]
        self._top = [max(column) for column in zip(*exponents)]
        self._real: tuple[list[tuple[int, int, bool]], np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._terms)

    # -- complex values, any variables ------------------------------------------

    def values(self, point: Mapping[str, "complex | np.ndarray"]) -> np.ndarray:
        """Complex values, shape (len(self), *broadcast shape of the point)."""
        arrays = np.broadcast_arrays(*(np.asarray(point[v], dtype=complex) for v in self.variables))
        shape = arrays[0].shape
        flat = [a.reshape(-1) for a in arrays]
        out = np.empty((len(self), flat[0].size), dtype=complex)
        buffers = np.empty((2, min(flat[0].size, EVAL_CHUNK)), dtype=complex)
        for block in blocks(flat[0].size):
            powers = [_powers(a[block], top) for a, top in zip(flat, self._top)]
            for i, terms in enumerate(self._terms):
                _sum_terms(terms, powers, out[i, block], buffers)
        return out.reshape((len(self), *shape))

    # -- real form, one conjugate pair -------------------------------------------

    def _real_matrix(self) -> tuple[list[tuple[int, int, bool]], np.ndarray]:
        """Features (m, s, imaginary part) and the real coefficient matrix over them."""
        if self._real is None:
            if len(self.variables) != 2:
                raise ValueError("the real form needs one conjugate pair of variables")
            entries = []
            for i, terms in enumerate(self._terms):
                for coeff, (a, b) in terms:
                    m, s = abs(a - b), min(a, b)
                    entries.append((i, (m, s, False), coeff.real))
                    if m:
                        entries.append((i, (m, s, True), -coeff.imag if a > b else coeff.imag))
            features = sorted({key for _, key, _ in entries})
            column = {key: j for j, key in enumerate(features)}
            matrix = np.zeros((len(self), len(features)))
            for i, key, value in entries:
                matrix[i, column[key]] += value
            self._real = (features, matrix)
        return self._real

    def _real_blocks(self, w: np.ndarray):
        """Yield Re f(w, conj w) for every polynomial, one (len(self), block)
        array per block of EVAL_CHUNK points."""
        features, matrix = self._real_matrix()
        w = np.asarray(w, dtype=complex).reshape(-1)
        top_m = max((m for m, _, _ in features), default=0)
        top_s = max((s for _, s, _ in features), default=0)
        for points in blocks(w.size):
            block = w[points]
            w_pow = _powers(block, top_m)
            r_pow = _powers(block.real * block.real + block.imag * block.imag, top_s)
            table = np.empty((len(features), block.size))
            for row, (m, s, imaginary) in enumerate(features):
                part = (w_pow[m].imag if imaginary else w_pow[m].real) if m else 1.0
                np.multiply(part, r_pow[s], out=table[row])
            yield matrix @ table

    def real_values(self, w: np.ndarray) -> np.ndarray:
        """Re f(w, conj w) for every polynomial, shape (len(self), *w.shape)."""
        w = np.asarray(w, dtype=complex)
        out = np.empty((len(self), w.size))
        for block, values in zip(blocks(w.size), self._real_blocks(w)):
            out[:, block] = values
        return out.reshape((len(self), *w.shape))

    def real_mean_se(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Sample mean and its standard error of Re f(w, conj w), per polynomial.

        w is an array of points or an iterator over point arrays, a stream
        that is never held whole.  Each is evaluated in EVAL_CHUNK slices, and
        every slice's two-pass mean and M2 is combined by streamed_mean_se, so
        an array and the stream of its EVAL_CHUNK slices give the same bits.
        """
        count = 0

        def moments(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
            nonlocal count
            count += values.shape[1]
            mean = values.mean(axis=1)
            deviations = np.subtract(values, mean[:, None], out=values)
            return values.shape[1], mean, np.square(deviations, out=deviations).sum(axis=1)

        blocks = w if isinstance(w, Iterator) else (w,)
        mean, se = streamed_mean_se(moments(values) for block in blocks
                                    for values in self._real_blocks(block))
        if count < 2:
            raise ValueError("need at least two points for a standard error")
        return mean, se


def streamed_mean_se(moments: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error std(ddof=1)/sqrt(n) per entry of values that
    arrive in blocks, each block as its (size, mean, M2 = sum of squared
    deviations from its mean), combined by Chan's pairwise update (Chan, Golub
    & LeVeque, Amer. Statist. 1983).  A negative M2 raises; the error is 0.0
    below two values, as in MomentEstimate.of."""
    count = 0
    mean = m2 = 0.0
    for size, block_mean, block_m2 in moments:
        if np.any(block_m2 < 0.0):
            raise ArithmeticError(f"negative block M2 {np.min(block_m2):.3g}")
        delta = block_mean - mean
        total = count + size
        mean = mean + delta * (size / total)
        m2 = m2 + block_m2 + delta * delta * (count * size / total)
        count = total
    if count < 2:
        return mean, np.zeros_like(mean)
    return mean, np.sqrt(m2 / (count - 1) / count)


# -- exact division -----------------------------------------------------------


def divide_exact(f: MPoly, g: MPoly) -> MPoly:
    """Return q with f = q*g, or raise NonDivisibleError.

    Single-divisor division in graded-lex order: when f is genuinely a
    multiple of g the leading term of every intermediate remainder is
    divisible by the leading term of g, so the algorithm never gets stuck;
    a stuck state certifies non-divisibility.
    """
    f._check_same_ring(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    g_exps, g_coeff = g.leading()
    g_coeff_inv = g_coeff.inverse()
    quotient = MPoly.zero(f.variables)
    remainder = f
    while remainder:
        r_exps, r_coeff = remainder.leading()
        q_exps = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(e < 0 for e in q_exps):
            raise NonDivisibleError(f"({f}) is not divisible by ({g})")
        t = MPoly(f.variables, {q_exps: r_coeff * g_coeff_inv})
        quotient = quotient + t
        remainder = remainder - t * g
    return quotient


def try_divide(f: MPoly, g: MPoly) -> MPoly | None:
    try:
        return divide_exact(f, g)
    except NonDivisibleError:
        return None


# -- exact determinants ---------------------------------------------------------


def det_cofactor(matrix: Sequence[Sequence[MPoly]]) -> MPoly:
    """Naive cofactor expansion; the oracle for small matrices."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    variables = matrix[0][0].variables

    def expand(rows: tuple[int, ...], cols: tuple[int, ...]) -> MPoly:
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        total = MPoly.zero(variables)
        r = rows[0]
        rest = rows[1:]
        for i, c in enumerate(cols):
            minor = expand(rest, cols[:i] + cols[i + 1 :])
            term = matrix[r][c] * minor
            total = total + (term if i % 2 == 0 else -term)
        return total

    idx = tuple(range(n))
    return expand(idx, idx)


def det_fraction_free(matrix: Sequence[Sequence[MPoly]]) -> MPoly:
    """Exact determinant by Bareiss fraction-free elimination.

    Intermediate entries are genuine minors of the input, so every division
    performed is exact in the polynomial ring; row swaps handle zero pivots.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    variables = matrix[0][0].variables
    m = [list(row) for row in matrix]
    sign = 1
    denom = MPoly.const(variables, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return MPoly.zero(variables)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        trivial_denom = _is_one(denom)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = numerator if trivial_denom else divide_exact(numerator, denom)
            m[i][k] = MPoly.zero(variables)
        denom = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


def _is_one(p: MPoly) -> bool:
    return len(p.terms) == 1 and p.constant_term() == ONE


# -- exact linear algebra over the field ----------------------------------------


def solve_field_linear(
    rows: Sequence[Sequence[FieldScalar]], rhs: Sequence[FieldScalar]
) -> list[FieldScalar] | None:
    """Solve A x = b exactly over Q(i, sqrt(3)).

    Returns one solution (free unknowns set to zero) or None when the
    system is inconsistent.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][col].inverse()
        a[r] = [x * inv if x else x for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if a[i][ncols]:
            return None
    solution = [ZERO] * ncols
    for row, col in pivots:
        solution[col] = a[row][ncols]
    return solution


def monomials_up_to(
    variables: Sequence[str], bound: int, weight: Callable[[Exponents], int] | None = None
) -> list[Exponents]:
    """All exponent tuples with weighted degree <= bound, in graded-lex order;
    the weight counts each variable at least once, so no exponent exceeds bound."""
    weight = weight or sum
    out = [e for e in itertools.product(range(bound + 1), repeat=len(variables))
           if weight(e) <= bound]
    out.sort(key=grlex_key)
    return out
