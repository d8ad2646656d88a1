"""Exact arithmetic substrate: tagged variables, sparse multivariate
polynomials over the rationals, derivations, and fraction-free linear algebra.

A variable is a small tuple ``(kind, *indices)``.  Kinds are ordered
(coordinates < jets < coefficients < matrix entries < reparametrization jets)
and indices are ints, so plain tuple comparison gives one global variable
order and every polynomial has a canonical dictionary form: equal dicts mean
equal polynomials.

Coefficients are kept as ``int`` whenever the value is integral and promoted
to ``fractions.Fraction`` otherwise; the two compare and hash equal, so
canonical form is unaffected.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

# Variable kinds, in canonical sort order.
COORD, JET, COEFF, MAT, PHI = range(5)

Variable = tuple


def coord(i: int) -> Variable:
    """The i-th affine coordinate z_i (1-based)."""
    return (COORD, i)


def jet(i: int, order: int) -> Variable:
    """The order-th derivative coordinate of z_i; order >= 1."""
    if order < 1:
        raise ValueError("jet order must be >= 1 (order 0 is the coordinate itself)")
    return (JET, i, order)


def coeff(alpha: Sequence[int]) -> Variable:
    """The hypersurface coefficient variable indexed by the exponent vector alpha."""
    return (COEFF,) + tuple(alpha)


def mat(k: int, l: int) -> Variable:
    """Entry (k, l) of the square matrix acting on the jet columns."""
    return (MAT, k, l)


def phi(k: int) -> Variable:
    """k-th derivative of a source reparametrization at the origin."""
    return (PHI, k)


def var_name(v: Variable) -> str:
    """Deterministic display name, also used in JSON reports."""
    kind = v[0]
    if kind == COORD:
        return f"z{v[1]}"
    if kind == JET:
        order = v[2]
        if order <= 3:
            return f"z{v[1]}" + "'" * order
        return f"z{v[1]}^({order})"
    if kind == COEFF:
        return "a(" + ",".join(str(e) for e in v[1:]) + ")"
    if kind == MAT:
        return f"m({v[1]},{v[2]})"
    if kind == PHI:
        return f"phi{v[1]}"
    raise ValueError(f"unknown variable {v!r}")


def _norm_scalar(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


# A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
# exponents > 0.  The empty tuple is the constant monomial.
Monomial = tuple

_ONE_MONO: Monomial = ()


def _mono(pairs: Iterable[tuple[Variable, int]]) -> Monomial:
    """The stored monomial of (variable, exponent) pairs in any order, one
    pair per variable; zero exponents are dropped."""
    return tuple(sorted(pair for pair in pairs if pair[1]))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_div(a: Monomial, b: Monomial):
    """a / b as a monomial, or None when b does not divide a."""
    rem = dict(a)
    for v, e in b:
        have = rem.get(v, 0)
        if have < e:
            return None
        if have == e:
            del rem[v]
        else:
            rem[v] = have - e
    return tuple(sorted(rem.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    # graded order first, then lexicographic on the (variable, exponent) pairs
    return (_mono_degree(m), m)


def _glex_key(m: Monomial):
    # proper graded-lex monomial order (earlier variables have priority);
    # the *minimum* of this key over the support is the leading monomial
    return (-_mono_degree(m), tuple((v, -e) for v, e in m))


class Polynomial:
    """Sparse polynomial: dict from canonical monomials to nonzero scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        if terms:
            self.terms = {m: _norm_scalar(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c: Scalar) -> "Polynomial":
        p = Polynomial()
        if c != 0:
            p.terms[_ONE_MONO] = _norm_scalar(c)
        return p

    @staticmethod
    def var(v: Variable, exp: int = 1, c: Scalar = 1) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return Polynomial.const(c)
        p = Polynomial()
        if c != 0:
            p.terms[((v, exp),)] = _norm_scalar(c)
        return p

    @staticmethod
    def monomial(pairs: Iterable[tuple[Variable, int]], c: Scalar = 1) -> "Polynomial":
        mono = _mono(pairs)
        p = Polynomial()
        if c != 0:
            p.terms[mono] = _norm_scalar(c)
        return p

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[_ONE_MONO]

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def coefficient(self, pairs: Iterable[tuple[Variable, int]]) -> Scalar:
        """The coefficient of the monomial given by its (variable, exponent) pairs."""
        return self.terms.get(_mono(pairs), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.const(other).terms
        return NotImplemented

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # -- ring operations -----------------------------------------------------

    def _merged(self, other: "Polynomial", op) -> "Polynomial":
        """self op other, op adding or subtracting coefficients: other's terms
        merged into a copy of self's, with no zero coefficient kept."""
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = op(out.get(m, 0), c)
            if s:
                out[m] = _norm_scalar(s)
            else:
                out.pop(m, None)
        p = Polynomial()
        p.terms = out
        return p

    def __add__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            other = _as_poly(other)
        if not self.terms:
            return other
        return self._merged(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = Polynomial()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            other = _as_poly(other)
        return self._merged(other, operator.sub)

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                if other == 0:
                    return Polynomial()
                other = _norm_scalar(other)
                p = Polynomial()
                p.terms = {m: _norm_scalar(c * other) for m, c in self.terms.items()}
                return p
            if not isinstance(other, Polynomial):
                return NotImplemented
        return dot(((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> "Polynomial":
        """p / k for a nonzero int k: c // k where k divides c, else Fraction(c, k)."""
        return Polynomial({m: c // k if not c % k else Fraction(c, k) for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power requires a nonnegative integer exponent")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus ------------------------------------------------------------

    def diff(self, v: Variable) -> "Polynomial":
        """Formal partial derivative with respect to v."""
        return self.gradient((v,)).get(v, ZERO)

    def gradient(self, variables) -> dict:
        """Every nonzero partial derivative {v: dself/dv} with v in
        variables, from one pass over the terms.  This is the one place a
        monomial is differentiated: diff, VectorField.apply and so every
        total derivative go through it."""
        parts: dict = {}
        for m, c in self.terms.items():
            for idx, (v, e) in enumerate(m):
                if v not in variables:
                    continue
                nm = m[:idx] + m[idx + 1:] if e == 1 else m[:idx] + ((v, e - 1),) + m[idx + 1:]
                # m -> m / v is injective, so no two terms of one partial collide
                parts.setdefault(v, {})[nm] = _norm_scalar(c * e)
        out = {}
        for v, terms in parts.items():
            p = Polynomial()
            p.terms = terms
            out[v] = p
        return out

    def subs(self, bindings: Mapping[Variable, "Polynomial | Scalar"]) -> "Polynomial":
        """Simultaneous substitution; unbound variables pass through."""
        if not bindings:
            return self
        binds = {v: _as_poly(b) for v, b in bindings.items()}
        pow_cache: dict = {}
        out: dict = {}
        for m, c in self.terms.items():
            passthrough = []
            factors = []
            for v, e in m:
                b = binds.get(v)
                if b is None:
                    passthrough.append((v, e))
                else:
                    key = (v, e)
                    f = pow_cache.get(key)
                    if f is None:
                        f = b ** e
                        pow_cache[key] = f
                    factors.append(f)
            term = Polynomial.monomial(passthrough, c)
            for f in factors:
                term = term * f
            for mono, tc in term.terms.items():
                out[mono] = out.get(mono, 0) + tc
        return Polynomial(out)

    def evaluate(self, assignment: Mapping[Variable, Scalar]) -> Scalar:
        """Full numeric evaluation; every variable present must be bound."""
        total = 0
        pow_cache: dict = {}
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                key = (v, e)
                pv = pow_cache.get(key)
                if pv is None:
                    pv = assignment[v] ** e
                    pow_cache[key] = pv
                val = val * pv
            total = total + val
        return _norm_scalar(total) if isinstance(total, Fraction) else total

    # -- exact division ------------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient self/divisor when division is exact; ValueError otherwise."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Polynomial()
        if divisor.is_constant():
            inv = Fraction(1, 1) / Fraction(divisor.constant_value())
            return self * inv
        if len(divisor.terms) == 1:
            # single-monomial divisor: divide term by term
            (dm, dc), = divisor.terms.items()
            out = {}
            for m, c in self.terms.items():
                q = _mono_div(m, dm)
                if q is None:
                    raise ValueError("not exactly divisible")
                out[q] = _norm_scalar(Fraction(c) / Fraction(dc))
            p = Polynomial()
            p.terms = {m: c for m, c in out.items() if c != 0}
            return p
        lead_d = min(divisor.terms, key=_glex_key)
        cd = divisor.terms[lead_d]
        rem = Polynomial()
        rem.terms = dict(self.terms)
        quot: dict = {}
        while rem.terms:
            lead_r = min(rem.terms, key=_glex_key)
            q = _mono_div(lead_r, lead_d)
            if q is None:
                raise ValueError("not exactly divisible")
            qc = _norm_scalar(Fraction(rem.terms[lead_r]) / Fraction(cd))
            quot[q] = qc
            rem = rem - Polynomial.monomial(q, qc) * divisor
        p = Polynomial()
        p.terms = {m: c for m, c in quot.items() if c != 0}
        return p

    # -- canonical text form ---------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda item: _mono_key(item[0]))

    def to_text(self) -> str:
        """Canonical serialization: graded-lex sorted ``coeff * var^exp * ...``."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [str(c)]
            for v, e in m:
                factors.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


class IntegerPoint:
    """An assignment over one common denominator D, the lcm of the
    denominators of its values: x_v = numerators[v] / D.  Powers of the
    numerators and of D are cached, for every polynomial evaluated here:
    powers[(v, e)] is numerators[v]**e once some polynomial has read it."""

    __slots__ = ("den", "numerators", "powers", "_den_powers")

    def __init__(self, assignment: Mapping[Variable, Scalar]):
        den = math.lcm(*(x.denominator for x in assignment.values()))
        self.den = den
        self.numerators = {v: x.numerator * (den // x.denominator) for v, x in assignment.items()}
        self.powers: dict = {}
        self._den_powers = [1]

    def den_powers(self, degree: int) -> list:
        """[D**0, ..., D**degree]."""
        dp = self._den_powers
        while len(dp) <= degree:
            dp.append(dp[-1] * self.den)
        return dp


class IntegerPolynomial:
    """p times scale, over a point's common denominator: the terms
    c * scale * z^m, each with the gap degree - |m|.  At an IntegerPoint with
    denominator D, numerator(point) = sum c scale N^m D^(degree - |m|) is the
    integer p(x) * scale * D^degree.  scale defaults to the lcm of the
    coefficient denominators and degree to the largest term degree; larger
    values (say, shared by several polynomials) must stay multiples of them."""

    __slots__ = ("scale", "degree", "terms")

    def __init__(self, p: Polynomial, scale: int | None = None, degree: int | None = None):
        if scale is None:
            scale = math.lcm(*(c.denominator for c in p.terms.values()))
        if degree is None:
            degree = max(map(_mono_degree, p.terms), default=0)
        self.scale = scale
        self.degree = degree
        self.terms = []
        for m, c in p.terms.items():
            gap = degree - _mono_degree(m)
            if scale % c.denominator or gap < 0:
                raise ValueError(f"scale {scale} and degree {degree} do not clear the term {c} {m}")
            self.terms.append((c.numerator * (scale // c.denominator), m, gap))

    def numerator(self, point: IntegerPoint) -> int:
        powers = point.powers
        numerators = point.numerators
        dp = point.den_powers(self.degree)
        total = 0
        for c, m, gap in self.terms:
            for pair in m:
                pv = powers.get(pair)
                if pv is None:
                    v, e = pair
                    pv = powers[pair] = numerators[v] ** e
                c *= pv
            total += c * dp[gap]
        return total

    def denominator(self, point: IntegerPoint) -> int:
        """scale * D^degree: numerator(point) over it is p at the point."""
        return self.scale * point.den ** self.degree


def common_integer_forms(polys: Sequence[Polynomial]) -> list:
    """Integer forms of polys over one scale and one degree, so that their
    numerators at a point are their values times one positive integer."""
    scale = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    degree = max((_mono_degree(m) for p in polys for m in p.terms), default=0)
    return [IntegerPolynomial(p, scale, degree) for p in polys]


def iter_terms(p: Polynomial) -> Iterator[tuple[Monomial, Scalar]]:
    """Each term of p as (its (variable, exponent) pairs sorted by variable,
    its coefficient).  Outside this module, monomials are read only here."""
    return iter(p.terms.items())


def sum_terms(terms: Iterable[tuple[Iterable[tuple[Variable, int]], Scalar]]) -> Polynomial:
    """The sum of the terms c * prod v^e over (pairs, c) in terms, in canonical
    form; pairs may come in any order, one per variable.  Outside this module,
    polynomials are built from monomials only here (or by Polynomial.monomial).
    The sum holds one object per distinct (variable, exponent) pair."""
    out: dict = {}
    shared: dict = {}
    for pairs, c in terms:
        mono = tuple(sorted(shared.setdefault(pair, pair) for pair in pairs if pair[1]))
        out[mono] = out.get(mono, 0) + c
    return Polynomial(out)


def dot(pairs: Iterable[tuple]) -> Polynomial:
    """The sum of p * q over (p, q) in pairs, each a Polynomial or a scalar,
    accumulated into one dictionary (no product or partial sum is built), in
    canonical form.  An int q scales p's terms, with no monomial product."""
    out: dict = {}
    get = out.get
    for p, q in pairs:
        pt = p.terms if type(p) is Polynomial else _as_poly(p).terms
        if type(q) is int:
            for m, c in pt.items():
                out[m] = get(m, 0) + c * q
            continue
        qt = q.terms if type(q) is Polynomial else _as_poly(q).terms
        for ma, ca in pt.items():
            for mb, cb in qt.items():
                m = _mono_mul(ma, mb)
                out[m] = get(m, 0) + ca * cb
    return Polynomial(out)


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


ZERO = Polynomial.zero()
ONE = Polynomial.const(1)


class VectorField:
    """Derivation of the polynomial ring: finite map variable -> coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Variable, Polynomial | Scalar] | None = None):
        self.coeffs = {}
        if coeffs:
            for v, c in coeffs.items():
                c = _as_poly(c)
                if not c.is_zero():
                    self.coeffs[v] = c

    def get(self, v: Variable) -> Polynomial:
        return self.coeffs.get(v, ZERO)

    def items(self) -> Iterator[tuple[Variable, Polynomial]]:
        return iter(self.coeffs.items())

    def apply(self, p: Polynomial) -> Polynomial:
        """Apply the derivation to p (linear, Leibniz by construction)."""
        out: dict = {}
        for v, dp in p.gradient(self.coeffs).items():
            for mono, c in (self.coeffs[v] * dp).terms.items():
                out[mono] = out.get(mono, 0) + c
        return Polynomial(out)

    def bracket(self, other: "VectorField") -> "VectorField":
        """The commutator [self, other]: direction v gets self(other_v) -
        other(self_v), each field applied only to the other's directions that
        share a variable with it (it sends every other one to 0)."""
        directions = {
            v: -other.apply(c) for v, c in self.coeffs.items() if not c.variables().isdisjoint(other.coeffs)
        }
        for v, c in other.coeffs.items():
            if not c.variables().isdisjoint(self.coeffs):
                directions[v] = self.apply(c) + directions.get(v, ZERO)
        return VectorField(directions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def to_text(self) -> str:
        """Canonical serialization: one ``d/d<var>: <polynomial>`` line per
        nonzero direction, sorted by the global variable order."""
        return "\n".join(
            f"d/d{var_name(v)}: {c.to_text()}" for v, c in sorted(self.coeffs.items())
        )

    def __repr__(self) -> str:
        return f"VectorField({self.to_text().replace(chr(10), ', ')})"


# -- multi-index helpers ------------------------------------------------------


def mi_total(alpha: Sequence[int]) -> int:
    return sum(alpha)


def mi_sub(alpha: Sequence[int], beta: Sequence[int]) -> tuple:
    out = tuple(a - b for a, b in zip(alpha, beta))
    if any(e < 0 for e in out):
        raise ValueError(f"{beta} does not divide {alpha}")
    return out


def mi_leq(beta: Sequence[int], alpha: Sequence[int]) -> bool:
    """Componentwise beta <= alpha."""
    return all(map(operator.le, beta, alpha))


def unit_index(nvars: int, i: int) -> tuple:
    """Basic multi-index with a single 1 in (1-based) slot i."""
    e = [0] * nvars
    e[i - 1] = 1
    return tuple(e)


def enumerate_exponents(nvars: int, max_total: int) -> list[tuple]:
    """All exponent vectors with total degree <= max_total, graded-lex sorted."""
    out: list[tuple] = []

    def rec(prefix: list, remaining: int, slots: int):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(prefix, remaining - e, slots - 1)
            prefix.pop()

    rec([], max_total, nvars)
    out.sort(key=lambda a: (sum(a), a))
    return out


def falling_factorial(a: int, k: int) -> int:
    r = 1
    for j in range(k):
        r *= a - j
    return r


def binomial_product(ell: Sequence[int], sub: Sequence[int]) -> int:
    """prod_j C(ell_j, sub_j); the multinomial ell!/(sub! (ell-sub)!)."""
    r = 1
    for l, s in zip(ell, sub):
        r *= math.comb(l, s)
    return r


def falling_product(alpha: Sequence[int], sigma: Sequence[int]) -> int:
    """prod_j (alpha_j)_(sigma_j), the coefficient of z^(alpha - sigma) in the
    mixed partial d^sigma z^alpha; zero when some sigma_j exceeds alpha_j."""
    r = 1
    for a, s in zip(alpha, sigma):
        if s:
            r *= falling_factorial(a, s)
            if not r:
                return 0
    return r


# -- linear algebra -----------------------------------------------------------


class LinearSolveError(Exception):
    pass


class InconsistentSystem(LinearSolveError):
    """The system has no solution."""


class UnderdeterminedSystem(LinearSolveError):
    """The solution is not unique on the requested unknowns."""


def integer_bareiss(
    matrix: Sequence[Sequence[int]], rhs: Sequence | None = None
) -> tuple[int, int, list | None]:
    """(rank, determinant, solution) of an integer matrix by fraction-free
    elimination (Bareiss 1968) with row and column pivoting; every division
    of a matrix entry is exact.  The determinant is 0 unless the matrix is
    square of full rank.

    Without rhs the solution is None.  With rhs (scalars or polynomials, one
    per row), right sides never enter the elimination.  Int right sides ride
    through it as one more int column, and the solution of matrix * x = rhs
    is in scalars.  Otherwise the identity rides alongside, so back
    substitution gives G = p A'^-1 in integers (A' the pivot rows, p their
    determinant; G = adj A for a square A), and each unknown is one
    int-weighted dot of rhs with its row of G, scaled by 1/p.
    InconsistentSystem is raised when a right side survives on a row that
    reduced to zero (the dot of that row's identity part with rhs), and
    UnderdeterminedSystem, after it, when the rank is below the number of
    unknowns."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    ints = rhs is not None and all(type(y) is int for y in rhs)
    carried = [[]] * nrows if rhs is None else [[y] for y in rhs] if ints else _identity(nrows)
    rank, pivot, rows = _eliminate(matrix, carried)
    det = pivot if rank == nrows == ncols else 0
    if rhs is None:
        return rank, det, None
    for r in range(rank, nrows):
        reduced = rows[r][ncols] if ints else dot(zip(rhs, rows[r][ncols:]))
        if reduced != 0:
            raise InconsistentSystem(f"row {r} reduces to 0 = {_as_poly(reduced).to_text()}")
    if rank < ncols:
        raise UnderdeterminedSystem(f"rank {rank} < {ncols} unknowns: solution not unique")
    weights = _back_substitute(rows, ncols, pivot)
    if ints:
        return rank, det, [Fraction(w[0], pivot) for w in weights]
    return rank, det, [dot((y, c) for y, c in zip(rhs, w) if c) * Fraction(1, pivot) for w in weights]


def integer_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, list | None]:
    """(det, adj) of a square integer matrix, by the elimination of
    integer_bareiss with the identity alongside: A adj = adj A = det I, so
    A x = b has the solution adj b / det.  adj is None when det is 0."""
    _require_square(matrix)
    rank, pivot, rows = _eliminate(matrix, _identity(len(matrix)))
    if rank < len(matrix):
        return 0, None
    return pivot, _back_substitute(rows, rank, pivot)


def _identity(size: int) -> list:
    return [[int(i == r) for i in range(size)] for r in range(size)]


def _eliminate(matrix: Sequence[Sequence[int]], carried: Sequence[Sequence[int]]) -> tuple[int, int, list]:
    """The one elimination loop: (rank, p, rows) of [matrix | carried] after
    eliminating matrix's columns, the carried columns taking the same row
    operations, so every entry stays an integer minor.  Row r < rank has its
    pivot in column r; p is the determinant of the pivot rows' square part."""
    rows = [[*row, *extra] for row, extra in zip(matrix, carried)]
    nrows = len(rows)
    ncols = len(matrix[0]) if nrows else 0
    sign = 1
    prev = 1
    rank = 0
    while rank < min(nrows, ncols):
        r = rank
        pivot_at = next(
            ((i, j) for j in range(r, ncols) for i in range(r, nrows) if rows[i][j]), None
        )
        if pivot_at is None:
            break
        i, j = pivot_at
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        if j != r:  # column r is zero from row r down: the matrix has rank < ncols
            for row in rows:
                row[r], row[j] = row[j], row[r]
        top = rows[r]
        pivot = top[r]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[r]
            row[r + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[r + 1:], top[r + 1:])]
            row[r] = 0
        prev = pivot
        rank += 1
    return rank, sign * prev, rows


def _back_substitute(rows: list, ncols: int, p: int) -> list:
    """p U^-1 L for eliminated rows [U | L] of full column rank: row k holds
    unknown k's weights on the carried columns.  Every division is exact,
    since p U^-1 L = p A'^-1 (in the pivot rows) is a matrix of cofactors."""
    weights: list = [None] * ncols
    for r in range(ncols - 1, -1, -1):
        row = rows[r]
        acc = [p * y for y in row[ncols:]]
        for j in range(r + 1, ncols):
            if row[j]:
                acc = [a - row[j] * w for a, w in zip(acc, weights[j])]
        weights[r] = [a // row[r] for a in acc]
    return weights


def _integer_rows(matrix: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Rows scaled to integers, each by the lcm of its denominators, with
    those scales (the determinant is multiplied by their product).  A row of
    ints is returned as it is, with scale 1."""
    rows = []
    scales = []
    for row in matrix:
        if all(type(x) is int for x in row):
            rows.append(row)
            scales.append(1)
            continue
        fr = [x if isinstance(x, (int, Fraction)) else _to_fraction(x) for x in row]
        lcm = math.lcm(*(f.denominator for f in fr))
        rows.append([f.numerator * (lcm // f.denominator) for f in fr])
        scales.append(lcm)
    return rows, scales


def _det_laplace(m) -> Polynomial:
    """Laplace expansion along the rows, memoized over column subsets:
    minors[cols] is the determinant of the first rows (as many as cols has
    bits) on the columns in the bitmask cols, so the k x k determinant costs
    O(2^k * k) products and no division."""
    k = len(m)
    minors = {0: ONE}
    for row in m:
        nxt: dict = {}
        for cols, minor in minors.items():
            above = 0  # columns in cols to the right of j; their parity is the cofactor sign
            for j in range(k - 1, -1, -1):
                bit = 1 << j
                if cols & bit:
                    above += 1
                    continue
                a = row[j]
                if a.is_zero():
                    continue
                term = a * minor
                key = cols | bit
                acc = nxt.get(key)
                if above & 1:
                    nxt[key] = -term if acc is None else acc - term
                else:
                    nxt[key] = term if acc is None else acc + term
        minors = {s: p for s, p in nxt.items() if not p.is_zero()}
    return minors.get((1 << k) - 1, ZERO)


def determinant(matrix: Sequence[Sequence]) -> Polynomial:
    """Exact determinant.  Constant matrices go through integer Bareiss after
    scaling each row to integers; polynomial ones through memoized Laplace
    expansion."""
    rows = [[_as_poly(x) for x in row] for row in matrix]
    _require_square(rows)
    if all(x.is_constant() for row in rows for x in row):
        ints, scales = _integer_rows(rows)
        return Polynomial.const(Fraction(integer_bareiss(ints)[1], math.prod(scales)))
    return _det_laplace(rows)


def adjugate(matrix: Sequence[Sequence]) -> list:
    """The adjugate: adj[k][r] is (-1)^(k+r) times the determinant of the
    matrix without row r and column k, so adj M = M adj = det(M) I and the
    Cramer solution of M x = c is x_k = sum_r adj[k][r] c_r.  A 1 x 1
    matrix has adjugate [[1]]."""
    rows = [[_as_poly(x) for x in row] for row in matrix]
    _require_square(rows)
    size = len(rows)
    if size == 1:
        return [[ONE]]
    adj = []
    for k in range(size):
        cut = [row[:k] + row[k + 1:] for row in rows]
        minors = [determinant(cut[:r] + cut[r + 1:]) for r in range(size)]
        adj.append([-m if (k + r) % 2 else m for r, m in enumerate(minors)])
    return adj


def _require_square(m) -> None:
    k = len(m)
    if k == 0 or any(len(row) != k for row in m):
        raise ValueError("determinant requires a nonempty square matrix")


def solve_linear_exact(matrix: Sequence[Sequence], rhs: Sequence):
    """Solve A x = b exactly over the rationals.

    Matrix entries must be rational scalars (constant polynomials accepted);
    right-hand entries may be scalars or polynomials.  Each row and its right
    side are scaled to integers, then integer_bareiss solves the integer
    system.  Raises InconsistentSystem / UnderdeterminedSystem instead of
    approximating.
    """
    b = [_as_poly(x) for x in rhs]
    if len(matrix) != len(b):
        raise ValueError("matrix/rhs size mismatch")
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    ints, scales = _integer_rows(matrix)
    return integer_bareiss(ints, [x * s for x, s in zip(b, scales)])[2]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Polynomial):
        return Fraction(x.constant_value())
    return Fraction(x)


def rank_rational(matrix: Sequence[Sequence]) -> int:
    """Rank over Q: rows scaled to integers and divided by their content (the
    gcd of their entries), then integer Bareiss.  Neither scaling changes
    the rank, and the content can be large: a frame's rows at a point carry
    their forms' scale times a power of the point's denominator."""
    rows = []
    for row in _integer_rows(matrix)[0]:
        content = math.gcd(*row)
        rows.append([x // content for x in row] if content > 1 else row)
    return integer_bareiss(rows)[0]
