"""Exact reference checks that only the tests call: the Jacobian's values
and its rank over Q, cofactor determinants, polynomial divisibility, the
chart-change oracle and its per-monomial order, iterated total derivatives,
the rank of the jet matrix, the split identity behind the shifted
coefficient fields, and the product-built forms of integer Bareiss with
polynomial right sides and of the jet-field remainders, the jet-linear field
of a matrix (symbolic or numeric) and its parts in the matrix entries, and
the reparametrization action derived by iterating the parameter derivative."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from jetframes.algebra import (
    COORD,
    JET,
    InconsistentSystem,
    LinearSolveError,
    Polynomial,
    UnderdeterminedSystem,
    VectorField,
    _as_poly,
    _require_square,
    binomial_product,
    coord,
    dot,
    falling_product,
    iter_terms,
    jet,
    mat,
    mi_sub,
    phi,
    rank_rational,
    var_name,
)
from jetframes.frames import (
    FrameField,
    JetFieldTable,
    _jet_exponents,
    jet_field_block,
    solve_jet_field_coefficients,
)
from jetframes.jetspace import JetContext, JetPoint, jacobian_matrix_at, total_derivative


def jacobian_values_at(point: JetPoint, ctx: JetContext) -> list:
    """The (n+1) x ambient Jacobian of the defining equations at the point,
    in Fractions: jacobian_matrix_at's integer rows divided by their scale."""
    rows, scale = jacobian_matrix_at(point, ctx)
    return [[Fraction(x, scale) for x in row] for row in rows]


def jacobian_rank_at(point: JetPoint, ctx: JetContext) -> int:
    """Rank over Q of the (n+1) x ambient Jacobian of the defining equations."""
    return rank_rational(jacobian_values_at(point, ctx))


def det_cofactor(matrix: Sequence[Sequence]) -> Polynomial:
    """Naive cofactor expansion; reference implementation for cross-checks."""
    m = [[_as_poly(x) for x in row] for row in matrix]
    _require_square(m)
    return _det_cofactor(m)


def _det_cofactor(m) -> Polynomial:
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = Polynomial()
    sign = 1
    for j in range(k):
        a = m[0][j]
        if not a.is_zero():
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total = total + sign * a * _det_cofactor(minor)
        sign = -sign
    return total


@lru_cache(maxsize=None)
def chart_transfer_pairs(upsilon: int, ctx: JetContext) -> dict:
    """(numerator, exponent) pairs representing each coordinate and jet of the
    original chart as numerator / z_upsilon^exponent in the target chart,
    obtained by formally differentiating the inversion formulas."""
    if not 1 <= upsilon <= ctx.nvars:
        raise ValueError(f"chart index must lie in 1..{ctx.nvars}")
    zu = Polynomial.var(coord(upsilon))
    zu1 = Polynomial.var(jet(upsilon, 1))
    pairs = {}
    for i in range(1, ctx.nvars + 1):
        if i == upsilon:
            num, exp = Polynomial.const(1), 1
        else:
            num, exp = Polynomial.var(coord(i)), 1
        pairs[coord(i)] = (num, exp)
        for lam in range(1, ctx.n + 1):
            num = total_derivative(num, ctx) * zu - exp * num * zu1
            exp += 1
            pairs[jet(i, lam)] = (num, exp)
    return pairs


def chart_change_oracle(p: Polynomial, upsilon: int, ctx: JetContext) -> tuple:
    """Transport p to the chart inverted through z_upsilon; returns the
    reduced (numerator, pole_exponent) with no common z_upsilon factor left."""
    for v in p.variables():
        if v[0] not in (COORD, JET):
            raise ValueError("only coordinate/jet polynomials transport between charts")
        if v[0] == JET and v[2] > ctx.n:
            raise ValueError("jet order exceeds the context bound")
    pairs = chart_transfer_pairs(upsilon, ctx)
    zu = Polynomial.var(coord(upsilon))
    transported = []  # (numerator, exponent) per term
    max_exp = 0
    for mono, c in iter_terms(p):
        num = Polynomial.const(c)
        exp = 0
        for v, e in mono:
            nv, ev = pairs[v]
            num = num * nv ** e
            exp += ev * e
        transported.append((num, exp))
        max_exp = max(max_exp, exp)
    total = Polynomial.zero()
    for num, exp in transported:
        total = total + num * zu ** (max_exp - exp)
    if total.is_zero():
        return total, 0
    exp = max_exp
    while exp > 0:
        try:
            total = total.exact_div(zu)
        except ValueError:
            break
        exp -= 1
    return total, exp


def monomial_oracle_order(p: Polynomial, upsilon: int, ctx: JetContext) -> int:
    """Independent oracle for pole_order: transport each monomial separately
    (no cross-term cancellation) and take the largest reduced exponent."""
    best = 0
    for pairs, c in iter_terms(p):
        _, exp = chart_change_oracle(Polynomial.monomial(pairs, c), upsilon, ctx)
        best = max(best, exp)
    return best


def divisible_by(p: Polynomial, divisor: Polynomial) -> bool:
    try:
        p.exact_div(divisor)
        return True
    except ValueError:
        return False


def iterated_total_derivative(p: Polynomial, order: int, ctx: JetContext) -> Polynomial:
    for _ in range(order):
        p = total_derivative(p, ctx)
    return p


def jet_matrix_rank(point: JetPoint, ctx: JetContext) -> int:
    rows = [
        [point.value(jet(i, lam)) for lam in range(1, ctx.n + 1)]
        for i in range(1, ctx.nvars + 1)
    ]
    return rank_rational(rows)


def wronskians_all_zero(point: JetPoint, ctx: JetContext) -> bool:
    """Membership in the locus where all n x n minors of the (n+1) x n jet
    matrix vanish, i.e. the jet matrix has rank < n."""
    return jet_matrix_rank(point, ctx) < ctx.n


def shift_split_identity(alpha, ell, js: Sequence[int], e1: int, ctx: JetContext) -> Polynomial:
    """The split sum over s <= ell of
    (-1)^{|s|} (ell choose s)  d^{e1}(z^{alpha-s})/dz_{j_1..j_{e1}} *
    d^{e-e1}(z^s)/dz_{j_{e1+1}..j_e};
    identically zero for every derivative count e <= n and every splitting."""
    alpha, ell = tuple(alpha), tuple(ell)
    total = Polynomial.zero()
    first, second = js[:e1], js[e1:]
    for sub in product(*(range(l + 1) for l in ell)):
        sign = -1 if sum(sub) % 2 else 1
        c = sign * binomial_product(ell, sub)
        p1 = ctx.monomial_z(mi_sub(alpha, sub))
        for j in first:
            p1 = p1.diff(coord(j))
        p2 = ctx.monomial_z(sub)
        for j in second:
            p2 = p2.diff(coord(j))
        total = total + c * p1 * p2
    return total


def integer_bareiss_by_products(matrix: Sequence[Sequence[int]], rhs: Sequence) -> tuple:
    """integer_bareiss with its right sides combined by products and
    differences, one new polynomial per operation: the reference for the
    right sides that integer_bareiss accumulates with dot."""
    rows = [list(row) for row in matrix]
    b = list(rhs)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
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
            b[r], b[i] = b[i], b[r]
            sign = -sign
        if j != r:
            for row in rows:
                row[r], row[j] = row[j], row[r]
        top = rows[r]
        pivot = top[r]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[r]
            row[r + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[r + 1:], top[r + 1:])]
            row[r] = 0
            t = b[i] * pivot - b[r] * f
            b[i] = t // prev if type(t) is int else t * Fraction(1, prev)
        prev = pivot
        rank += 1
    det = sign * prev if rank == nrows == ncols else 0
    for r in range(rank, nrows):
        if b[r] != 0:
            raise InconsistentSystem(f"row {r} reduces to 0 = {_as_poly(b[r]).to_text()}")
    if rank < ncols:
        raise UnderdeterminedSystem(f"rank {rank} < {ncols} unknowns: solution not unique")
    x: list = [0] * ncols
    for r in range(ncols - 1, -1, -1):
        acc = b[r]
        for j in range(r + 1, ncols):
            if rows[r][j]:
                acc = acc - x[j] * rows[r][j]
        x[r] = acc * Fraction(1, rows[r][r])
    return rank, det, x


def remainder_by_products(rho, js: tuple, ctx: JetContext) -> Polynomial:
    """The bilinear remainder of the derivative equation of the multiset js
    in the jet-field block at rho, as a sum of products c * a_gamma *
    m(l, j_m) over the positions m of js, gamma = rho - e_(j_m) + e_l, c the
    falling product of gamma over js with j_m replaced by l: the reference
    for frames._remainder_columns, whose columns hold minus it."""
    total = Polynomial.zero()
    for m, jm in enumerate(js):
        for l in range(1, ctx.nvars + 1):
            gamma = list(rho)
            gamma[jm - 1] -= 1
            gamma[l - 1] += 1
            if gamma[jm - 1] < 0:
                continue
            replaced = js[:m] + (l,) + js[m + 1:]
            c = falling_product(gamma, [replaced.count(j) for j in range(1, ctx.nvars + 1)])
            if c:
                total = total + c * ctx.coeff_poly(gamma) * Polynomial.var(mat(l, jm))
    return total


def jet_field_table_by_products(ctx: JetContext) -> tuple:
    """(entries, top_factor, block_dets) of the jet-field table, every block
    eliminated on its own by integer_bareiss_by_products with
    remainder_by_products right sides: the reference for
    frames._solve_symbolic_table.  A singular block has determinant 0 and no
    entries."""
    entries: dict = {}
    block_dets: dict = {}
    top_factor = Polynomial.zero()
    for rho in (ctx.normalized_exponent, *ctx.coeff_exponents):
        unknowns, rows, keys = jet_field_block(ctx, rho)
        if not unknowns:
            continue
        rhs = [ctx.coeff_poly(rho) * top_factor if js is None else -remainder_by_products(rho, js, ctx) for js in keys]
        try:
            _, block_dets[rho], solution = integer_bareiss_by_products(rows, rhs)
        except LinearSolveError:
            block_dets[rho] = 0
            continue
        for beta, val in zip(unknowns, solution):
            if not val.is_zero():
                entries[(mi_sub(rho, beta), beta)] = val
        if rho == ctx.normalized_exponent:
            top_factor = sum(solution, Polynomial.zero())
    return entries, top_factor, block_dets


def coefficient_direction(table: JetFieldTable, alpha) -> Polynomial:
    """A_alpha = sum_beta T(alpha, beta) z^beta, the jet-linear field's
    a_alpha direction (in z, the coefficients and the matrix entries)."""
    ctx, alpha = table.ctx, tuple(alpha)
    return dot(
        (entry, ctx.monomial_z(beta))
        for beta in _jet_exponents(ctx)
        if (entry := table.entries.get((alpha, beta))) is not None
    )


def jet_linear_field(linear_map, ctx: JetContext, table: JetFieldTable | None = None) -> FrameField:
    """Field whose jet coordinates move by the given matrix applied to every
    jet column (symbolic entries m(k, l) for linear_map=None), corrected in
    the coefficient directions by the table so that tangency holds on the
    variety (order 0 reproduces a multiple of the defining polynomial, all
    higher orders are annihilated identically)."""
    if table is None:
        table = solve_jet_field_coefficients(ctx)
        table = table if linear_map is None else table.substitute_matrix(linear_map)
    directions: dict = {}
    for k in range(1, ctx.nvars + 1):
        for lam in range(1, ctx.n + 1):
            directions[jet(k, lam)] = dot(
                (
                    Polynomial.var(mat(k, l)) if linear_map is None else Fraction(linear_map[k - 1][l - 1]),
                    Polynomial.var(jet(l, lam)),
                )
                for l in range(1, ctx.nvars + 1)
            )
    for alpha in ctx.coeff_exponents:
        a_dir = coefficient_direction(table, alpha)
        if not a_dir.is_zero():
            directions[ctx.coeff_var(alpha)] = a_dir
    label = "symbolic" if linear_map is None else ";".join(",".join(str(Fraction(x)) for x in row) for row in linear_map)
    return FrameField(kind="jet_linear", label=f"jet[{label}]", field=VectorField(directions))


def matrix_partials(field: VectorField, size: int) -> dict:
    """{(k, l): the derivative of field in m(k, l)} for a field whose
    directions are linear in the entries of a size x size matrix, so that
    the part of m(k, l) is the field at the elementary matrix E_kl.  Euler's
    identity sum m(k, l) dc/dm(k, l) = c holds for a direction c exactly when
    each of its terms has degree 1 in the entries; any other raises
    ValueError.  The reference for frames.elementary_jet_fields."""
    entries = dict.fromkeys(mat(k, l) for k in range(1, size + 1) for l in range(1, size + 1))
    parts: dict = {m: {} for m in entries}
    for v, c in field.items():
        partials = c.gradient(entries)
        if dot((Polynomial.var(m), dc) for m, dc in partials.items()) != c:
            raise ValueError(f"the d/d{var_name(v)} direction is not linear in the matrix entries")
        for m, dc in partials.items():
            parts[m][v] = dc
    return {m[1:]: VectorField(directions) for m, directions in parts.items()}


def bracket_on_every_direction(x: VectorField, y: VectorField) -> VectorField:
    """[x, y] with each field applied to every direction either field moves,
    a direction the other lacks as the zero polynomial: the reference for
    VectorField.bracket."""
    return VectorField(
        {v: x.apply(y.get(v)) - y.apply(x.get(v)) for v in dict.fromkeys([*x.coeffs, *y.coeffs])}
    )


def action_coefficients_by_derivation(n: int) -> list:
    """c[lam][m] with phi' = 1, derived without Faa di Bruno's formula: the
    transformed jet w^(lam) of w = z o phi comes from iterating the formal
    parameter derivative on w' = z' phi', which sends z^(k) to z^(k+1) phi'
    and phi^(k) to phi^(k+1); c[lam][m] is its derivative in z^(m).  The
    reference for analysis.action_coefficients_symbolic."""
    phi1 = Polynomial.var(phi(1))
    derivation = VectorField(
        {
            **{jet(1, k): Polynomial.var(jet(1, k + 1)) * phi1 for k in range(1, n)},
            **{phi(k): Polynomial.var(phi(k + 1)) for k in range(1, n)},
        }
    )
    row = Polynomial.var(jet(1, 1)) * phi1
    out = [[None] * (n + 1) for _ in range(n + 1)]
    for lam in range(1, n + 1):
        anchored = row.subs({phi(1): Polynomial.const(1)})
        for m in range(1, lam + 1):
            out[lam][m] = anchored.diff(jet(1, m))
        row = derivation.apply(row)
    return out
