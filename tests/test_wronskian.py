import math
from fractions import Fraction

import pytest

from jetframes.algebra import Polynomial, coord, determinant, iter_terms, jet
from jetframes.jetspace import JetContext, power_chain
from jetframes.wronskian import (
    VARIANT_CLASSICAL,
    VARIANT_POWER,
    classical_wronskian,
    cramer_coefficients,
    cramer_system_residuals,
    excluded_exponents,
    power_wronskian,
    power_wronskian_closed_form,
    power_wronskian_identity_holds,
    solved_exponents,
    system_matrix,
)
from jetframes.algebra import enumerate_exponents

from reference_helpers import iterated_total_derivative


def test_power_wronskian_n1():
    ctx = JetContext(1, 2)
    assert power_wronskian(1, ctx) == Polynomial.var(jet(1, 1))


def test_power_wronskian_n2():
    ctx = JetContext(2, 3)
    assert power_wronskian(1, ctx) == 2 * Polynomial.var(jet(1, 1)) ** 3
    assert power_wronskian(2, ctx) == 2 * Polynomial.var(jet(2, 1)) ** 3


def test_power_wronskian_n3_direct_expansion():
    ctx = JetContext(3, 4)
    # independent 3x3 cofactor expansion of the explicit matrix
    m = system_matrix(power_chain(ctx, 1), ctx)
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert det == 12 * Polynomial.var(jet(1, 1)) ** 6
    assert power_wronskian(1, ctx) == det


def test_identity_check_range():
    for n in range(1, 5):
        assert power_wronskian_identity_holds(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factorial_wronskian_identity_matches_sympy(n):
    # for a generic curve z(t): det[d^kappa/dt^kappa z^k] = 1! ... n! z'^(n(n+1)/2)
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    z = sympy.Function("z")(t)
    det = sympy.Matrix(n, n, lambda r, c: sympy.diff(z ** (c + 1), t, r + 1)).det(method="berkowitz")
    closed = math.prod(math.factorial(k) for k in range(1, n + 1)) * sympy.diff(z, t) ** (n * (n + 1) // 2)
    assert sympy.expand(det - closed) == 0
    # and power_wronskian, with z_1^(lam) standing for d^lam z / dt^lam
    jets = {jet(1, lam): sympy.diff(z, t, lam) for lam in range(1, n + 1)}
    jets[coord(1)] = z
    ours = sympy.Add(
        *(c * sympy.Mul(*(jets[v] ** e for v, e in mono)) for mono, c in iter_terms(power_wronskian(1, JetContext(n, n + 1))))
    )
    assert sympy.expand(det - ours) == 0


def test_identity_n4_constant():
    ctx = JetContext(4, 5)
    expected = Polynomial.monomial([(jet(2, 1), 10)], 288)  # 1!2!3!4! = 288
    assert power_wronskian(2, ctx) == expected
    assert power_wronskian_closed_form(2, ctx) == expected


@pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
def test_system_matrix_of_both_slot_sets(n, d):
    # [D^kappa z^beta] built by hand: the power chain beta_k = k e_i gives
    # D^kappa(z_i^k), the unit slots beta_k = e_k give z_k^(kappa)
    ctx = JetContext(n, d)
    ks = range(1, n + 1)
    classical = [[Polynomial.var(jet(k, kappa)) for k in ks] for kappa in ks]
    for chart in range(1, ctx.nvars + 1):
        zi = Polynomial.var(coord(chart))
        power = [[iterated_total_derivative(zi**k, kappa, ctx) for k in ks] for kappa in ks]
        assert system_matrix(solved_exponents(VARIANT_POWER, ctx, chart), ctx) == power
        assert determinant(power) == power_wronskian(chart, ctx)
        assert system_matrix(solved_exponents(VARIANT_CLASSICAL, ctx, chart), ctx) == classical
        assert determinant(classical) == classical_wronskian(ctx)


def test_classical_wronskian_small():
    assert classical_wronskian(JetContext(1, 2)) == Polynomial.var(jet(1, 1))
    ctx = JetContext(2, 3)
    w = classical_wronskian(ctx)
    z1p, z2p = Polynomial.var(jet(1, 1)), Polynomial.var(jet(2, 1))
    z1pp, z2pp = Polynomial.var(jet(1, 2)), Polynomial.var(jet(2, 2))
    assert w == z1p * z2pp - z2p * z1pp
    ident = {jet(1, 1): Fraction(1), jet(2, 1): Fraction(0), jet(1, 2): Fraction(0), jet(2, 2): Fraction(1)}
    assert w.evaluate(ident) == 1


def test_classical_wronskian_vanishes_on_zero_row():
    for n in (2, 3):
        ctx = JetContext(n, n + 1)
        w = classical_wronskian(ctx)
        for row in range(1, n + 1):
            killed = w.subs({jet(row, lam): 0 for lam in range(1, n + 1)})
            assert killed.is_zero()


def admissible(variant, ctx, chart=None):
    excl = excluded_exponents(variant, ctx, chart)
    return [a for a in enumerate_exponents(ctx.nvars, ctx.n) if a not in excl]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cramer_solution_satisfies_system_variant1(n):
    ctx = JetContext(n, n + 1)
    for chart in (1, ctx.nvars):
        for alpha in admissible(VARIANT_POWER, ctx, chart):
            coeffs = cramer_coefficients(VARIANT_POWER, alpha, ctx, chart)
            assert all(r.is_zero() for r in cramer_system_residuals(coeffs, ctx))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cramer_solution_satisfies_system_variant2(n):
    ctx = JetContext(n, n + 1)
    for alpha in admissible(VARIANT_CLASSICAL, ctx):
        coeffs = cramer_coefficients(VARIANT_CLASSICAL, alpha, ctx)
        assert all(r.is_zero() for r in cramer_system_residuals(coeffs, ctx))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cramer_vectors_equal_column_replaced_determinants(n):
    # B_k by the textbook route: the system determinant with column k
    # replaced by the column of D^kappa(z^alpha)
    ctx = JetContext(n, n + 1)
    for variant in (VARIANT_POWER, VARIANT_CLASSICAL):
        for chart in (1, ctx.nvars):
            solved = solved_exponents(variant, ctx, chart)
            matrix = system_matrix(solved, ctx)
            for alpha in admissible(variant, ctx, chart):
                coeffs = cramer_coefficients(variant, alpha, ctx, chart)
                za = ctx.monomial_z(alpha)
                column = [iterated_total_derivative(za, kappa, ctx) for kappa in range(1, n + 1)]
                for k in range(n):
                    replaced = [row[:k] + [column[r]] + row[k + 1:] for r, row in enumerate(matrix)]
                    assert coeffs.b[k + 1] == determinant(replaced), (variant, chart, alpha, k)


def test_cramer_against_hand_2x2_oracle():
    # variant 1, n=2, alpha = e_j with j != chart: solve the 2x2 system by the
    # textbook ad-bc formulas, independently of the determinant routine
    ctx = JetContext(2, 3)
    chart = 1
    alpha = (0, 1, 0)
    coeffs = cramer_coefficients(VARIANT_POWER, alpha, ctx, chart)
    m = system_matrix(power_chain(ctx, chart), ctx)
    za = ctx.monomial_z(alpha)
    r1 = iterated_total_derivative(za, 1, ctx)
    r2 = iterated_total_derivative(za, 2, ctx)
    b1 = r1 * m[1][1] - r2 * m[0][1]
    b2 = m[0][0] * r2 - m[1][0] * r1
    assert coeffs.b[1] == b1
    assert coeffs.b[2] == b2


def test_cramer_variant2_substitute_back():
    ctx = JetContext(2, 3)
    alpha = (1, 1, 0)  # z^alpha = z1 z2
    coeffs = cramer_coefficients(VARIANT_CLASSICAL, alpha, ctx)
    assert all(r.is_zero() for r in cramer_system_residuals(coeffs, ctx))
    assert coeffs.scale == classical_wronskian(ctx)


def test_cramer_alternating_in_columns():
    # swapping two defining columns of the replaced matrix flips the sign
    ctx = JetContext(3, 4)
    chart = 1
    alpha = (0, 1, 1, 0)
    za = ctx.monomial_z(alpha)
    column = [iterated_total_derivative(za, kappa, ctx) for kappa in (1, 2, 3)]
    m = system_matrix(power_chain(ctx, chart), ctx)
    replaced = [[column[k], row[1], row[2]] for k, row in enumerate(m)]
    swapped = [[row[1], column[k], row[2]] for k, row in enumerate(m)]
    assert determinant(replaced) == -determinant(swapped)


def test_cramer_depends_only_on_coordinates_and_jets():
    from jetframes.algebra import COORD, JET

    ctx = JetContext(2, 3)
    for variant, chart in ((VARIANT_POWER, 2), (VARIANT_CLASSICAL, None)):
        for alpha in admissible(variant, ctx, chart):
            coeffs = cramer_coefficients(variant, alpha, ctx, chart)
            for b in coeffs.b:
                assert all(v[0] in (COORD, JET) for v in b.variables())


def test_cramer_rejects_solved_slots():
    ctx = JetContext(2, 3)
    with pytest.raises(ValueError):
        cramer_coefficients(VARIANT_POWER, (1, 0, 0), ctx, chart=1)
    with pytest.raises(ValueError):
        cramer_coefficients(VARIANT_CLASSICAL, (0, 1, 0), ctx)
    with pytest.raises(ValueError):
        cramer_coefficients(VARIANT_POWER, (2, 1, 0), ctx, chart=1)  # |alpha| > n
