import ast
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest

import jetframes
from jetframes.algebra import (
    COEFF,
    InconsistentSystem,
    Polynomial,
    UnderdeterminedSystem,
    VectorField,
    adjugate,
    binomial_product,
    coeff,
    coord,
    determinant,
    enumerate_exponents,
    falling_product,
    iter_terms,
    jet,
    rank_rational,
    solve_linear_exact,
    var_name,
)

from reference_helpers import det_cofactor, divisible_by

z1 = Polynomial.var(coord(1))
z2 = Polynomial.var(coord(2))
one = Polynomial.const(1)


def rand_poly(rng, nvars=3, nterms=4, max_exp=3):
    p = Polynomial()
    for _ in range(nterms):
        pairs = []
        for i in range(1, nvars + 1):
            e = rng.randint(0, max_exp)
            if e:
                pairs.append((coord(i), e))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + Polynomial.monomial(pairs, c)
    return p


def test_difference_of_squares():
    assert (z1 + one) * (z1 - one) == z1 ** 2 - one


def test_additive_identity():
    rng = random.Random(7)
    p = rand_poly(rng)
    assert p + Polynomial.zero() == p


def test_multinomial_expansion_coefficient():
    # independent oracle: multinomial theorem computed by direct enumeration
    p = (z1 + z2) ** 3
    expected = {}
    for k in range(4):
        c = math.comb(3, k)
        mono = tuple(
            pair for pair in (((coord(1), k)) , ((coord(2), 3 - k))) if pair[1] > 0
        )
        expected[tuple(sorted(mono))] = c
    assert dict(iter_terms(p)) == expected
    assert p.coefficient(((coord(1), 2), (coord(2), 1))) == 3


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        z1 ** -1


def test_partial_derivative_power_rule():
    assert (z1 ** 3).diff(coord(1)) == 3 * z1 ** 2


def test_partial_derivative_two_variables():
    a, b = 4, 5
    p = z1 ** a * z2 ** b
    assert p.diff(coord(2)) == b * z1 ** a * z2 ** (b - 1)


def test_mixed_second_partial_matches_falling_factorial():
    # alpha = (2, 1), differentiate twice in z1: 2 * 1 * z1^0 * z2 = 2 z2
    p = z1 ** 2 * z2
    assert p.diff(coord(1)).diff(coord(1)) == 2 * z2


def test_mixed_partials_commute():
    rng = random.Random(11)
    for _ in range(25):
        p = rand_poly(rng)
        u, v = coord(rng.randint(1, 3)), coord(rng.randint(1, 3))
        assert p.diff(u).diff(v) == p.diff(v).diff(u)


def test_substitute_to_zero():
    p = z1 * z2 + z2
    assert p.subs({coord(1): 0}) == z2


def test_substitute_all_rationals_gives_constant():
    rng = random.Random(3)
    p = rand_poly(rng)
    binds = {coord(i): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for i in (1, 2, 3)}
    q = p.subs(binds)
    assert q.is_constant()
    assert q.constant_value() == p.evaluate(binds)


def test_substitution_is_simultaneous():
    # a swap must not cascade: both bindings read the original variables
    p = z1 ** 2 * z2
    swapped = p.subs({coord(1): z2, coord(2): z1})
    assert swapped == z2 ** 2 * z1


def test_substitution_composition():
    rng = random.Random(59)
    p = rand_poly(rng)
    q = rand_poly(rng, nterms=2)
    step1 = p.subs({coord(1): q})
    step2 = step1.subs({coord(2): Fraction(3, 7)})
    joint = p.subs({coord(1): q.subs({coord(2): Fraction(3, 7)}), coord(2): Fraction(3, 7)})
    assert step2 == joint


def test_exact_division_contract():
    p = (z1 + z2) * (z1 - 2 * z2) * (z1 * z2 + 1)
    d = (z1 + z2) * (z1 * z2 + 1)
    assert p.exact_div(d) == z1 - 2 * z2
    assert not divisible_by(p, z1 + 3 * z2)
    with pytest.raises(ValueError):
        p.exact_div(z1 + 1)


def test_vanishing_at_the_diagonal():
    # product of (w_i - z_i)^{l_i} vanishes after substituting w = z when |l| >= 1
    w1, w2 = coord(4), coord(5)
    for ell in [(1, 0), (2, 1), (3, 2)]:
        p = (Polynomial.var(w1) - z1) ** ell[0] * (Polynomial.var(w2) - z2) ** ell[1]
        assert p.subs({w1: z1, w2: z2}).is_zero()


def test_det_identity_2x2():
    assert determinant([[one, Polynomial.zero()], [Polynomial.zero(), one]]) == one


def test_det_jet_power_matrix_2x2():
    zp = Polynomial.var(jet(1, 1))
    zpp = Polynomial.var(jet(1, 2))
    m = [[zp, 2 * z1 * zp], [zpp, 2 * zp * zp + 2 * z1 * zpp]]
    assert determinant(m) == 2 * zp ** 3


def test_det_repeated_column_is_zero():
    col = [z1, z2]
    m = [[col[0], col[0]], [col[1], col[1]]]
    assert determinant(m).is_zero()


def test_det_nonsquare_rejected():
    with pytest.raises(ValueError):
        determinant([[one, one]])


def _random_rational_matrix(rng, nrows, ncols, rank=None):
    """Random rational matrix; with rank given, the rows past it are rational
    combinations of the first ones, so the rank is at most that."""
    m = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(ncols)]
        for _ in range(nrows if rank is None else rank)
    ]
    while len(m) < nrows:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(len(m))]
        m.append([sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(ncols)])
    rng.shuffle(m)
    return m


def test_determinant_matches_cofactor_on_random_matrices():
    rng = random.Random(23)
    for size in range(1, 8):
        for trial in range(6 if size < 7 else 2):
            singular = trial % 2 == 1
            m = _random_rational_matrix(rng, size, size, rank=size - 1 if singular else None)
            det = determinant(m)
            assert det == det_cofactor(m)
            if singular:
                assert det.is_zero()


def test_determinant_matches_cofactor_on_symbolic_matrices():
    rng = random.Random(29)
    for size in (3, 3, 5):
        m = [[rand_poly(rng, nvars=2, nterms=3, max_exp=2) for _ in range(size)] for _ in range(size)]
        assert sum(len(x.terms) > 1 for row in m for x in row) > size
        det = determinant(m)
        assert det == det_cofactor(m)
        assert not det.is_zero()
    # a polynomial combination of the other rows makes the last one dependent
    m[-1] = [m[0][j] * z1 - m[1][j] for j in range(size)]
    assert determinant(m).is_zero() and det_cofactor(m).is_zero()
    # constant and polynomial entries mixed in one matrix
    m[2] = [Fraction(j + 1, 2) for j in range(size)]
    assert determinant(m) == det_cofactor(m)


def _sympy_qq_matrix(m):
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import QQ

    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in m]
    return matrices.DomainMatrix(rows, (len(m), len(m[0])), QQ)


def test_determinant_and_rank_match_sympy_up_to_20x20():
    rng = random.Random(31)
    for size in (1, 2, 5, 9, 14, 20):
        for rank in (size, size - 1, size // 2):
            if rank < 1:
                continue
            m = _random_rational_matrix(rng, size, size, rank=rank)
            reference = _sympy_qq_matrix(m)
            expected = reference.det()
            assert determinant(m) == Fraction(int(expected.numerator), int(expected.denominator))
            assert rank_rational(m) == reference.rank()
    for nrows, ncols, rank in ((3, 7, 2), (12, 5, 5), (20, 13, 9)):
        m = _random_rational_matrix(rng, nrows, ncols, rank=rank)
        assert rank_rational(m) == _sympy_qq_matrix(m).rank() == rank


def test_integer_rows_pass_int_rows_through(monkeypatch):
    import jetframes.algebra as algebra

    ints = [[3, -1, 0], [0, 0, 0], [2**70, 5, -7]]
    mixed = [[Fraction(1, 2), 3, Fraction(-2, 3)], [1, 2, 3]]
    assert algebra._integer_rows(mixed) == ([[3, 18, -4], [1, 2, 3]], [6, 1])
    system = ints[:1] + [[0, 1, 1], [1, 0, 1]]
    assert [x.constant_value() for x in algebra.solve_linear_exact(system, [1, 2, 3])] == [0, -1, 3]
    # an all-int row is returned as it is, and no Fraction is built for it
    monkeypatch.setattr(algebra, "Fraction", None)
    rows, scales = algebra._integer_rows(ints)
    assert all(a is b for a, b in zip(rows, ints)) and scales == [1, 1, 1]
    assert algebra.rank_rational(ints) == 2


def test_solve_identity():
    b = [Fraction(3, 2), Fraction(-1, 7)]
    x = solve_linear_exact([[1, 0], [0, 1]], b)
    assert [xi.constant_value() for xi in x] == b


def test_solve_matches_cramer():
    rng = random.Random(5)
    for _ in range(10):
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det == 0:
            continue
        b = [Fraction(rng.randint(-9, 9)) for _ in range(2)]
        x = solve_linear_exact(a, b)
        assert x[0].constant_value() == (b[0] * a[1][1] - b[1] * a[0][1]) / det
        assert x[1].constant_value() == (a[0][0] * b[1] - a[1][0] * b[0]) / det


def test_solve_substitute_back():
    rng = random.Random(17)
    for _ in range(6):
        size = rng.randint(2, 4)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(size)] for _ in range(size)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(size)]
        try:
            x = solve_linear_exact(a, b)
        except (InconsistentSystem, UnderdeterminedSystem):
            continue
        for row, bi in zip(a, b):
            assert sum(c * xi.constant_value() for c, xi in zip(row, x)) == bi


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystem):
        solve_linear_exact([[1, 1], [0, 0]], [1, 1])


def test_solve_underdetermined():
    with pytest.raises(UnderdeterminedSystem):
        solve_linear_exact([[1, 1], [2, 2]], [1, 2])


def test_solve_rejects_malformed_input():
    with pytest.raises(ValueError):
        solve_linear_exact([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError):
        solve_linear_exact([[1, 0], [0]], [1, 2])
    # a singular system with no solution is inconsistent, not underdetermined
    with pytest.raises(InconsistentSystem):
        solve_linear_exact([[1, 1, 0], [2, 2, 0], [0, 0, 0]], [1, 3, 0])


def _sparse_rational_matrix(rng, size):
    """Square, one nonzero entry per row at a shuffled column and about a
    third of the others nonzero, so that the elimination swaps rows and meets
    zero entries below its pivots."""
    columns = rng.sample(range(size), size)
    return [
        [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 3))
         if j == columns[i] or rng.random() < 0.35 else Fraction(0) for j in range(size)]
        for i in range(size)
    ]


def _matrix_times(a, x):
    return [sum((c * xi for c, xi in zip(row, x)), Polynomial()) for row in a]


def test_solve_matches_sympy_up_to_20x20():
    rng = random.Random(37)
    for size in (1, 2, 3, 5, 9, 14, 20):
        for a in (_random_rational_matrix(rng, size, size), _sparse_rational_matrix(rng, size)):
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]
            reference = _sympy_qq_matrix(a)
            assert reference.rank() == size
            expected = reference.lu_solve(_sympy_qq_matrix([[bi] for bi in b])).to_list()
            x = solve_linear_exact(a, b)
            assert [xi.constant_value() for xi in x] == [
                Fraction(int(e.numerator), int(e.denominator)) for (e,) in expected
            ]


def test_solve_tall_inconsistent_and_singular_systems():
    rng = random.Random(47)
    # tall and consistent: 12 equations, 7 unknowns of full column rank
    a = _random_rational_matrix(rng, 12, 7)
    assert _sympy_qq_matrix(a).rank() == 7
    x0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(7)]
    b = [sum(c * xi for c, xi in zip(row, x0)) for row in a]
    assert [xi.constant_value() for xi in solve_linear_exact(a, b)] == x0
    # the same system with one right side moved has no solution
    b[5] += 1
    assert _sympy_qq_matrix([row + [bi] for row, bi in zip(a, b)]).rank() == 8
    with pytest.raises(InconsistentSystem):
        solve_linear_exact(a, b)
    # singular square systems: consistent right sides leave the solution
    # open, others have none, and inconsistency is reported first
    sparse = _sparse_rational_matrix(rng, 14)
    sparse[3] = [x + 2 * y for x, y in zip(sparse[7], sparse[11])]
    for a in (_random_rational_matrix(rng, 9, 9, rank=6), sparse):
        rank = _sympy_qq_matrix(a).rank()
        assert rank < len(a)
        x0 = [Fraction(rng.randint(-9, 9)) for _ in a]
        b = [sum(c * xi for c, xi in zip(row, x0)) for row in a]
        with pytest.raises(UnderdeterminedSystem):
            solve_linear_exact(a, b)
        b = [bi + rng.randint(1, 5) for bi in b]
        assert _sympy_qq_matrix([row + [bi] for row, bi in zip(a, b)]).rank() == rank + 1
        with pytest.raises(InconsistentSystem):
            solve_linear_exact(a, b)


def test_solve_polynomial_right_sides():
    rng = random.Random(53)
    for size in (1, 2, 4, 6, 8):
        for a in (_random_rational_matrix(rng, size, size), _sparse_rational_matrix(rng, size)):
            b = [rand_poly(rng, nterms=rng.randint(0, 4)) for _ in range(size)]
            x = solve_linear_exact(a, b)
            assert _matrix_times(a, x) == b
    # constant-polynomial matrix entries, and a right side needing a row swap
    a = [[Polynomial.const(0), Polynomial.const(2)], [Polynomial.const(Fraction(1, 3)), one]]
    x = solve_linear_exact(a, [z1, z2 * z1])
    assert x == [3 * z2 * z1 - Fraction(3, 2) * z1, Fraction(1, 2) * z1]


def test_ring_axioms_on_random_triples():
    rng = random.Random(41)
    for _ in range(12):
        p, q, r = (rand_poly(rng, nterms=3) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_vector_field_leibniz():
    rng = random.Random(43)
    field = VectorField({coord(1): rand_poly(rng, nterms=2), coord(2): rand_poly(rng, nterms=2)})
    for _ in range(8):
        p, q = rand_poly(rng, nterms=3), rand_poly(rng, nterms=3)
        assert field.apply(p * q) == field.apply(p) * q + p * field.apply(q)


def test_rank_rational():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[1, 0, 3], [0, 1, 5]]) == 2
    assert rank_rational([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == 2
    assert rank_rational([[0, 0], [0, 0]]) == 0
    # a column that is zero below the pivots must not end the elimination
    assert rank_rational([[0, 1], [0, 2], [0, 0]]) == 1
    assert rank_rational([[1, 2, 3], [2, 4, 5]]) == 2
    assert determinant([[1, 2, 3], [2, 4, 5], [0, 0, 7]]) == 0


def test_variable_order_and_names():
    assert coord(1) < jet(1, 1) < coeff((0, 1)) < (COEFF + 1, 0, 0)
    assert var_name(jet(2, 4)) == "z2^(4)"
    assert var_name(coeff((1, 0, 2))) == "a(1,0,2)"


def test_canonical_text_is_sorted_and_stable():
    p = z2 + 3 * z1 ** 2 + Polynomial.const(Fraction(1, 2))
    assert p.to_text() == "1/2 + 1 * z2 + 3 * z1^2"


def test_enumerate_exponents_graded_lex():
    exps = enumerate_exponents(2, 2)
    assert exps == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_binomial_product():
    assert binomial_product((2, 2, 0, 0), (1, 1, 0, 0)) == 4
    assert binomial_product((3, 1), (2, 0)) == 3


def test_falling_product_is_the_mixed_partial_coefficient():
    variables = [coord(1), coord(2), coord(3)]
    for alpha in enumerate_exponents(3, 4):
        for sigma in enumerate_exponents(3, 3):
            p = Polynomial.monomial(zip(variables, alpha))
            for v, s in zip(variables, sigma):
                for _ in range(s):
                    p = p.diff(v)
            if not falling_product(alpha, sigma):
                assert p.is_zero(), (alpha, sigma)
            else:
                rest = tuple(a - s for a, s in zip(alpha, sigma))
                assert p == falling_product(alpha, sigma) * Polynomial.monomial(zip(variables, rest))


def test_only_algebra_reads_polynomial_terms():
    # the stored monomial format is private to algebra: every other module
    # reads and builds polynomials through iter_terms and sum_terms
    package = pathlib.Path(jetframes.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "algebra.py")
    assert len(modules) >= 6
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert not offenders


def test_runtime_imports_only_the_standard_library():
    # sympy and hypothesis are test oracles: no module of the package may
    # import anything outside the standard library (relative imports aside)
    package = pathlib.Path(jetframes.__file__).parent
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert {"math", "fractions", "argparse"} <= {module for _, module in imported}
    offenders = sorted(f"{name}: {module}" for name, module in imported if module not in sys.stdlib_module_names)
    assert not offenders


def test_adjugate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)

    def to_sympy(p):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(sympy.Symbol(var_name(v)) ** e for v, e in mono))
                for mono, c in iter_terms(p)
            )
        )

    integer = [[[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)] for size in (1, 2, 3, 5, 7)]
    polynomial = [
        [[rand_poly(rng, nvars=2, nterms=2, max_exp=2) for _ in range(size)] for _ in range(size)]
        for size in (1, 2, 3, 4)
    ]
    for m in integer + polynomial:
        m = [[Polynomial.const(x) if isinstance(x, int) else x for x in row] for row in m]
        size = len(m)
        adj = adjugate(m)
        reference = sympy.Matrix([[to_sympy(x) for x in row] for row in m]).adjugate()
        assert sympy.expand(sympy.Matrix([[to_sympy(x) for x in row] for row in adj]) - reference).is_zero_matrix
        det = determinant(m)
        for i in range(size):
            for j in range(size):
                expected = det if i == j else Polynomial.zero()
                assert sum(adj[i][r] * m[r][j] for r in range(size)) == expected
                assert sum(m[i][r] * adj[r][j] for r in range(size)) == expected
