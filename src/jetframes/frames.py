"""The four families of tangent vector fields on the vertical jet space and
their build-time tangency certificates.

* coefficient fields: move only hypersurface coefficients of length <= n,
  with Cramer-determinant coefficients (two variants);
* shifted coefficient fields: translation-like combinations spanning the
  coefficient directions of length >= n+1;
* coordinate fields: one coordinate direction plus the induced coefficient
  drift, commuting with total differentiation;
* jet-linear fields: a matrix acting on all jet columns at once, with
  coefficient corrections solved from a block-triangular linear system.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import prod
from operator import add
from typing import NamedTuple

from .algebra import (
    COORD,
    JET,
    MAT,
    Polynomial,
    VectorField,
    binomial_product,
    coeff,
    coord,
    dot,
    enumerate_exponents,
    falling_factorial,
    falling_product,
    integer_adjugate,
    iter_terms,
    jet,
    mat,
    mi_leq,
    mi_sub,
    mi_total,
    sum_terms,
    unit_index,
    var_name,
)
from .jetspace import JetContext, defining_equations_iterated
from .wronskian import (
    VARIANT_POWER,
    VARIANTS,
    adjugate_identity_holds,
    cramer_coefficients,
    cramer_system,
    excluded_exponents,
    system_column,
    system_determinant,
)


class FrameField:
    """One labelled field of the frame; kind is coefficient,
    shifted_coefficient, coordinate or jet_linear."""

    def __init__(self, kind: str, label: str, field: VectorField):
        self.kind = kind
        self.label = label
        self.field = field

    def apply(self, p: Polynomial) -> Polynomial:
        return self.field.apply(p)

    def to_text(self) -> str:
        return f"{self.label}\n{self.field.to_text()}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"


class CramerField(FrameField):
    """A coefficient field held as its Cramer data: the slot alpha it moves
    by the system determinant W, the solved slots of its system M, and the
    context, whose caches hold W, adj(M) and the column c_alpha
    (wronskian.system_column).  The certificates read the data
    (cramer_tangency, analysis.invariance_proved, analysis.span_pattern);
    the VectorField is built by cramer_coefficients when a caller first
    reads field, and kept."""

    kind = "coefficient"

    def __init__(self, variant: int, alpha, ctx: JetContext, chart: int | None = None):
        self.alpha = tuple(alpha)
        self.solved = cramer_system(variant, self.alpha, ctx, chart)
        self.variant, self.ctx, self.chart = variant, ctx, chart
        self.label = f"coeff[v1,chart={chart},a={self.alpha}]" if variant == VARIANT_POWER else f"coeff[v2,a={self.alpha}]"

    @property
    def slot(self):
        """a_alpha, the one free slot the field moves."""
        return self.ctx.coeff_var(self.alpha)

    @property
    def scale(self) -> Polynomial:
        """W, the field's direction at a_alpha."""
        return system_determinant(self.solved, self.ctx)

    @cached_property
    def field(self) -> VectorField:
        """W d/da_alpha - B_0 d/da_0 - sum_k B_k d/da_(beta_k)."""
        coeffs = cramer_coefficients(self.variant, self.alpha, self.ctx, self.chart)
        directions = {self.slot: coeffs.scale}
        for slot, bk in zip([(0,) * self.ctx.nvars, *coeffs.solved], coeffs.b):
            v = self.ctx.coeff_var(slot)
            directions[v] = directions.get(v, Polynomial.zero()) - bk
        return VectorField(directions)


def coefficient_field(
    variant: int, alpha, ctx: JetContext, chart: int | None = None
) -> CramerField:
    """Field scaled by the system determinant in the alpha direction, with the
    solved coefficient slots corrected so that every defining equation is
    annihilated identically, held as its Cramer data."""
    return CramerField(variant, alpha, ctx, chart)


def admissible_coefficient_exponents(variant: int, ctx: JetContext, chart: int | None = None):
    excl = excluded_exponents(variant, ctx, chart)
    return [a for a in _jet_exponents(ctx) if a not in excl]


def canonical_shift_budget(alpha, ctx: JetContext) -> tuple:
    """Greedy choice of a shift vector ell <= alpha with |ell| = n + 1, filling
    from the first coordinate; well defined whenever |alpha| >= n + 1."""
    alpha = tuple(alpha)
    if mi_total(alpha) < ctx.n + 1:
        raise ValueError("shift fields require |alpha| >= n + 1")
    remaining = ctx.n + 1
    ell = []
    for a in alpha:
        take = min(a, remaining)
        ell.append(take)
        remaining -= take
    return tuple(ell)


def canonical_shifted_fields(ctx: JetContext) -> list:
    """One shifted field per long coefficient slot (n + 1 <= |alpha|), each
    with its canonical shift budget."""
    return [
        shifted_coefficient_field(alpha, canonical_shift_budget(alpha, ctx), ctx)
        for alpha in ctx.coeff_exponents
        if ctx.n + 1 <= mi_total(alpha)
    ]


def shifted_coefficient_field(alpha, ell, ctx: JetContext) -> FrameField:
    """Signed multinomial combination of coefficient directions a_{alpha - s}
    weighted by the monomials z^s over all splittings s <= ell."""
    alpha, ell = tuple(alpha), tuple(ell)
    if mi_total(ell) != ctx.n + 1:
        raise ValueError("|ell| must equal n + 1")
    if not mi_leq(ell, alpha):
        raise ValueError("ell must be componentwise <= alpha")
    if mi_total(alpha) > ctx.d or alpha[0] >= ctx.d:
        raise ValueError("alpha out of range")
    directions = {}
    for sub in product(*(range(l + 1) for l in ell)):
        sign = -1 if sum(sub) % 2 else 1
        c = sign * binomial_product(ell, sub)
        target = ctx.coeff_var(mi_sub(alpha, sub))
        directions[target] = Polynomial.monomial(
            ((coord(j + 1), e) for j, e in enumerate(sub) if e), c
        )
    return FrameField(
        kind="shifted_coefficient",
        label=f"shift[a={alpha},l={ell}]",
        field=VectorField(directions),
    )


def coordinate_field(i: int, ctx: JetContext) -> FrameField:
    """One coordinate direction corrected by the induced drift on the
    coefficients; commutes with total differentiation."""
    if not 1 <= i <= ctx.nvars:
        raise ValueError(f"coordinate index must lie in 1..{ctx.nvars}")
    directions = {coord(i): Polynomial.const(1)}
    ei = unit_index(ctx.nvars, i)
    for alpha in enumerate_exponents(ctx.nvars, ctx.d - 1):
        shifted = tuple(a + e for a, e in zip(alpha, ei))
        directions[ctx.coeff_var(alpha)] = -(alpha[i - 1] + 1) * ctx.coeff_poly(shifted)
    return FrameField(kind="coordinate", label=f"coord[{i}]", field=VectorField(directions))


# -- jet-linear fields ---------------------------------------------------------


@lru_cache(maxsize=None)
def _jet_exponents(ctx: JetContext) -> tuple:
    """The exponents beta of z^beta in a coefficient direction: |beta| <= n."""
    return tuple(enumerate_exponents(ctx.nvars, ctx.n))


class JetFieldTable:
    """Solved coefficient table for a jet-linear field; zero outside the
    stored support.

    Every entry has degree 1 in the matrix entries and degree <= 2 in the
    coefficients.  The top block (rho = (d, 0, ..., 0)) and top_factor are
    bilinear: degree <= 1 in the coefficients, since a_(d,0,...,0) = 1.  In
    every other block rho, the order-0 row injects a_rho * top_factor, so
    the entry at (rho - beta, beta) is a bilinear part plus exactly
    a_rho * top_factor * g_rho(beta), where g_rho solves the block against
    the right side (1, 0, ..., 0)."""

    def __init__(self, ctx: JetContext, entries: dict, top_factor: Polynomial, block_dets: dict):
        self.ctx = ctx
        self.entries = entries  # (alpha, beta) -> Polynomial
        self.top_factor = top_factor  # quotient of the order-0 tangency by E_0
        self.block_dets = block_dets  # rho -> integer determinant of the block

    def get(self, alpha, beta) -> Polynomial:
        return self.entries.get((tuple(alpha), tuple(beta)), Polynomial.zero())

    def substitute_matrix(self, linear_map) -> "JetFieldTable":
        """The table at a numeric matrix: every m(k, l) bound to
        linear_map[k-1][l-1]."""
        size = range(1, self.ctx.nvars + 1)
        binds = {mat(k, l): Fraction(linear_map[k - 1][l - 1]) for k in size for l in size}
        polys = {key: p.subs(binds) for key, p in self.entries.items()}
        nonzero = {key: p for key, p in polys.items() if not p.is_zero()}
        return JetFieldTable(self.ctx, nonzero, self.top_factor.subs(binds), dict(self.block_dets))


def solve_jet_field_coefficients(ctx: JetContext) -> JetFieldTable:
    """Solve, block by block in the total monomial index rho, the square linear
    systems determining the coefficient corrections of a jet-linear field.

    The matrix entries stay symbolic; every solved entry is linear in them and
    of degree <= 2 in the coefficients (see JetFieldTable), and the table at a
    numeric matrix is its substitute_matrix.  A singular block has
    determinant 0 in block_dets and no entries."""
    table = _solve_symbolic_table(ctx)
    return JetFieldTable(ctx, dict(table.entries), table.top_factor, dict(table.block_dets))


@lru_cache(maxsize=None)
def _derivative_multisets(ctx: JetContext) -> tuple:
    """Each multiset js of 1..n derivative directions, with its counts."""
    size = range(1, ctx.nvars + 1)
    multisets = (js for e in range(1, ctx.n + 1) for js in combinations_with_replacement(size, e))
    return tuple((js, tuple(map(js.count, size))) for js in multisets)


@lru_cache(maxsize=None)
def _falling_factorials(ctx: JetContext) -> tuple:
    """[s][a] = (a)_s, s <= n and a <= d: every falling product's factors."""
    return tuple(tuple(falling_factorial(a, s) for a in range(ctx.d + 1)) for s in range(ctx.n + 1))


def jet_field_block(ctx: JetContext, rho) -> tuple[list, list, list]:
    """The square integer block of the jet-field system at total index rho:
    its unknowns beta, one row per equation, and each row's multiset js of
    derivative directions (None for the order-0 equation)."""
    unknowns = [beta for beta in _jet_exponents(ctx) if mi_leq(beta, rho) and rho[0] - beta[0] < ctx.d]
    rows: list = []
    keys: list = []
    if not unknowns:
        return unknowns, rows, keys
    if rho[0] < ctx.d:
        rows.append([1] * len(unknowns))
        keys.append(None)
    table = _falling_factorials(ctx)
    shifts = list(zip(*(mi_sub(rho, beta) for beta in unknowns)))  # shifts[j]: each unknown's (rho - beta)_j
    for js, sigma in _derivative_multisets(ctx):
        if mi_leq(sigma, rho):
            row = [1] * len(unknowns)
            for shift, s in zip(shifts, sigma):
                if s:
                    row = [x * table[s][a] for x, a in zip(row, shift)]
            rows.append(row)
            keys.append(js)
    return unknowns, rows, keys


def _remainder_columns(rho, keys, ctx: JetContext) -> list:
    """The block's right sides at rho but the order-0 row's, as int columns:
    one (a_gamma * m(l, j), its nonzero (r, column[r])) per (l, j) with
    rho_j >= 1 and a nonzero column, gamma = rho - e_j + e_l.  Row r's right
    side, the sum of column[r] * a_gamma * m(l, j), is minus the bilinear
    remainder of its derivative equation (the matrix-transport of the ambient
    one); with sigma the counts of its js, the remainder has sigma_j equal
    terms for j, so column[r] = -sigma_j (gamma)_(sigma - e_j + e_l)."""
    table = _falling_factorials(ctx)
    sigmas = [tuple(map((js or ()).count, range(1, ctx.nvars + 1))) for js in keys]
    columns = []
    for j, l in product(range(ctx.nvars), repeat=2):
        if rho[j]:
            move = [(i == l) - (i == j) for i in range(ctx.nvars)]  # e_l - e_j
            gamma = tuple(map(add, rho, move))  # |gamma| <= d and |sigma - e_j + e_l| <= n: in the table
            column = [
                (r, y)
                for r, s in enumerate(sigmas)
                if s[j] and (y := -s[j] * prod(table[t][g] for g, t in zip(gamma, map(add, s, move)) if t))
            ]
            if column:
                a_gamma = [(coeff(gamma), 1)] if gamma != ctx.normalized_exponent else []
                columns.append((Polynomial.monomial([*a_gamma, (mat(l + 1, j + 1), 1)]), column))
    return columns


@lru_cache(maxsize=None)
def _solve_symbolic_table(ctx: JetContext) -> JetFieldTable:
    """Each block's right sides are the int columns of _remainder_columns, of
    monomials a_gamma * m(l, j), and a_rho * top_factor on the order-0 row:
    unknown i is one int dot of adj's row i with each column (adj[i][0] for
    a_rho * top_factor), divided by det term by term, from one
    integer_adjugate per block."""
    top_rho = ctx.normalized_exponent
    entries: dict = {}
    block_dets: dict = {}
    top_factor = Polynomial.zero()
    adjugate_of = lru_cache(maxsize=None)(integer_adjugate)  # each distinct block eliminated once per call
    for rho in [top_rho, *ctx.coeff_exponents]:
        unknowns, rows, keys = jet_field_block(ctx, rho)
        if not unknowns:
            continue
        if len(rows) != len(unknowns):
            raise RuntimeError(f"block {rho}: {len(rows)} equations for {len(unknowns)} unknowns")
        block_dets[rho], adj = adjugate_of(tuple(map(tuple, rows)))
        if adj is None:  # a singular block fails its item, its entries left out
            continue
        columns = _remainder_columns(rho, keys, ctx)
        if keys[0] is None:  # the order-0 equation, with top_factor moved to the right-hand side
            columns.append((ctx.coeff_poly(rho) * top_factor, [(0, 1)]))
        solution = []
        for weights in adj:
            parts = ((p, sum(weights[r] * y for r, y in column)) for p, column in columns)
            solution.append(dot((p, x) for p, x in parts if x) / block_dets[rho])
        for beta, val in zip(unknowns, solution):
            if not val.is_zero():
                entries[(mi_sub(rho, beta), beta)] = val
        if rho == top_rho:
            top_factor = sum(solution, Polynomial.zero())
    return JetFieldTable(ctx, entries, top_factor, block_dets)


def elementary_matrix(k: int, l: int, size: int):
    return [[1 if (r == k - 1 and c == l - 1) else 0 for c in range(size)] for r in range(size)]


def elementary_jet_fields(table: JetFieldTable) -> dict:
    """{(k, l): E_kl's jet-linear field}, read off the symbolic table: a term
    c * a * m(k, l) of T(alpha, beta) is c * z^beta * a in E_kl's a_alpha
    direction, and E_kl moves z_k^(lam) by z_l^(lam).  A term without exactly
    one matrix entry, of exponent 1, raises ValueError naming its slot."""
    ctx = table.ctx
    z_pairs = {beta: [(coord(i), e) for i, e in enumerate(beta, start=1) if e] for beta in _jet_exponents(ctx)}
    by_slot: dict = {}
    for (alpha, beta), entry in table.entries.items():
        by_slot.setdefault(alpha, []).append((z_pairs[beta], entry))
    fields = {
        (k, l): {jet(k, lam): Polynomial.var(jet(l, lam)) for lam in range(1, ctx.n + 1)}
        for k, l in product(range(1, ctx.nvars + 1), repeat=2)
    }
    for alpha, slot in zip(ctx.coeff_exponents, ctx.coeff_vars):  # one slot's terms at a time
        terms: dict = {}  # (k, l) -> [(pairs, c)]
        for z, entry in by_slot.get(alpha, ()):
            for mono, c in iter_terms(entry):
                matrix = [pair for pair in mono if pair[0][0] == MAT]
                if len(matrix) != 1 or matrix[0][1] != 1:
                    raise ValueError(f"the d/d{var_name(slot)} direction is not linear in the matrix entries")
                terms.setdefault(matrix[0][0][1:], []).append((z + [p for p in mono if p not in matrix], c))
        for kl, kl_terms in terms.items():
            fields[kl][slot] = sum_terms(kl_terms)
    return {kl: VectorField(directions) for kl, directions in fields.items()}


def _jet_label(k: int, l: int, size: int) -> str:
    return "jet[" + ";".join(",".join(map(str, row)) for row in elementary_matrix(k, l, size)) + "]"


@lru_cache(maxsize=None)
def variant_free_frame(ctx: JetContext) -> tuple:
    """The frame's variant-free fields: canonical shifted, coordinate, then
    one jet-linear field per E_kl, built once per context."""
    fields = canonical_shifted_fields(ctx)
    fields += [coordinate_field(i, ctx) for i in range(1, ctx.nvars + 1)]
    for (k, l), part in elementary_jet_fields(_solve_symbolic_table(ctx)).items():
        fields.append(FrameField(kind="jet_linear", label=_jet_label(k, l, ctx.nvars), field=part))
    return tuple(fields)


@lru_cache(maxsize=None)
def coefficient_fields(ctx: JetContext, chart: int, variant: int) -> tuple:
    """One variant's coefficient fields, one per admissible exponent."""
    return tuple(
        coefficient_field(variant, alpha, ctx, chart)
        for alpha in admissible_coefficient_exponents(variant, ctx, chart)
    )


def enumerate_frame(ctx: JetContext, chart: int = 1, variant: int = VARIANT_POWER) -> list:
    """The full candidate frame, deterministically ordered: all admissible
    coefficient fields, one canonical shifted field per long exponent, every
    coordinate field, and one jet-linear field per elementary matrix.  Each
    field is built once (coefficient_fields, variant_free_frame); each call
    returns a new list of the cached fields, which callers must not mutate."""
    return list(coefficient_fields(ctx, chart, variant) + variant_free_frame(ctx))


def _first_nonzero_image(fields, eqs) -> str | None:
    """The label of the first field X with X(E) != 0 for some E in eqs, or
    None.  X(E) = sum_v X[v] dE/dv over the variables v that X moves, for
    any field: each equation's partials are taken once, in every variable
    some field moves, and each field's directions are dotted with them."""
    moved = {v for f in fields for v, _ in f.field.items()}
    first = len(fields)
    for eq in eqs:
        grad = eq.gradient(moved)  # one equation's partials at a time
        for i, f in enumerate(fields[:first]):
            if not dot((c, grad[v]) for v, c in f.field.items() if v in grad).is_zero():
                first = i  # only a field before it can still be named
                break
    return fields[first].label if first < len(fields) else None


def _commutes_with_d(field: VectorField) -> bool:
    """Whether X moves no jet, by directions free of z and jets: then
    [X, D] = 0 (D moves z and jets by jets), so X(E_kappa) = D^kappa X(E_0)."""
    return all(v[0] != JET and all(u[0] not in (COORD, JET) for u in c.variables()) for v, c in field.items())


def _taylor_parts(field: VectorField, ctx: JetContext, slots) -> tuple | None:
    """(kl, directions) for a field that moves z_k^(lam) by z_l^(lam) for
    lam = 1..n (kl = (k, l)) or no jet (kl = None), no coordinate, and
    coefficient slots of ctx (the variables in slots) by directions that hold
    no jet variable: directions lists (alpha, A_alpha).  None for any other
    field."""
    jets: dict = {}
    directions = []
    for v, c in field.items():
        if v[0] == JET:
            jets[v] = c
        elif v in slots and all(u[0] != JET for u in c.variables()):
            directions.append((v[1:], c))
        else:
            return None
    if not jets:
        return None, directions
    k = min(v[1] for v in jets)
    l = next((u[1] for u in jets.get(jet(k, 1), Polynomial.zero()).variables() if u[0] == JET), None)
    if l is None or jets != {jet(k, lam): Polynomial.var(jet(l, lam)) for lam in range(1, ctx.n + 1)}:
        return None
    return (k, l), directions


class _TaylorIdentities:
    """Decides, at the base point, whether X moves E_0 and whether it moves
    some of E_1..E_n, for a field X that _taylor_parts accepts: X moves
    z_k^(lam) by z_l^(lam) (or no jet), no coordinate, and each slot a_alpha
    by an A_alpha free of jets.  E_kappa = D^kappa E_0 is kappa! [t^kappa]
    F(z(t)), F = E_0 and z(t) = z + sum_lam z^(lam) t^lam / lam!, so
    X(E_kappa) is kappa! [t^kappa] H(z(t)), z frozen in
        H(zeta) = sum_alpha A_alpha(z) zeta^alpha + (zeta_l - z_l) d_k F(zeta).
    Its Taylor coefficients at zeta = z are I_sigma / sigma!, with
        I_sigma = sum_alpha A_alpha(z) (alpha)_sigma z^(alpha - sigma)
                  + sigma_l d^(sigma - e_l + e_k) F(z),
    (alpha)_sigma = falling_product(alpha, sigma), and hold no jet, so the
    coefficient of (z')^sigma in X(E_|sigma|) is |sigma|!/sigma! I_sigma:
    X(E_0) = I_0, and X(E_1..E_n) = 0 exactly when I_sigma = 0 for
    1 <= |sigma| <= n.

    The terms of every I_sigma of one field go into one dictionary, keyed by
    an int that packs the term's monomial in the other variables (by id),
    sigma (by index) and the z exponent (in radix digits, each below radix),
    and are dropped with the field."""

    def __init__(self, ctx: JetContext, fields, e0: Polynomial):
        self.ctx, self.e0 = ctx, e0
        self.slots = frozenset(ctx.coeff_vars)
        # a z exponent of I_sigma is one of a direction's plus alpha - sigma, or one of E_0's
        top = max(
            (e for f in fields for _, c in f.items() for mono, _ in iter_terms(c) for u, e in mono if u[0] == COORD),
            default=0,
        )
        radix = top + ctx.d + 1
        self.digits = [radix**j for j in range(ctx.nvars)]
        self.sigmas = {sigma: i for i, sigma in enumerate(_jet_exponents(ctx))}
        self.span = radix**ctx.nvars  # one sigma's range of codes
        self.rest_span = len(self.sigmas) * self.span  # one monomial's range of codes
        self.rests: dict = {}
        self._below: dict = {}

    def code(self, exponent) -> int:
        return sum(e * r for e, r in zip(exponent, self.digits))

    def split(self, p: Polynomial):
        """Each term of p as (its coordinate pairs, the code of its monomial, c)."""
        digits, rests = self.digits, self.rests
        for mono, c in iter_terms(p):
            j = zcode = 0
            for (u, *index), e in mono:  # coordinates sort first
                if u != COORD:
                    break
                zcode += e * digits[index[0] - 1]
                j += 1
            yield mono[:j], rests.setdefault(mono[j:], len(rests)) * self.rest_span + zcode, c

    def below(self, alpha) -> list:
        """(the code of sigma and of alpha - sigma, (alpha)_sigma) for each
        sigma <= alpha with |sigma| <= n."""
        got = self._below.get(alpha)
        if got is None:
            n, top = self.ctx.n, self.code(alpha)
            got = self._below[alpha] = [
                (self.sigmas[sigma] * self.span + top - self.code(sigma), falling_product(alpha, sigma))
                for sigma in product(*(range(min(a, n) + 1) for a in alpha))
                if sum(sigma) <= n
            ]
        return got

    @cached_property
    def f_partials(self) -> dict:
        """{tau: [(code of the term's other pairs and z exponent, c)]}: the
        terms of d^tau F(z), 1 <= |tau| <= n, read off E_0's terms."""
        out: dict = {}
        for pairs, top, c in self.split(self.e0):
            zexp = [0] * self.ctx.nvars
            for (_, i), e in pairs:
                zexp[i - 1] = e
            for tau in product(*(range(min(a, self.ctx.n) + 1) for a in zexp)):
                if 0 < sum(tau) <= self.ctx.n:
                    out.setdefault(tau, []).append((top - self.code(tau), c * falling_product(zexp, tau)))
        return out

    def moves(self, field: VectorField) -> tuple | None:
        """(I_0 != 0, some I_sigma != 0 with |sigma| >= 1): whether the field
        moves E_0 and whether it moves some of E_1..E_n; None where
        _taylor_parts declines the field."""
        parts = _taylor_parts(field, self.ctx, self.slots)
        if parts is None:
            return None
        kl, directions = parts
        acc: dict = {}
        get = acc.get
        for alpha, direction in directions:
            below = self.below(alpha)
            for _, at, c in self.split(direction):
                for shift, w in below:
                    key = at + shift
                    acc[key] = get(key, 0) + c * w
        if kl is not None:
            k, l = kl
            for tau, terms in self.f_partials.items():
                sigma = list(tau)
                sigma[k - 1] -= 1
                sigma[l - 1] += 1
                if sigma[k - 1] < 0 or not sigma[l - 1]:
                    continue
                weight, shift = sigma[l - 1], self.sigmas[tuple(sigma)] * self.span
                for at, c in terms:
                    key = at + shift
                    acc[key] = get(key, 0) + weight * c
        higher = {key % self.rest_span >= self.span for key, c in acc.items() if c}  # sigma = 0 has index 0
        return False in higher, True in higher


def _moves(fields, eqs, ctx: JetContext) -> dict:
    """{X: (X(E_0) != 0, X(E_kappa) != 0 for some kappa = 1..n)}, by one
    _TaylorIdentities for all the fields, or, where _taylor_parts declines X
    (moves gives None), by X(E_0) and _first_nonzero_image on X alone."""
    identities = _TaylorIdentities(ctx, [f.field for f in fields], eqs[0])
    return {
        f: identities.moves(f.field) or (not f.apply(eqs[0]).is_zero(), _first_nonzero_image([f], eqs[1:]) is not None)
        for f in fields
    }


@lru_cache(maxsize=None)
def _columns_are_partials(ctx: JetContext) -> bool:
    """dE_kappa/da_gamma is the entry of the Cramer systems at row kappa and
    column gamma, system_column(gamma)[kappa], for every |gamma| <= n and
    kappa = 0..n (D moves no coefficient, so each should be); one
    equation's partials are held at a time."""
    columns = {ctx.coeff_var(gamma): system_column(gamma, ctx) for gamma in _jet_exponents(ctx)}
    for kappa, eq in enumerate(defining_equations_iterated(ctx)):
        partials = eq.gradient(columns)
        if any(partials.get(v, Polynomial.zero()) != column[kappa] for v, column in columns.items()):
            return False
    return True


@lru_cache(maxsize=None)
def cramer_tangency(ctx: JetContext, chart: int, variant: int) -> str | None:
    """The first of one variant's coefficient fields that moves some E_kappa,
    or None.  A CramerField X moves a_alpha by W, a_0 by -B_0 and
    a_(beta_k) by -B_k, B = adj(M) c_alpha, all slots |gamma| <= n.  Where
    E_kappa's partial in each such slot is the systems' entry
    (_columns_are_partials, once per context), X(E_kappa) is row kappa of
    its Cramer system: row 0 is 0 by the definition of B_0, and row
    kappa >= 1 is ((W I - M adj(M)) c_alpha)_kappa, 0 for every alpha once
    M adj(M) = W I (adjugate_identity_holds, once per system).  Where a
    check fails, or a field is not Cramer data, _first_nonzero_image
    decides on the expanded fields."""
    fields = coefficient_fields(ctx, chart, variant)
    if (
        all(isinstance(f, CramerField) and f.ctx == ctx for f in fields)
        and _columns_are_partials(ctx)
        and all(adjugate_identity_holds(solved, ctx) for solved in {f.solved for f in fields})
    ):
        return None
    return _first_nonzero_image(fields, defining_equations_iterated(ctx))


class TangencyProof(NamedTuple):
    """What tangency_proof found: per family, the label of its first field
    that is not tangent, or None."""

    coefficient: str | None  # the first failure of cramer_tangency over VARIANTS
    shifted: str | None  # the first shifted field moving some E_kappa
    coordinate: str | None  # the first coordinate field moving some E_kappa
    jet_order0: str | None  # the first E_kl field whose E_kl - t_kl E_0 d/da_0 moves E_0
    jet_higher: str | None  # the first E_kl field moving some E_kappa, kappa >= 1

    @property
    def holds(self) -> bool:
        """Every field of every variant's frame on this chart is tangent to
        the vertical jet space at each of its points."""
        return all(label is None for label in self)


@lru_cache(maxsize=None)
def tangency_proof(ctx: JetContext, chart: int) -> TangencyProof:
    """Symbolic tangency of the cached frames of one chart, proved once per
    process.  The coefficient fields of each variant are decided by
    cramer_tangency, and the coordinate fields, which move z itself, by
    _first_nonzero_image, on E_0 alone where each commutes with D
    (_commutes_with_d).  One pass (_moves) decides the shifted fields and,
    per E_kl field, X' = E_kl - t_kl E_0 d/da_0, t_kl the m(k, l) part of
    top_factor: dE_0/da_0 = 1 and no E_kappa, kappa >= 1, holds a_0, so
    X'(E_0) = E_kl(E_0) - t_kl E_0 and X'(E_kappa) = E_kl(E_kappa).  A field
    that sends E_0 to a multiple of it and E_1..E_n to 0 is tangent at
    every point of the jet space."""
    eqs = defining_equations_iterated(ctx)
    fields = variant_free_frame(ctx)
    coordinate = [f for f in fields if f.kind == "coordinate"]
    commuting = all(_commutes_with_d(f.field) for f in coordinate)
    coordinate_label = _first_nonzero_image(coordinate, eqs[:1] if commuting else eqs)
    size = range(1, ctx.nvars + 1)
    factors = _solve_symbolic_table(ctx).top_factor.gradient({mat(k, l) for k in size for l in size})
    moved_a0 = {_jet_label(*m[1:], ctx.nvars): t * eqs[0] for m, t in factors.items()}  # t_kl E_0 by E_kl's label
    a0 = ctx.coeff_var((0,) * ctx.nvars)
    shifted = [f for f in fields if f.kind == "shifted_coefficient"]
    primed = [
        FrameField(f.kind, f.label, VectorField({**f.field.coeffs, a0: f.field.get(a0) - moved_a0.get(f.label, 0)}))
        for f in fields
        if f.kind == "jet_linear"
    ]
    moves = _moves(shifted + primed, eqs, ctx)
    return TangencyProof(
        coefficient=next(filter(None, (cramer_tangency(ctx, chart, variant) for variant, _ in VARIANTS)), None),
        shifted=next((f.label for f in shifted if any(moves[f])), None),
        coordinate=coordinate_label,
        jet_order0=next((f.label for f in primed if moves[f][0]), None),
        jet_higher=next((f.label for f in primed if moves[f][1]), None),
    )
