"""Jet arithmetic: exactness, ring axioms, substitution, parsing; the exact
echelon core (linear solve, rank, inverse)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folprin import (
    ContextMismatch, IdealGens, Jet, ParseError, Q, RingContext,
    TruncationOverflow, parse_poly,
)
from folprin.kernel import inverse, linsolve, rank, scalar_multiple

CTX = RingContext(["x", "y"], truncation=8)
CTX3 = RingContext(["x", "y", "z"], divisor=["z"], truncation=8)


def J(text, ctx=CTX):
    return parse_poly(ctx, text)


# -- strategies --------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))


@st.composite
def jets(draw, ctx=CTX, max_terms=4):
    terms = {}
    n = len(ctx.variables)
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(n))
        if sum(e) > ctx.truncation:
            continue
        c = draw(fractions)
        if c:
            terms[e] = c
    return Jet(ctx, terms)


# -- basic construction ------------------------------------------------------

def test_zero_coefficients_are_dropped():
    f = Jet(CTX, {(1, 0): Q(0), (0, 1): Q(2)})
    assert f == Jet.variable(CTX, "y") * 2


def test_terms_beyond_truncation_are_dropped():
    f = Jet(CTX, {(9, 0): Q(1), (1, 0): Q(1)})
    assert f == Jet.variable(CTX, "x")


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatch):
        Jet.variable(CTX, "x") + Jet.variable(CTX3, "x")


def test_unit_and_inverse():
    f = J("1+x")
    assert f.is_unit()
    g = f.inverse()
    assert f * g == Jet.const(CTX, 1)
    assert not J("x").is_unit()
    with pytest.raises(Exception):
        J("x").inverse()


def test_jet_equals_a_number_only_as_the_constant_jet():
    x = Jet.variable(CTX, "x")
    assert x != 0 and not (x == 0)
    assert J("x + 3") != 3
    assert Jet.zero(CTX) == 0 and Jet.const(CTX, Q(5, 2)) == Q(5, 2)
    assert Jet.const(CTX, 7) == 7 and 7 == Jet.const(CTX, 7)
    # anything that is not a rational number compares unequal, without raising
    for other in ("x", None, [], object()):
        assert x != other and not (x == other)
    assert Jet.const(CTX, 1) != "1"


def test_jet_hash_agrees_with_equality():
    for c in (0, 3, Q(-5, 7)):
        assert hash(Jet.const(CTX, c)) == hash(c)
        assert len({Jet.const(CTX, c), c}) == 1
    assert len({J("x + 1"), J("1 + x"), J("x")}) == 2


def test_parse_rejects_overdeep_input():
    with pytest.raises(TruncationOverflow):
        parse_poly(CTX, "x^9")
    with pytest.raises(ParseError):
        parse_poly(CTX, "x +")
    with pytest.raises(ParseError, match="division by zero"):
        parse_poly(CTX, "x/0 + y")


def test_parse_never_clips_beyond_the_truncation():
    ctx = RingContext(["x", "y"], truncation=16)
    with pytest.raises(TruncationOverflow):
        parse_poly(ctx, "x^35 + y")
    with pytest.raises(TruncationOverflow):
        parse_poly(ctx, "(x^5 + y)^7 - y^7")
    # a syntactic degree beyond N is fine when the terms cancel exactly
    assert parse_poly(ctx, "x^40 - x^40 + y") == parse_poly(ctx, "y")
    assert parse_poly(ctx, "(x^9 + y)^2 - x^18 - 2*x^9*y") == \
        parse_poly(ctx, "y^2")


def test_parse_rational_coefficients():
    f = J("1/2*x^2 - 3*y + 7")
    assert f.coefficient({"x": 2}) == Q(1, 2)
    assert f.coefficient({"y": 1}) == Q(-3)
    assert f.constant_term() == 7


# -- ring axioms (property-based) --------------------------------------------

@settings(max_examples=60, deadline=None)
@given(jets(), jets(), jets())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f + Jet.zero(CTX) == f
    assert f * Jet.const(CTX, 1) == f
    assert f * (g + h) == f * g + f * h
    assert f - f == Jet.zero(CTX)


@settings(max_examples=40, deadline=None)
@given(jets(), jets())
def test_truncated_product_degree(f, g):
    assert (f * g).degree() <= CTX.truncation


@settings(max_examples=40, deadline=None)
@given(jets())
def test_partial_leibniz(f):
    g = J("x*y + x^2")
    lhs = (f * g).partial("x")
    rhs = f.partial("x") * g + f * g.partial("x")
    # Leibniz holds exactly below the truncation boundary
    for e, c in lhs.terms.items():
        if sum(e) < CTX.truncation - 1:
            assert rhs.coefficient(dict(zip(CTX.variables, e))) == c


# -- products and substitution against plain Fraction references --------------
#
# The references are the straightforward algorithms: every pair of terms
# multiplied in Fractions, and a substitution summed term by term.

def _reference_mul(f, g):
    n = f.context.truncation
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            if sum(e1) + sum(e2) <= n:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _reference_substitute(f, images, target):
    out = {}
    for e, c in f.terms.items():
        term = {(0,) * len(target.variables): c}
        for v, k in zip(f.context.variables, e):
            for _ in range(k):
                term = _reference_mul(Jet(target, term), images[v])
        for e2, c2 in term.items():
            out[e2] = out.get(e2, Fraction(0)) + c2
    return {e: c for e, c in out.items() if c}


# denominators mixed small and large (to 10^12, primes among them)
wide_fractions = st.one_of(
    fractions,
    st.builds(Fraction, st.integers(-10**15, 10**15),
              st.sampled_from([1, 2, 3, 7, 10**6, 999983, 10**12, 2**40 + 15])))


@st.composite
def boundary_jets(draw, ctx=CTX, max_terms=6):
    """Jets whose terms crowd the truncation boundary (degree N - 1, N)."""
    terms = {}
    n = len(ctx.variables)
    for _ in range(draw(st.integers(0, max_terms))):
        d = draw(st.sampled_from([0, 1, 2, ctx.truncation - 1, ctx.truncation]))
        cut = sorted(draw(st.integers(0, d)) for _ in range(n - 1))
        e = tuple(b - a for a, b in zip([0] + cut, cut + [d]))
        terms[e] = draw(wide_fractions)
    return Jet(ctx, terms)


def _clean(f):
    """Coefficients at rest are nonzero Fractions within the truncation."""
    return all(type(c) is Fraction and c and sum(e) <= f.context.truncation
               for e, c in f.terms.items())


@settings(max_examples=150, deadline=None)
@given(boundary_jets(), boundary_jets(), wide_fractions)
def test_product_matches_reference(f, g, c):
    fg = f * g
    assert fg.terms == _reference_mul(f, g) and _clean(fg)
    assert g * f == fg
    # cancellation to zero: f*g + (-f)*g, and (f+g)(f-g) = f^2 - g^2
    assert (f * g + (-f) * g).is_zero()
    assert (f + g) * (f - g) == f * f - g * g
    for s in (0, Fraction(0), c, 3, Fraction(-1, 10**12)):
        sf = f * s
        assert sf == s * f and _clean(sf)
        assert sf.terms == {e: a * s for e, a in f.terms.items() if a * s}


@settings(max_examples=60, deadline=None)
@given(boundary_jets(max_terms=4), st.integers(0, 9))
def test_power_matches_repeated_product(f, k):
    want = {(0, 0): Fraction(1)}
    for _ in range(k):
        want = _reference_mul(Jet(CTX, want), f)
    assert (f ** k).terms == want


@settings(max_examples=60, deadline=None)
@given(jets(CTX3, max_terms=5), jets(CTX3, max_terms=3),
       jets(CTX3, max_terms=3), wide_fractions)
def test_substitute_matches_reference(f, gx, gy, c):
    # images of order >= 0 (constants allowed); z is left as it is
    f = f + c
    images = {"x": gx + Jet.variable(CTX3, "y") * c, "y": gy}
    full = dict(images, z=Jet.variable(CTX3, "z"))
    got = f.substitute(images, CTX3)
    assert got.terms == _reference_substitute(f, full, CTX3) and _clean(got)
    # into a context of lower truncation: the result is cut there
    low = CTX3.with_truncation(3)
    small = {v: g.rename(low) for v, g in full.items()}
    assert f.substitute(small, low).terms == \
        _reference_substitute(f, small, low)


@st.composite
def restrictions(draw):
    """(f, g, v): two jets in one context, with or without a divisor, and a
    variable to set to 0."""
    ctx = draw(st.sampled_from([CTX, CTX3]))
    return (draw(jets(ctx, max_terms=6)), draw(jets(ctx, max_terms=6)),
            draw(st.sampled_from(ctx.variables)))


@given(restrictions())
def test_restrict_sets_a_variable_to_zero(case):
    f, g, v = case
    ctx = f.context
    assert f.restrict(v).context == ctx.drop(v)
    assert f.restrict(v) == f.substitute({v: Jet.zero(ctx)}, ctx).rename(ctx.drop(v))
    assert (f * g).restrict(v) == f.restrict(v) * g.restrict(v)


@given(jets(CTX3, max_terms=6),
       st.dictionaries(st.sampled_from(CTX3.variables),
                       st.one_of(st.integers(-3, 6), fractions)))
def test_weighted_order_is_the_least_weighted_degree(f, weights):
    degrees = [sum(weights.get(v, 0) * k for v, k in zip(CTX3.variables, e))
               for e in f.terms]
    got = f.weighted_order(weights)
    assert got == min(degrees, default=None)
    if degrees and all(type(w) is int for w in weights.values()):
        assert type(got) is int         # an exponent of s, for the blow-up
    assert Jet.zero(CTX3).weighted_order(weights) is None


# -- substitution ------------------------------------------------------------

def test_substitute_composes():
    f = J("x^2 + y")
    first = {"x": J("x+y")}
    second = {"y": J("y^2")}
    once = f.substitute(first, CTX).substitute(second, CTX)
    composed = {"x": J("x+y").substitute(second, CTX), "y": J("y^2")}
    assert once == f.substitute(composed, CTX)


def test_substitute_unit_image_expands():
    # substituting a unit jet is plain composition, computed exactly
    f = J("x^2")
    assert f.substitute({"x": J("1+x")}, CTX) == J("1 + 2*x + x^2")


def test_translate_is_exact():
    f = J("x^2 - y")
    g = f.translate({"x": Q(1), "y": Q(2)})
    # (x+1)^2 - (y+2)
    assert g == J("x^2 + 2*x - y - 1")


def test_rename_between_flag_variants():
    f = parse_poly(CTX3, "z^2 + x")
    ctx2 = RingContext(["x", "y", "z"], divisor=[], truncation=8)
    assert f.rename(ctx2) == parse_poly(ctx2, "z^2 + x")


# -- contexts ----------------------------------------------------------------

def test_context_operations():
    assert CTX3.is_divisor("z") and not CTX3.is_divisor("x")
    assert CTX3.drop("y").variables == ("x", "z")
    assert not CTX3.clear_divisor().divisor
    assert CTX3.index("y") == 1


def test_ideal_gens_sorted_and_deduplicated():
    gens = IdealGens(CTX, [J("y"), J("x"), J("y"), Jet.zero(CTX)])
    assert len(gens.generators) == 2
    names = [str(g) for g in gens.generators]
    assert names == sorted(names, key=lambda s: (len(s), s)) or len(names) == 2


# -- exact linear solve ------------------------------------------------------

def _apply(columns, x):
    out = {}
    for col, xj in zip(columns, x):
        for i, c in col.items():
            out[i] = out.get(i, 0) + c * xj
    return {i: c for i, c in out.items() if c}


def test_linsolve_unique_solution_with_large_denominators():
    columns = [
        {0: Q(1, 10**12), 1: Q(2, 3)},
        {0: Q(5, 7), 2: Q(-1, 10**9 + 7)},
        {1: Q(1), 2: Q(3, 11)},
    ]
    x = [Q(3, 10**10 + 19), Q(-2, 13), Q(7, 5)]
    sol = linsolve(columns, _apply(columns, x), 3)
    assert sol == x
    assert all(type(v) is Fraction for v in sol)


def test_linsolve_underdetermined_sets_free_unknowns_to_zero():
    # column 1 = 2 * column 0 and column 3 = column 0 - column 2, so the
    # pivots are columns 0 and 2, the earliest independent ones
    columns = [{0: Q(1), 1: Q(1)}, {0: Q(2), 1: Q(2)}, {0: Q(1)}, {1: Q(1)}]
    sol = linsolve(columns, {0: Q(3), 1: Q(5)}, 2)
    assert sol == [Q(5), Q(0), Q(-2), Q(0)]
    assert all(type(v) is Fraction for v in sol)


def test_linsolve_contradiction_only_after_elimination():
    # every single row and every pair of rows is solvable; row 2 is the sum
    # of rows 0 and 1 on the left but not on the right
    columns = [{0: Q(1), 1: Q(1), 2: Q(2)}, {0: Q(1), 1: Q(2), 2: Q(3)}]
    assert linsolve(columns, {0: Q(1), 1: Q(2), 2: Q(4)}, 3) is None
    assert linsolve(columns, {0: Q(1), 1: Q(2), 2: Q(3)}, 3) == [Q(0), Q(1)]


def test_linsolve_rhs_on_untouched_row_is_inconsistent():
    assert linsolve([{0: Q(1)}], {0: Q(2), 1: Q(1)}, 2) is None
    assert linsolve([], {1: Q(1, 3)}, 3) is None
    assert linsolve([], {}, 3) == []


def test_linsolve_zero_rhs_gives_zero_solution():
    columns = [{0: Q(1, 2), 1: Q(1)}, {1: Q(-4, 9)}, {0: Q(3), 2: Q(1)}]
    for rhs in ({}, {0: Q(0), 2: Q(0)}):
        sol = linsolve(columns, rhs, 3)
        assert sol == [Q(0)] * 3
        assert all(type(v) is Fraction for v in sol)


def test_linsolve_nrows_beyond_rows_in_use():
    sol = linsolve([{0: Q(1, 2)}, {3: Q(2, 5)}], {0: Q(3), 3: Q(1)}, 10)
    assert sol == [Q(6), Q(5, 2)]
    assert all(type(v) is Fraction for v in sol)


# -- scalar multiples ----------------------------------------------------------

@pytest.mark.parametrize("a, b, expected", [
    ({}, {}, True),
    ({(1, 0): Q(2), (0, 1): Q(-4)}, {(1, 0): Q(-1, 2), (0, 1): Q(1)}, True),
    ({(1, 0): Q(2), (0, 1): Q(4)}, {(1, 0): Q(1), (0, 1): Q(1)}, False),
    ({(1, 0): Q(2)}, {(1, 0): Q(2), (0, 1): Q(1)}, False),
    ({("x", (1, 0)): Q(3)}, {("y", (1, 0)): Q(3)}, False),
])
def test_scalar_multiple(a, b, expected):
    assert scalar_multiple(a, b) is expected
    assert scalar_multiple(b, a) is expected


# -- rank and inverse ----------------------------------------------------------

@pytest.mark.parametrize("matrix, expected", [
    ([], 0),
    ([[0, 0], [Q(0), 0]], 0),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
    ([[Q(1, 3), Q(2, 3)], [Q(-1, 2), -1]], 1),
    # whole numbers given as ints: exact, never float division
    ([[0, 0, 3, 0, -3], [-3, 0, 0, 2, Q(-6, 5)], [-6, 0, 3, 4, Q(-27, 5)]], 2),
    ([[Q(0), Q(0), Q(3), Q(0), Q(-3)], [Q(-3), Q(0), Q(0), Q(2), Q(-6, 5)],
      [Q(-6), Q(0), Q(3), Q(4), Q(-27, 5)]], 2),
])
def test_rank(matrix, expected):
    assert rank(matrix) == expected


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)]
            for row in a]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[draw(fractions) for _ in range(n)] for _ in range(n)]


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_of_transpose_and_inverse_round_trip(a):
    n = len(a)
    assert rank(a) == rank([list(c) for c in zip(*a)])
    inv = inverse(a)
    if rank(a) < n:
        assert inv is None
    else:
        identity = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
        assert _matmul(a, inv) == identity == _matmul(inv, a)


def test_inverse_round_trip_with_large_denominators():
    a = [[Q(1, 10**12), Q(5, 7), Q(0)],
         [Q(2, 3), Q(0), Q(1)],
         [Q(0), Q(-1, 10**9 + 7), Q(3, 11)]]
    inv = inverse(a)
    identity = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    assert _matmul(a, inv) == identity
    assert all(type(c) is Fraction for row in inv for c in row)


def test_inverse_of_singular_matrix_is_none():
    assert inverse([[1, 2], [2, 4]]) is None
    assert inverse([[Q(1, 3), 0, 1], [0, 0, 0], [1, 1, 1]]) is None
    assert inverse([[0]]) is None


def test_inverse_one_by_one():
    assert inverse([[Q(-3, 4)]]) == [[Q(-4, 3)]]
    assert inverse([[5]]) == [[Q(1, 5)]]
