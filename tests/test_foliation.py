"""Derivations, brackets, logarithmic checks, orders, and membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folprin import (
    Derivation, Foliation, IdealGens, INFINITE, Jet, NotLogarithmic, Q,
    ReesAlgebra, RingContext, check_involutive, f_infty, f_order_at,
    f_order_rees, is_f_invariant, lie_bracket, log_smooth_at,
    parse_derivation, parse_poly, rees_from_ideal, sm_rank_at,
)
from folprin import foliation
from folprin.kernel import rank
from folprin.foliation import (
    in_jet_span, jet_module_coeffs, log_rank_at, membership_degree,
    rees_piece_gens,
)

CTX = RingContext(["x", "y"], truncation=8)
CTXD = RingContext(["x", "y"], divisor=["x"], truncation=8)


def J(text, ctx=CTX):
    return parse_poly(ctx, text)


def D(text, ctx=CTX):
    return parse_derivation(ctx, text)


# -- derivations -------------------------------------------------------------

def test_apply_is_a_derivation():
    d = D("x*d/dx - y*d/dy")
    f, g = J("x^2"), J("x*y")
    assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)
    assert d.apply(J("x")) == J("x")
    assert d.apply(Jet.const(CTX, 5)).is_zero()


def test_logarithmic_enforced_by_foliation():
    with pytest.raises(NotLogarithmic):
        Foliation(CTXD, [D("d/dx", CTXD)])
    F = Foliation(CTXD, [D("x*d/dx", CTXD), D("d/dy", CTXD)])
    assert len(F) == 2


def test_full_foliation_respects_flags():
    F = Foliation.full(CTXD)
    coeffs = {str(d): d for d in F}
    assert any(d.coefficient("x") == J("x", CTXD) for d in F)
    assert any(d.coefficient("y").is_unit() for d in F)


@st.composite
def small_derivations(draw):
    coeffs = {}
    for v in CTX.variables:
        deg = draw(st.integers(0, 2))
        c = draw(st.integers(-3, 3))
        if c:
            coeffs[v] = Jet.monomial(CTX, {"x": deg}, c)
    return Derivation(CTX, coeffs)


@settings(max_examples=40, deadline=None)
@given(small_derivations(), small_derivations(), small_derivations())
def test_bracket_antisymmetry_and_jacobi(a, b, c):
    zero = Derivation.zero(CTX)
    ab = lie_bracket(a, b)
    assert ab + lie_bracket(b, a) == zero
    jac = (lie_bracket(a, lie_bracket(b, c))
           + lie_bracket(b, lie_bracket(c, a))
           + lie_bracket(c, lie_bracket(a, b)))
    # Jacobi holds exactly below the precision boundary
    for v, coeff in jac.coefficients.items():
        for e in coeff.terms:
            assert sum(e) >= CTX.truncation - 2


def test_check_involutive():
    ok, _ = check_involutive(Foliation(CTX, [D("d/dx"), D("d/dy")]))
    assert ok
    ok, _ = check_involutive(Foliation(CTX, [D("x*d/dx"), D("y*d/dy")]))
    assert ok
    ok, witness = check_involutive(Foliation(CTX, [D("d/dx"), D("x^2*d/dy")]))
    assert not ok and witness == D("2*x*d/dy")


# -- membership --------------------------------------------------------------

def test_jet_membership():
    gens = [J("x^2"), J("y")]
    deg = membership_degree(CTX, gens)
    assert in_jet_span(J("x^2 + 3*y"), gens, deg)
    assert in_jet_span(J("x^3*y"), gens, deg)
    assert not in_jet_span(J("x"), gens, deg)


def test_derivation_membership_componentwise():
    gens = [D("d/dx"), D("y*d/dy")]
    deg = membership_degree(CTX, gens)
    assert jet_module_coeffs(D("x*d/dx + y^2*d/dy"), gens, deg) is not None
    assert jet_module_coeffs(D("d/dy"), gens, deg) is None


# -- orders ------------------------------------------------------------------

def test_f_order_examples():
    I = IdealGens(CTX, [J("x^5 + y")])
    assert f_order_at(Foliation(CTX, [D("d/dx")]), I) == 5
    assert f_order_at(Foliation(CTX, [D("d/dx"), D("d/dy")]), I) == 1
    assert f_order_at(Foliation(CTX, [D("d/dy")]),
                      IdealGens(CTX, [J("x")])) == INFINITE
    assert f_order_at(Foliation.full(CTX), IdealGens(CTX, [J("1 + x")])) == 0


def test_f_order_rees_minimizes_over_degrees():
    F = Foliation(CTX, [D("d/dx"), D("d/dy")])
    from folprin import ReesAlgebra
    R = ReesAlgebra(CTX, [(J("x^4"), Q(2)), (J("y^3"), Q(1))])
    # min(4/2, 3/1) = 2
    assert f_order_rees(F, R) == 2


def test_f_infty_saturates():
    F = Foliation(CTX, [D("x*d/dx - y*d/dy")])
    R = rees_from_ideal(IdealGens(CTX, [J("x*y")]))
    Rinf = f_infty(F, R)
    assert is_f_invariant(F, Rinf)


def test_f_infty_builds_each_piece_once(monkeypatch):
    # x*y and x^2 are F-invariant: no derivative is kept, so the degree-1
    # piece is built once for the three nonzero derivatives
    F = Foliation(CTX, [D("x*d/dx"), D("y*d/dy")])
    R = ReesAlgebra(CTX, [(J("x*y"), Q(1)), (J("x^2"), Q(1))])
    built = []
    monkeypatch.setattr(foliation, "rees_piece_gens",
                        lambda R, b: built.append(b) or rees_piece_gens(R, b))
    assert f_infty(F, R) == R
    assert is_f_invariant(F, R)
    assert built == [Q(1), Q(1)]


def _reference_piece_gens(R, b):
    """Every product over non-decreasing generator indices, depth first,
    with degrees summing to b; the distinct nonzero ones in order found."""
    gens = [(f, Q(d)) for f, d in R.generators]
    out, seen = [], set()

    def rec(start, acc, deg):
        if deg == b:
            key = frozenset(acc.terms.items())
            if key not in seen and not acc.is_zero():
                seen.add(key)
                out.append(acc)
            return
        for i in range(start, len(gens)):
            if deg + gens[i][1] <= b:
                rec(i, acc * gens[i][0], deg + gens[i][1])

    rec(0, Jet.const(R.context, 1), Q(0))
    return out


def test_rees_piece_gens_expands_each_state_once(monkeypatch):
    # the F^infty closure of y@10, x^3@1 under d/dx, y*d/dy meets many
    # copies of y at degrees k/3; the same products recur along many paths
    ctx = RingContext(["x", "y"], truncation=12)
    R = ReesAlgebra(ctx, [(J("y", ctx), Q(k, 3)) for k in range(1, 19)]
                    + [(J("x^2", ctx), Q(1))])
    want = _reference_piece_gens(R, Q(6))
    products = [0]
    mul = Jet.__mul__

    def counting_mul(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    got = rees_piece_gens(R, 6)
    monkeypatch.undo()
    assert [g.terms for g in got] == [g.terms for g in want]
    # 787 products; enumerating every path takes 2687
    assert products[0] <= 1000


@st.composite
def small_rees(draw):
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = draw(st.sampled_from([1, -1, 2, Q(1, 2)]))
        deg = Q(draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3])))
        gens.append((Jet(CTX, {e: c}) + J("x*y") * draw(st.integers(0, 1)),
                     deg))
    return ReesAlgebra(CTX, gens)


@settings(max_examples=60, deadline=None)
@given(small_rees(), st.sampled_from([Q(1), Q(3, 2), Q(2), Q(3), Q(10, 3)]))
def test_rees_piece_gens_matches_reference(R, b):
    got = rees_piece_gens(R, b)
    assert [g.terms for g in got] == \
        [g.terms for g in _reference_piece_gens(R, b)]


def test_jet_module_coeffs_multipliers_reproduce_target():
    gens = [J("x^2 + y"), J("y^2"), J("x*y")]
    target = J("x^3 + 2*x*y - 3*y^3 + 1/2*x^2*y")
    deg = membership_degree(CTX, gens + [target])
    mults = jet_module_coeffs(target, gens, deg)
    total = sum((h * g for h, g in zip(mults, gens)), Jet.zero(CTX))
    assert total.truncate(deg) == target.truncate(deg)


# -- rank and smoothness -----------------------------------------------------

def _equals_dlog_by_membership(F):
    """F = D^log decided the generic way: each generator set lies in the
    span of the other, to membership precision."""
    G = Foliation.full(F.context)
    deg = membership_degree(F.context, list(F) + list(G))
    return (all(jet_module_coeffs(d, list(F), deg) is not None for d in G)
            and all(jet_module_coeffs(d, list(G), deg) is not None for d in F))


@st.composite
def log_foliations(draw, divisors=([], ["y"])):
    divisor = draw(st.sampled_from(divisors))
    ctx = RingContext(["x", "y"], divisor=divisor, truncation=5)
    small = st.integers(-2, 2)
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {}
        for v in ctx.variables:
            terms = {(0, 0): draw(small)}
            for _ in range(draw(st.integers(0, 2))):
                e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
                terms[e] = draw(small)
            c = Jet(ctx, terms)
            coeffs[v] = c * Jet.variable(ctx, v) if ctx.is_divisor(v) else c
        gens.append(Derivation(ctx, coeffs))
    return Foliation(ctx, gens)


@settings(max_examples=80, deadline=None)
@given(log_foliations())
def test_log_rank_decides_equality_with_dlog(F):
    """Nakayama: F = D^log exactly when F's constant terms in the log basis
    have full rank."""
    n = len(F.context.variables)
    assert (log_rank_at(F) == n) == _equals_dlog_by_membership(F)


def _reference_log_rank(F):
    """The log-basis matrix built by dividing each divisor coefficient by
    its variable, and the rank of its constant terms."""
    ctx = F.context
    rows = []
    for d in F.generators:
        row = []
        for v in ctx.variables:
            c = d.coefficient(v)
            if ctx.is_divisor(v):
                i = ctx.index(v)
                c = Jet(ctx, {e[:i] + (e[i] - 1,) + e[i + 1:]: a
                              for e, a in c.terms.items()})
            row.append(c.constant_term())
        rows.append(row)
    return rank(rows)


@settings(max_examples=150, deadline=None)
@given(log_foliations(divisors=([], ["x"], ["y"], ["x", "y"])))
def test_log_rank_matches_the_log_basis_matrix(F):
    assert log_rank_at(F) == _reference_log_rank(F)


def test_sm_rank_and_log_smooth():
    F = Foliation(CTX, [D("x*d/dx + y^2*d/dy")])
    assert sm_rank_at(F, (Q(0), Q(0))) == 0
    assert sm_rank_at(F, (Q(1), Q(0))) == 1
    assert not log_smooth_at(F, 1)                   # E = {} : not log-smooth
    FD = Foliation(CTXD, [D("x*d/dx + y^2*d/dy", CTXD)])
    assert log_smooth_at(FD, 1)                      # E = {x=0} : log-smooth


def test_log_smooth_reads_the_exact_generic_rank():
    # the coefficient vanishes at 0, 2, 3/2, 5/3, 7/4, 11/5 and 13/6, so a
    # rank sampled at those points reads 0 and calls the origin smooth
    ctx = RingContext(["x"], truncation=8)
    F = Foliation(ctx, [parse_derivation(
        ctx, "x*(x-2)*(2*x-3)*(3*x-5)*(4*x-7)*(5*x-11)*(6*x-13)*d/dx")])
    assert log_rank_at(F) == 0
    assert not log_smooth_at(F, 1)
