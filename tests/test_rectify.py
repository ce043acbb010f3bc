"""Rectified charts, liftings, and foliation splitting."""

from fractions import Fraction
import math

import pytest
from hypothesis import given, settings, strategies as st

from folprin import (
    CertificateFailure, CoordinateChange, Derivation, Foliation, Jet, Q,
    RingContext, invert_jet_map, lie_bracket, parse_derivation, parse_poly,
    rectify_coordinate, split_foliation,
)
from folprin import rectify
from folprin.foliation import jet_module_coeffs, membership_degree
from folprin.kernel import inverse, scalar_multiple

CTX = RingContext(["x", "y"], truncation=10)
CTXD = RingContext(["x", "y"], divisor=["y"], truncation=10)


def J(text, ctx=CTX):
    return parse_poly(ctx, text)


def D(text, ctx=CTX):
    return parse_derivation(ctx, text)


def test_trivial_rectification():
    ch = rectify_coordinate(D("d/dx"), "x")
    assert ch.images["y"] == J("y")


def test_exponential_example():
    ch = rectify_coordinate(D("d/dx - y*d/dy"), "x", budget=3)
    assert ch.images["y"] == J("y + x*y + 1/2*x^2*y + 1/6*x^3*y")


def test_shear_example():
    ch = rectify_coordinate(D("d/dx + d/dy"), "x", budget=4)
    assert ch.images["y"] == J("y - x")


def test_rectify_requires_unit():
    with pytest.raises(ValueError):
        rectify_coordinate(D("x*d/dx"), "x")


def test_rectify_rejects_divisorial_transverse():
    d = parse_derivation(CTXD, "d/dx + y*d/dy")
    with pytest.raises(ValueError):
        rectify_coordinate(d, "y")


def test_divisor_preservation_certificate():
    d = parse_derivation(CTXD, "d/dx + y*d/dy")
    ch = rectify_coordinate(d, "x", budget=5)
    img = ch.images["y"]
    # y rectifies to a unit multiple of y
    assert img.var_order("y") == 1
    assert all(e[CTXD.index("y")] >= 1 for e in img.terms)


def test_telescoping_stability():
    d = D("d/dx - y*d/dy")
    for lo in range(1, 6):
        a = rectify_coordinate(d, "x", budget=lo).images["y"]
        b = rectify_coordinate(d, "x", budget=lo + 3).images["y"]
        diff = a - b
        for e in diff.terms:
            assert e[CTX.index("x")] >= lo + 1


def test_certificate_exactness_all_budgets():
    catalog = ["d/dx", "d/dx + d/dy", "d/dx - y*d/dy"]
    for text in catalog:
        d = D(text)
        for budget in range(1, 9):
            ch = rectify_coordinate(d, "x", budget=budget)
            res = ch.rescaled.apply(ch.images["y"])
            for e in res.terms:
                assert e[CTX.index("x")] >= budget or sum(e) >= budget


def test_invert_jet_map_roundtrip():
    images = {"x": J("x"), "y": J("y + x^2 + x*y")}
    inv = invert_jet_map(CTX, images)
    for v in CTX.variables:
        assert images[v].substitute(inv, CTX) == Jet.variable(CTX, v)


def _reference_invert(ctx, images):
    """The full-order fixed-point loop: old = Ainv * (new - h(old)) at
    truncation N until nothing changes."""
    n = len(ctx.variables)
    a = [[images[v].coefficient({w: 1}) for w in ctx.variables]
         for v in ctx.variables]
    ainv = inverse(a)
    x = [Jet.variable(ctx, v) for v in ctx.variables]
    tails = {v: images[v] - sum((x[j] * a[i][j] for j in range(n)),
                                Jet.zero(ctx))
             for i, v in enumerate(ctx.variables)}
    current = {w: sum((x[i] * ainv[j][i] for i in range(n)), Jet.zero(ctx))
               for j, w in enumerate(ctx.variables)}
    for _ in range(ctx.truncation):
        nxt = {w: sum(((x[i] - tails[v].substitute(current, ctx)) * ainv[j][i]
                       for i, v in enumerate(ctx.variables)), Jet.zero(ctx))
               for j, w in enumerate(ctx.variables)}
        if nxt == current:
            break
        current = nxt
    return current


CTX3 = RingContext(["x", "y", "z"], truncation=5)
small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def nonlinear_tails(draw, ctx, max_terms=3, max_degree=4):
    """A jet of order >= 2 with a few small rational terms."""
    n = len(ctx.variables)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        d = draw(st.integers(2, max_degree))
        cut = sorted(draw(st.integers(0, d)) for _ in range(n - 1))
        terms[tuple(b - a for a, b in zip([0] + cut, cut + [d]))] = \
            draw(small_fractions)
    return Jet(ctx, terms)


@st.composite
def dense_maps(draw, ctx):
    """Maps with a dense invertible linear part and a nonlinear tail."""
    vs = ctx.variables
    while True:
        a = [[draw(small_fractions.filter(bool)) for _ in vs] for _ in vs]
        if inverse(a) is not None:
            break
    return {v: sum((Jet.variable(ctx, w) * a[i][j] for j, w in enumerate(vs)),
                   draw(nonlinear_tails(ctx)))
            for i, v in enumerate(vs)}


@st.composite
def polynomial_automorphisms(draw, ctx):
    """Compositions of triangular maps v -> v + p(later variables): their
    inverses are polynomials, so the lifting stops early."""
    vs = ctx.variables
    images = {v: Jet.variable(ctx, v) for v in vs}
    for _ in range(draw(st.integers(1, 2))):
        order = draw(st.permutations(vs))
        step = {}
        for i, v in enumerate(order):
            p = Jet.zero(ctx)
            for w in order[i + 1:]:
                k = draw(st.integers(0, 3))
                if k >= 2:
                    p = p + Jet.variable(ctx, w) ** k * draw(small_fractions)
            step[v] = Jet.variable(ctx, v) + p
        images = {v: step[v].substitute(images, ctx) for v in vs}
    return images


@pytest.mark.parametrize("ctx", [CTX.with_truncation(8), CTX3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_invert_jet_map_matches_full_order_loop(ctx, data):
    draw = data.draw
    # invert_jet_map checks its own round trip; here it must also agree
    # with the reference on the dense and on the early-exit path
    for images in (draw(dense_maps(ctx)), draw(polynomial_automorphisms(ctx))):
        assert invert_jet_map(ctx, images) == _reference_invert(ctx, images)


def test_invert_linear_and_odd_maps():
    # a linear map is inverted by its linear part; tails of odd degree
    # leave every even degree empty, and the lifting must go on past them
    ctx = CTX.with_truncation(9)
    for images in ({"x": J("2*x + y", ctx), "y": J("x - y", ctx)},
                   {"x": J("x + x^3", ctx), "y": J("y - x*y^2", ctx)}):
        assert invert_jet_map(ctx, images) == _reference_invert(ctx, images)
    inv = invert_jet_map(ctx, {"x": J("x + x^3", ctx), "y": J("y", ctx)})
    assert inv["x"] == J("x - x^3 + 3*x^5 - 12*x^7 + 55*x^9", ctx)


def test_coordinate_change_push_pull():
    cc = CoordinateChange(CTX, {"y": J("y + x^2")})
    f = J("y + x^2")
    assert cc.push_jet(f) == J("y")
    assert J("y").substitute(cc.images, CTX) == f
    d = cc.push_derivation(D("d/dx"))
    # d/dx in new coordinates gains a 2x d/dy component
    assert d.coefficient("x") == J("1")
    assert d.coefficient("y") == J("2*x")


def test_split_trivial():
    F = Foliation(CTX, [D("d/dx"), D("d/dy")])
    chart, FH = split_foliation(F, "x", D("d/dx"))
    H = CTX.drop("x")
    assert FH.context == H
    assert FH.generators == (Derivation.partial(H, "y"),)


def test_split_mu_correction():
    ctx = RingContext(["x", "y", "z"], truncation=10)
    F = Foliation(ctx, [parse_derivation(ctx, "d/dx"),
                        parse_derivation(ctx, "d/dy + x*d/dz"),
                        parse_derivation(ctx, "d/dz")])
    chart, FH = split_foliation(F, "x", parse_derivation(ctx, "d/dx"))
    assert FH.context == ctx.drop("x")
    assert {str(d) for d in FH} == {"d/dy", "d/dz"}


def test_split_single_generator():
    F = Foliation(CTX, [D("d/dx - y*d/dy")])
    chart, FH = split_foliation(F, "x", D("d/dx - y*d/dy"))
    assert FH.context == CTX.drop("x")
    assert FH.is_zero()


def test_split_certificate_catches_a_wrong_multiplier(monkeypatch):
    # [d/dx, d/dy + x*d/dz] = d/dz; a perturbed multiplier leaves a residual
    ctx = RingContext(["x", "y", "z"], truncation=8)
    F = Foliation(ctx, [parse_derivation(ctx, "d/dx"),
                        parse_derivation(ctx, "d/dy + x*d/dz"),
                        parse_derivation(ctx, "d/dz")])
    solve = rectify.jet_module_coeffs

    def perturbed(target, gens, degree):
        coeffs = solve(target, gens, degree)
        return [coeffs[0] + Jet.const(ctx, 1)] + coeffs[1:]

    monkeypatch.setattr(rectify, "jet_module_coeffs", perturbed)
    with pytest.raises(CertificateFailure):
        split_foliation(F, "x", parse_derivation(ctx, "d/dx"))


def _ref_split_foliation(F, x1, d):
    """The split by the fundamental solution mu of mu' = -mu*A, solved
    degree by degree in x1 with mu(0) = 1: nabla_i = sum_j mu_ij H_j,
    each certified to satisfy nabla(x1) = 0 and [d/dx1, nabla] = 0 below
    order N - 1.  Every degree up to N is solved: a zero mu_k does not make
    the later ones zero (d = d/dx + x^2*d/dy in {d/dx, d/dy} has mu_1 = 0
    and mu_2 != 0)."""
    ctx = F.context
    budget = ctx.truncation
    chart = rectify_coordinate(d, x1, budget)
    dx1 = Derivation.partial(ctx, x1)
    corrected, kept_terms = [], []
    for g in F.generators:
        gg = chart.change.push_derivation(g)
        gg = Derivation(ctx, {v: c.truncate(budget - 1)
                              for v, c in gg.coefficients.items()})
        cx = gg.coefficient(x1)
        if not cx.is_zero():
            gg = gg - dx1.scale(cx)
        flat = {(v, e): a for v, c in gg.coefficients.items()
                for e, a in c.terms.items()}
        if flat and not any(scalar_multiple(flat, h) for h in kept_terms):
            corrected.append(gg)
            kept_terms.append(flat)
    if not corrected:
        return chart, [dx1]
    m = len(corrected)
    deg = membership_degree(ctx, corrected, ctx.truncation - 1)
    amat = []
    for h in corrected:
        br = lie_bracket(dx1, h)
        if br.is_zero():
            amat.append([Jet.zero(ctx)] * m)
            continue
        coeffs = jet_module_coeffs(br, corrected, deg)
        if coeffs is None:
            raise ValueError("bracket %s escapes" % br)
        amat.append(coeffs)
    i1 = ctx.index(x1)

    def x1_decompose(f):
        out = {}
        for e, c in f.terms.items():
            ee = list(e)
            ee[i1] = 0
            out.setdefault(e[i1], {})[tuple(ee)] = c
        return {k: Jet(ctx, terms) for k, terms in out.items()}

    adec = [[x1_decompose(amat[i][j]) for j in range(m)] for i in range(m)]
    one, zero = Jet.const(ctx, 1), Jet.zero(ctx)
    mu = [[[one if i == j else zero for j in range(m)] for i in range(m)]]
    for k in range(budget):
        nxt = [[zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                acc = zero
                for l in range(m):
                    for p in range(k + 1):
                        cell = adec[l][j].get(k - p)
                        if cell is not None:
                            acc = acc - mu[p][i][l] * cell
                nxt[i][j] = acc * Q(1, k + 1)
        mu.append(nxt)
    x1jet = Jet.variable(ctx, x1)
    nablas = []
    for i in range(m):
        total = Derivation.zero(ctx)
        for j in range(m):
            coeff = sum((mat[i][j] * x1jet ** k for k, mat in enumerate(mu)),
                        Jet.zero(ctx))
            total = total + corrected[j].scale(coeff)
        if total.is_zero():
            continue
        br = lie_bracket(dx1, total)
        if (not total.apply(x1jet).is_zero()
                or any(c.order() < ctx.truncation - 1
                       for c in br.coefficients.values())):
            raise CertificateFailure("%s is not independent of %s" % (total, x1))
        nablas.append(total)
    return chart, [dx1] + nablas


@st.composite
def transverse_foliations(draw):
    """(F, d): {d/dx, u*d/dy} or {d/dx, u*y*d/dy} with u a unit, pushed
    through a random polynomial automorphism, y optionally divisorial; d is
    the first generator plus g times the second, g a random jet, so that d
    does not commute with F."""
    divisor = draw(st.booleans())
    ctx = RingContext(["x", "y"], divisor=["y"] if divisor else [],
                      truncation=draw(st.integers(5, 8)))
    y = Jet.variable(ctx, "y")
    images = draw(polynomial_automorphisms(ctx))
    if divisor:
        # keep y a unit multiple of y, so the divisor stays V(y)
        images["y"] = y + y * (images["y"] - y)
    cc = CoordinateChange(ctx, images)
    unit = draw(nonlinear_tails(ctx)) + 1
    second = (Derivation(ctx, {"y": y}) if divisor or draw(st.booleans())
              else Derivation.partial(ctx, "y")).scale(unit)
    gens = [cc.push_derivation(g)
            for g in (Derivation.partial(ctx, "x"), second)]
    g = draw(nonlinear_tails(ctx)) + draw(small_fractions)
    return Foliation(ctx, gens), gens[0] + gens[1].scale(g)


def _split_or_error(split, F, d):
    try:
        return split(F, "x", d)[1]
    except (ValueError, CertificateFailure) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(transverse_foliations())
def test_split_matches_fundamental_solution(case):
    """F_H against the reference's nablas (after its d/dx) at x = 0."""
    F, d = case
    got = _split_or_error(split_foliation, F, d)
    ref = _split_or_error(_ref_split_foliation, F, d)
    if not isinstance(ref, list):
        assert got == ref
        return
    H = F.context.drop("x")
    restricted = [Derivation(H, {v: c.restrict("x") for v, c in nb.coefficients.items()})
                  for nb in ref[1:]]
    assert got.context == H
    assert got.generators == Foliation(H, restricted).generators
