"""The invariant recursion: golden values, tiers, and certificates."""

import time
from fractions import Fraction

import pytest

from folprin import (
    BudgetExhausted, Center, Derivation, Foliation, IdealGens, InvValue,
    InvVector, Jet, PointedInstance, Q, ReesAlgebra, RingContext, center_inv,
    check_transverse, compare_inv, fin, find_maximal_contact, inv_at,
    is_admissible, parse_derivation, parse_poly, rees_from_ideal,
)
from folprin.driver import _rewrite_derivation

INF = lambda c: InvValue(1, c)
INF2 = lambda c: InvValue(2, c)


def make(variables, divisor, ideal_texts, fol_texts, truncation=16,
         rees=None):
    ctx = RingContext(variables, divisor=divisor, truncation=truncation)
    if rees is not None:
        R = ReesAlgebra(ctx, [(parse_poly(ctx, t), Q(b)) for t, b in rees])
    else:
        R = rees_from_ideal(IdealGens(ctx, [parse_poly(ctx, t)
                                            for t in ideal_texts]))
    if fol_texts == "full":
        F = Foliation.full(ctx)
    else:
        F = Foliation(ctx, [parse_derivation(ctx, t) for t in fol_texts])
    return PointedInstance(ctx, R, F)


def test_vertical_line_golden():
    inst = make(["x", "y"], [], ["x^5 + y"], ["d/dx"])
    vec, center = inv_at(inst)
    assert vec == InvVector([fin(5), INF(1)])
    assert center.transverse == (("x", Q(5)),)
    assert center.invariant == (("y", Q(1)),)
    assert center.divisorial == ()


def test_plain_order():
    inst = make(["x", "y"], [], ["x^3"], "full")
    vec, center = inv_at(inst)
    assert vec == InvVector([fin(3)])
    assert center.transverse == (("x", Q(3)),)


def test_unit_ideal_off_support():
    # a unit gives the single entry (0) and no center, whatever E and F
    for divisor, fol, gens in [([], "full", ["1 + x"]), ([], "full", ["1"]),
                               (["y"], "full", ["1"]), ([], ["d/dx"], ["1"]),
                               (["x"], ["y*d/dy"], ["1"])]:
        vec, center = inv_at(make(["x", "y"], divisor, gens, fol))
        assert vec == InvVector([fin(0)])
        assert center.is_empty() and center.change is None


def test_trivial_rees():
    ctx = RingContext(["x"], truncation=16)
    inst = PointedInstance(ctx, ReesAlgebra(ctx, []), Foliation.full(ctx))
    vec, center = inv_at(inst)
    assert len(vec) == 0 and center.is_empty()


def test_invariant_tier_single_lift():
    # x is F-infinite for span(y*d/dy): enlarging to the full tangent sheaf
    # costs one infinity marker
    inst = make(["x", "y"], [], ["x^2"], ["y*d/dy"])
    vec, center = inv_at(inst)
    assert vec == InvVector([INF(2)])
    assert center.invariant == (("x", Q(2)),)


def test_divisorial_tier_two_markers():
    # z is a divisor component and F = D^log: the variable lands in the
    # divisorial tier
    inst = make(["z", "t"], ["z"], ["z"], "full")
    vec, center = inv_at(inst)
    assert vec == InvVector([INF2(1)])
    assert center.divisorial == (("z", Q(1)),)


def test_divisor_monomial_symmetric():
    inst = make(["x", "y"], ["x", "y"], ["x*y"], "full")
    vec, center = inv_at(inst)
    assert vec == InvVector([INF2(2), INF2(2)])
    assert center.divisorial == (("x", Q(2)), ("y", Q(2)))
    assert is_admissible(inst.rees, center)


def test_mixed_free_and_divisor():
    # y free, z flagged; F = D^log; (y*z): y joins the invariant tier after
    # one enlargement, z needs the divisorial tier
    inst = make(["y", "z"], ["z"], ["y*z"], "full")
    vec, center = inv_at(inst)
    assert all(e.tier >= 1 for e in vec.entries)
    assert center_inv(center) == vec
    assert is_admissible(inst.rees, center)


def test_contact_through_shear():
    # y + x^2: maximal contact is the shifted coordinate, the center chart
    # is non-trivial
    inst = make(["x", "y"], [], ["y + x^2"], ["d/dy"])
    vec, center = inv_at(inst)
    # the coefficient data on the contact hypersurface is trivial, and the
    # length-one vector beats any (1, inf+w) under top-symbol padding
    assert vec == InvVector([fin(1)])
    assert center.transverse == (("y", Q(1)),)
    assert center.change is not None
    g = parse_poly(inst.context, "y + x^2")
    assert center.rewrite(g) == parse_poly(inst.context, "y")


def test_aligned_chart_is_one_coordinate_change():
    # a cusp along the parabola y = x^2: the aligned coordinate is y - x^2
    inst = make(["x", "y", "z"], [], ["(y - x^2)^2 + z^3"], "full")
    ctx = inst.context
    _, center = inv_at(inst)
    change = center.change
    assert change.images["y"] == parse_poly(ctx, "y - x^2")
    assert change.inverse["y"] == parse_poly(ctx, "y + x^2")

    # the formulas of the two-dict chart (chart, inverse_chart) it replaced
    def ref_rewrite(f):
        return f.substitute(change.inverse, ctx)

    def ref_rewrite_derivation(d):
        coeffs = {u: ref_rewrite(d.apply(change.images[u])) for u in ctx.variables}
        return Derivation(ctx, {u: c for u, c in coeffs.items() if not c.is_zero()})

    f = inst.rees.generators[0][0]
    assert center.rewrite(f) == ref_rewrite(f) == parse_poly(ctx, "y^2 + z^3")
    for d in list(inst.foliation) + [parse_derivation(ctx, "x*d/dy + y^2*d/dz")]:
        assert _rewrite_derivation(center, d) == ref_rewrite_derivation(d)


def test_center_certificates_always_checked():
    for inst in [
        make(["x", "y"], [], ["x^2 + y^3"], "full"),
        make(["x", "y"], [], ["x^2 + y^3"], ["d/dx"]),
        make(["x", "y"], [], ["x*y"], ["x*d/dx - y*d/dy"]),
    ]:
        vec, center = inv_at(inst)
        assert center_inv(center) == vec
        assert is_admissible(inst.rees, center)


def test_cusp_with_its_symmetry():
    inst = make(["x", "y"], [], ["x*y"], ["x*d/dx - y*d/dy"])
    vec, center = inv_at(inst)
    # xy is invariant for the Euler-type field: no finite entry
    assert all(e.tier >= 1 for e in vec.entries)


def test_find_maximal_contact_normalizes():
    inst = make(["x", "y"], [], ["x^5 + y"], ["d/dx"])
    x1, word, d = find_maximal_contact(inst, 5)
    assert x1.coefficient({"x": 1}) == 1
    assert len(word) == 4


def test_find_maximal_contact_skips_higher_order_generator():
    # a = min(3/2, 2/2) = 1: x^3 is searched at a*b = 2 but has order 3;
    # the word comes from y^2, whose order is a*b = 2
    inst = make(["x", "y"], [], [], "full", rees=[("x^3", 2), ("y^2", 2)])
    x1, word, d = find_maximal_contact(inst, 1)
    assert x1 == parse_poly(inst.context, "y")
    assert word == (1,)
    assert d == Derivation.partial(inst.context, "y")


@pytest.mark.parametrize("variables,rees,fol", [
    (["x", "y"], [("y", 10), ("x^3", 1)], ["d/dx", "y*d/dy"]),
    (["x", "y", "z"], [("y*z", 5), ("x^3", 1)],
     ["d/dx", "y*d/dy", "z*d/dz"]),
])
def test_find_maximal_contact_passes_invariant_generator_quickly(
        variables, rees, fol):
    # the first generator is F-invariant (infinite order) and comes first
    # with a*b = 30 (beyond the truncation) or 15 (3^14 words, all giving
    # the same jet); the contact comes from x^3 at once
    inst = make(variables, [], [], fol, rees=rees)
    t0 = time.monotonic()
    x1, word, d = find_maximal_contact(inst, 3)
    assert time.monotonic() - t0 < 1.0
    assert x1 == parse_poly(inst.context, "x")
    assert word == (0, 0)
    assert d == Derivation.partial(inst.context, "x")


def test_find_maximal_contact_rejects_a_above_the_order():
    # ord_F(x^2 + x^3) = 2: a = 2 finds the contact, a = 3 finds none
    # (d/dx^2 is already a unit), as when the order was recomputed
    inst = make(["x"], [], ["x^2 + x^3"], ["d/dx"])
    x1, word, d = find_maximal_contact(inst, 2)
    assert x1 == parse_poly(inst.context, "x + 3/2*x^2")
    assert word == (0,)
    with pytest.raises(BudgetExhausted):
        find_maximal_contact(inst, 3)


def test_check_transverse_cases():
    ctx = RingContext(["x", "y"], truncation=16)
    F1 = Foliation(ctx, [parse_derivation(ctx, "d/dx")])
    inst = PointedInstance(ctx, ReesAlgebra(ctx, []), F1)
    assert check_transverse(inst, IdealGens(ctx, [parse_poly(ctx, "x")]))
    assert check_transverse(inst, IdealGens(ctx, [parse_poly(ctx, "x + y^2")]))
    assert not check_transverse(inst, IdealGens(ctx, [parse_poly(ctx, "y")]))
    assert not check_transverse(
        inst, IdealGens(ctx, [parse_poly(ctx, "x"), parse_poly(ctx, "y")]))
    inst2 = PointedInstance(ctx, ReesAlgebra(ctx, []), Foliation.full(ctx))
    assert check_transverse(
        inst2, IdealGens(ctx, [parse_poly(ctx, "x"), parse_poly(ctx, "y")]))


def test_functoriality_fresh_variables():
    base = make(["x", "y"], [], ["x^5 + y"], ["d/dx"])
    vec0, _ = inv_at(base)
    # fresh free variable with its coordinate field
    inst1 = make(["x", "y", "u"], [], ["x^5 + y"], ["d/dx", "d/du"])
    vec1, _ = inv_at(inst1)
    assert compare_inv(vec0, vec1) == 0
    # fresh divisorial variable with the log extension z*d/dz
    inst2 = make(["x", "y", "z"], ["z"], ["x^5 + y"], ["d/dx", "z*d/dz"])
    vec2, _ = inv_at(inst2)
    assert compare_inv(vec0, vec2) == 0
