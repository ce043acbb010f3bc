"""Rectified charts, liftings, and foliation splitting."""

from fractions import Fraction
import math

import pytest

from folprin import (
    CertificateFailure, CoordinateChange, Derivation, Foliation, Jet, Q,
    RingContext, invert_jet_map, parse_derivation, parse_poly,
    rectify_coordinate, split_foliation,
)
from folprin.rectify import is_independent

CTX = RingContext(["x", "y"], truncation=10)
CTXD = RingContext(["x", "y"], divisor=["y"], truncation=10)


def J(text, ctx=CTX):
    return parse_poly(ctx, text)


def D(text, ctx=CTX):
    return parse_derivation(ctx, text)


def test_trivial_rectification():
    ch = rectify_coordinate(D("d/dx"), "x")
    assert ch.images["y"] == J("y")
    assert ch.lift(parse_poly(CTX.drop("x"), "y")) == J("y")


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


def test_coordinate_change_push_pull():
    cc = CoordinateChange(CTX, {"y": J("y + x^2")})
    f = J("y + x^2")
    assert cc.push_jet(f) == J("y")
    assert cc.pull_jet(J("y")) == f
    d = cc.push_derivation(D("d/dx"))
    # d/dx in new coordinates gains a 2x d/dy component
    assert d.coefficient("x") == J("1")
    assert d.coefficient("y") == J("2*x")


def test_is_independent():
    assert is_independent(D("d/dy"), "x")
    assert is_independent(D("y*d/dy"), "x")
    assert not is_independent(D("x*d/dy"), "x")


def test_split_trivial():
    F = Foliation(CTX, [D("d/dx"), D("d/dy")])
    chart, gens = split_foliation(F, "x", D("d/dx"))
    assert gens[0] == Derivation.partial(CTX, "x")
    assert len(gens) == 2
    assert is_independent(gens[1], "x")


def test_split_mu_correction():
    ctx = RingContext(["x", "y", "z"], truncation=10)
    F = Foliation(ctx, [parse_derivation(ctx, "d/dx"),
                        parse_derivation(ctx, "d/dy + x*d/dz"),
                        parse_derivation(ctx, "d/dz")])
    chart, gens = split_foliation(F, "x", parse_derivation(ctx, "d/dx"))
    assert gens[0] == Derivation.partial(ctx, "x")
    for nb in gens[1:]:
        assert is_independent(nb, "x")
    got = {str(d) for d in gens}
    assert got == {"d/dx", "d/dy", "d/dz"}


def test_split_single_generator():
    F = Foliation(CTX, [D("d/dx - y*d/dy")])
    chart, gens = split_foliation(F, "x", D("d/dx - y*d/dy"))
    assert gens == [Derivation.partial(CTX, "x")]
