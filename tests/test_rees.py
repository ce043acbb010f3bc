"""Rees algebras, centers, admissibility, and the invariant value order."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folprin import (
    Center, CoordinateChange, Derivation, Foliation, IdealGens, InvValue, InvVector, Jet, Q,
    ReesAlgebra, RingContext, TOP, center_inv, coefficient_rees, compare_inv,
    fin, ideal_from_rees, is_admissible, parse_derivation, parse_poly,
    rees_from_ideal,
)
from folprin.rees import center_graded_piece, rational_lcm

CTX = RingContext(["x", "y"], truncation=10)
CTXD = RingContext(["x", "y", "z"], divisor=["z"], truncation=10)


def J(text, ctx=CTX):
    return parse_poly(ctx, text)


# -- Rees algebras -----------------------------------------------------------

def test_rees_basics():
    R = ReesAlgebra(CTX, [(J("x^2"), Q(2)), (J("y"), Q(1))])
    assert not R.is_trivial()
    assert not R.has_unit_generator()
    assert ReesAlgebra(CTX, []).is_trivial()
    assert ReesAlgebra(CTX, [(J("1+x"), Q(1))]).has_unit_generator()


def test_rees_from_ideal_roundtrip():
    I = IdealGens(CTX, [J("x^2"), J("y")])
    R = rees_from_ideal(I)
    assert set(R.degrees()) == {Q(1)}
    back = ideal_from_rees(R)
    assert set(back.generators) == set(I.generators)


def test_rational_lcm():
    assert rational_lcm([Q(4), Q(7), Q(20)]) == 140
    assert rational_lcm([Q(1, 2), Q(1, 3)]) == 1
    assert rational_lcm([Q(3, 2)]) == Q(3, 2)


# -- centers -----------------------------------------------------------------

def test_center_tier_flag_enforcement():
    with pytest.raises(ValueError):
        Center(CTXD, transverse=[("z", Q(1))])       # flagged var, free tier
    with pytest.raises(ValueError):
        Center(CTXD, divisorial=[("x", Q(1))])       # free var, flagged tier
    C = Center(CTXD, transverse=[("x", Q(2))], divisorial=[("z", Q(1))])
    assert C.weights() == {"x": Q(2), "z": Q(1)}
    assert C.variables() == ["x", "z"]


def test_center_weights_sorted_ascending():
    C = Center(CTX, transverse=[("y", Q(3)), ("x", Q(1))])
    assert C.transverse == (("x", Q(1)), ("y", Q(3)))


def test_graded_piece_and_admissibility():
    C = Center(CTX, transverse=[("x", Q(2)), ("y", Q(1))])
    # weighted order of x^a y^b is a/2 + b
    assert center_graded_piece(C, Q(1))(J("x^2"))
    assert center_graded_piece(C, Q(1))(J("y"))
    assert not center_graded_piece(C, Q(1))(J("x"))
    assert center_graded_piece(C, Q(3, 2))(J("x*y + x^3"))    # both exactly 3/2
    assert not center_graded_piece(C, Q(3, 2))(J("x*y + x^2"))
    assert center_graded_piece(C, Q(5))(Jet.zero(CTX))
    assert center_graded_piece(C, Q(0))(J("1 + x"))
    R = rees_from_ideal(IdealGens(CTX, [J("x^2 + y")]))
    assert is_admissible(R, C)
    C3 = Center(CTX, transverse=[("x", Q(3)), ("y", Q(1))])
    assert not is_admissible(rees_from_ideal(IdealGens(CTX, [J("x^2")])), C3)


def test_admissibility_through_chart():
    # center along the curve y = x^2: the aligned coordinate is y - x^2
    change = CoordinateChange(CTX, {"y": J("y - x^2")})
    assert change.inverse["y"] == J("y + x^2")
    C = Center(CTX, transverse=[("y", Q(1))], change=change)
    R = rees_from_ideal(IdealGens(CTX, [J("y - x^2")]))
    assert is_admissible(R, C)
    R2 = rees_from_ideal(IdealGens(CTX, [J("y + x^2")]))
    assert not is_admissible(R2, C)


def test_coefficient_rees_contains_derivative_shifts():
    F = Foliation(CTX, [parse_derivation(CTX, "d/dx")])
    R = ReesAlgebra(CTX, [(J("x^2 + y^2"), Q(1))])
    C = coefficient_rees(R, F, Q(2))
    # d(f) = 2x enters at fractional degree (2-1)/2
    degs = {(str(f), b) for f, b in C.generators}
    assert any(b == Q(1, 2) for _, b in C.generators)


def test_coefficient_rees_walks_each_jet_once(monkeypatch):
    # y*z is F-invariant: each of the 2^k words of length k over y*d/dy,
    # z*d/dz gives y*z again, so walking every word of length below
    # a*b = 12 applies 3 * (2^11 - 1) derivations to it
    ctx = RingContext(["x", "y", "z"], truncation=10)
    F = Foliation(ctx, [parse_derivation(ctx, t)
                        for t in ("d/dx", "y*d/dy", "z*d/dz")])
    R = ReesAlgebra(ctx, [(J("y*z", ctx), Q(4)), (J("x^3", ctx), Q(1))])
    calls = [0]
    apply = Derivation.apply

    def counting_apply(d, f):
        calls[0] += 1
        return apply(d, f)

    monkeypatch.setattr(Derivation, "apply", counting_apply)
    C = coefficient_rees(R, F, Q(3))
    monkeypatch.undo()
    want = {("y*z", Q(12 - k, 3)) for k in range(12)}
    want |= {("x^3", Q(1)), ("3*x^2", Q(2, 3)), ("6*x", Q(1, 3))}
    assert {(str(f), b) for f, b in C.generators} == want
    # 3 derivations on one jet per level: 11 levels of y*z, 2 of x^3
    assert calls[0] <= 3 * 13


# -- the invariant value order ----------------------------------------------

def test_invvalue_tiers_and_lift():
    assert fin(2) < fin(3) < InvValue(1, 0) < InvValue(1, 5) < InvValue(2, 0) < TOP
    assert fin(1).lifted() == InvValue(1, 1)
    assert InvValue(2, 3).lifted() == InvValue(2, 3)   # saturation
    with pytest.raises(ValueError):
        TOP.lifted()
    with pytest.raises(ValueError):
        InvValue(0, -1)


def test_invvector_hash_ignores_trailing_top_padding():
    short, padded = InvVector((fin(2),)), InvVector((fin(2), TOP))
    assert short == padded and hash(short) == hash(padded)
    assert len({short, padded, InvVector((fin(2), TOP, TOP))}) == 1
    assert len({InvVector(()), InvVector((TOP,))}) == 1
    assert len({short, InvVector((TOP, fin(2)))}) == 2


def test_footnote_chain():
    chain = [
        InvVector([fin(2), fin(3)]),
        InvVector([fin(2), fin(4)]),
        InvVector([fin(2)]),
        InvVector([fin(3), fin(3)]),
        InvVector([InvValue(1, 1), InvValue(1, 5)]),
    ]
    for a, b in zip(chain, chain[1:]):
        assert compare_inv(a, b) == -1


def _random_vec(rng):
    n = rng.randint(0, 3)
    return InvVector([InvValue(rng.randint(0, 2), Q(rng.randint(0, 6), rng.randint(1, 3)))
                      for _ in range(n)])


def test_compare_inv_total_order_axioms():
    rng = random.Random(20240817)
    vecs = [_random_vec(rng) for _ in range(200)]
    for a in vecs[:50]:
        assert compare_inv(a, a) == 0
    for a in vecs:
        for b in vecs[:20]:
            assert compare_inv(a, b) == -compare_inv(b, a)
    # transitivity via sorted order consistency
    import functools
    s = sorted(vecs, key=functools.cmp_to_key(compare_inv))
    for a, b in zip(s, s[1:]):
        assert compare_inv(a, b) <= 0


def test_center_inv_tiers():
    C = Center(CTXD, transverse=[("x", Q(2))], invariant=[("y", Q(1))],
               divisorial=[("z", Q(3))])
    assert center_inv(C) == InvVector([fin(2), InvValue(1, 1), InvValue(2, 3)])
