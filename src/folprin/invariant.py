"""The inv_F recursion: maximal contact, coefficient descent, F^infty
fallback, and the invariant-maximal aligned center.

Case I (finite order a): extract a maximal contact coordinate from a
derivative word of length a*b-1, change coordinates so it becomes a
variable, rectify and split the foliation along it, restrict the
coefficient Rees algebra to the contact hyperplane and recurse; the entry a
is prepended and the contact variable joins the transverse tier with weight
a.

Case II (infinite order): saturate R under F at fixed degrees, then enlarge
the foliation (F -> D^log -> D, clearing divisor flags on the last step) and
tier-lift the recursive answer by one infinity marker.  Whether F already
equals D^log is one exact rank: F lies in the free module D^log, so by
Nakayama's lemma F = D^log exactly when the constant terms of F in the log
basis have rank n (`foliation.log_rank_at`).

The returned center is certified on the way out: admissibility of the input
R and agreement between the recursion's invariant vector and the center's
own tier vector.
"""

from __future__ import annotations

from itertools import islice

from .foliation import (
    BudgetExhausted, Foliation, INFINITE, IdealGens, derivative_levels,
    distinct_jets, f_infty, f_order_rees, log_rank_at,
)
from .kernel import Jet, Q, RingContext, rank
from .rectify import (
    CertificateFailure, CoordinateChange, invert_jet_map, split_foliation,
)
from .rees import (
    TIER_INF2, Center, InvValue, InvVector, ReesAlgebra, center_inv,
    coefficient_rees, fin, is_admissible, rees_from_ideal,
)


class PointedInstance:
    """An (R, F) pair at the origin of its context."""

    __slots__ = ("context", "rees", "foliation")

    def __init__(self, context: RingContext, rees: ReesAlgebra, foliation: Foliation):
        if rees.context != context or foliation.context != context:
            raise ValueError("instance pieces live in different contexts")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "rees", rees)
        object.__setattr__(self, "foliation", foliation)

    def __setattr__(self, *a):
        raise AttributeError("PointedInstance is immutable")


def find_maximal_contact(inst: PointedInstance, a):
    """First maximal contact element in deterministic order: generators of
    R by index, derivative words over F generators in shortlex.

    A generator has ord_F(f) = a*b exactly when a*b is a whole number
    within the truncation (`f_order_at` gives up beyond it), no shorter
    word gives a unit and a word of length a*b does; only such generators
    are searched.  With a = min ord_F(f)/b every generator has
    ord_F(f) >= a*b, so the shorter-word test never fires.

    Returns (x1 jet normalized to unit linear coefficient, word, d).
    """
    R, F = inst.rees, inst.foliation
    a = Q(a)
    for f, b in R.generators:
        n = a * b
        if n.denominator != 1 or not 1 <= n <= inst.context.truncation:
            continue
        levels = derivative_levels(F, [(f, ())], distinct_jets)
        for k, level in enumerate(islice(levels, int(n) + 1)):
            units = [(g, w) for g, w in level if g.is_unit()]
            if units and k < n:
                break  # ord_F(f) < a*b
            if units:
                dg, word = units[0]
                x1 = parent[word[:-1]] * (Q(1) / dg.constant_term())
                return x1, word[:-1], F.generators[word[-1]]
            parent = {w: g for g, w in level}
    raise BudgetExhausted(
        "no maximal contact found at order %s despite finite F-order "
        "(precision exhausted)" % a)


def _contact_variable(ctx: RingContext, x1: Jet) -> str:
    """The free variable carrying the contact coordinate: first in context
    order with a nonzero linear coefficient."""
    for v in ctx.variables:
        if ctx.is_divisor(v):
            continue
        if x1.coefficient({v: 1}) != 0:
            return v
    raise CertificateFailure(
        "maximal contact %s has no free linear variable" % x1)


def _worker(ctx: RingContext, R: ReesAlgebra, F: Foliation, depth: int):
    """Returns (pairs, inverse map).

    pairs: (variable, InvValue) per entry of inv_F in recursion order, the
           value being the variable's weight in its tier; the unit case's
           (0) is (None, fin(0)).
    map:   dict ambient-variable -> jet in the aligned coordinates of the
           same context (names are reused through every change); a variable
           left out is unchanged."""
    if depth > len(ctx.variables) * 3 + 6:
        raise BudgetExhausted("invariant recursion failed to terminate")
    if R.is_trivial():
        return [], {}
    if R.has_unit_generator():
        # the point is off the support: minimal invariant, empty center
        return [(None, fin(0))], {}
    a = f_order_rees(F, R)
    if a != INFINITE:
        return _case_one(ctx, R, F, Q(a), depth)
    return _case_two(ctx, R, F, depth)


def _case_one(ctx, R, F, a, depth):
    x1, word, d = find_maximal_contact(PointedInstance(ctx, R, F), a)
    v = _contact_variable(ctx, x1)
    cc = CoordinateChange(ctx, {v: x1})
    R1 = ReesAlgebra(ctx, [(cc.push_jet(f), b) for f, b in R.generators])
    F1 = Foliation(ctx, [cc.push_derivation(g) for g in F.generators])
    d1 = cc.push_derivation(d)
    C = coefficient_rees(R1, F1, a)
    chart, FH = split_foliation(F1, v, d1)
    rect = chart.change
    Csub = ReesAlgebra(FH.context, [(rect.push_jet(f).restrict(v), b)
                                    for f, b in C.generators])
    sub_pairs, sub_map = _worker(FH.context, Csub, FH, depth + 1)
    # compose the inverses: ambient -> contact coords -> rectified coords
    # -> sub-aligned
    lifted_sub = {w: g.rename(ctx) for w, g in sub_map.items()}
    out_map = {u: cc.inverse[u].substitute(rect.inverse, ctx)
               .substitute(lifted_sub, ctx) for u in ctx.variables}
    return [(v, fin(a))] + sub_pairs, out_map


def _case_two(ctx, R, F, depth):
    Rinf = f_infty(F, R)
    if log_rank_at(F) < len(ctx.variables):
        # enlarge F to the log tangent sheaf; one infinity marker
        sub_pairs, sub_map = _worker(ctx, Rinf, Foliation.full(ctx), depth + 1)
        return [(v, e.lifted()) for v, e in sub_pairs], sub_map
    if not ctx.divisor:
        raise CertificateFailure(
            "F spans the full tangent sheaf yet the order is infinite")
    # F is the full log tangent sheaf: pass to all derivations by clearing
    # the divisor flags.  Variables detected below that are divisor
    # components land in the divisorial tier (two markers); free ones in
    # the invariant tier.
    ctx2 = ctx.clear_divisor()
    sub_pairs, sub_map = _worker(ctx2, Rinf.rename(ctx2), Foliation.full(ctx2),
                                 depth + 1)
    pairs = [(v, InvValue(TIER_INF2, e.offset) if ctx.is_divisor(v)
              else e.lifted()) for v, e in sub_pairs]
    return pairs, {u: g.rename(ctx) for u, g in sub_map.items()}


def inv_at(inst: PointedInstance):
    """Compute (InvVector, Center) for the instance at the origin.

    The center's admissibility for the input R is asserted before
    returning, as is agreement of the invariant vector with the center's
    tier vector.
    """
    ctx = inst.context
    pairs, inv_map = _worker(ctx, inst.rees, inst.foliation, 0)
    vec = InvVector(e for _, e in pairs)
    tiers = [[(v, e.offset) for v, e in pairs if v is not None and e.tier == t]
             for t in range(3)]
    identity = all(g == Jet.variable(ctx, u) for u, g in inv_map.items())
    change = None if identity else CoordinateChange(
        ctx, invert_jet_map(ctx, inv_map), inverse=inv_map)
    center = Center(ctx, transverse=tiers[0], invariant=tiers[1],
                    divisorial=tiers[2], change=change)
    if not center.is_empty():
        if not is_admissible(inst.rees, center):
            raise CertificateFailure(
                "computed center %s is not admissible for %s" % (center, inst.rees))
        cvec = center_inv(center)
        if cvec != vec:
            raise CertificateFailure(
                "recursion vector %s disagrees with center vector %s" % (vec, cvec))
    return vec, center


def check_transverse(inst: PointedInstance, Y: IdealGens) -> bool:
    """Transverse-section criterion: inv of O[tI_Y] is all ones of length
    equal to the codimension (rank of the generators' linear parts)."""
    vec, _ = inv_at(PointedInstance(inst.context, rees_from_ideal(Y),
                                    inst.foliation))
    p = rank([[g.coefficient({v: 1}) for v in inst.context.variables]
              for g in Y.generators])
    return (len(vec) == p
            and all(e == fin(1) for e in vec.entries))
