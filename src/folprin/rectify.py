"""Rectification of a transverse derivation and splitting of a foliation.

Given d with d(x1) a unit, the rectified coordinates are

    y_hat  =  sum_j (-x1)^j / j! * d^j(y)

for the rescaled d (so that d(x1) = 1).  This is the formal exp(-x1*d)
flow; it kills d up to the budget, which is asserted as a runtime
certificate (all terms of d(y_hat) have x1-degree >= budget).  The
displayed recursion in the source theorem carries the other sign and fails
this certificate, so the alternating form is the one implemented.

Splitting restricts the foliation to H = V(x1).  In rectified coordinates
d = d/dx1 lies in F, so F = <d/dx1> + <H_i> with H_i the generators minus
their d/dx1 part.  Involutivity gives [d/dx1, H_i] = sum_j A_ij H_j, and the
fundamental solution mu of mu' = -mu*A with mu(0) = 1 turns the H_i into
generators sum_j mu_ij H_j free of x1: F = <d/dx1> (+) F_H.  At x1 = 0 they
are the H_i themselves, so F_H is generated by the H_i at x1 = 0 and no ODE
is solved.  The bracket solve is kept as the certificate: every residual
[d/dx1, H_i] - sum_j A_ij H_j has coefficients of order >= N - 1, which is
the same as [d/dx1, sum_j mu_ij H_j] = sum_j mu_ij r_j vanishing there,
because mu is invertible.
"""

from __future__ import annotations

from typing import Mapping

from .foliation import (
    BudgetExhausted, Derivation, Foliation, jet_module_coeffs, lie_bracket,
    membership_degree,
)
from .kernel import Jet, Q, RingContext, inverse, scalar_multiple


class CertificateFailure(AssertionError):
    """A construction failed its own paper-mandated certificate."""


class CoordinateChange:
    """An origin-preserving jet coordinate change on a fixed variable set.

    images[v] is the new coordinate named v expressed in the old
    coordinates; inverse[v] goes the other way.  Both directions are kept
    to the full truncation.
    """

    __slots__ = ("context", "images", "inverse")

    def __init__(self, context: RingContext, images: Mapping[str, Jet], inverse=None):
        full = {}
        for v in context.variables:
            g = images.get(v, Jet.variable(context, v))
            if g.constant_term() != 0:
                raise ValueError("coordinate change must preserve the origin")
            full[v] = g
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "images", full)
        object.__setattr__(self, "inverse",
                           dict(inverse) if inverse is not None
                           else invert_jet_map(context, full))

    def __setattr__(self, *a):
        raise AttributeError("CoordinateChange is immutable")

    def push_jet(self, f: Jet) -> Jet:
        """Rewrite a function of the old coordinates in the new ones."""
        return f.substitute(self.inverse, self.context)

    def push_derivation(self, d: Derivation) -> Derivation:
        coeffs = {}
        for v in self.context.variables:
            c = self.push_jet(d.apply(self.images[v]))
            if not c.is_zero():
                coeffs[v] = c
        return Derivation(self.context, coeffs)


def invert_jet_map(ctx: RingContext, images: Mapping[str, Jet]) -> dict:
    """Invert an origin-preserving jet map with invertible linear part.

    The inverse solves  old = Ainv * (new - h(old)),  h the nonlinear tail
    (of order >= 2), so one step of that fixed point turns an inverse that
    is right below degree k into one that is right through degree k.  The
    inverse is lifted one degree at a time from the linear part: step k
    runs at truncation k, so the early steps work on short jets (series
    reversion by precision lifting, Brent & Kung 1978).  A step that adds
    nothing hints that the inverse is a polynomial of lower degree: one
    full-order step follows, and when that is a fixed point the inverse is
    final.  A linear map (every tail zero) needs no step.  Either way the
    round trip images(inverse) = identity is checked at the end.
    """
    ainv = inverse([[images[v].coefficient({w: 1}) for w in ctx.variables]
                    for v in ctx.variables])
    if ainv is None:
        raise ValueError("coordinate change has singular linear part")
    tails = {}
    for v in ctx.variables:
        t = images[v]
        for w in ctx.variables:
            c = t.coefficient({w: 1})
            if c:
                t = t - Jet.variable(ctx, w) * c
        tails[v] = t

    def step(cur, c):
        """Ainv * (new - h(cur)) in context c; cur is renamed into c."""
        cur = {w: g.rename(c) for w, g in cur.items()}
        corr = {v: Jet.variable(c, v) - tails[v].rename(c).substitute(cur, c)
                for v in ctx.variables}
        nxt = {}
        for j, w in enumerate(ctx.variables):
            acc = Jet.zero(c)
            for i, v in enumerate(ctx.variables):
                if ainv[j][i]:
                    acc = acc + corr[v] * ainv[j][i]
            nxt[w] = acc
        return cur, nxt

    current = {}
    for j, w in enumerate(ctx.variables):
        acc = Jet.zero(ctx)
        for i, v in enumerate(ctx.variables):
            if ainv[j][i]:
                acc = acc + Jet.variable(ctx, v) * ainv[j][i]
        current[w] = acc
    if any(not t.is_zero() for t in tails.values()):
        for k in range(2, ctx.truncation + 1):
            cur, nxt = step(current, ctx.with_truncation(k))
            if nxt == cur:
                full, nxt_full = step(cur, ctx)
                if nxt_full == full:
                    break
            current = nxt
        current = {w: g.rename(ctx) for w, g in current.items()}
    # sanity: composing forward then inverse must give the identity
    for v in ctx.variables:
        back = images[v].substitute(current, ctx)
        if back != Jet.variable(ctx, v):
            raise CertificateFailure("jet map inversion failed for %s" % v)
    return current


class RectifiedChart:
    """The nested-regular chart produced by rectifying (x1, d)."""

    __slots__ = ("context", "x1", "change", "rescaled", "budget")

    def __init__(self, context, x1, change, rescaled, budget):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "change", change)
        object.__setattr__(self, "rescaled", rescaled)
        object.__setattr__(self, "budget", budget)

    def __setattr__(self, *a):
        raise AttributeError("RectifiedChart is immutable")

    @property
    def images(self):
        return self.change.images


def rectify_coordinate(d: Derivation, x1: str, budget: int = None) -> RectifiedChart:
    """Build the rectified chart for (x1, d); requires d(x1) to be a unit.

    The certificate d(y_hat) in (x1)^budget is asserted for every rectified
    coordinate, and divisor variables are checked to rectify to unit
    multiples of themselves.
    """
    ctx = d.context
    if budget is None:
        budget = ctx.truncation
    if budget > ctx.truncation:
        raise BudgetExhausted("rectification budget exceeds truncation")
    u = d.apply(Jet.variable(ctx, x1))
    if not u.is_unit():
        raise ValueError("d(%s) is not a unit; cannot rectify" % x1)
    dr = d.scale(u.inverse())
    mx = Jet.variable(ctx, x1) * Q(-1)
    images = {}
    for v in ctx.variables:
        if v == x1:
            continue
        acc = Jet.variable(ctx, v)
        term = Jet.variable(ctx, v)
        fact = Q(1)
        xpow = Jet.const(ctx, 1)
        for j in range(1, budget + 1):
            term = dr.apply(term)
            if term.is_zero():
                break
            fact *= j
            xpow = xpow * mx
            acc = acc + xpow * term * (Q(1) / fact)
        images[v] = acc
    chart = CoordinateChange(ctx, images)
    # certificate (b): the rescaled derivation kills each y_hat to order budget
    for v, img in images.items():
        if v == x1:
            continue
        res = dr.apply(img)
        i1 = ctx.index(x1)
        for e in res.terms:
            # terms of total degree >= budget sit beyond the certified
            # precision (the series itself is truncated); below that the
            # x1-order bound must hold on the nose
            if e[i1] < budget and sum(e) < budget:
                raise CertificateFailure(
                    "d(y_hat) for %s has x1-order %d < budget %d" % (v, e[i1], budget))
    # certificate (c): divisor variables stay divisorial
    for z in ctx.divisor:
        if z == x1:
            raise ValueError("transverse coordinate cannot be divisorial")
        img = images[z]
        if img.var_order(z) != 1 and not img.is_zero():
            raise CertificateFailure("divisor variable %s did not rectify to (unit)*%s" % (z, z))
    return RectifiedChart(ctx, x1, chart, dr, budget)


def split_foliation(F: Foliation, x1: str, d: Derivation):
    """Rectify (x1, d) and return (chart, F_H): F = <d/dx1> (+) F_H in the
    rectified chart, F_H the foliation on H = V(x1) in ctx.drop(x1).

    Raises ValueError when the input is not involutive to precision (the
    bracket [d/dx1, H_i] escapes the span of the H_j), and
    CertificateFailure when the solved bracket leaves a residual below
    order N - 1.
    """
    ctx = F.context
    budget = ctx.truncation
    chart = rectify_coordinate(d, x1, budget)
    dx1 = Derivation.partial(ctx, x1)
    # push generators into rectified coordinates and kill their d/dx1 part
    corrected, kept_terms = [], []
    for g in F.generators:
        gg = chart.change.push_derivation(g)
        # coefficients are certified only below the rectification budget
        gg = Derivation(ctx, {v: c.truncate(budget - 1)
                              for v, c in gg.coefficients.items()})
        cx = gg.coefficient(x1)
        if not cx.is_zero():
            gg = gg - dx1.scale(cx)
        # drop scalar multiples of a kept generator, compared on the
        # flattened terms {(v, e): c}
        flat = {(v, e): a for v, c in gg.coefficients.items()
                for e, a in c.terms.items()}
        if flat and not any(scalar_multiple(flat, h) for h in kept_terms):
            corrected.append(gg)
            kept_terms.append(flat)
    # certificate: [d/dx1, H_i] = sum_j A_ij H_j up to order N - 1
    deg = membership_degree(ctx, corrected, ctx.truncation - 1)
    for h in corrected:
        br = lie_bracket(dx1, h)
        if br.is_zero():
            continue
        coeffs = jet_module_coeffs(br, corrected, deg)
        if coeffs is None:
            raise ValueError(
                "foliation is not involutive to precision: bracket %s escapes" % br)
        for a, hj in zip(coeffs, corrected):
            br = br - hj.scale(a)
        if any(c.order() < ctx.truncation - 1 for c in br.coefficients.values()):
            raise CertificateFailure(
                "bracket [d/d%s, %s] leaves the residual %s" % (x1, h, br))
    sub = ctx.drop(x1)
    return chart, Foliation(sub, [
        Derivation(sub, {v: c.restrict(x1) for v, c in h.coefficients.items()})
        for h in corrected])
