"""Rectification of a transverse derivation and splitting of a foliation.

Given d with d(x1) a unit, the rectified coordinates are

    y_hat  =  sum_j (-x1)^j / j! * d^j(y)

for the rescaled d (so that d(x1) = 1).  This is the formal exp(-x1*d)
flow; it kills d up to the budget, which is asserted as a runtime
certificate (all terms of d(y_hat) have x1-degree >= budget).  The
displayed recursion in the source theorem carries the other sign and fails
this certificate, so the alternating form is the one implemented.

Splitting then completes {d/dx1} to a spanning set {d/dx1, nabla_j} with
each nabla independent of (x1, d/dx1): coefficients are corrected by the
fundamental solution mu of mu' = -mu*A, solved degree by degree in x1.
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

    @staticmethod
    def identity(ctx: RingContext) -> "CoordinateChange":
        ident = {v: Jet.variable(ctx, v) for v in ctx.variables}
        return CoordinateChange(ctx, ident, inverse=ident)

    def push_jet(self, f: Jet) -> Jet:
        """Rewrite a function of the old coordinates in the new ones."""
        return f.substitute(self.inverse, self.context)

    def pull_jet(self, f: Jet) -> Jet:
        return f.substitute(self.images, self.context)

    def push_derivation(self, d: Derivation) -> Derivation:
        coeffs = {}
        for v in self.context.variables:
            c = self.push_jet(d.apply(self.images[v]))
            if not c.is_zero():
                coeffs[v] = c
        return Derivation(self.context, coeffs)

    def then(self, other: "CoordinateChange") -> "CoordinateChange":
        """First self, then other (other's old coordinates are self's new)."""
        images = {v: other.images[v].substitute(self.images, self.context)
                  for v in self.context.variables}
        inverse = {v: self.inverse[v].substitute(other.inverse, self.context)
                   for v in self.context.variables}
        return CoordinateChange(self.context, images, inverse=inverse)


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

    def lift(self, f: Jet) -> Jet:
        """Lift a function on H = V(x1) into the kernel of the rectified
        derivation: substitute each hyperplane variable by its y_hat."""
        ctx = self.context
        imgs = {}
        for v in f.context.variables:
            if v == self.x1:
                raise ValueError("lift input must live on the hyperplane")
            imgs[v] = self.images[v]
        return f.substitute(imgs, ctx)


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


def is_independent(nabla: Derivation, x1: str) -> bool:
    """nabla(x1) = 0 and [nabla, d/dx1] = 0 below the truncation."""
    ctx = nabla.context
    if not nabla.apply(Jet.variable(ctx, x1)).is_zero():
        return False
    br = lie_bracket(Derivation.partial(ctx, x1), nabla)
    for c in br.coefficients.values():
        if c.is_zero():
            continue
        if (c.order() or 0) < ctx.truncation - 1:
            return False
    return True


def split_foliation(F: Foliation, x1: str, d: Derivation):
    """Rectify (x1, d) and return (chart, [d/dx1, nabla_1..nabla_m]) with
    the nablas independent of (x1, d/dx1).

    Raises when the input is not involutive to precision (the bracket
    [d/dx1, corrected generator] escapes the corrected span).
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
    if not corrected:
        return chart, [dx1]
    # bracket matrix: [d/dx1, H_i] = sum_j A_ij H_j
    deg = membership_degree(ctx, corrected, ctx.truncation - 1)
    amat = []
    for h in corrected:
        br = lie_bracket(dx1, h)
        if br.is_zero():
            amat.append([Jet.zero(ctx)] * len(corrected))
            continue
        coeffs = jet_module_coeffs(br, corrected, deg)
        if coeffs is None:
            raise ValueError(
                "foliation is not involutive to precision: bracket %s escapes" % br)
        amat.append(coeffs)
    nablas = _solve_mu_system(ctx, x1, corrected, amat, budget)
    for nb in nablas:
        if not is_independent(nb, x1):
            raise CertificateFailure("split generator %s is not independent of (%s, d/d%s)"
                                     % (nb, x1, x1))
    return chart, [dx1] + nablas


def _x1_decompose(f: Jet, x1: str, ctx: RingContext):
    """Write f = sum_k coeff_k * x1^k with coeff_k free of x1."""
    i = ctx.index(x1)
    out = {}
    for e, c in f.terms.items():
        k = e[i]
        ee = list(e)
        ee[i] = 0
        out.setdefault(k, {})[tuple(ee)] = c
    return {k: Jet(ctx, terms) for k, terms in out.items()}


def _solve_mu_system(ctx, x1, gens, amat, budget):
    """Solve mu' = -mu*A in powers of x1 (mu_0 = identity); return the
    corrected generators nabla_i = sum_j mu_ij H_j."""
    m = len(gens)
    x1jet = Jet.variable(ctx, x1)
    # decompose A in powers of x1
    adec = [[_x1_decompose(amat[i][j], x1, ctx) for j in range(m)] for i in range(m)]
    maxk = 0
    for row in adec:
        for cell in row:
            if cell:
                maxk = max(maxk, max(cell))
    # mu as list over powers k of m x m jet matrices (entries free of x1)
    one = Jet.const(ctx, 1)
    zero = Jet.zero(ctx)
    mu = [[[one if i == j else zero for j in range(m)] for i in range(m)]]
    for k in range(budget):
        nxt = [[zero for _ in range(m)] for _ in range(m)]
        any_nonzero = False
        for i in range(m):
            for j in range(m):
                acc = zero
                for l in range(m):
                    for p in range(k + 1):
                        cell = adec[l][j].get(k - p)
                        if cell is None:
                            continue
                        term = mu[p][i][l] * cell
                        if not term.is_zero():
                            acc = acc - term
                if not acc.is_zero():
                    nxt[i][j] = acc * Q(1, k + 1)
                    any_nonzero = True
        mu.append(nxt)
        if not any_nonzero:
            break
    nablas = []
    for i in range(m):
        total = Derivation.zero(ctx)
        for j in range(m):
            coeff = Jet.zero(ctx)
            for k, mat in enumerate(mu):
                if not mat[i][j].is_zero():
                    coeff = coeff + mat[i][j] * (x1jet ** k)
            if not coeff.is_zero():
                total = total + gens[j].scale(coeff)
        if not total.is_zero():
            nablas.append(total)
    return nablas
