"""Derivations, foliations, F-derivative chains and order, rank tests.

A derivation is a vector field sum_v c_v d/dv with jet coefficients.  It is
logarithmic when the coefficient of every divisor-flagged variable z lies in
(z); foliations are finite generator lists inside the logarithmic tangent
sheaf, involutive up to truncation.

Module membership (involutivity, F-invariance, stabilization of derivative
chains) is decided by exact linear algebra over Q on monomial multiples up
to a degree bound, never by Groebner bases; the integer Macaulay system of
one (generators, degree) is built once and reused by consecutive tests.
Every such verdict is therefore a "to precision D" verdict; the bound is
chosen as the degree of the data plus a slack, capped by the remaining
truncation budget, and chain iterations that exhaust the budget raise
BudgetExhausted instead of guessing.  The one exception is whether F
equals D^log: by Nakayama's lemma that is the rank of F's constant terms
in the log basis (`log_rank_at`), an exact power-series verdict that
reads only degree 0.

ord_F, R^infty, F-invariance, the coefficient algebra and the maximal
contact search walk F-derivatives with `derivative_levels`: level 0 is
the seeds, and level k+1 is what the caller's prune keeps of the nonzero
(d_i(g), word + (i,)), for each (g, word) of level k in order and each
generator d_i of F in order.  One seed's words thus come in shortlex
order; a prune that wants derivation-major order sorts stably on the
last letter.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from operator import add
from typing import Iterable, Mapping, Optional

from .kernel import (
    ContextMismatch, IdealGens, Jet, Q, RingContext, _integer_terms, linsolve,
    parse_poly, rank,
)

MEMBERSHIP_SLACK = 4

INFINITE = "INFINITE"


class BudgetExhausted(RuntimeError):
    """Truncation precision ran out before a verdict was reached."""


class NotLogarithmic(ValueError):
    pass


class Derivation:
    __slots__ = ("context", "coefficients")

    def __init__(self, context: RingContext, coefficients: Mapping[str, Jet]):
        coeffs = {}
        for v, c in coefficients.items():
            if v not in context.variables:
                raise ValueError("coefficient for unknown variable %r" % v)
            if c.context != context:
                raise ContextMismatch("coefficient jet in a foreign context")
            if not c.is_zero():
                coeffs[v] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Derivation is immutable")

    @staticmethod
    def zero(ctx: RingContext) -> "Derivation":
        return Derivation(ctx, {})

    @staticmethod
    def partial(ctx: RingContext, name: str) -> "Derivation":
        return Derivation(ctx, {name: Jet.const(ctx, 1)})

    def coefficient(self, v: str) -> Jet:
        return self.coefficients.get(v, Jet.zero(self.context))

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_logarithmic(self) -> bool:
        for z in self.context.divisor:
            c = self.coefficients.get(z)
            if c is not None and c.var_order(z) == 0:
                return False
        return True

    def apply(self, f: Jet) -> Jet:
        if f.context != self.context:
            raise ContextMismatch("derivation applied to a foreign jet")
        out = Jet.zero(self.context)
        for v, c in self.coefficients.items():
            out = out + c * f.partial(v)
        return out

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.context != other.context:
            raise ContextMismatch("derivation contexts differ")
        coeffs = dict(self.coefficients)
        for v, c in other.coefficients.items():
            coeffs[v] = coeffs.get(v, Jet.zero(self.context)) + c
        return Derivation(self.context, coeffs)

    def __neg__(self):
        return Derivation(self.context, {v: -c for v, c in self.coefficients.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, g) -> "Derivation":
        """Multiply by a jet or rational."""
        if not isinstance(g, Jet):
            g = Jet.const(self.context, g)
        return Derivation(self.context,
                          {v: g * c for v, c in self.coefficients.items()})

    def translate(self, point: Mapping[str, Fraction]) -> "Derivation":
        return Derivation(self.context,
                          {v: c.translate(point) for v, c in self.coefficients.items()})

    def rename(self, target: RingContext, mapping=None) -> "Derivation":
        mapping = mapping or {}
        return Derivation(target, {mapping.get(v, v): c.rename(target, mapping)
                                   for v, c in self.coefficients.items()})

    def __eq__(self, other):
        return (isinstance(other, Derivation)
                and self.context == other.context
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash((self.context,
                     frozenset((v, c) for v, c in self.coefficients.items())))

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for v in self.context.variables:
            c = self.coefficients.get(v)
            if c is None:
                continue
            if c == Jet.const(self.context, 1):
                parts.append("d/d%s" % v)
            elif len(c.terms) == 1:
                parts.append("%s*d/d%s" % (c, v))
            else:
                parts.append("(%s)*d/d%s" % (c, v))
        return " + ".join(parts)

    __repr__ = __str__


def lie_bracket(a: Derivation, b: Derivation) -> Derivation:
    if a.context != b.context:
        raise ContextMismatch("derivation contexts differ")
    ctx = a.context
    coeffs = {}
    for v in ctx.variables:
        c = a.apply(b.coefficient(v)) - b.apply(a.coefficient(v))
        if not c.is_zero():
            coeffs[v] = c
    return Derivation(ctx, coeffs)


class Foliation:
    __slots__ = ("context", "generators")

    def __init__(self, context: RingContext, generators: Iterable[Derivation]):
        gens = []
        for d in generators:
            if d.context != context:
                raise ContextMismatch("generator in a foreign context")
            if d.is_zero():
                continue
            if not d.is_logarithmic():
                raise NotLogarithmic("generator %s is not logarithmic" % d)
            gens.append(d)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "generators", tuple(gens))

    def __setattr__(self, *a):
        raise AttributeError("Foliation is immutable")

    @staticmethod
    def zero(ctx: RingContext) -> "Foliation":
        return Foliation(ctx, ())

    @staticmethod
    def full(ctx: RingContext) -> "Foliation":
        """D^log: coordinate fields on free variables, z d/dz on divisors."""
        gens = []
        for v in ctx.variables:
            if ctx.is_divisor(v):
                gens.append(Derivation(ctx, {v: Jet.variable(ctx, v)}))
            else:
                gens.append(Derivation.partial(ctx, v))
        return Foliation(ctx, gens)

    def is_zero(self) -> bool:
        return not self.generators

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def translate(self, point) -> "Foliation":
        return Foliation(self.context, [d.translate(point) for d in self.generators])

    def rename(self, target, mapping=None) -> "Foliation":
        return Foliation(target, [d.rename(target, mapping) for d in self.generators])

    def __str__(self):
        return "span(%s)" % "; ".join(str(d) for d in self.generators)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# membership by linear algebra

def _monomials_upto(nvars: int, degree: int):
    """(|m|, m) for the exponents m of degree <= `degree`, by degree."""
    idx = range(nvars)
    return [(d, tuple(map(c.count, idx))) for d in range(degree + 1)
            for c in combinations_with_replacement(idx, d)]


def _components(obj, ctx):
    """A Derivation's (variable, nonzero coefficient) pairs, or (None, jet)."""
    if isinstance(obj, Derivation):
        return [(v, obj.coefficients[v]) for v in ctx.variables
                if v in obj.coefficients]
    return [(None, obj)]


_last_system = None     # ((gens, degree), system) of the last build


def _macaulay_system(gens, ctx, degree):
    """(row index keyed by (component, exponent), integer columns, their
    (generator i, monomial m) keys, each generator's denominator).  A
    nonzero generator g has one column per m with |m| + ord(g) <= degree,
    in `_monomials_upto` order; its cells are g's numerators over its common
    denominator, each written once (e -> e + m is injective)."""
    index, columns, col_keys, dens = {}, [], [], []
    monos = _monomials_upto(len(ctx.variables), degree)
    for i, g in enumerate(gens):
        comps = [(comp, _integer_terms(c)) for comp, c in _components(g, ctx)]
        dens.append(lcm(*(d for _, (_, d) in comps)))
        comps = [(comp, [(k, e, c * (dens[i] // d)) for k, e, c in ints])
                 for comp, (ints, d) in comps if ints]
        gord = min((ints[0][0] for _, ints in comps), default=degree + 1)
        for dm, m in monos:
            if dm + gord > degree:
                break
            col = {}
            for comp, ints in comps:
                for k, e, c in ints:
                    if k + dm > degree:
                        break
                    key = (comp, tuple(map(add, e, m)))
                    col[index.setdefault(key, len(index))] = c
            columns.append(col)
            col_keys.append((i, m))
    return index, columns, col_keys, dens


def jet_module_coeffs(target, gens, degree):
    """Express `target` as sum h_i * gens[i] with jet multipliers, modulo
    terms of total degree > `degree`.

    `target` and each generator may be a Jet (ideal membership) or a
    Derivation (submodule membership, componentwise).  Returns the list of
    multiplier jets, or None when no solution exists at this precision (with
    no nonzero generator: when the target has a term of degree <= min(degree,
    N)).  Consecutive calls with equal (gens, degree) reuse one system.
    """
    global _last_system
    ctx = (gens[0] if gens else target).context
    degree = min(degree, ctx.truncation)
    key = (tuple(gens), degree)
    if _last_system is None or _last_system[0] != key:
        _last_system = (key, _macaulay_system(key[0], ctx, degree))
    index, columns, col_keys, dens = _last_system[1]
    rhs, nrows = {}, len(index)
    for comp, cjet in _components(target, ctx):
        for e, c in cjet.terms.items():
            if sum(e) <= degree:
                r = index.get((comp, e))
                if r is None:
                    r, nrows = nrows, nrows + 1
                rhs[r] = c
    sol = linsolve(columns, rhs, nrows)
    if sol is None:
        return None
    mults = [{} for _ in gens]
    for (i, m), x in zip(col_keys, sol):
        if x:
            mults[i][m] = x * dens[i]
    return [Jet(ctx, terms) for terms in mults]


def in_jet_span(target, gens, degree) -> bool:
    return jet_module_coeffs(target, list(gens), degree) is not None


def membership_degree(ctx: RingContext, jets, budget: Optional[int] = None) -> int:
    """Degree bound for membership tests: data degree plus slack, capped by
    the remaining budget."""
    maxdeg = 0
    for f in jets:
        if isinstance(f, Derivation):
            for c in f.coefficients.values():
                maxdeg = max(maxdeg, c.degree())
        else:
            maxdeg = max(maxdeg, f.degree())
    cap = ctx.truncation if budget is None else budget
    return max(0, min(cap, maxdeg + MEMBERSHIP_SLACK))


def check_involutive(F: Foliation):
    """(True, None) when every pairwise bracket stays in the generator
    module; (False, offending bracket) otherwise."""
    gens = list(F.generators)
    ctx = F.context
    deg = membership_degree(ctx, gens, ctx.truncation - 1)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            br = lie_bracket(gens[i], gens[j])
            if br.is_zero():
                continue
            if not in_jet_span(br, gens, deg):
                return False, br
    return True, None


# ---------------------------------------------------------------------------
# F-derivative chains and order

def derivative_levels(F: Foliation, seeds, prune):
    """Yield the levels of F-derivatives of the (jet, word) pairs `seeds`,
    in the order of the module docstring, until one is empty."""
    level = list(seeds)
    while level:
        yield level
        level = prune([(h, word + (i,)) for g, word in level
                       for i, d in enumerate(F.generators)
                       for h in (d.apply(g),) if not h.is_zero()])


def distinct_jets(level):
    """Prune for `derivative_levels`: each jet once, with its first word."""
    first = {}
    for g, word in level:
        first.setdefault(g, word)
    return list(first.items())


def f_order_at(F: Foliation, I: IdealGens):
    """ord_F of I at the origin: least n with F^n(I) the unit ideal.

    Returns INFINITE only when the chain stabilizes (every new derivative
    lies in the span of the current generators to the membership precision),
    which certifies F-invariance of the stabilized ideal; otherwise raises
    BudgetExhausted when precision runs out first.
    """
    ctx = I.context
    current = I

    def escaped(level):
        # called after the loop's pass n: level n + 1 has budget N - n
        nonlocal current
        gens = list(current.generators)
        deg = membership_degree(ctx, gens + [g for g, _ in level],
                                ctx.truncation - n)
        out = [(g, w) for g, w in level if not in_jet_span(g, gens, deg)]
        current = IdealGens(ctx, gens + [g for g, _ in out])
        return out

    for n, _ in enumerate(derivative_levels(F, [(f, ()) for f in I.generators],
                                            escaped)):
        if n > ctx.truncation:
            raise BudgetExhausted(
                "F-order chain did not settle within budget %d" % ctx.truncation)
        if current.is_unit_ideal():
            return n
    return INFINITE


def f_order_rees(F: Foliation, R) -> object:
    """min over generators (f, b) of ord_F(f)/b; INFINITE if all are."""
    best = None
    for f, b in R.generators:
        o = f_order_at(F, IdealGens(R.context, [f]))
        if o == INFINITE:
            continue
        val = Q(o) / b
        if best is None or val < best:
            best = val
    return INFINITE if best is None else best


# graded pieces of a Rees algebra (shared with module rees)

def rees_piece_gens(R, b):
    """Jet generators of the degree-b graded piece R_b as an O-module:
    products of algebra generators whose degrees sum exactly to b, the
    distinct nonzero ones in the order a depth-first walk over
    non-decreasing generator indices first meets them.

    The walk expands each (product, degree) state once, at its first visit,
    and stops at a zero product.  That keeps the list, order included:
    degrees strictly increase along a path, so the first visit's subtree is
    done when the state recurs, and every index sequence through a repeat
    is matched by one through the first visit, extended by the same
    indices, that sorts earlier and gives the same product."""
    b = Q(b)
    if b == 0:
        return [Jet.const(R.context, 1)]
    # degrees as integers over their common denominator
    den = lcm(b.denominator, *(Q(d).denominator for _, d in R.generators))
    gens = [(f, int(Q(d) * den)) for f, d in R.generators]
    b = int(b * den)
    out = []
    seen = set()                        # (product, degree) states visited

    def rec(start, acc_jet, acc_deg):
        state = (frozenset(acc_jet.terms.items()), acc_deg)
        if acc_jet.is_zero() or state in seen:
            return
        seen.add(state)
        if acc_deg == b:
            out.append(acc_jet)
            return
        for i in range(start, len(gens)):
            f, d = gens[i]
            if acc_deg + d > b:
                continue
            rec(i, acc_jet * f, acc_deg + d)

    rec(0, Jet.const(R.context, 1), 0)
    return out


def _closure_levels(F: Foliation, ctx: RingContext, gens: list):
    """Levels of the F^infty closure of the Rees generators `gens`: each
    derivative, visited derivation-major, is kept and joins `gens` when it
    escapes the graded piece of its seed's degree (carried as the first
    letter of its word) in the algebra generated so far."""
    from .rees import ReesAlgebra

    def escaped(level):
        kept, pieces = [], {}
        for g, word in sorted(level, key=lambda gw: gw[1][-1]):
            b = word[0]
            if b not in pieces:
                pieces[b] = rees_piece_gens(ReesAlgebra(ctx, gens), b)
            piece = pieces[b]
            if not in_jet_span(g, piece, membership_degree(ctx, piece + [g])):
                kept.append((g, word))
                gens.append((g, b))
                pieces.clear()
        return kept

    return derivative_levels(F, [(f, (b,)) for f, b in gens], escaped)


def is_f_invariant(F: Foliation, R) -> bool:
    """F(R_b) subset R_b for every generator degree b, tested on algebra
    generators (sufficient by the Leibniz rule)."""
    levels = _closure_levels(F, R.context, list(R.generators))
    next(levels, None)  # the seeds
    return next(levels, None) is None


def f_infty(F: Foliation, R):
    """Closure of R under F-derivatives at unchanged degrees (R^infty)."""
    from .rees import ReesAlgebra
    gens = list(R.generators)
    for n, _ in enumerate(_closure_levels(F, R.context, gens)):
        if n > R.context.truncation:
            raise BudgetExhausted("F^infty closure did not stabilize within budget")
    return ReesAlgebra(R.context, gens)


# ---------------------------------------------------------------------------
# rank tests

def _eval_jet(f: Jet, point) -> Fraction:
    acc = Q(0)
    vals = [Q(point.get(v, 0)) if isinstance(point, dict) else Q(point[i])
            for i, v in enumerate(f.context.variables)]
    for e, c in f.terms.items():
        term = c
        for k, p in zip(e, vals):
            if k:
                term *= p ** k
        acc += term
    return acc


def log_rank_at(F: Foliation) -> int:
    """Rank at the origin of F in the log basis (d/dv for free v, z d/dz
    for divisorial z): the rank of the generators' constant terms in that
    basis, which are the constant term of a d/dv coefficient and the z-term
    of a d/dz one.  F lies in the free module D^log, so by Nakayama's lemma
    F = D^log exactly when this rank is the number of variables."""
    ctx = F.context
    return rank([[d.coefficient(v).coefficient({v: 1}) if ctx.is_divisor(v)
                  else d.coefficient(v).constant_term() for v in ctx.variables]
                 for d in F.generators])


def log_smooth_at(F: Foliation, generic_rank: int) -> bool:
    """Lemma-7.2 style test at the origin: the constant-term matrix in the
    log basis has rank equal to the generic rank of the presentation, which
    the caller knows exactly (a monomial presentation's `full_rank`)."""
    return log_rank_at(F) == generic_rank


def sm_rank_at(F: Foliation, point) -> int:
    """Rank of the evaluated coefficient matrix in the plain basis d/dv."""
    return rank([[_eval_jet(d.coefficient(v), point) for v in F.context.variables]
                 for d in F.generators])


# ---------------------------------------------------------------------------
# parsing / printing of derivations

def parse_derivation(ctx: RingContext, text: str) -> Derivation:
    """Syntax: `<poly> * d/d<var>` terms joined by `+` (or `-`)."""
    coeffs = {}
    text = text.strip()
    # split on top-level + and - while respecting parentheses
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip():
            parts.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    for part in parts:
        part = part.strip()
        if "d/d" not in part:
            raise ValueError("derivation term %r lacks d/d<var>" % part)
        head, _, tail = part.rpartition("d/d")
        var = tail.strip()
        head = head.strip()
        if head.endswith("*"):
            head = head[:-1].strip()
        if head in ("", "+"):
            poly = Jet.const(ctx, 1)
        elif head == "-":
            poly = Jet.const(ctx, -1)
        else:
            poly = parse_poly(ctx, head)
        if var not in ctx.variables:
            raise ValueError("unknown variable %r in derivation" % var)
        coeffs[var] = coeffs.get(var, Jet.zero(ctx)) + poly
    return Derivation(ctx, coeffs)
