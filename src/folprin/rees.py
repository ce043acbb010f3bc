"""Rationally graded Rees algebras, weighted centers, and the invariant.

A Rees algebra R = O + R_a t^a + ... is stored as a finite list of
(generator jet, positive rational degree) pairs.  A center A_J is a tiered
weighted coordinate list (transverse / invariant / divisorial) together
with the coordinate change to the chart in which it is monomial; its
integrally closed graded pieces admit the exact combinatorial description
by weighted monomial degree, which is what admissibility tests use.  No integral closure is ever
computed symbolically.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, zip_longest
from math import ceil, gcd
from typing import Iterable, Sequence, Tuple

from .kernel import (
    ContextMismatch, IdealGens, Jet, Q, RingContext, grlex_key, scalar_multiple,
)
from .foliation import (
    BudgetExhausted, Foliation, derivative_levels, distinct_jets,
)


def rational_lcm(values: Sequence[Fraction]) -> Fraction:
    """Smallest positive rational that is an integer multiple of each value:
    lcm of numerators over gcd of denominators."""
    num = 1
    den = 0
    for v in values:
        v = Q(v)
        num = num * v.numerator // gcd(num, v.numerator)
        den = gcd(den, v.denominator)
    return Q(num, den if den else 1)


class ReesAlgebra:
    __slots__ = ("context", "generators")

    def __init__(self, context: RingContext, generators: Iterable[Tuple[Jet, Fraction]]):
        gens = []
        seen = set()
        for f, d in generators:
            if f.context != context:
                raise ContextMismatch("Rees generator in a foreign context")
            d = Q(d)
            if d <= 0:
                raise ValueError("Rees degrees must be positive, got %s" % d)
            if f.is_zero():
                continue
            key = (frozenset(f.terms.items()), d)
            if key in seen:
                continue
            seen.add(key)
            gens.append((f, d))
        gens.sort(key=lambda fd: (grlex_key(fd[0].leading_monomial()), fd[1], str(fd[0])))
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "generators", tuple(gens))

    def __setattr__(self, *a):
        raise AttributeError("ReesAlgebra is immutable")

    def is_trivial(self) -> bool:
        return not self.generators

    def has_unit_generator(self) -> bool:
        return any(f.is_unit() for f, _ in self.generators)

    def degrees(self):
        return [d for _, d in self.generators]

    def translate(self, point) -> "ReesAlgebra":
        return ReesAlgebra(self.context,
                           [(f.translate(point), d) for f, d in self.generators])

    def rename(self, target, mapping=None) -> "ReesAlgebra":
        return ReesAlgebra(target,
                           [(f.rename(target, mapping), d) for f, d in self.generators])

    def __eq__(self, other):
        return (isinstance(other, ReesAlgebra)
                and self.context == other.context
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.context, self.generators))

    def __str__(self):
        if not self.generators:
            return "O[]"
        return "O[%s]" % ", ".join(
            "(%s)t^%s" % (f, d) if d != 1 else "(%s)t" % f
            for f, d in self.generators)

    __repr__ = __str__


def rees_from_ideal(I: IdealGens) -> ReesAlgebra:
    """The standard Rees algebra O[tI]: every generator at degree 1."""
    return ReesAlgebra(I.context, [(g, Q(1)) for g in I.generators])


def ideal_from_rees(R: ReesAlgebra) -> IdealGens:
    """The pre-closure generators of I_b(R) at the smallest common integer
    multiple b of the degrees; the integral closure is deliberately not
    taken (consumers only rely on the closure being equal)."""
    if R.is_trivial():
        raise ValueError("trivial Rees algebra has no distinguished ideal")
    b = rational_lcm(R.degrees())
    out = []
    n = R.context.truncation
    for f, d in R.generators:
        k = b / d
        assert k.denominator == 1
        k = int(k)
        ford = f.order() or 0
        if ford * k > n:
            raise BudgetExhausted(
                "power %d of a generator of order %d exceeds truncation %d"
                % (k, ford, n))
        out.append(f ** k)
    return IdealGens(R.context, out)


# ---------------------------------------------------------------------------
# centers

class Center:
    """A weighted center in aligned coordinates.

    change: the `rectify.CoordinateChange` from ambient to aligned
    coordinates (its images are the aligned coordinates in ambient ones),
    or None for the identity.  Weights within each tier are kept sorted
    ascending.
    """

    __slots__ = ("context", "change", "transverse", "invariant", "divisorial")

    def __init__(self, context, transverse=(), invariant=(), divisorial=(),
                 change=None):
        def tier(entries, divisor_flag):
            out = []
            for v, w in entries:
                w = Q(w)
                if w <= 0:
                    raise ValueError("center weight must be positive")
                if v not in context.variables:
                    raise ValueError("center variable %r not in context" % v)
                if context.is_divisor(v) != divisor_flag:
                    raise ValueError(
                        "variable %r in the wrong tier for its divisor flag" % v)
                out.append((v, w))
            out.sort(key=lambda vw: (vw[1], vw[0]))
            return tuple(out)

        object.__setattr__(self, "context", context)
        object.__setattr__(self, "transverse", tier(transverse, False))
        object.__setattr__(self, "invariant", tier(invariant, False))
        object.__setattr__(self, "divisorial", tier(divisorial, True))
        object.__setattr__(self, "change", change)
        names = [v for v, _ in self.transverse + self.invariant + self.divisorial]
        if len(set(names)) != len(names):
            raise ValueError("variable repeated across tiers: %r" % names)

    def __setattr__(self, *a):
        raise AttributeError("Center is immutable")

    def weights(self) -> dict:
        return {v: w for v, w in self.transverse + self.invariant + self.divisorial}

    def variables(self):
        return [v for v, _ in self.transverse + self.invariant + self.divisorial]

    def is_empty(self) -> bool:
        return not (self.transverse or self.invariant or self.divisorial)

    def rewrite(self, f: Jet) -> Jet:
        """Express an ambient jet in the center's aligned coordinates."""
        return f if self.change is None else self.change.push_jet(f)

    def __str__(self):
        bits = []
        for name, tier in (("transverse", self.transverse),
                           ("invariant", self.invariant),
                           ("divisorial", self.divisorial)):
            for v, w in tier:
                bits.append("%s %s %s" % (name, v, w))
        return "; ".join(bits) if bits else "(empty center)"

    __repr__ = __str__


def center_graded_piece(C: Center, b):
    """Membership predicate for the integrally closed degree-b piece of A_J:
    every monomial must have weighted degree sum exp_v / weight_v >= b over
    the center variables (jets must already be in chart coordinates)."""
    b = Q(b)
    inverse = {v: 1 / w for v, w in C.weights().items()}

    def member(f: Jet) -> bool:
        return b <= 0 or f.is_zero() or f.weighted_order(inverse) >= b

    return member


def is_admissible(R: ReesAlgebra, C: Center) -> bool:
    """R subset A_J, generator by generator, after rewriting into the
    center's chart coordinates."""
    for f, d in R.generators:
        g = C.rewrite(f)
        if not center_graded_piece(C, d)(g):
            return False
    return True


def coefficient_rees(R: ReesAlgebra, F: Foliation, a) -> ReesAlgebra:
    """The coefficient Rees algebra C(R, F): iterated F-derivative words
    del_1...del_alpha(f) placed at degree b - alpha/a, for alpha < a*b.

    a must be the (finite) F-order of R; words run over sequences of F
    generators in shortlex order, scalar-duplicate results pruned.  Each
    level walks distinct jets only: the derivatives of a repeated jet
    repeat those of its first copy, earlier in the same level.
    """
    a = Q(a)
    out = list(R.generators)
    for f, b in R.generators:
        levels = derivative_levels(F, [(f, ())], distinct_jets)
        for alpha, level in enumerate(islice(levels, ceil(a * b))):
            deg = b - alpha / a
            for h, _ in level:
                if not any(d == deg and scalar_multiple(h.terms, g.terms)
                           for g, d in out):
                    out.append((h, deg))
    return ReesAlgebra(R.context, out)


# ---------------------------------------------------------------------------
# the invariant value set and its total order

TIER_FINITE = 0
TIER_INF = 1
TIER_INF2 = 2
TIER_TOP = 3


class InvValue:
    __slots__ = ("tier", "offset")

    def __init__(self, tier: int, offset=None):
        if tier not in (0, 1, 2, 3):
            raise ValueError("bad tier %r" % tier)
        if tier == TIER_TOP:
            offset = None
        else:
            offset = Q(offset)
            if offset < 0:
                raise ValueError("negative invariant offset")
        object.__setattr__(self, "tier", tier)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, *a):
        raise AttributeError("InvValue is immutable")

    def key(self):
        return (self.tier, self.offset if self.offset is not None else Q(0))

    def lifted(self) -> "InvValue":
        """One application of the infinity marker: a -> inf+a; saturates at
        two markers (inf + (inf+inf+c) = inf+inf+c)."""
        if self.tier == TIER_TOP:
            raise ValueError("cannot lift the padding symbol")
        if self.tier >= TIER_INF2:
            return self
        return InvValue(self.tier + 1, self.offset)

    def __eq__(self, other):
        return isinstance(other, InvValue) and self.key() == other.key()

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self.key() <= other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        if self.tier == TIER_TOP:
            return "T"
        return "inf+" * self.tier + str(self.offset)

    __repr__ = __str__


TOP = InvValue(TIER_TOP)


def fin(x) -> InvValue:
    return InvValue(TIER_FINITE, x)


class InvVector:
    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[InvValue]):
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *a):
        raise AttributeError("InvVector is immutable")

    def __eq__(self, other):
        return isinstance(other, InvVector) and compare_inv(self, other) == 0

    def __lt__(self, other):
        return compare_inv(self, other) < 0

    def __le__(self, other):
        return compare_inv(self, other) <= 0

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __hash__(self):
        # compare_inv pads with TOP, so trailing TOP entries do not count
        n = len(self.entries)
        while n and self.entries[n - 1].tier == TIER_TOP:
            n -= 1
        return hash(self.entries[:n])

    def __str__(self):
        return "(%s)" % ", ".join(str(e) for e in self.entries)

    __repr__ = __str__


def compare_inv(u: InvVector, v: InvVector) -> int:
    """Lexicographic comparison after padding the shorter vector with the
    top symbol; returns -1, 0, or 1."""
    for x, y in zip_longest(u.entries, v.entries, fillvalue=TOP):
        # InvValue.key() order: tier first, then offset (None only on TOP)
        if x.tier != y.tier:
            return -1 if x.tier < y.tier else 1
        if x.offset != y.offset:
            return -1 if x.offset < y.offset else 1
    return 0


def center_inv(C: Center) -> InvVector:
    """(a_1..a_l, inf+b_1..inf+b_r, inf+inf+c_1..inf+inf+c_s)."""
    entries = [InvValue(TIER_FINITE, w) for _, w in C.transverse]
    entries += [InvValue(TIER_INF, w) for _, w in C.invariant]
    entries += [InvValue(TIER_INF2, w) for _, w in C.divisorial]
    return InvVector(entries)
