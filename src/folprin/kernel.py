"""Exact rational polynomial / truncated power series arithmetic.

Everything downstream works over jets: multivariate polynomials over Q
truncated at a fixed total degree N.  Coefficients are `fractions.Fraction`,
exponents are tuples keyed against an immutable `RingContext` that also
records which variables cut out the boundary divisor.

Values are immutable after construction; all operations are pure.

Coefficients at rest are Fractions, but products and substitutions run on
Python ints: each operand's denominators are cleared once (integer
numerators over their lcm, kept on the jet after first use, in degree
order so a product stops at the truncation), the integer sums are
accumulated, and one Fraction is made per output term.  Results of jet
arithmetic are built by the trusted `_jet`; the public constructor keeps
cleaning what it is given.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import add
from typing import Iterable, Mapping

Q = Fraction

DEFAULT_TRUNCATION = 16


class ContextMismatch(ValueError):
    pass


class TruncationOverflow(ValueError):
    """An input polynomial has degree beyond the truncation order."""


class RingContext:
    """Ordered variable list + divisor flags + truncation order.

    The divisor-flagged variables are the components of the SNC divisor E
    (each a coordinate hyperplane).  Contexts compare by value.
    """

    __slots__ = ("variables", "divisor", "truncation", "_index")

    def __init__(self, variables, divisor=(), truncation=DEFAULT_TRUNCATION):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names: %r" % (variables,))
        divisor = frozenset(divisor)
        unknown = divisor - set(variables)
        if unknown:
            raise ValueError("divisor flags on unknown variables: %r" % sorted(unknown))
        if truncation < 1:
            raise ValueError("truncation order must be >= 1")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "truncation", int(truncation))
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})

    def __setattr__(self, *a):
        raise AttributeError("RingContext is immutable")

    def index(self, name: str) -> int:
        return self._index[name]

    def is_divisor(self, name: str) -> bool:
        return name in self.divisor

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and self.variables == other.variables
            and self.divisor == other.divisor
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((self.variables, self.divisor, self.truncation))

    def __repr__(self):
        return "RingContext(%r, divisor=%r, N=%d)" % (
            list(self.variables), sorted(self.divisor), self.truncation)

    # derived contexts --------------------------------------------------

    def drop(self, name: str) -> "RingContext":
        return RingContext(
            tuple(v for v in self.variables if v != name),
            self.divisor - {name},
            self.truncation,
        )

    def clear_divisor(self) -> "RingContext":
        return RingContext(self.variables, (), self.truncation)

    def with_truncation(self, n: int) -> "RingContext":
        return RingContext(self.variables, self.divisor, n)


def grlex_key(exp):
    return (sum(exp), exp)


def scalar_multiple(a: Mapping, b: Mapping) -> bool:
    """Whether the sparse term dicts a and b (no zero values) differ by one
    rational factor: the same keys and a constant ratio a[k] / b[k]."""
    if a.keys() != b.keys():
        return False
    k0 = next(iter(a), None)
    return k0 is None or all(c * b[k0] == b[k] * a[k0] for k, c in a.items())


def _jet(ctx, terms):
    """A Jet over trusted terms: nonzero Fractions keyed by exponent tuples
    within the truncation (the results of Jet arithmetic).  The public
    constructor cleans its input instead."""
    jet = object.__new__(Jet)
    object.__setattr__(jet, "context", ctx)
    object.__setattr__(jet, "terms", terms)
    object.__setattr__(jet, "_ints", None)
    return jet


def _integer_terms(jet):
    """A jet's terms with the denominators cleared: (degree, exponent,
    integer numerator) in degree order, and the common denominator (the
    lcm) they sit over.  Computed once per jet."""
    if jet._ints is None:
        terms = jet.terms
        den = lcm(*(c.denominator for c in terms.values()))
        if den == 1:
            out = [(sum(e), e, c.numerator) for e, c in terms.items()]
        else:
            out = [(sum(e), e, c.numerator * (den // c.denominator))
                   for e, c in terms.items()]
        out.sort()
        object.__setattr__(jet, "_ints", (out, den))
    return jet._ints


class Jet:
    """A truncated power series: sparse exponent->Fraction map of total
    degree <= the context truncation.  Terms with zero coefficient are
    never stored."""

    __slots__ = ("context", "terms", "_ints")

    def __init__(self, context: RingContext, terms: Mapping[tuple, Fraction]):
        clean = {}
        n = context.truncation
        for e, c in terms.items():
            if type(c) is not Fraction:
                c = Q(c)
            if c == 0:
                continue
            if sum(e) > n:
                continue
            clean[tuple(e)] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, *a):
        raise AttributeError("Jet is immutable")

    # constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: RingContext) -> "Jet":
        return _jet(ctx, {})

    @staticmethod
    def const(ctx: RingContext, c) -> "Jet":
        return Jet(ctx, {(0,) * len(ctx.variables): Q(c)})

    @staticmethod
    def variable(ctx: RingContext, name: str) -> "Jet":
        e = [0] * len(ctx.variables)
        e[ctx.index(name)] = 1
        return Jet(ctx, {tuple(e): Q(1)})

    @staticmethod
    def monomial(ctx: RingContext, exps: Mapping[str, int], coeff=1) -> "Jet":
        e = [0] * len(ctx.variables)
        for v, k in exps.items():
            e[ctx.index(v)] = k
        return Jet(ctx, {tuple(e): Q(coeff)})

    # inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.context.variables), Q(0))

    def is_unit(self) -> bool:
        return self.constant_term() != 0

    def degree(self) -> int:
        """Total degree (of the stored truncation); -1 for the zero jet."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order(self):
        """Minimal total degree of a term; None for the zero jet."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def coefficient(self, exps: Mapping[str, int]) -> Fraction:
        e = [0] * len(self.context.variables)
        for v, k in exps.items():
            e[self.context.index(v)] = k
        return self.terms.get(tuple(e), Q(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def leading_monomial(self):
        """Graded-lex smallest term, or None."""
        if not self.terms:
            return None
        return min(self.terms, key=grlex_key)

    def var_order(self, name: str):
        """Minimal exponent of `name` across terms; None for the zero jet."""
        i = self.context.index(name)
        return min((e[i] for e in self.terms), default=None)

    def weighted_order(self, weights: Mapping[str, Rational]):
        """Least sum weights[v] * e_v over the terms (variables without a
        weight count 0); None for the zero jet."""
        idx = [(self.context.index(v), w) for v, w in weights.items()]
        return min((sum(w * e[i] for i, w in idx) for e in self.terms),
                   default=None)

    # arithmetic --------------------------------------------------------

    def _check(self, other: "Jet"):
        if self.context != other.context:
            raise ContextMismatch(
                "jet contexts differ: %r vs %r" % (self.context, other.context))

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.const(self.context, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                c += terms[e]
                if not c:
                    del terms[e]
                    continue
            terms[e] = c
        return _jet(self.context, terms)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.const(self.context, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ctx = self.context
        if not isinstance(other, Jet):
            c = Q(other)
            if not c:
                return _jet(ctx, {})
            return _jet(ctx, {e: a * c for e, a in self.terms.items()})
        self._check(other)
        if not self.terms or not other.terms:
            return _jet(ctx, {})
        n = ctx.truncation
        a, da = _integer_terms(self)
        b, db = _integer_terms(other)
        low = b[0][0]
        acc = {}
        for d1, e1, c1 in a:
            room = n - d1
            if low > room:
                break
            for d2, e2, c2 in b:
                if d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        den = da * db
        if den == 1:
            return _jet(ctx, {e: Q(c) for e, c in acc.items() if c})
        return _jet(ctx, {e: Q(c, den) for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a jet")
        if k == 0:
            return Jet.const(self.context, 1)
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other):
        """Jets compare by context and terms; a rational number compares as
        the constant jet, anything else as unequal."""
        if not isinstance(other, Jet):
            if not isinstance(other, Rational):
                return NotImplemented
            other = Jet.const(self.context, other)
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        # a constant jet equals its constant, so it hashes like it
        if self.terms.keys() <= {(0,) * len(self.context.variables)}:
            return hash(self.constant_term())
        return hash((self.context, frozenset(self.terms.items())))

    # calculus / structure ---------------------------------------------

    def partial(self, name: str) -> "Jet":
        i = self.context.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return _jet(self.context, out)

    def truncate(self, n: int) -> "Jet":
        return _jet(self.context,
                    {e: c for e, c in self.terms.items() if sum(e) <= n})

    def inverse(self) -> "Jet":
        """Multiplicative inverse of a unit jet (geometric series)."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("jet is not a unit")
        ctx = self.context
        one = Jet.const(ctx, 1)
        u = self * (Q(1) / c0)          # 1 + h, h in the maximal ideal
        h = one - u
        acc = one
        powh = one
        for _ in range(ctx.truncation):
            powh = powh * h
            if powh.is_zero():
                break
            acc = acc + powh
        return acc * (Q(1) / c0)

    def substitute(self, images: Mapping[str, "Jet"], target: RingContext = None) -> "Jet":
        """Compose: replace each variable by its image jet.

        Unmapped variables are carried across by name (they must exist in
        the target context).  The result is truncated at the target order.
        """
        if target is None:
            target = next(iter(images.values())).context if images else self.context
        imgs = {}
        for v in self.context.variables:
            if v in images:
                g = images[v]
                if g.context != target:
                    raise ContextMismatch("image of %s lives in a foreign context" % v)
                imgs[v] = g
            else:
                imgs[v] = Jet.variable(target, v)
        one = _integer_terms(Jet.const(target, 1))
        acc, den = {}, 1                # integer numerators over den
        powers = {v: [None, imgs[v]] for v in self.context.variables}
        for e, c in self.terms.items():
            term = None                 # the monomial's image; None is 1
            for v, k in zip(self.context.variables, e):
                if k == 0:
                    continue
                cache = powers[v]
                while len(cache) <= k:
                    cache.append(cache[-1] * imgs[v])
                term = cache[k] if term is None else term * cache[k]
                if not term.terms:
                    break
            items, d = one if term is None else _integer_terms(term)
            d *= c.denominator
            if den % d:
                grow = lcm(den, d) // den
                acc = {e2: n * grow for e2, n in acc.items()}
                den *= grow
            s = c.numerator * (den // d)
            for _, e2, n2 in items:
                acc[e2] = acc.get(e2, 0) + s * n2
        if den == 1:
            return _jet(target, {e: Q(n) for e, n in acc.items() if n})
        return _jet(target, {e: Q(n, den) for e, n in acc.items() if n})

    def translate(self, point: Mapping[str, Fraction]) -> "Jet":
        """Recenter at the given point: v -> v + point[v]."""
        imgs = {}
        for v, c in point.items():
            if c == 0:
                continue
            if self.context.is_divisor(v):
                raise ValueError(
                    "divisor variable %s may only be translated by 0" % v)
            imgs[v] = Jet.variable(self.context, v) + Q(c)
        if not imgs:
            return self
        return self.substitute(imgs, self.context)

    def restrict(self, name: str) -> "Jet":
        """The jet at name = 0, in the context without name."""
        i = self.context.index(name)
        return _jet(self.context.drop(name),
                    {e[:i] + e[i + 1:]: c for e, c in self.terms.items() if not e[i]})

    def rename(self, target: RingContext, mapping: Mapping[str, str] = None) -> "Jet":
        """Transport to a context that shares variable names (or renames them)."""
        mapping = mapping or {}
        out = {}
        n = len(target.variables)
        for e, c in self.terms.items():
            if sum(e) > target.truncation:
                continue
            d = [0] * n
            for v, k in zip(self.context.variables, e):
                if k == 0:
                    continue
                d[target.index(mapping.get(v, v))] += k
            d = tuple(d)
            if d in out:                # two variables renamed to one
                c += out[d]
                if not c:
                    del out[d]
                    continue
            out[d] = c
        return _jet(target, out)

    # printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.context.variables, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append("%s^%d" % (v, k))
            body = "*".join(factors)
            if not body:
                chunk = str(c)
            elif c == 1:
                chunk = body
            elif c == -1:
                chunk = "-" + body
            else:
                chunk = "%s*%s" % (c, body)
            parts.append(chunk)
        s = parts[0]
        for chunk in parts[1:]:
            s += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
        return s

    __repr__ = __str__


class IdealGens:
    """A finite generator list for an ideal.  Zero generators are dropped;
    the zero ideal is the empty list."""

    __slots__ = ("context", "generators")

    def __init__(self, context: RingContext, generators: Iterable[Jet]):
        gens = []
        seen = set()
        for g in generators:
            if g.context != context:
                raise ContextMismatch("generator in a foreign context")
            if g.is_zero():
                continue
            key = frozenset(g.terms.items())
            if key in seen:
                continue
            seen.add(key)
            gens.append(g)
        gens.sort(key=lambda g: (grlex_key(g.leading_monomial()), str(g)))
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "generators", tuple(gens))

    def __setattr__(self, *a):
        raise AttributeError("IdealGens is immutable")

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit_ideal(self) -> bool:
        return any(g.is_unit() for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (isinstance(other, IdealGens)
                and self.context == other.context
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.context, self.generators))

    def __str__(self):
        return "(%s)" % ", ".join(str(g) for g in self.generators)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# parsing

class ParseError(ValueError):
    pass


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'~"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif ch in "+-*^()/":
            toks.append((ch, ch))
            i += 1
        else:
            raise ParseError("unexpected character %r in %r" % (ch, text))
    toks.append(("end", ""))
    return toks


class _Parser:
    """Recursive descent over the tokens.  Every rule returns the jet and
    a bound on the degree of the exact polynomial read off the syntax
    (constants 0, variables 1, sums the max, products the sum, powers the
    multiple); `peak` is the largest bound of any subexpression, so when it
    is within the truncation no term was clipped on the way."""

    def __init__(self, ctx, toks):
        self.ctx = ctx
        self.toks = toks
        self.pos = 0
        self.peak = 0

    def peek(self):
        return self.toks[self.pos][0]

    def take(self, kind=None):
        k, v = self.toks[self.pos]
        if kind is not None and k != kind:
            raise ParseError("expected %s, found %r" % (kind, v or k))
        self.pos += 1
        return v

    def bounded(self, f, bound):
        self.peak = max(self.peak, bound)
        return f, bound

    def expr(self):
        if self.peek() == "-":
            self.take()
            acc, deg = self.term()
            acc = -acc
        else:
            if self.peek() == "+":
                self.take()
            acc, deg = self.term()
        while self.peek() in "+-":
            op = self.take()
            t, k = self.term()
            acc = acc + t if op == "+" else acc - t
            deg = max(deg, k)
        return acc, deg

    def term(self):
        acc, deg = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            f, k = self.factor()
            if op == "*":
                acc, deg = self.bounded(acc * f, deg + k)
            else:
                if list(f.terms) != [(0,) * len(self.ctx.variables)]:
                    raise ParseError("division by zero" if not f.terms
                                     else "division only by rational constants")
                acc = acc * (Q(1) / f.constant_term())
        return acc, deg

    def factor(self):
        base, deg = self.atom()
        if self.peek() == "^":
            self.take()
            k = int(self.take("num"))
            base, deg = self.bounded(base ** k, deg * k)
        return base, deg

    def atom(self):
        k = self.peek()
        if k == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if k == "num":
            return Jet.const(self.ctx, int(self.take())), 0
        if k == "name":
            name = self.take()
            if name not in self.ctx.variables:
                raise ParseError("unknown variable %r" % name)
            return self.bounded(Jet.variable(self.ctx, name), 1)
        if k == "-":
            self.take()
            f, deg = self.atom()
            return -f, deg
        raise ParseError("unexpected token %r" % k)

    def parse(self, text):
        f, _ = self.expr()
        if self.peek() != "end":
            raise ParseError("trailing input after polynomial in %r" % text)
        return f


def parse_poly(ctx: RingContext, text: str) -> Jet:
    """Parse infix `+ - * / ^` polynomial syntax into a jet.

    Raises TruncationOverflow when the exact input polynomial has a term of
    degree beyond the context truncation (silent truncation of user input
    would be a lie).  When the syntactic degree bound exceeds the
    truncation, the input is parsed again at that bound, where nothing is
    clipped, so cancellations such as x^40 - x^40 are still exact.
    """
    toks = _tokenize(text)
    p = _Parser(ctx, toks)
    f = p.parse(text)
    if p.peak <= ctx.truncation:
        return f
    f = _Parser(ctx.with_truncation(p.peak), toks).parse(text)
    if f.degree() > ctx.truncation:
        raise TruncationOverflow(
            "polynomial degree %d exceeds truncation %d" % (f.degree(), ctx.truncation))
    return f.rename(ctx)


# ---------------------------------------------------------------------------
# exact linear algebra over Q (fraction-free echelon elimination on Python ints)

class Echelon:
    """A row echelon basis over Q, kept fraction-free: primitive integer
    rows (sparse, column -> int) keyed by their lowest column.  Every
    elimination reduces through `add`: ranks, inverses, rational
    dependencies, linear systems and monres's local models."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def add(self, row):
        """Reduce a sparse row (column -> rational) against the basis and
        keep what is left.  Returns the lead column of the kept row, or None
        when the row lies in the span of the basis."""
        den = lcm(*(c.denominator for c in row.values()))
        row = {j: c.numerator * (den // c.denominator)
               for j, c in row.items() if c}
        basis = self.rows
        while row:
            lead = min(row)
            piv = basis.get(lead)
            if piv is None:
                g = gcd(*row.values())
                basis[lead] = {j: c // g for j, c in row.items()}
                return lead
            g = gcd(piv[lead], row[lead])
            a, b = piv[lead] // g, row.pop(lead) // g
            row = {j: a * c for j, c in row.items()}
            for j, c in piv.items():
                if j != lead:
                    s = row.get(j, 0) - b * c
                    if s:
                        row[j] = s
                    else:
                        del row[j]
        return None

    def solve(self, ncols, rhs_col):
        """Back-substitute in Fractions: the unknowns are the columns below
        `ncols`, the right-hand side is column `rhs_col`, free unknowns are
        set to 0, and rows led at or beyond `ncols` are ignored."""
        x = [Q(0)] * ncols
        for lead in sorted(self.rows, reverse=True):
            if lead >= ncols:
                continue
            row = self.rows[lead]
            acc = Q(row.get(rhs_col, 0))
            for j, c in row.items():
                if lead < j < ncols:
                    acc -= c * x[j]
            x[lead] = acc / row[lead]
        return x


def rank(matrix) -> int:
    """Rank over Q of a matrix given as rows of rationals (or ints)."""
    basis = Echelon()
    return sum(basis.add(dict(enumerate(r))) is not None for r in matrix)


def inverse(matrix):
    """The inverse (as a list of rows) of a square rational matrix, or None
    when it is singular.  One elimination on [A | I]: A is singular exactly
    when a kept row has no entry left in A's columns."""
    n = len(matrix)
    basis = Echelon()
    for i, r in enumerate(matrix):
        row = dict(enumerate(r))
        row[n + i] = 1
        if basis.add(row) >= n:
            return None
    columns = [basis.solve(n, n + k) for k in range(n)]
    return [list(r) for r in zip(*columns)]


def linsolve(columns, rhs, nrows):
    """Solve  sum_j x_j * columns[j] = rhs  over Q.

    `columns` is a list of sparse columns (dict row -> int or Fraction),
    `rhs` a sparse column, and `nrows` the number of rows.  Returns a list
    of Fractions or None when inconsistent.  Underdetermined systems return
    one solution (free unknowns set to 0): the pivots are the columns that
    lie outside the span of the earlier ones, so the answer is unique.
    Membership passes integer columns and rescales the multipliers itself.

    The augmented rows go through one `Echelon`; the rhs sits in column
    `ncols`, so a kept row led there reads 0 = c != 0 and the answer is
    None at once.  Every solution is checked exactly against the system
    before it is returned.
    """
    ncols = len(columns)
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows[i][j] = c
    for i, c in rhs.items():
        rows[i][ncols] = c
    basis = Echelon()
    for row in rows:
        if basis.add(row) == ncols:
            return None
    x = basis.solve(ncols, ncols)
    lhs = {}
    for col, xj in zip(columns, x):
        if xj:
            for i, c in col.items():
                lhs[i] = lhs.get(i, 0) + c * xj
    if {i: c for i, c in lhs.items() if c} != {i: c for i, c in rhs.items() if c}:
        raise ArithmeticError("linsolve: the solution fails the system")
    return x
