"""The F-derivative walker against the five loops it replaced.

Each `_ref_*` function below is the loop that `f_order_at`,
`is_f_invariant`, `f_infty`, `coefficient_rees` and `find_maximal_contact`
ran before they shared `derivative_levels`, kept here as the reference.
On random 2- and 3-variable instances, with and without a divisor, the
new functions must give the same answers: the same generator list of
R^infty, order included, the same maximal contact word and the same
coefficient algebra.
"""

from hypothesis import given, settings, strategies as st

from folprin import (
    BudgetExhausted, Derivation, Foliation, IdealGens, INFINITE, Jet,
    PointedInstance, Q, ReesAlgebra, RingContext, coefficient_rees, f_infty,
    f_order_at, f_order_rees, find_maximal_contact, is_f_invariant,
    parse_derivation, parse_poly,
)
from folprin.foliation import (
    derivative_levels, distinct_jets, in_jet_span, membership_degree,
    rees_piece_gens,
)
from folprin.kernel import scalar_multiple


# -- the replaced loops ------------------------------------------------------

def _ref_f_order_at(F, I):
    ctx = I.context
    budget = ctx.truncation
    if I.is_zero():
        return INFINITE
    current = I
    frontier = list(I.generators)
    for n in range(budget + 1):
        if current.is_unit_ideal():
            return n
        new = []
        for d in F.generators:
            for f in frontier:
                g = d.apply(f)
                if not g.is_zero():
                    new.append(g)
        deg = membership_degree(ctx, list(current.generators) + new, budget - n)
        escaped = [g for g in new
                   if not in_jet_span(g, list(current.generators), deg)]
        if not escaped:
            return INFINITE
        frontier = escaped
        current = IdealGens(ctx, list(current.generators) + escaped)
    raise BudgetExhausted("F-order chain did not settle")


def _ref_is_f_invariant(F, R):
    ctx = R.context
    for f, b in R.generators:
        piece = rees_piece_gens(R, b)
        for d in F.generators:
            g = d.apply(f)
            if g.is_zero():
                continue
            deg = membership_degree(ctx, piece + [g])
            if not in_jet_span(g, piece, deg):
                return False
    return True


def _ref_f_infty(F, R):
    ctx = R.context
    gens = list(R.generators)
    frontier = list(gens)
    for _ in range(ctx.truncation + 1):
        new = []
        for d in F.generators:
            for f, b in frontier:
                g = d.apply(f)
                if g.is_zero():
                    continue
                cur = ReesAlgebra(ctx, gens + new)
                piece = rees_piece_gens(cur, b)
                deg = membership_degree(ctx, piece + [g])
                if not in_jet_span(g, piece, deg):
                    new.append((g, b))
        if not new:
            return ReesAlgebra(ctx, gens)
        gens.extend(new)
        frontier = new
    raise BudgetExhausted("F^infty closure did not stabilize")


def _ref_coefficient_rees(R, F, a):
    a = Q(a)
    out = list(R.generators)
    for f, b in R.generators:
        limit = a * b
        frontier = [f]
        alpha = 0
        while True:
            alpha += 1
            if Q(alpha) >= limit:
                break
            new = []
            for g in frontier:
                for d in F.generators:
                    h = d.apply(g)
                    if not h.is_zero():
                        new.append(h)
            if not new:
                break
            deg = b - Q(alpha) / a
            for h in new:
                if not any(d == deg and scalar_multiple(h.terms, g.terms)
                           for g, d in out):
                    out.append((h, deg))
            frontier = new
    return ReesAlgebra(R.context, out)


def _ref_find_maximal_contact(inst, a):
    R, F = inst.rees, inst.foliation
    a = Q(a)
    for f, b in R.generators:
        n = a * b
        if n.denominator != 1 or not 1 <= n <= inst.context.truncation:
            continue
        level = {f: ()}
        for step in range(int(n)):
            if any(g.is_unit() for g in level):
                break
            nxt = {}
            for g, word in level.items():
                for i, d in enumerate(F.generators):
                    dg = d.apply(g)
                    if step == n - 1 and dg.is_unit():
                        return g * (Q(1) / dg.constant_term()), word, d
                    if not dg.is_zero():
                        nxt.setdefault(dg, word + (i,))
            level = nxt
    raise BudgetExhausted("no maximal contact found")


def _outcome(fn, *args):
    """The value, or the type of the folprin error raised."""
    try:
        return fn(*args)
    except BudgetExhausted as exc:
        return type(exc)


# -- random instances --------------------------------------------------------

CONTEXTS = [
    RingContext(["x", "y"], truncation=6),
    RingContext(["x", "y"], divisor=["y"], truncation=6),
    RingContext(["x", "y", "z"], truncation=5),
    RingContext(["x", "y", "z"], divisor=["z"], truncation=5),
]


@st.composite
def small_jets(draw, ctx, max_deg=3):
    out = Jet.zero(ctx)
    for _ in range(draw(st.integers(1, 2))):
        e = [0] * len(ctx.variables)
        for _ in range(draw(st.integers(0, max_deg))):
            e[draw(st.integers(0, len(e) - 1))] += 1
        out = out + Jet(ctx, {tuple(e): Q(draw(st.sampled_from([1, -1, 2])))})
    return out


@st.composite
def instances(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        f = draw(small_jets(ctx))
        if f.order():
            gens.append((f, Q(draw(st.sampled_from([1, 2, 3])),
                              draw(st.sampled_from([1, 2])))))
    fields = []
    for _ in range(draw(st.integers(1, 2))):
        # a log-basis field along one variable, plus small terms
        v = draw(st.sampled_from(ctx.variables))
        coeffs = {v: Jet.variable(ctx, v) if ctx.is_divisor(v)
                  else Jet.const(ctx, 1)}
        for u in ctx.variables:
            if draw(st.booleans()):
                c = draw(small_jets(ctx, max_deg=2))
                if ctx.is_divisor(u):
                    c = c * Jet.variable(ctx, u)
                coeffs[u] = coeffs.get(u, Jet.zero(ctx)) + c
        fields.append(Derivation(ctx, coeffs))
    return PointedInstance(ctx, ReesAlgebra(ctx, gens), Foliation(ctx, fields))


@settings(max_examples=120, deadline=None)
@given(instances())
def test_walker_matches_the_replaced_loops(inst):
    R, F = inst.rees, inst.foliation
    for f, _ in R.generators:
        I = IdealGens(inst.context, [f])
        assert _outcome(f_order_at, F, I) == _outcome(_ref_f_order_at, F, I)
    assert is_f_invariant(F, R) == _ref_is_f_invariant(F, R)
    got, want = _outcome(f_infty, F, R), _outcome(_ref_f_infty, F, R)
    if isinstance(want, ReesAlgebra):
        assert [(g.terms, b) for g, b in got.generators] == \
            [(g.terms, b) for g, b in want.generators]
    else:
        assert got == want
    a = _outcome(f_order_rees, F, R)
    if a in (INFINITE, BudgetExhausted) or not R.generators:
        return
    assert coefficient_rees(R, F, a) == _ref_coefficient_rees(R, F, a)
    assert _outcome(find_maximal_contact, inst, a) == \
        _outcome(_ref_find_maximal_contact, inst, a)


def test_levels_follow_the_order_contract():
    ctx = RingContext(["x", "y"], truncation=6)
    F = Foliation(ctx, [parse_derivation(ctx, "d/dx"),
                        parse_derivation(ctx, "d/dy")])
    f = parse_poly(ctx, "x^2*y")
    keep_all = list
    levels = list(derivative_levels(F, [(f, ())], keep_all))
    assert [[w for _, w in level] for level in levels] == [
        [()], [(0,), (1,)], [(0, 0), (0, 1), (1, 0)],
        [(0, 0, 1), (0, 1, 0), (1, 0, 0)]]
    # d/dx d/dy and d/dy d/dx give the same 2x: only the first word stays
    levels = list(derivative_levels(F, [(f, ())], distinct_jets))
    assert [[w for _, w in level] for level in levels] == [
        [()], [(0,), (1,)], [(0, 0), (0, 1)], [(0, 0, 1)]]
