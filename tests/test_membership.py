"""Membership on the integer Macaulay system, against the Fraction loop.

`_ref_jet_module_coeffs` is `jet_module_coeffs` as it was before the
system was built in integers and kept for the next call: it rebuilds
Fraction columns on every call, adding each cell to `Q(0)`.  On random
ideals and derivation modules the new code must return the same `None`-ness
and the same multipliers, exactly, over a sequence of calls that hits the
kept system and replaces it.  Two more tests pin the degree bound with no
generator, and the boundary that the benchmark's tracer counts: one
`linsolve` per membership test and one system per `f_order_at` level.
"""

import itertools

from hypothesis import given, settings, strategies as st

from folprin import (
    Derivation, IdealGens, Jet, Q, RingContext, f_order_at, parse_derivation,
    parse_poly,
)
from folprin import foliation
from folprin.foliation import jet_module_coeffs
from folprin.kernel import linsolve

from test_acceptance import _drop_instances


# -- the replaced Fraction loop ----------------------------------------------

def _ref_jet_module_coeffs(target, gens, degree):
    if not gens:
        return [] if target.is_zero() else None
    ctx = gens[0].context
    nvars = len(ctx.variables)
    degree = min(degree, ctx.truncation)
    monos = []
    for d in range(degree + 1):
        for c in itertools.combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in c:
                e[i] += 1
            monos.append(tuple(e))
    mono_index = {}

    def row_of(comp, exp):
        key = (comp, exp)
        if key not in mono_index:
            mono_index[key] = len(mono_index)
        return mono_index[key]

    def components(obj):
        if isinstance(obj, Derivation):
            return [(v, obj.coefficient(v)) for v in ctx.variables]
        return [(None, obj)]

    columns = []
    col_keys = []
    for i, g in enumerate(gens):
        comps = components(g)
        gord = min((c.order() for _, c in comps if not c.is_zero()), default=0)
        for m in monos:
            if sum(m) + (gord or 0) > degree:
                continue
            col = {}
            for comp, cjet in comps:
                for e, c in cjet.terms.items():
                    tot = tuple(a + b for a, b in zip(e, m))
                    if sum(tot) > degree:
                        continue
                    r = row_of(comp, tot)
                    col[r] = col.get(r, Q(0)) + c
            columns.append(col)
            col_keys.append((i, m))
    rhs = {}
    for comp, cjet in components(target):
        for e, c in cjet.terms.items():
            if sum(e) > degree:
                continue
            rhs[row_of(comp, e)] = c
    sol = linsolve(columns, rhs, len(mono_index))
    if sol is None:
        return None
    mults = [{} for _ in gens]
    for (i, m), x in zip(col_keys, sol):
        if x:
            mults[i][m] = x
    return [Jet(ctx, terms) for terms in mults]


# -- the property ------------------------------------------------------------

COEFFS = [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(5, 3), Q(7, 6)]
CONTEXTS = [RingContext(["x", "y"], truncation=4),
            RingContext(["x", "y"], divisor=["y"], truncation=5),
            RingContext(["x", "y", "z"], truncation=3),
            RingContext(["x", "y", "z"], divisor=["z"], truncation=4)]


@st.composite
def jets(draw, ctx, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 2)) for _ in ctx.variables)
        terms[e] = draw(st.sampled_from(COEFFS))
    return Jet(ctx, terms)


@st.composite
def elements(draw, ctx, module):
    """A jet, or a derivation whose components mix denominators."""
    if not module:
        return draw(jets(ctx))
    return Derivation(ctx, {v: draw(jets(ctx, 2)) for v in ctx.variables
                            if draw(st.booleans())})


@st.composite
def gen_lists(draw, ctx, module):
    """1-4 generators; zero and repeated ones included."""
    gens = [draw(elements(ctx, module))
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    if draw(st.integers(0, 4)) == 0:
        zero = Derivation.zero(ctx) if module else Jet.zero(ctx)
        gens.insert(draw(st.integers(0, len(gens))), zero)
    return gens


def _combination(draw, ctx, gens, module):
    """A target in the span of `gens` (multipliers of low degree), plus,
    half the time, one random element on top."""
    target = Derivation.zero(ctx) if module else Jet.zero(ctx)
    for g in gens:
        h = draw(jets(ctx, 2))
        target = target + (g.scale(h) if module else h * g)
    if draw(st.booleans()):
        target = target + draw(elements(ctx, module))
    return target


@st.composite
def call_sequences(draw):
    """Calls (target, gens, degree) that alternate two generator lists A
    and B and repeat A: A, A, B, A, B, B.  B is a fresh list, A at another
    degree, or A with one more generator, so the kept system is hit and
    replaced, sometimes by a key that differs from A's only a little."""
    ctx = draw(st.sampled_from(CONTEXTS))
    module = draw(st.booleans())
    N = ctx.truncation
    gens_a, deg_a = draw(gen_lists(ctx, module)), draw(st.integers(0, N + 1))
    kind = draw(st.sampled_from(["fresh", "degree", "longer"]))
    if kind == "fresh":
        gens_b, deg_b = draw(gen_lists(ctx, module)), draw(st.integers(0, N))
    elif kind == "degree":
        gens_b, deg_b = list(gens_a), draw(st.integers(0, N).filter(
            lambda d: d != min(deg_a, N)))
    else:
        gens_b, deg_b = gens_a + [draw(elements(ctx, module))], deg_a
    calls = []
    for gens, deg in ((gens_a, deg_a), (gens_a, deg_a), (gens_b, deg_b),
                      (gens_a, deg_a), (gens_b, deg_b), (gens_b, deg_b)):
        calls.append((_combination(draw, ctx, gens, module), gens, deg))
    return calls


@settings(max_examples=200, deadline=None)
@given(call_sequences())
def test_membership_matches_the_fraction_loop(calls):
    for target, gens, deg in calls:
        want = _ref_jet_module_coeffs(target, gens, deg)
        got = jet_module_coeffs(target, gens, deg)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == want


# -- the degree bound with no generator --------------------------------------

def test_membership_without_generators_keeps_the_degree_bound():
    ctx = RingContext(["x", "y"], truncation=10)
    x9 = parse_poly(ctx, "x^9")
    for gens in ([], [Jet.zero(ctx)], [parse_poly(ctx, "y^10")]):
        mults = jet_module_coeffs(x9, gens, 8)
        assert mults == [Jet.zero(ctx)] * len(gens)
        assert jet_module_coeffs(x9, gens, 9) is None
    d = parse_derivation(ctx, "x^9*d/dy")
    assert jet_module_coeffs(d, [], 8) == []
    assert jet_module_coeffs(d, [Derivation.zero(ctx)], 20) is None


# -- the traced boundary and the reuse ---------------------------------------

def test_one_linsolve_per_test_and_one_system_per_level(monkeypatch):
    # the drop corpus's first `mixed` instance: (2*y + 2*x^3*z) under
    # d/dx, z*d/dz, whose F-order chain has levels of 2, 4, 2 and 1 targets
    family, inst = _drop_instances()[6]
    assert family == "mixed"
    counts = {"tests": 0, "linsolve": 0, "builds": 0}
    levels = []

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def levels_of(F, seeds, prune):
        return walk(F, seeds, lambda level: levels.append(len(level))
                    or prune(level))

    walk = foliation.derivative_levels
    monkeypatch.setattr(foliation, "_last_system", None)
    for attr, name in (("jet_module_coeffs", "tests"),
                       ("linsolve", "linsolve"),
                       ("_macaulay_system", "builds")):
        monkeypatch.setattr(foliation, attr,
                            counting(name, getattr(foliation, attr)))
    monkeypatch.setattr(foliation, "derivative_levels", levels_of)
    I = IdealGens(inst.context, [f for f, _ in inst.rees.generators])
    f_order_at(inst.foliation, I)
    assert max(levels) > 1
    assert counts["tests"] == sum(levels)
    assert counts["linsolve"] == counts["tests"]
    assert counts["builds"] == sum(1 for n in levels if n)
