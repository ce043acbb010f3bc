"""Acceptance suite: the ten primary criteria, each with its stated
tolerance (exact equality everywhere; wall-clock budgets asserted)."""

import functools
import random
import time
from fractions import Fraction

import pytest

from folprin import (
    BudgetExhausted, Center, Derivation, Foliation, IdealGens, InvValue,
    InvVector, Jet, MonomialPresentation, PointedInstance, Q, ReesAlgebra,
    RingContext, RunConfig, build_cobordant, center_inv, compare_inv,
    etale_chart, fin, inv_at, invert_jet_map, is_admissible, monomial_resolve,
    parse_derivation, parse_instance, parse_poly, principalize,
    TOP, rectify_coordinate, rees_from_ideal, transform_element,
    transform_foliation, transform_rees,
)
from folprin.invariant import check_transverse
from folprin.foliation import in_jet_span, membership_degree
from folprin.rectify import CertificateFailure


class timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.monotonic() - self.t0 < self.limit


def make(variables, divisor, ideal_texts, fol_texts, truncation=16):
    ctx = RingContext(variables, divisor=divisor, truncation=truncation)
    R = rees_from_ideal(IdealGens(ctx, [parse_poly(ctx, t)
                                        for t in ideal_texts]))
    if fol_texts == "full":
        F = Foliation.full(ctx)
    else:
        F = Foliation(ctx, [parse_derivation(ctx, t) for t in fol_texts])
    return PointedInstance(ctx, R, F)


# ---------------------------------------------------------------------------
# 1. golden vertical-line invariant

def test_criterion_1_vertical_line():
    with timer(1.0):
        inst = make(["x", "y"], [], ["x^5 + y"], ["d/dx"])
        vec, center = inv_at(inst)
        assert vec == InvVector([fin(5), InvValue(1, 1)])
        assert center.transverse == (("x", Q(5)),)
        assert center.invariant == (("y", Q(1)),)
        assert center.divisorial == ()
        assert center.weights() == {"x": Q(5), "y": Q(1)}


# ---------------------------------------------------------------------------
# 2. golden weighted-surface transform

def test_criterion_2_weighted_surface():
    with timer(1.0):
        ctx = RingContext(["x", "y", "z"], truncation=30)
        C = Center(ctx, transverse=[("x", Q(4)), ("y", Q(7)), ("z", Q(20))])
        B = build_cobordant(C)
        assert B.w == 140
        assert (B.weights["x"], B.weights["y"], B.weights["z"]) == (35, 20, 7)
        f = parse_poly(ctx, "x^4 + y^7 + z^20 + z^21")
        want = parse_poly(B.target, "x'^4 + y'^7 + z'^20 + z'^21*s^7")
        gc, _ = transform_element(B, f, "controlled", a=Q(1))
        gs, _ = transform_element(B, f, "strict")
        assert gc == want
        assert gs == want


# ---------------------------------------------------------------------------
# 3. golden controlled-versus-strict pair

def test_criterion_3_controlled_vs_strict():
    with timer(1.0):
        ctx = RingContext(["x", "y"], truncation=12)
        C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))])
        B = build_cobordant(C)
        t = B.target
        R = ReesAlgebra(ctx, [(parse_poly(ctx, "x*y"), Q(2)),
                              (parse_poly(ctx, "x^3"), Q(2)),
                              (parse_poly(ctx, "y^3"), Q(2))])
        F = Foliation(ctx, [parse_derivation(ctx,
                                             "(x^2+y^2)*d/dx + x*y*d/dy")])
        Rc = transform_rees(B, R, "controlled")
        Rs = transform_rees(B, R, "strict")
        assert {str(f) for f, _ in Rc.generators} == {"x'*y'", "x'^3*s", "y'^3*s"}
        assert {str(f) for f, _ in Rs.generators} == {"x'*y'", "x'^3", "y'^3"}
        (dc,) = transform_foliation(B, F, "controlled").generators
        (ds,) = transform_foliation(B, F, "strict").generators
        assert dc.coefficient("x'") == parse_poly(t, "s*(x'^2 + y'^2)")
        assert dc.coefficient("y'") == parse_poly(t, "s*x'*y'")
        assert ds.coefficient("x'") == parse_poly(t, "x'^2 + y'^2")
        assert ds.coefficient("y'") == parse_poly(t, "x'*y'")
        # negative witness: strict foliation moves the controlled ideal
        moved = ds.apply(parse_poly(t, "x'*y'"))
        assert moved == parse_poly(t, "y'^3 + 2*x'^2*y'")
        gens = [f for f, _ in Rc.generators]
        probe = parse_poly(t, "y'^3")
        assert not in_jet_span(probe, gens, membership_degree(t, gens + [probe]))


# ---------------------------------------------------------------------------
# 4. rectification certificates

def test_criterion_4_rectification_certificates():
    with timer(1.0):
        ctx = RingContext(["x", "y"], truncation=10)
        catalog = [parse_derivation(ctx, t)
                   for t in ("d/dx", "d/dx + d/dy", "d/dx - y*d/dy")]
        for d in catalog:
            for budget in range(1, 9):
                ch = rectify_coordinate(d, "x", budget=budget)
                res = ch.rescaled.apply(ch.images["y"])
                for e in res.terms:
                    assert e[ctx.index("x")] >= budget or sum(e) >= budget
        # fourth entry: the log-smooth field x dx + y^2 dy with divisorial x
        # has no transverse direction of its own; rectify the canonical
        # transverse extension along the fresh coordinate and keep the
        # divisor-preservation certificate
        ctxd = RingContext(["u", "x", "y"], divisor=["x"], truncation=10)
        d4 = parse_derivation(ctxd, "d/du + x*d/dx + y^2*d/dy")
        for budget in range(1, 9):
            ch = rectify_coordinate(d4, "u", budget=budget)
            xi = ch.images["x"]
            assert all(e[ctxd.index("x")] >= 1 for e in xi.terms)
            assert xi.coefficient({"x": 1}) == 1
            for v in ("x", "y"):
                res = ch.rescaled.apply(ch.images[v])
                for e in res.terms:
                    assert e[ctxd.index("u")] >= budget or sum(e) >= budget
        # the two printed worked examples, exactly
        d = parse_derivation(ctx, "d/dx - y*d/dy")
        for budget in range(1, 9):
            img = rectify_coordinate(d, "x", budget=budget).images["y"]
            want = Jet.zero(ctx)
            fact = 1
            for j in range(budget + 1):
                if j:
                    fact *= j
                want = want + parse_poly(ctx, "y") * \
                    (Jet.variable(ctx, "x") ** j) * Q(1, fact)
            assert img == want
        d = parse_derivation(ctx, "d/dx + d/dy")
        assert rectify_coordinate(d, "x", budget=5).images["y"] == \
            parse_poly(ctx, "y - x")


# ---------------------------------------------------------------------------
# 5. randomized invariant-drop suite

FOLIATION_FAMILIES = [
    ("vertical", lambda ctx: Foliation(
        ctx, [Derivation.partial(ctx, next(v for v in ctx.variables
                                           if not ctx.is_divisor(v)))])),
    ("log-full", Foliation.full),
    ("free-partials", lambda ctx: Foliation(
        ctx, [Derivation.partial(ctx, v) for v in ctx.variables
              if not ctx.is_divisor(v)] +
        [Derivation(ctx, {v: Jet.variable(ctx, v)})
         for v in ctx.variables if ctx.is_divisor(v)])),
    ("euler", lambda ctx: Foliation(
        ctx, [functools.reduce(
            lambda a, b: a + b,
            [Derivation(ctx, {v: Jet.variable(ctx, v)})
             for v in ctx.variables])])),
    ("hyperbolic", lambda ctx: Foliation(
        ctx, [Derivation(ctx, {ctx.variables[0]: Jet.variable(ctx, ctx.variables[0]),
                               ctx.variables[1]: -Jet.variable(ctx, ctx.variables[1])})])),
    ("mixed", lambda ctx: Foliation(
        ctx, [Derivation.partial(ctx, next(v for v in ctx.variables
                                           if not ctx.is_divisor(v)))] +
        [Derivation(ctx, {ctx.variables[-1]: Jet.variable(ctx, ctx.variables[-1])})])),
]


def _random_ideal(rng, ctx, max_deg=4):
    texts = []
    for _ in range(rng.randint(1, 2)):
        terms = []
        for _ in range(rng.randint(1, 2)):
            exps = {}
            total = rng.randint(1, max_deg)
            for v in ctx.variables:
                k = rng.randint(0, total)
                total -= k
                if k:
                    exps[v] = k
            if not exps:
                exps[rng.choice(ctx.variables)] = 1
            coeff = rng.choice([1, -1, 2])
            terms.append((exps, coeff))
        jet = Jet.zero(ctx)
        for exps, c in terms:
            jet = jet + Jet.monomial(ctx, exps, c)
        if not jet.is_zero():
            texts.append(jet)
    return texts or [Jet.variable(ctx, ctx.variables[0])]


def _drop_instances():
    rng = random.Random(20250823)
    contexts = [
        RingContext(["x", "y"], truncation=8),
        RingContext(["x", "y"], divisor=["y"], truncation=8),
        RingContext(["x", "y", "z"], truncation=8),
        RingContext(["x", "y", "z"], divisor=["z"], truncation=8),
    ]
    out = []
    while len(out) < 52:
        ctx = rng.choice(contexts)
        name, family = FOLIATION_FAMILIES[rng.randrange(len(FOLIATION_FAMILIES))]
        gens = _random_ideal(rng, ctx)
        R = rees_from_ideal(IdealGens(ctx, gens))
        if R.is_trivial() or R.has_unit_generator():
            continue
        out.append((name, PointedInstance(ctx, R, family(ctx))))
    return out


def _one_step(inst, mode):
    """One blow-up of the computed center, as a dict: the invariant `vec`
    and `center`, the data rewritten into the aligned chart (`Ra`, `Fa`),
    the cobordism `B`, the transforms (`Rt`, `Ft`), and `charts`, the
    (invariant, center) at each chart origin by center variable.  An empty
    center gives `vec`, `center` and no charts."""
    from folprin.driver import (_coordinate_center, _rewrite_derivation,
                                _translate_local)
    vec, center = inv_at(inst)
    step = {"vec": vec, "center": center, "charts": {}}
    if center.is_empty():
        return step
    ctx = inst.context
    Ra = ReesAlgebra(ctx, [(center.rewrite(f), b)
                           for f, b in inst.rees.generators])
    Fa = Foliation(ctx, [_rewrite_derivation(center, d)
                         for d in inst.foliation])
    B = build_cobordant(_coordinate_center(center))
    Rt = transform_rees(B, Ra, mode=mode)
    Ft = transform_foliation(B, Fa, mode=mode)
    step.update(Ra=Ra, Fa=Fa, B=B, Rt=Rt, Ft=Ft)
    for ci in B.center.variables():
        shift = {v: Q(0) for v in B.target.variables}
        shift[B.name_map[ci]] = Q(1)
        c2, r2, f2 = _translate_local(B.target, Rt, Ft, shift)
        step["charts"][ci] = inv_at(PointedInstance(c2, r2, f2))
    return step


def test_criterion_5_invariant_drop_suite():
    with timer(60.0):
        instances = _drop_instances()
        assert len(instances) >= 50
        for name, inst in instances:
            for mode in ("controlled", "strict"):
                step = _one_step(inst, mode)
                before = step["vec"]
                afters = [vec for vec, _ in step["charts"].values()]
                assert afters, "no exceptional point for %s / %s" % (name, inst.rees)
                for after in afters:
                    assert compare_inv(after, before) == -1, (
                        "invariant failed to drop (%s, %s mode): %s -> %s"
                        % (name, mode, before, after))


# ---------------------------------------------------------------------------
# 6. brute-force uniqueness oracle

WEIGHT_GRID = sorted({Q(i, j) for i in range(1, 9) for j in range(1, 9)})

TRIANGULAR_CHARTS = [
    None,
    {"y": "y + x"}, {"y": "y - x"},
    {"y": "y + x^2"}, {"y": "y - x^2"},
    {"x": "x + y"}, {"x": "x + y^2"},
]


def _tier_shapes(ctx):
    """Singleton and pair shapes: lists of (variable, tier)."""
    free = [v for v in ctx.variables if not ctx.is_divisor(v)]
    flagged = [v for v in ctx.variables if ctx.is_divisor(v)]
    shapes = [[(v, t)] for v in free for t in (0, 1)]
    shapes += [[(v, 2)] for v in flagged]
    allvars = [(v, (0, 1)) for v in free] + [(v, (2,)) for v in flagged]
    for i in range(len(allvars)):
        for j in range(i + 1, len(allvars)):
            va, ta = allvars[i]
            vb, tb = allvars[j]
            shapes += [[(va, a), (vb, b)] for a in ta for b in tb]
    return shapes


def _brute_force_max(inst):
    """Grid maximum of center_inv over admissible F-aligned candidates."""
    ctx = inst.context
    from folprin.kernel import rank
    best = None
    for chart_spec in TRIANGULAR_CHARTS:
        if chart_spec and any(v not in ctx.variables or ctx.is_divisor(v)
                              for v in chart_spec):
            continue
        chart = {v: parse_poly(ctx, t)
                 for v, t in (chart_spec or {}).items()}
        imgs = {v: chart.get(v, Jet.variable(ctx, v)) for v in ctx.variables}
        inverse = invert_jet_map(ctx, imgs) if chart else None
        rewritten = [(f.substitute(inverse, ctx) if inverse else f, b)
                     for f, b in inst.rees.generators]
        const = {v: [d.apply(imgs[v]).constant_term()
                     for d in inst.foliation.generators]
                 for v in ctx.variables}

        def aligned(shape):
            trans = [v for v, t in shape if t == 0]
            if trans:
                rows = [[const[v][i] for v in trans]
                        for i in range(len(inst.foliation))]
                if rank(rows) < len(trans):
                    return False
            sub = [imgs[v] for v, t in shape if t != 0]
            if sub:
                deg = membership_degree(ctx, sub)
                for d in inst.foliation.generators:
                    for g in sub:
                        dg = d.apply(g)
                        if not dg.is_zero() and not in_jet_span(dg, sub, deg):
                            return False
            return True

        def admissible(wmap):
            idx = {v: ctx.index(v) for v in wmap}
            for g, b in rewritten:
                for e in g.terms:
                    if sum(Fraction(e[i]) / w
                           for v, w in wmap.items()
                           for i in (idx[v],)) < b:
                        return False
            return True

        for shape in _tier_shapes(ctx):
            if not aligned(shape):
                continue
            names = [v for v, _ in shape]
            tiers = [t for _, t in shape]
            grids = [WEIGHT_GRID] * len(shape)
            import itertools
            for ws in itertools.product(*grids):
                if not admissible(dict(zip(names, ws))):
                    continue
                vec = InvVector([InvValue(t, w)
                                 for t, w in sorted(zip(tiers, ws))])
                if best is None or compare_inv(vec, best) > 0:
                    best = vec
    return best if best is not None else InvVector([])


ORACLE_INSTANCES = [
    (["x", "y"], [], ["x"], "full"),
    (["x", "y"], [], ["x^2"], "full"),
    (["x", "y"], [], ["x^2"], ["d/dx"]),
    (["x", "y"], [], ["x^3 + y^3"], "full"),
    (["x", "y"], [], ["x^2 + y^3"], "full"),
    (["x", "y"], [], ["x^2 + y^2"], "full"),
    (["x", "y"], [], ["x^5 + y"], ["d/dx"]),
    (["x", "y"], [], ["x^2 + y^4"], ["d/dx"]),
    (["x", "y"], [], ["x^3 + y^4"], "full"),
    (["x", "y"], [], ["x + y^2"], "full"),
    (["x", "y"], [], ["y + x^2"], ["d/dy"]),
    (["x", "y"], [], ["x*y"], ["x*d/dx - y*d/dy"]),
    (["x", "y"], [], ["x^2*y"], "full"),
    (["x", "y"], [], ["x^2"], ["x*d/dx - y*d/dy"]),
    (["x", "y"], ["y"], ["y"], "full"),
    (["x", "y"], ["y"], ["x"], "full"),
    (["x", "y"], ["y"], ["x^2"], "full"),
    (["x", "y"], ["x", "y"], ["x*y"], "full"),
    (["x", "y"], ["y"], ["x*y"], "full"),
    (["x", "y"], ["y"], ["y^2"], "full"),
    (["x", "y"], [], ["x^4"], ["d/dx"]),
    (["x", "y"], [], ["x^2 - y^2"], "full"),
]


def test_criterion_6_uniqueness_oracle():
    with timer(120.0):
        assert len(ORACLE_INSTANCES) >= 20
        for variables, divisor, ideal, fol in ORACLE_INSTANCES:
            inst = make(variables, divisor, ideal, fol, truncation=10)
            vec, _ = inv_at(inst)
            brute = _brute_force_max(inst)
            assert compare_inv(vec, brute) == 0, (
                "algorithm %s vs brute force %s on %s / %s"
                % (vec, brute, ideal, fol))


# ---------------------------------------------------------------------------
# 7. transverse-subspace suite

def test_criterion_7_transverse_sections():
    with timer(5.0):
        ctx = RingContext(["x", "y", "z", "w"], truncation=12)
        P = lambda t: parse_poly(ctx, t)
        subspaces = {
            1: [P("x")],
            2: [P("x"), P("y")],
            3: [P("x"), P("y"), P("z")],
        }
        for p, gens in subspaces.items():
            F = Foliation(ctx, [Derivation.partial(ctx, v)
                                for v in ("x", "y", "z")[:p]])
            R = rees_from_ideal(IdealGens(ctx, gens))
            vec, _ = inv_at(PointedInstance(ctx, R, F))
            assert len(vec) == p
            assert all(e == fin(1) for e in vec.entries)
            assert check_transverse(PointedInstance(ctx, R, F),
                                    IdealGens(ctx, gens))
        # perturbed, non-transverse configurations
        bad = [
            ([P("x")], Foliation(ctx, [Derivation.partial(ctx, "y")])),
            ([P("x"), P("y")], Foliation(ctx, [Derivation.partial(ctx, "x")])),
            ([P("x^2")], Foliation.full(ctx)),
        ]
        for gens, F in bad:
            inst = PointedInstance(ctx, rees_from_ideal(IdealGens(ctx, gens)), F)
            vec, _ = inv_at(inst)
            assert any(e != fin(1) for e in vec.entries)
            assert not check_transverse(inst, IdealGens(ctx, gens))


# ---------------------------------------------------------------------------
# 8. monomial smoothing loop

def test_criterion_8_monomial_loop():
    with timer(5.0):
        catalog = [[[1, 1]], [[1, 0]], [[1, -1], [0, 1]], [[2, 3]]]
        for rows in catalog:
            M = MonomialPresentation.from_matrix(rows, p=0)
            rank = M.matrix_rank()
            steps = monomial_resolve(M)
            assert steps
            for step in steps:
                # strict sampled increase and the rank bound per branch
                assert step.min_sampled_rank() > step.rank_before
                depth = 1 + (step.label.count("/") + 1 if step.label else 0)
                assert depth <= rank + 1
            # every sample either reaches full rank or spawns a local model
            for s in steps:
                for pt, r in s.samples:
                    if pt not in s.continued_at:
                        assert r == s.full_rank


# ---------------------------------------------------------------------------
# 9. functoriality smoke

def test_criterion_9_functoriality():
    with timer(10.0):
        for variables, divisor, ideal, fol in ORACLE_INSTANCES:
            inst = make(variables, divisor, ideal, fol, truncation=10)
            vec0, _ = inv_at(inst)
            # fresh free variable, coordinate field adjoined
            vs = list(variables) + ["u9"]
            fol1 = (fol + ["d/du9"]) if fol != "full" else "full"
            inst1 = make(vs, divisor, ideal, fol1, truncation=10)
            vec1, _ = inv_at(inst1)
            assert compare_inv(vec0, vec1) == 0, (ideal, fol, vec0, vec1)
            # fresh divisorial variable with the log extension z_*d/dz_
            vs = list(variables) + ["z9"]
            div = list(divisor) + ["z9"]
            fol2 = (fol + ["z9*d/dz9"]) if fol != "full" else "full"
            inst2 = make(vs, div, ideal, fol2, truncation=10)
            vec2, _ = inv_at(inst2)
            assert compare_inv(vec0, vec2) == 0, (ideal, fol, vec0, vec2)


# ---------------------------------------------------------------------------
# 10. order structure

def test_criterion_10_order_structure():
    with timer(1.0):
        chain = [
            InvVector([fin(2), fin(3)]),
            InvVector([fin(2), fin(4)]),
            InvVector([fin(2)]),
            InvVector([fin(3), fin(3)]),
            InvVector([InvValue(1, 1), InvValue(1, 5)]),
        ]
        for a, b in zip(chain, chain[1:]):
            assert compare_inv(a, b) == -1
        rng = random.Random(1)

        def rand_vec():
            return InvVector([
                InvValue(rng.randint(0, 2), Q(rng.randint(0, 9), rng.randint(1, 4)))
                for _ in range(rng.randint(0, 3))])

        vecs = [rand_vec() for _ in range(10000)]
        for a in vecs:
            assert compare_inv(a, a) == 0
        for a, b in zip(vecs, vecs[1:]):
            assert compare_inv(a, b) == -compare_inv(b, a)
        s = sorted(vecs, key=functools.cmp_to_key(compare_inv))
        for a, b in zip(s, s[1:]):
            assert compare_inv(a, b) <= 0
        # trichotomy on a sample
        for a, b in zip(vecs[:300], vecs[300:600]):
            c = compare_inv(a, b)
            assert c in (-1, 0, 1)
            if c == 0:
                assert a.entries + (TOP,) * (3 - len(a)) == \
                    b.entries + (TOP,) * (3 - len(b))
