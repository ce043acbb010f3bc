"""Seeded inputs, tasks and output checks for the four workloads.

A workload is built one pass at a time.  A pass is a fixed list of tasks;
a task is one call into folprin (`run`) plus the check its output must
pass (`check`).  The runner times `run` and applies `check` outside the
timed region.

The content of every pass is fixed up to symmetry, so every run does the
same work: the run seed picks, per instance, a sign change of the
coordinates (x -> -x, an automorphism that keeps every foliation used here
and every divisor) and the sign of each generator.  The task order is fixed,
so one-time costs (lazy imports, first parser use) always land on the same
task.  The problems a seed yields are isomorphic to the base ones, with the
same sizes and the same cancellations, but their content differs; each
pass of a run draws fresh signs.  The base content is drawn
once from `corpus_seed`: the drop corpus is criterion 5's generator at that
seed, and another corpus seed gives a held-out corpus.
"""

from __future__ import annotations

import functools
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List

from folprin import (
    Center, Derivation, Foliation, IdealGens, Jet, MonomialPresentation,
    PointedInstance, Q, ReesAlgebra, RingContext, build_cobordant, cli_main,
    compare_inv, etale_chart, inv_at, invert_jet_map, monomial_resolve,
    parse_derivation, parse_poly, rectify_coordinate, rees_from_ideal,
    track_point, transform_element, transform_foliation, transform_rees,
)
from folprin.driver import (
    _coordinate_center, _rewrite_derivation, _translate_local,
)

CORPUS_SEED = 20250823
MODES = ("controlled", "strict")


@dataclass(frozen=True)
class Task:
    kind: str                       # check kind, counted per run
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _rng(seed: int, workload: str, passno: int) -> random.Random:
    return random.Random("%d:%s:%d" % (seed, workload, passno))


def _signs(rng, ctx):
    return [rng.choice((1, -1)) for _ in ctx.variables]


def _flip(f: Jet, signs) -> Jet:
    """f(s_1 x_1, ..., s_n x_n) for signs s_i = +-1."""
    return Jet(f.context, {e: c * _parity(e, signs) for e, c in f.terms.items()})


def _parity(e, signs):
    odd = sum(k for k, s in zip(e, signs) if s < 0) % 2
    return -1 if odd else 1


def _disguised(R: ReesAlgebra, rng: random.Random) -> ReesAlgebra:
    """R after a coordinate sign change, each generator times +-1."""
    signs = _signs(rng, R.context)
    return ReesAlgebra(R.context, [(_flip(f, signs) * rng.choice((1, -1)), b)
                                   for f, b in R.generators])


# ---------------------------------------------------------------------------
# drop: criterion 5's random pointed instances, one blow-up each

def _first_free(ctx):
    return next(v for v in ctx.variables if not ctx.is_divisor(v))


def _euler(ctx):
    return functools.reduce(
        lambda a, b: a + b,
        [Derivation(ctx, {v: Jet.variable(ctx, v)}) for v in ctx.variables])


FOLIATION_FAMILIES = [
    ("vertical", lambda ctx: Foliation(
        ctx, [Derivation.partial(ctx, _first_free(ctx))])),
    ("log-full", Foliation.full),
    ("free-partials", lambda ctx: Foliation(
        ctx, [Derivation.partial(ctx, v) for v in ctx.variables
              if not ctx.is_divisor(v)] +
        [Derivation(ctx, {v: Jet.variable(ctx, v)})
         for v in ctx.variables if ctx.is_divisor(v)])),
    ("euler", lambda ctx: Foliation(ctx, [_euler(ctx)])),
    ("hyperbolic", lambda ctx: Foliation(
        ctx, [Derivation(ctx, {
            ctx.variables[0]: Jet.variable(ctx, ctx.variables[0]),
            ctx.variables[1]: -Jet.variable(ctx, ctx.variables[1])})])),
    ("mixed", lambda ctx: Foliation(
        ctx, [Derivation.partial(ctx, _first_free(ctx)),
              Derivation(ctx, {ctx.variables[-1]:
                               Jet.variable(ctx, ctx.variables[-1])})])),
]


def _random_ideal(rng, ctx, max_deg=4):
    gens = []
    for _ in range(rng.randint(1, 2)):
        jet = Jet.zero(ctx)
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
            jet = jet + Jet.monomial(ctx, exps, rng.choice([1, -1, 2]))
        if not jet.is_zero():
            gens.append(jet)
    return gens or [Jet.variable(ctx, ctx.variables[0])]


def drop_instances(seed: int, count: int = 52):
    """The criterion-5 generator: `count` (family name, PointedInstance)
    pairs over 2-3 variables, an optional divisor, truncation 8.  At seed
    20250823 the first 52 are the instances of the acceptance suite."""
    rng = random.Random(seed)
    contexts = [
        RingContext(["x", "y"], truncation=8),
        RingContext(["x", "y"], divisor=["y"], truncation=8),
        RingContext(["x", "y", "z"], truncation=8),
        RingContext(["x", "y", "z"], divisor=["z"], truncation=8),
    ]
    out = []
    while len(out) < count:
        ctx = rng.choice(contexts)
        name, family = FOLIATION_FAMILIES[rng.randrange(len(FOLIATION_FAMILIES))]
        R = rees_from_ideal(IdealGens(ctx, _random_ideal(rng, ctx)))
        if R.is_trivial() or R.has_unit_generator():
            continue
        out.append((name, PointedInstance(ctx, R, family(ctx))))
    return out


def one_step_drops(inst: PointedInstance, mode: str):
    """Blow up the computed center once; (inv before, inv at every chart
    origin after)."""
    vec, center = inv_at(inst)
    if center.is_empty():
        return vec, []
    ctx = inst.context
    Ra = ReesAlgebra(ctx, [(center.rewrite(f), b)
                           for f, b in inst.rees.generators])
    Fa = Foliation(ctx, [_rewrite_derivation(center, d)
                         for d in inst.foliation])
    B = build_cobordant(_coordinate_center(center))
    Rt = transform_rees(B, Ra, mode=mode)
    Ft = transform_foliation(B, Fa, mode=mode)
    afters = []
    for ci in B.center.variables():
        shift = {v: Q(0) for v in B.target.variables}
        shift[B.name_map[ci]] = Q(1)
        c2, r2, f2 = _translate_local(B.target, Rt, Ft, shift)
        afters.append(inv_at(PointedInstance(c2, r2, f2))[0])
    return vec, afters


def _strictly_drops(out) -> bool:
    before, afters = out
    return bool(afters) and all(compare_inv(a, before) == -1 for a in afters)


# The first 13 instances of the corpus (26 tasks, ~17 s on a 2-vCPU VM):
# one pass fits a run, and it holds 2- and 3-variable instances, a divisor,
# all six families and one of the corpus's multi-second instances.
DROP_PASS_INSTANCES = 13


def drop_tasks(seed: int, passno: int, corpus_seed: int = CORPUS_SEED):
    rng = _rng(seed, "drop", passno)
    tasks = []
    for i, (family, inst) in enumerate(
            drop_instances(corpus_seed, DROP_PASS_INSTANCES)):
        inst = PointedInstance(inst.context, _disguised(inst.rees, rng),
                               inst.foliation)
        for mode in MODES:
            tasks.append(Task("drop.strict_drop",
                              "drop #%d %s %s" % (i, family, mode),
                              functools.partial(one_step_drops, inst, mode),
                              _strictly_drops))
    return tasks


# ---------------------------------------------------------------------------
# inv: the criterion-6 oracle instances and their functoriality variants

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

# inv of each oracle instance as given, verified by the brute-force oracle
# of acceptance criterion 6.  The two extended variants of a group must
# reproduce it (criterion 9).
ORACLE_INV = [
    "(1)", "(2)", "(2)", "(3, 3)", "(2, 3)", "(2, 2)", "(5, inf+1)",
    "(2, inf+4)", "(3, 4)", "(1)", "(1)", "(inf+2, inf+2)", "(3, 3)",
    "(inf+2)", "(inf+inf+1)", "(1)", "(2)", "(inf+inf+2, inf+inf+2)",
    "(inf+inf+1)", "(inf+inf+2)", "(4)", "(2, 2)",
]

INV_TRUNCATION = 10
# Independent sign draws of every group per pass: 132 tasks, so that the
# median and the tail percentile sit where task times are dense.
INV_DRAWS = 2


def _oracle_instance(variables, divisor, ideal, fol, signs, rng):
    ctx = RingContext(variables, divisor=divisor, truncation=INV_TRUNCATION)
    signs = signs + [1] * (len(variables) - len(signs))
    gens = [_flip(parse_poly(ctx, t), signs) * rng.choice((1, -1))
            for t in ideal]
    F = (Foliation.full(ctx) if fol == "full"
         else Foliation(ctx, [parse_derivation(ctx, t) for t in fol]))
    return PointedInstance(ctx, rees_from_ideal(IdealGens(ctx, gens)), F)


def inv_groups(rng):
    """Per oracle instance: (expected inv, [as given, + free u9 with d/du9,
    + divisorial z9 with z9*d/dz9]), the ideal under one sign change of
    x and y per group (the foliations here are all sign-symmetric)."""
    groups = []
    for (variables, divisor, ideal, fol), want in zip(ORACLE_INSTANCES,
                                                      ORACLE_INV):
        full = fol == "full"
        signs = [rng.choice((1, -1)) for _ in variables]
        variants = [
            (variables, divisor, fol),
            (variables + ["u9"], divisor, fol if full else fol + ["d/du9"]),
            (variables + ["z9"], divisor + ["z9"],
             fol if full else fol + ["z9*d/dz9"]),
        ]
        groups.append((want, [_oracle_instance(v, d, ideal, f, signs, rng)
                              for v, d, f in variants]))
    return groups


def inv_tasks(seed: int, passno: int):
    rng = _rng(seed, "inv", passno)
    tasks = []
    for _ in range(INV_DRAWS):
        for want, members in inv_groups(rng):
            for k, inst in enumerate(members):
                tasks.append(Task(
                    "inv.functoriality", "inv %s variant %d" % (want, k),
                    functools.partial(inv_at, inst),
                    lambda out, want=want: str(out[0]) == want))
    return tasks


# ---------------------------------------------------------------------------
# jets: Jet mul/substitute through rectification, inversion, weighted
# blow-up charts and the monomial smoothing loop

def _coef(rng):
    return rng.choice((1, -1))


def _random_jet(rng, ctx, exponents):
    out = Jet.zero(ctx)
    for e in exponents:
        out = out + Jet(ctx, {tuple(e): Q(_coef(rng))})
    return out


def _rectify_certified(ch) -> bool:
    """rescaled(image) vanishes below the budget, and divisor variables
    stay unit multiples of themselves (criterion 4)."""
    ctx = ch.context
    i1 = ctx.index(ch.x1)
    for v, img in ch.images.items():
        if v == ch.x1:
            continue
        for e in ch.rescaled.apply(img).terms:
            if e[i1] < ch.budget and sum(e) < ch.budget:
                return False
        if ctx.is_divisor(v) and not all(e[ctx.index(v)] >= 1
                                         for e in img.terms):
            return False
    return True


# (variables, divisor, truncation, rectified variable, budget)
RECTIFY_SHAPES = [
    (["x", "y"], [], 10, "x", 4),
    (["x", "y"], [], 10, "x", 6),
    (["x", "y"], [], 10, "x", 8),
    (["x", "y"], [], 10, "x", 10),
    (["x", "y"], [], 12, "x", 6),
    (["x", "y"], [], 12, "x", 12),
    (["u", "x"], ["x"], 10, "u", 6),
    (["u", "x"], ["x"], 12, "u", 10),
]


def rectify_task(base, rng, variables, divisor, n, x1, budget):
    """A unit direction along x1 with non-constant coefficients, drawn from
    `base`, under a coordinate sign change drawn from `rng`."""
    ctx = RingContext(variables, divisor=divisor, truncation=n)
    one = Jet.const(ctx, 1)
    signs = _signs(rng, ctx)
    coeffs = {}
    for v, sign in zip(variables, signs):
        lin = _random_jet(base, ctx, [[int(w == u) for w in variables]
                                      for u in variables])
        if v == x1:
            c = one + lin
        elif v in divisor:
            c = Jet.variable(ctx, v) * (one + lin)
        else:
            c = lin * lin
        coeffs[v] = _flip(c, signs) * sign
    d = Derivation(ctx, coeffs)
    return (functools.partial(rectify_coordinate, d, x1, budget=budget),
            _rectify_certified)


def _round_trip(ctx, images, inverse) -> bool:
    ident = {v: Jet.variable(ctx, v) for v in ctx.variables}
    return (all(images[v].substitute(inverse, ctx) == ident[v]
                for v in ctx.variables)
            and all(inverse[v].substitute(images, ctx) == ident[v]
                    for v in ctx.variables))


# (variables, truncation)
INVERT_SHAPES = [(["x", "y"], 10), (["x", "y"], 12), (["x", "y"], 14),
                 (["x", "y", "z"], 10)]


def invert_task(base, rng, variables, n):
    """A jet map with identity linear part and quadratic terms drawn from
    `base`, under a coordinate sign change drawn from `rng`."""
    ctx = RingContext(variables, truncation=n)
    k = len(variables)
    quad = [[int(a == i) + int(b == i) for i in range(k)]
            for a in range(k) for b in range(a, k)]
    signs = _signs(rng, ctx)
    images = {v: Jet.variable(ctx, v) +
              _flip(_random_jet(base, ctx, quad[:2]), signs) * sign
              for v, sign in zip(variables, signs)}
    return (functools.partial(invert_jet_map, ctx, images),
            functools.partial(_round_trip, ctx, images))


# Center weights (a, b, c) of f = x^a + y^b + z^c + z^(c+1) at truncation
# 30; the first is acceptance criterion 2.
BLOWUP_WEIGHTS = [(4, 7, 20), (2, 3, 12), (3, 5, 15), (4, 6, 18), (3, 8, 24)]
BLOWUP_TRUNCATION = 30


def _blowup_table(f, center, point):
    B = build_cobordant(center)
    table = {mode: transform_element(B, f, mode, a=Q(1))[0] for mode in MODES}
    charts = {v: etale_chart(B, v).pull(f) for v in center.variables()}
    return B, table, charts, track_point(B, point)


def _blowup_golden(coeffs, weights, point, out) -> bool:
    """Both transforms equal the closed form c1 x'^a + c2 y'^b + c3 z'^c +
    c4 z'^(c+1) s^(w_z); each chart pull is s~^w times the chart's
    leading form; every tracked point maps back onto the source point."""
    B, table, charts, tracked = out
    a = dict(zip("xyz", weights))
    t = B.target
    want = _sum_of_powers(t, {"x'": a["x"], "y'": a["y"], "z'": a["z"]},
                          coeffs[:3])
    want = want + Jet.monomial(t, {"z'": a["z"] + 1, "s": B.weights["z"]},
                               coeffs[3])
    if any(table[mode] != want for mode in MODES):
        return False
    for v, pulled in charts.items():
        ch = etale_chart(B, v)
        sbar = Jet.variable(ch.context, "s~")
        lead = Jet.zero(ch.context)
        for u, c in zip("xyz", coeffs[:3]):
            lead = lead + (Jet.const(ch.context, c) if u == v else
                           Jet.monomial(ch.context, {u + "~": a[u]}, c))
        tail = Jet.monomial(ch.context, {"s~": B.weights["z"]}, coeffs[3]) * (
            Jet.const(ch.context, 1) if v == "z" else
            Jet.monomial(ch.context, {"z~": a["z"] + 1}))
        if pulled != sbar ** B.w * (lead + tail):
            return False
    if not tracked:
        return False
    for cp in tracked:
        if cp.coordinates is None:
            continue
        s = cp.coordinates["s~"]
        for u in "xyz":
            image = s ** B.weights[u] * (1 if u == cp.chart
                                         else cp.coordinates[u + "~"])
            if image != point[u]:
                return False
    return True


def _sum_of_powers(ctx, powers, coeffs):
    out = Jet.zero(ctx)
    for (v, k), c in zip(powers.items(), coeffs):
        out = out + Jet.monomial(ctx, {v: k}, c)
    return out


def blowup_task(rng, weights):
    ctx = RingContext(["x", "y", "z"], truncation=BLOWUP_TRUNCATION)
    coeffs = [_coef(rng) for _ in range(4)]
    a, b, c = weights
    f = _sum_of_powers(ctx, {"x": a, "y": b, "z": c}, coeffs[:3]) + \
        Jet.monomial(ctx, {"z": c + 1}, coeffs[3])
    center = Center(ctx, transverse=[("x", Q(a)), ("y", Q(b)), ("z", Q(c))])
    B = build_cobordant(center)
    # a point off the center whose x-chart preimage is rational
    tpar = Q(rng.randint(1, 3), rng.randint(1, 3))
    point = {"x": tpar ** B.weights["x"],
             "y": tpar ** B.weights["y"] * _coef(rng),
             "z": tpar ** B.weights["z"] * _coef(rng)}
    return (functools.partial(_blowup_table, f, center, point),
            functools.partial(_blowup_golden, coeffs, weights, point))


def _monres_ranks(M, steps) -> bool:
    """Criterion 8: a strict sampled sm-rank increase and the rank bound on
    every branch; every sample not continued is of full rank."""
    rank = M.matrix_rank()
    if not steps:
        return False
    for step in steps:
        if step.min_sampled_rank() <= step.rank_before:
            return False
        if 1 + (step.label.count("/") + 1 if step.label else 0) > rank + 1:
            return False
        for pt, r in step.samples:
            if pt not in step.continued_at and r != step.full_rank:
                return False
    return True


# (rows, columns, free block p)
MONRES_SHAPES = [(1, 2, 0), (2, 2, 0), (1, 2, 1)]


def monres_task(base, rng, nrows, ncols, p):
    """A small integer matrix of full row rank drawn from `base`, with its
    rows negated and its columns permuted by `rng`."""
    while True:
        rows = [[base.choice((1, -1, 2, -2, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        if MonomialPresentation.from_matrix(rows).matrix_rank() == nrows:
            break
    order = list(range(ncols))
    rng.shuffle(order)
    rows = [[r[j] * sign for j in order]
            for r, sign in zip(rows, (rng.choice((1, -1)) for _ in rows))]
    M = MonomialPresentation.from_matrix(rows, p=p)
    return (functools.partial(monomial_resolve, M),
            functools.partial(_monres_ranks, M))


# Independent draws of every shape per pass (60 tasks).
JETS_DRAWS = 3


def jets_tasks(seed: int, passno: int, corpus_seed: int = CORPUS_SEED):
    base = random.Random(corpus_seed)
    rng = _rng(seed, "jets", passno)
    tasks = []
    for _ in range(JETS_DRAWS):
        for shape in RECTIFY_SHAPES:
            run, check = rectify_task(base, rng, *shape)
            tasks.append(Task("jets.rectify_certificate",
                              "rectify %r" % (shape,), run, check))
        for shape in INVERT_SHAPES:
            run, check = invert_task(base, rng, *shape)
            tasks.append(Task("jets.inversion_round_trip",
                              "invert %r" % (shape,), run, check))
        for weights in BLOWUP_WEIGHTS:
            run, check = blowup_task(rng, weights)
            tasks.append(Task("jets.blowup_golden", "blowup %r" % (weights,),
                              run, check))
        for shape in MONRES_SHAPES:
            run, check = monres_task(base, rng, *shape)
            tasks.append(Task("jets.monres_ranks", "monres %r" % (shape,),
                              run, check))
    return tasks


# ---------------------------------------------------------------------------
# principalize: the CLI loop on the instance files

# Truncation orders per file.  At the files' own order (16) ex513 alone
# takes 18 s in controlled mode, which would make one pass too long for a
# short run; from 6 to 8 it still runs all three rounds.
PRINCIPALIZE_TRUNCATIONS = (6, 7, 8)
# inv_at alone runs past 150 s on ex510 (truncation 22 and up; its ideal
# needs at least 21), so no pass could finish it: it is left out.
LEFT_OUT = ("ex510.fol",)


def principalize_files(root: Path) -> List[Path]:
    """Every instance file with ring data but those left out, by name."""
    files = []
    for path in sorted((root / "instances").glob("*.fol")):
        if path.name in LEFT_OUT:
            continue
        if any(line.split("#", 1)[0].split()[:1] == ["ring"]
               for line in path.read_text().splitlines()):
            files.append(path)
    return files


def _principalize_cli(argv):
    return cli_main(argv, out=io.StringIO())


def principalize_tasks(root: Path):
    """The instance files are the content: no seed changes them."""
    tasks = []
    for path in principalize_files(root):
        for n in PRINCIPALIZE_TRUNCATIONS:
            for mode in MODES:
                argv = ["principalize", str(path), "--mode", mode,
                        "--truncation", str(n)]
                tasks.append(Task(
                    "principalize.exit_0",
                    "principalize %s N=%d %s" % (path.name, n, mode),
                    functools.partial(_principalize_cli, argv),
                    lambda rc: rc == 0))
    return tasks
