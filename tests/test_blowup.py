"""Cobordant blow-ups: golden transforms, ledgers, and chart reports."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from folprin import (
    Center, Derivation, Foliation, Jet, Q, ReesAlgebra, RingContext,
    build_cobordant, chart_transform_derivation, etale_chart, parse_derivation,
    parse_poly, track_point, transform_derivation, transform_element,
    transform_foliation, transform_rees,
)
from folprin.blowup import EXCEPTIONAL, _rational_dependency


def ctx2(truncation=12, divisor=()):
    return RingContext(["x", "y"], divisor=divisor, truncation=truncation)


def test_weights_and_target_layout():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(2)), ("y", Q(3))])
    B = build_cobordant(C)
    assert B.w == 6
    assert B.weights == {"x": 3, "y": 2}
    assert B.target.variables == ("x'", "y'", "s")
    assert B.target.is_divisor("s")
    assert not B.target.is_divisor("x'")


def test_fractional_weights_scale_to_integers():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(1, 2)), ("y", Q(1, 3))])
    B = build_cobordant(C)
    assert all(isinstance(w, int) for w in B.weights.values())
    assert B.weights["x"] * Q(1, 2) == B.weights["y"] * Q(1, 3) == B.w


def test_pullback_identity():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(2))])
    B = build_cobordant(C)
    f = parse_poly(ctx, "x^2*y + y^3")
    g, k = transform_element(B, f, "controlled", a=0)
    assert k == 0
    # x -> s^2 x', y -> s y'
    assert g == parse_poly(B.target, "s^5*x'^2*y' + s^3*y'^3")


def test_example_weighted_surface():
    ctx = RingContext(["x", "y", "z"], truncation=30)
    C = Center(ctx, transverse=[("x", Q(4)), ("y", Q(7)), ("z", Q(20))])
    B = build_cobordant(C)
    assert B.w == 140
    assert (B.weights["x"], B.weights["y"], B.weights["z"]) == (35, 20, 7)
    f = parse_poly(ctx, "x^4 + y^7 + z^20 + z^21")
    want = parse_poly(B.target, "x'^4 + y'^7 + z'^20 + z'^21*s^7")
    for mode in ("controlled", "strict"):
        g, k = transform_element(B, f, mode=mode, a=Q(1))
        assert g == want


def test_controlled_vs_strict_elements():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))])
    B = build_cobordant(C)
    f = parse_poly(ctx, "x^3")
    g_c, k_c = transform_element(B, f, "controlled", a=Q(2))
    g_s, k_s = transform_element(B, f, "strict", a=Q(2))
    assert g_c == parse_poly(B.target, "s*x'^3") and k_c == 2
    assert g_s == parse_poly(B.target, "x'^3") and k_s == 3


def test_cusp_pair_transforms():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))])
    B = build_cobordant(C)
    R = ReesAlgebra(ctx, [(parse_poly(ctx, "x*y"), Q(2)),
                          (parse_poly(ctx, "x^3"), Q(2)),
                          (parse_poly(ctx, "y^3"), Q(2))])
    Rc = transform_rees(B, R, "controlled")
    Rs = transform_rees(B, R, "strict")
    t = B.target
    assert {str(f) for f, _ in Rc.generators} == {"x'*y'", "x'^3*s", "y'^3*s"}
    assert {str(f) for f, _ in Rs.generators} == {"x'*y'", "x'^3", "y'^3"}
    F = Foliation(ctx, [parse_derivation(ctx, "(x^2+y^2)*d/dx + x*y*d/dy")])
    Fc = transform_foliation(B, F, "controlled")
    Fs = transform_foliation(B, F, "strict")
    (dc,) = Fc.generators
    (ds,) = Fs.generators
    assert dc.coefficient("x'") == parse_poly(t, "s*(x'^2+y'^2)")
    assert dc.coefficient("y'") == parse_poly(t, "s*x'*y'")
    assert ds.coefficient("x'") == parse_poly(t, "x'^2+y'^2")
    assert ds.coefficient("y'") == parse_poly(t, "x'*y'")
    # negative witness: the strict generator moves x'y' out of the
    # controlled transform
    from folprin.foliation import in_jet_span, membership_degree
    moved = ds.apply(parse_poly(t, "x'*y'"))
    assert moved == parse_poly(t, "y'^3 + 2*x'^2*y'")
    gens = [f for f, _ in Rc.generators]
    deg = membership_degree(t, gens + [parse_poly(t, "y'^3")])
    assert not in_jet_span(parse_poly(t, "y'^3"), gens, deg)


def test_derivation_ledgers():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))])
    B = build_cobordant(C)
    d = parse_derivation(ctx, "x^2*d/dx - y^2*d/dy")
    Ds, ks = transform_derivation(B, d, "strict")
    Dc, kc = transform_derivation(B, d, "controlled")
    t = B.target
    assert ks == -1
    assert Ds.coefficient("x'") == parse_poly(t, "x'^2")
    assert Ds.coefficient("y'") == parse_poly(t, "-y'^2")
    assert kc == 0
    assert Dc.coefficient("x'") == parse_poly(t, "s*x'^2")
    assert Dc.coefficient("y'") == parse_poly(t, "-s*y'^2")


def test_partial_transforms_cleanly():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))])
    B = build_cobordant(C)
    d = parse_derivation(ctx, "d/dx")
    for mode in ("strict", "controlled"):
        D, k = transform_derivation(B, d, mode)
        assert D.coefficient("x'").is_unit()
        assert (k == 1) == (mode == "strict") or mode == "controlled"


def test_derivation_modes_are_controlled_and_strict():
    ctx = ctx2()
    B = build_cobordant(Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))]))
    d = parse_derivation(ctx, "x*d/dy")
    assert transform_derivation(B, d) == transform_derivation(B, d, "controlled")
    for call in (lambda: transform_derivation(B, d, "total"),
                 lambda: transform_foliation(B, Foliation(ctx, [d]), "total")):
        with pytest.raises(ValueError):
            call()


def test_rees_modes_are_controlled_and_strict():
    ctx = ctx2()
    B = build_cobordant(Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))]))
    R = ReesAlgebra(ctx, [(parse_poly(ctx, "x^2 + y^3"), 1)])
    assert transform_rees(B, R) == transform_rees(B, R, "controlled")
    assert transform_rees(B, R, "strict") != transform_rees(B, R)
    with pytest.raises(ValueError):
        transform_rees(B, R, "total")


def test_etale_chart_report():
    ctx = RingContext(["x", "y", "z"], truncation=28)
    C = Center(ctx, transverse=[("x", Q(4)), ("y", Q(7)), ("z", Q(20))])
    B = build_cobordant(C)
    ch = etale_chart(B, "x")
    rep = ch.report()
    assert "x -> s~^35" in rep
    assert "y -> s~^20*y~" in rep
    assert "z -> s~^7*z~" in rep
    assert "mu 35: s~ -> -1, y~ -> 20, z~ -> 7" in rep


def test_chart_derivation_table():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))])
    B = build_cobordant(C)
    ch = etale_chart(B, "x")
    dx = chart_transform_derivation(ch, parse_derivation(ctx, "d/dx"))
    # tau(d/dx) = s~ d/ds~ - y~ d/dy~
    assert dx.coefficient("s~") == parse_poly(ch.context, "s~")
    assert dx.coefficient("y~") == parse_poly(ch.context, "-y~")
    dy = chart_transform_derivation(ch, parse_derivation(ctx, "d/dy"))
    assert dy.coefficient("y~").is_unit()


def test_admissibility_required_for_controlled_rees():
    ctx = ctx2()
    C = Center(ctx, transverse=[("x", Q(3)), ("y", Q(3))])
    B = build_cobordant(C)
    R = ReesAlgebra(ctx, [(parse_poly(ctx, "x"), Q(1))])
    with pytest.raises(Exception):
        transform_rees(B, R, "controlled")


def test_empty_center_rejected():
    ctx = ctx2()
    with pytest.raises(ValueError):
        build_cobordant(Center(ctx))


def test_rational_dependency_independent_family_is_none():
    assert _rational_dependency([]) is None
    assert _rational_dependency([{"a": Q(1)}, {"a": Q(1), "b": Q(2, 3)},
                                 {"c": Q(-5)}]) is None


def test_rational_dependency_first_dependent_vector_has_coefficient_one():
    vectors = [{"a": Q(1), "b": Q(1, 2)}, {"b": Q(3)},
               {"a": Q(2), "b": Q(4)}, {"c": Q(1)}]
    # v2 = 2*v0 + v1, so the combination is v2 - 2*v0 - v1
    assert _rational_dependency(vectors) == {0: Q(-2), 1: Q(-1), 2: Q(1)}
    combo = _rational_dependency([{"a": Q(1, 3)}, {"a": Q(-2, 7)}])
    assert combo == {0: Q(6, 7), 1: Q(1)}


def test_rational_dependency_zero_vector():
    assert _rational_dependency([{"a": Q(1)}, {}]) == {1: Q(1)}
    assert _rational_dependency([{}, {"a": Q(1)}]) == {0: Q(1)}


def test_strict_foliation_saturates_dependencies_modulo_s():
    # the strict transforms d/dx', d/dx' + s^2*y'^2*d/dy' and 2*d/dx' are
    # dependent modulo s: one round divides d/dx' + s^2*y'^2*d/dy' - d/dx'
    # by s^2, and another drops 2*d/dx' - 2*d/dx' = 0
    ctx = ctx2()
    B = build_cobordant(Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))]))
    gens = [parse_derivation(ctx, t)
            for t in ("d/dx", "d/dx + y^2*d/dy", "2*d/dx")]
    t = B.target
    assert transform_derivation(B, gens[1], "strict")[0] == \
        parse_derivation(t, "d/dx' + s^2*y'^2*d/dy'")
    Fs = transform_foliation(B, Foliation(ctx, gens), "strict")
    assert Fs.generators == (parse_derivation(t, "d/dx'"),
                             parse_derivation(t, "y'^2*d/dy'"))


def test_chart_exceptional_name_avoids_barred_center_variables():
    # a center variable named s is barred to s~ in the x-chart, so the
    # chart's exceptional coordinate takes the next fresh name
    ctx = RingContext(["x", "s"], truncation=8)
    B = build_cobordant(Center(ctx, transverse=[("x", Q(2)), ("s", Q(3))]))
    assert B.exceptional == "s"
    ch = etale_chart(B, "x")
    assert ch.context.variables == ("s~2", "s~")
    assert ch.group_weights() == {"s~2": -1, "s~": 2}
    assert ch.pull(parse_poly(ctx, "x^2 + s^3")) == \
        parse_poly(ch.context, "s~2^6 + s~2^6*s~^3")
    dx = chart_transform_derivation(ch, parse_derivation(ctx, "d/dx"))
    assert dx == parse_derivation(ch.context, "1/3*s~2*d/ds~2 - 2/3*s~*d/ds~")
    # without a clash the names are the usual ones
    assert etale_chart(B, "s").context.variables == ("s~", "x~")


# -- naming: derived names never clash with the names they are picked against

NAME_POOL = ["x", "y", "x'", "y'", "x~", "y~", "s", "s~", "s2", "s~2", "x'2",
             "s2~"]


@st.composite
def _named_blowups(draw):
    """A ring named from NAME_POOL, a center, a jet and a point on it."""
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=4,
                          unique=True))
    n = len(names)
    divisor = draw(st.sets(st.integers(0, n - 1)))
    center = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 2),
                                  min_size=1))
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * n),
                                    st.integers(-3, 3)), max_size=3))
    point = draw(st.lists(st.sampled_from([0, 0, 1, 2, 4, -1]),
                          min_size=n, max_size=n))
    return names, divisor, center, terms, point


def _run_blowup(names, divisor, center, terms, point):
    ctx = RingContext(names, divisor=[names[i] for i in divisor], truncation=6)
    C = Center(ctx, transverse=[(names[i], w) for i, w in center.items()
                                if i not in divisor],
               divisorial=[(names[i], w) for i, w in center.items()
                           if i in divisor])
    f = Jet.zero(ctx)
    for e, c in terms:
        f = f + Jet.monomial(ctx, dict(zip(names, e)), c)
    B = build_cobordant(C)
    charts = [etale_chart(B, names[i]) for i in sorted(center)]
    pulls = [(ch.pull(f), ch.report(), ch.group_weights()) for ch in charts]
    tracked = track_point(B, dict(zip(names, point)))
    return B, charts, pulls, tracked


def _rename_report(text, rename):
    """The report with every variable renamed; the mu line, which is sorted
    by name, as a set of entries."""
    text = re.sub(r"[A-Za-z][\w'~]*", lambda m: rename.get(m.group(), m.group()),
                  text)
    *lines, mu = text.split("\n")
    head, _, entries = mu.partition(": ")
    return lines, head, set(entries.split(", "))


@settings(max_examples=300, deadline=None)
@given(_named_blowups())
@example((["x", "y", "y~"], set(), {0: 1, 1: 1}, [((2, 0, 0), 1)], [0, 0, 0]))
@example((["x", "x'"], set(), {0: 1}, [((1, 3), 1)], [1, 1]))
def test_derived_names_match_a_clash_free_run(case):
    names, divisor, center, terms, point = case
    clean = ["a%d" % i for i in range(len(names))]
    B, charts, pulls, tracked = _run_blowup(*case)
    B0, charts0, pulls0, tracked0 = _run_blowup(clean, divisor, center, terms,
                                                point)
    source = dict(zip(clean, names))
    target = dict(zip(B0.target.variables, B.target.variables))
    assert len(set(B.target.variables)) == len(B.target.variables)
    assert target[B0.exceptional] == B.exceptional
    assert {source[v]: target[u] for v, u in B0.name_map.items()} == B.name_map
    assert {source[v]: w for v, w in B0.weights.items()} == B.weights
    assert {target[v] for v in B0.target.divisor} == B.target.divisor
    for ch, ch0, (g, text, mu), (g0, text0, mu0) in zip(charts, charts0,
                                                          pulls, pulls0):
        rename = dict(zip(ch0.context.variables, ch.context.variables))
        assert len(set(rename.values())) == len(rename)
        assert g0.rename(ch.context, rename) == g
        assert {rename[v]: w for v, w in mu0.items()} == mu
        assert _rename_report(text0, {**source, **rename}) == \
            _rename_report(text, {})
    tracked0 = {source[p.chart]: p for p in tracked0}
    assert set(tracked0) == {p.chart for p in tracked}
    for p in tracked:
        p0 = tracked0[p.chart]
        assert p.skipped == p0.skipped
        if p.coordinates is not None:
            rename = dict(zip(etale_chart(B0, p0.chart).context.variables,
                              etale_chart(B, p.chart).context.variables))
            assert {rename[v]: c for v, c in p0.coordinates.items()} == \
                p.coordinates
