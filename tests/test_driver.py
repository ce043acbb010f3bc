"""Instance parsing, point tracking, the principalization loop, and the CLI."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folprin import (
    Center, Jet, Q, RingContext, RunConfig, build_cobordant, cli_main,
    etale_chart, parse_instance, principalize, track_point,
)
from folprin.driver import _rational_root, _unit_times_divisor_monomial
from folprin.kernel import ParseError, parse_poly

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def ex(name):
    return os.path.join(EXAMPLES, name)


def run_cli(args):
    buf = io.StringIO()
    code = cli_main(args, out=buf)
    return code, buf.getvalue()


# -- parsing -----------------------------------------------------------------

def test_parse_full_instance():
    inst = parse_instance(
        "ring x y z\n"
        "divisor z\n"
        "rees x^2@2; y@1\n"
        "foliation d/dx; z*d/dz\n"
        "point 0 1 0\n"
        "truncation 12\n")
    assert inst.context.variables == ("x", "y", "z")
    assert inst.context.is_divisor("z")
    assert inst.context.truncation == 12
    assert len(inst.rees.generators) == 2
    assert len(inst.foliation) == 2
    assert inst.points == [{"x": Q(0), "y": Q(1), "z": Q(0)}]


def test_parse_defaults_full_foliation():
    inst = parse_instance("ring x y\nideal x\n")
    assert len(inst.foliation) == 2


def test_parse_errors_are_diagnosed():
    with pytest.raises(ParseError):
        parse_instance("ring x\nideal x\nideal y\n")
    with pytest.raises(ParseError):
        parse_instance("ring x\nwhat x\n")
    with pytest.raises(ParseError):
        parse_instance("ring x\npoint 1 2\n")
    with pytest.raises(ParseError):
        parse_instance("divisor z\nideal z\n")


def test_parse_monomial_block():
    inst = parse_instance("monomial p=1 rows=[[1,1]] vars v w1 w2\n")
    assert inst.monomial.p == 1
    assert inst.monomial.rows == ((Q(1), Q(1)),)
    assert inst.monomial.context.variables == ("v", "w1", "w2")


# -- point tracking ----------------------------------------------------------

def _simple_cobordism():
    ctx = RingContext(["x", "y"], truncation=8)
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(1))])
    return build_cobordant(C)


def test_track_origin_gives_chart_origins():
    B = _simple_cobordism()
    pts = track_point(B, {"x": Q(0), "y": Q(0)})
    assert [p.chart for p in pts] == ["x", "y"]
    for p in pts:
        assert p.coordinates["s~"] == 0
        assert all(v == 0 for v in p.coordinates.values())


def test_track_off_center_point():
    B = _simple_cobordism()
    pts = track_point(B, {"x": Q(0), "y": Q(1)})
    assert len(pts) == 1
    p = pts[0]
    assert p.chart == "y"
    assert p.coordinates == {"s~": Q(1), "x~": Q(0)}


def test_track_irrational_root_reported():
    ctx = RingContext(["x", "y"], truncation=8)
    C = Center(ctx, transverse=[("x", Q(1)), ("y", Q(2))])
    B = build_cobordant(C)     # w=2: x -> s^2 x', y -> s y'
    pts = track_point(B, {"x": Q(2), "y": Q(0)})
    assert len(pts) == 1 and pts[0].skipped
    pts = track_point(B, {"x": Q(4), "y": Q(0)})
    assert pts[0].coordinates["s~"] == 2


def test_track_point_keys_are_the_chart_variables():
    # the cobordism's exceptional variable is s2 (s is taken), so the
    # charts' exceptional coordinate is s2~
    ctx = RingContext(["x", "y", "s"], truncation=8)
    B = build_cobordant(Center(ctx, transverse=[("x", Q(2)), ("y", Q(3))]))
    pts = track_point(B, {"x": Q(8), "y": Q(4), "s": Q(1)})
    assert [p.chart for p in pts] == ["x", "y"]
    assert pts[0].coordinates == {"s2~": Q(2), "y~": Q(1), "s": Q(1)}
    for p in pts:
        assert set(p.coordinates) == set(etale_chart(B, p.chart).context.variables)


def test_rational_root_helper():
    assert _rational_root(Q(8, 27), 3) == Q(2, 3)
    assert _rational_root(Q(-8), 3) == -2
    assert _rational_root(Q(2), 2) is None
    assert _rational_root(Q(-4), 2) is None
    assert _rational_root(Q(0), 5) == 0


@pytest.mark.parametrize("c, n, root", [
    (Q((10**20 + 7) ** 3), 3, Q(10**20 + 7)),
    (Q(-(10**20 + 7) ** 3), 3, Q(-(10**20 + 7))),
    (Q(3**400), 2, Q(3**200)),
    (Q(2**100, 3**200), 2, Q(2**50, 3**100)),
    (Q(-(5**60), 7**35), 5, Q(-(5**12), 7**7)),
    (Q(1, 4), 2, Q(1, 2)),
    (Q(-1, 27), 3, Q(-1, 3)),
    (Q(1), 7, Q(1)),
    (Q((10**20 + 7) ** 3 + 1), 3, None),
    (Q(3**400 - 1), 2, None),
    (Q(2**100, 3), 2, None),
    (Q(-(5**60)), 4, None),
    (Q(10**30 + 1), 3, None),
])
def test_rational_root_is_exact(c, n, root):
    assert _rational_root(c, n) == root


# -- stopping predicate ------------------------------------------------------

def test_unit_times_divisor_monomial():
    ctx = RingContext(["x", "z"], divisor=["z"], truncation=8)
    P = lambda t: parse_poly(ctx, t)
    assert _unit_times_divisor_monomial(P("z^2"))
    assert _unit_times_divisor_monomial(P("z^2 + z^2*x"))
    assert _unit_times_divisor_monomial(P("3 + x"))
    assert not _unit_times_divisor_monomial(P("x*z"))
    assert not _unit_times_divisor_monomial(P("z + x"))


def _reference_unit_times_divisor_monomial(f):
    """Some term is the product of the divisor variables at their least
    exponents, with every other exponent 0."""
    ctx = f.context
    if f.is_zero():
        return False
    div_idx = [i for i, v in enumerate(ctx.variables) if ctx.is_divisor(v)]
    mins = {i: min(e[i] for e in f.terms) for i in div_idx}
    return any(all(e[i] == mins[i] for i in div_idx) and
               all(e[i] == 0 for i in range(len(e)) if i not in div_idx)
               for e in f.terms)


@st.composite
def divisor_jets(draw):
    """Jets f on x y z with random divisor flags, half of them replaced by
    a divisor monomial times f + c for a constant c in 1..3."""
    divisor = sorted(draw(st.sets(st.sampled_from("xyz"))))
    ctx = RingContext(["x", "y", "z"], divisor=divisor, truncation=6)
    terms = {tuple(draw(st.integers(0, 2)) for _ in range(3)):
             draw(st.integers(-2, 2)) for _ in range(draw(st.integers(0, 4)))}
    f = Jet(ctx, terms)
    if draw(st.booleans()):
        mono = {z: draw(st.integers(0, 2)) for z in divisor}
        f = Jet.monomial(ctx, mono) * (f + draw(st.integers(1, 3)))
    return f


@settings(max_examples=300, deadline=None)
@given(divisor_jets())
def test_unit_times_divisor_monomial_matches_reference(f):
    assert _unit_times_divisor_monomial(f) == \
        _reference_unit_times_divisor_monomial(f)


# -- the loop ----------------------------------------------------------------

def test_principalize_vertical_line():
    inst = parse_instance("ring x y\nideal x^5+y\nfoliation d/dx\n")
    steps = principalize(inst, RunConfig())
    assert len(steps) == 1
    s = steps[0]
    assert str(s.before) == "(5, inf+1)"
    assert len(s.after) == 2
    for _, vec in s.after:
        assert str(vec) == "(0)"


def test_principalize_single_variable():
    inst = parse_instance("ring x y\nideal x\n")
    steps = principalize(inst, RunConfig())
    assert len(steps) == 1
    assert str(steps[0].before) == "(1)"


def test_principalize_divisor_monomial_stops_immediately():
    inst = parse_instance(
        "ring x y\ndivisor x y\nideal x*y\nfoliation x*d/dx; y*d/dy\n")
    assert principalize(inst, RunConfig()) == []


def test_principalize_strict_mode():
    inst = parse_instance("ring x y\nideal x^5+y\nfoliation d/dx\n")
    steps = principalize(inst, RunConfig(mode="strict"))
    assert steps and str(steps[0].before) == "(5, inf+1)"


def test_principalize_computes_each_invariant_once(monkeypatch):
    """The drop certificate's invariant of a chart is reused when that
    chart is blown up next round: ex513 (controlled, N = 6) needs one call
    for the source and one per chart, two charts in round 0 and two on
    each of the two branches in round 1 (9 calls if recomputed)."""
    import folprin.driver as driver
    calls = []
    real = driver.inv_at

    def counting(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(driver, "inv_at", counting)
    with open(ex("ex513.fol"), encoding="utf-8") as fh:
        inst = parse_instance(fh.read(), truncation=6)
    steps = principalize(inst, RunConfig(mode="controlled"))
    charts = sum(len(s.after) for s in steps)
    assert len(calls) == 1 + charts == 7


def test_budget_exhaustion_reported():
    from folprin import BudgetExhausted
    inst = parse_instance("ring x y\nideal x*y\n")
    with pytest.raises(BudgetExhausted):
        principalize(inst, RunConfig(max_steps=1, mode="strict"))
    # with enough steps the same instance finishes
    steps = principalize(inst, RunConfig(max_steps=4, mode="strict"))
    assert len(steps) >= 2


# -- CLI ---------------------------------------------------------------------

def test_cli_order_unit():
    code, text = run_cli(["order", ex("unit.fol")])
    assert code == 0 and text.strip() == "0"


def test_cli_inv_golden():
    code, text = run_cli(["inv", ex("ex155.fol")])
    assert code == 0
    assert text.splitlines()[0] == "(5, inf+1)"
    assert "transverse x 5" in text and "invariant y 1" in text


def test_cli_blowup_chart_golden():
    code, text = run_cli(["blowup", "--chart", "x", ex("ex510.fol")])
    assert code == 0
    assert "x'^4 + y'^7 + z'^20 + z'^21*s^7" in text
    assert "x -> s~^35" in text
    assert "mu 35: s~ -> -1, y~ -> 20, z~ -> 7" in text


def test_cli_blowup_modes():
    code, text = run_cli(["blowup", ex("ex513.fol")])
    assert code == 0
    assert "x'*y'" in text and "x'^3*s" in text and "y'^3*s" in text
    code, text = run_cli(["blowup", "--mode", "strict", ex("ex513.fol")])
    assert code == 0
    assert "x'^3 @" in text and "y'^3 @" in text


def test_cli_principalize_json_deterministic():
    code1, text1 = run_cli(["principalize", "--json", ex("ex155.fol")])
    code2, text2 = run_cli(["principalize", "--json", ex("ex155.fol")])
    assert code1 == code2 == 0
    assert text1 == text2
    doc = json.loads(text1)
    assert doc[0]["before"] == "(5, inf+1)"
    assert [c["chart"] for c in doc[0]["after"]] == ["x", "y"]


def test_cli_monres():
    code, text = run_cli(["monres", ex("monomial22.fol")])
    assert code == 0 and "blow up (w1, w2)" in text


def test_cli_chart_names_avoid_ring_variables(tmp_path):
    # y is barred to y~, which the ring already has: it takes y~2
    inst = tmp_path / "bar.fol"
    inst.write_text("ring x y y~\nideal x^2 + y^3\ncenter x@1 y@1\n")
    code, text = run_cli(["blowup", "--chart", "x", str(inst)])
    assert code == 0
    assert "x -> s~\ny -> s~*y~2\ny~ -> y~\nmu 1: s~ -> -1, y~2 -> 1" in text


def test_cli_primed_names_avoid_ring_variables(tmp_path):
    # x is primed to x', which the ring already has: it takes x'2
    inst = tmp_path / "prime.fol"
    inst.write_text("ring x x'\nideal x^2 + x*x'^3\ncenter x@1\n")
    code, text = run_cli(["blowup", str(inst)])
    assert code == 0
    assert text.splitlines()[0] == "cobordism(w=1; x -> s^1*x'2)"


def test_cli_monres_names_the_exceptional_variable(tmp_path):
    # s is a free variable, so the exceptional variable is s2
    inst = tmp_path / "mono.fol"
    inst.write_text("monomial p=1 rows=[[1,-1]] vars s w1 w2\n")
    code, text = run_cli(["monres", str(inst)])
    assert code == 0
    assert "  w1 -> s2^1 * w1'\n  w2 -> s2^1 * w2'\n" in text


def test_cli_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.fol"
    bad.write_text("ring x\nideal x +\n")
    code, text = run_cli(["inv", str(bad)])
    assert code == 1 and "error" in text
    code, _ = run_cli(["inv", str(tmp_path / "missing.fol")])
    assert code == 1


@pytest.mark.parametrize("line", [
    "ideal x/0 + y",
    "rees x@1/0",
    "center x@1/0 y@1",
    "point 1/0 0",
    "foliation 1/0*d/dx",
])
def test_cli_division_by_zero_is_an_input_error(tmp_path, line):
    inst = tmp_path / "zero.fol"
    data = "" if line.startswith(("ideal", "rees")) else "ideal x^2\n"
    inst.write_text("ring x y\n%s%s\n" % (data, line))
    code, text = run_cli(["inv", str(inst)])
    assert code == 1 and text.startswith("error: ")


def test_cli_input_beyond_truncation_is_a_budget_error(tmp_path):
    # x^40 parsed at N = 16 must not vanish and leave y^2 to be principalized
    inst = tmp_path / "deep.fol"
    inst.write_text("ring x y\nideal x^40 + y^2\nfoliation d/dx\n")
    code, text = run_cli(["inv", str(inst), "--truncation", "16"])
    assert code == 2 and text.startswith("budget error")


@pytest.mark.parametrize("text, code, message", [
    ("ring x y\nideal x/0 + y\n", 1, "error: line 2: division by zero"),
    ("ring x y\nideal x\nfoliation d/dz\n", 1,
     "error: line 3: unknown variable 'z' in derivation"),
    ("ring x y\nrees x@-1\n", 1,
     "error: line 2: Rees degrees must be positive, got -1"),
    ("ring x y\nideal x\n\ncenter x@0\n", 1,
     "error: line 4: center weight must be positive"),
    ("ring x y\ndivisor y\nideal x\nfoliation d/dy\n", 1,
     "error: line 4: generator d/dy is not logarithmic"),
    ("# deep\nring x y\nideal x^40 + y^2\n", 2,
     "budget error: line 3: polynomial degree 40 exceeds truncation 16"),
])
def test_cli_instance_errors_name_their_line(tmp_path, text, code, message):
    inst = tmp_path / "bad.fol"
    inst.write_text(text)
    assert run_cli(["inv", str(inst), "--truncation", "16"]) == (
        code, message + "\n")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_truncation_directive_names_its_line(tmp_path, value):
    inst = tmp_path / "trunc.fol"
    inst.write_text("ring x y\nideal x\ntruncation %s\n" % value)
    assert run_cli(["inv", str(inst)]) == (
        1, "error: line 3: truncation must be a positive integer, got %r\n"
        % value)


def test_cli_truncation_option_overrides_the_directive(tmp_path):
    inst = tmp_path / "trunc.fol"
    inst.write_text("ring x y\nideal x\ntruncation abc\n")
    assert run_cli(["inv", str(inst), "--truncation", "4"])[0] == 0
    assert run_cli(["inv", str(inst), "--truncation", "0"]) == (
        1, "error: truncation order must be >= 1\n")


def test_cli_blowup_chart_with_a_center_variable_named_s(tmp_path):
    inst = tmp_path / "s.fol"
    inst.write_text("ring x s\nideal x^2 + s^3\ncenter x@2 s@3\n")
    code, text = run_cli(["blowup", str(inst), "--chart", "x"])
    assert code == 0
    assert text.endswith("x -> s~2^3\ns -> s~2^2*s~\nmu 3: s~ -> 2, s~2 -> -1\n")


def test_python_m_driver_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, "-m", module, "inv",
                            ex("xy_divisor.fol")],
                           capture_output=True, text=True, env=env)
            for module in ("folprin", "folprin.driver")]
    assert runs[0].returncode == 0 and runs[0].stdout
    assert (runs[1].stdout, runs[1].returncode) == \
        (runs[0].stdout, runs[0].returncode)


def test_cli_blowup_failure_prints_no_partial_report(tmp_path):
    # (x) is not admissible for the center (y): the controlled transform
    # fails, and the report is printed only for a finished blow-up
    inst = tmp_path / "bad_center.fol"
    inst.write_text("ring x y\nideal x\ncenter y@1\n")
    code, text = run_cli(["blowup", str(inst)])
    assert code == 1
    assert text == "error: center is not admissible for this Rees algebra\n"
