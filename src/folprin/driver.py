"""The principalization loop, point tracking through blow-up charts, the
instance-file format, and the command-line interface.

Instances are pointed: every tracked point is re-centered to the origin of
its own local context, so the whole pipeline runs on origin-pointed data.
The loop checks the stopping condition first, computes the invariant and
its maximal aligned center, rewrites the data into the aligned chart, blows
up, transforms in the configured mode, and certifies the strict invariant
drop at every chart origin on the exceptional divisor.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .blowup import (
    Cobordism, build_cobordant, etale_chart, transform_foliation, transform_rees,
)
from .foliation import (
    BudgetExhausted, Derivation, Foliation, INFINITE, NotLogarithmic,
    f_order_rees, parse_derivation,
)
from .invariant import CertificateFailure, PointedInstance, check_transverse, inv_at
from .kernel import (
    DEFAULT_TRUNCATION, IdealGens, Jet, ParseError, Q, RingContext,
    TruncationOverflow, parse_poly,
)
from .monres import MonomialPresentation, SmRankFailure, monomial_resolve, resolve_report
from .rees import (
    Center, InvVector, ReesAlgebra, compare_inv, rees_from_ideal,
)


# ---------------------------------------------------------------------------
# configuration and trace records

@dataclass(frozen=True)
class RunConfig:
    max_steps: int = 20
    mode: str = "controlled"            # controlled | strict, for R and F both

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max steps must be at least 1")
        if self.mode not in ("controlled", "strict"):
            raise ValueError("mode must be 'controlled' or 'strict'")


@dataclass(frozen=True)
class TraceStep:
    index: int
    branch: str
    before: InvVector
    center: Center
    cobordism_summary: str
    after: Tuple[Tuple[str, InvVector], ...]   # (chart label, sampled inv)

    def report_lines(self) -> List[str]:
        where = " [branch %s]" % self.branch if self.branch else ""
        lines = ["step %d%s: inv %s" % (self.index, where, self.before),
                 "  center: %s" % (self.center,),
                 "  %s" % self.cobordism_summary]
        for label, vec in self.after:
            lines.append("  chart %s: inv %s" % (label, vec))
        return lines

    def as_dict(self) -> dict:
        return {
            "step": self.index,
            "branch": self.branch,
            "before": str(self.before),
            "center": str(self.center),
            "cobordism": self.cobordism_summary,
            "after": [{"chart": label, "inv": str(vec)}
                      for label, vec in self.after],
        }


# ---------------------------------------------------------------------------
# instance files

class Instance:
    """Parsed instance: a context, a Rees algebra, a foliation, tracked
    points, and optionally a monomial presentation block."""

    __slots__ = ("context", "rees", "foliation", "points", "monomial",
                 "explicit_center", "subspace")

    def __init__(self, context, rees, foliation, points, monomial=None,
                 explicit_center=None, subspace=None):
        self.context = context
        self.rees = rees
        self.foliation = foliation
        self.points = points
        self.monomial = monomial
        self.explicit_center = explicit_center
        self.subspace = subspace


def parse_instance(text: str, truncation: Optional[int] = None) -> Instance:
    """Line-oriented format; '#' starts a comment.

      ring x y z
      divisor z
      ideal x^5+y; x*y
      rees x^2@2; y@1
      foliation d/dx; x*d/dx - y*d/dy
      center x@4 y@7 z@20
      subspace x; y
      point 0 0 0
      truncation 16
      monomial p=1 rows=[[1,1]] vars v w1 w2
    """
    directives: List[Tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        directives.append((lineno, head, rest.strip()))

    def only(name):
        found = [(n, r) for n, h, r in directives if h == name]
        if len(found) > 1:
            raise ParseError("line %d: duplicate '%s' directive" % (found[1][0], name))
        return found[0] if found else (None, None)

    known = {"ring", "divisor", "ideal", "rees", "foliation", "center",
             "subspace", "point", "truncation", "monomial"}
    for n, h, _ in directives:
        if h not in known:
            raise ParseError("line %d: unknown directive %r" % (n, h))

    trunc_line, trunc_text = only("truncation")
    N = truncation
    if N is None and trunc_text:
        with _at_line(trunc_line):
            try:
                N = int(trunc_text)
            except ValueError:
                N = 0
            if N < 1:
                raise ParseError("truncation must be a positive integer, got %r"
                                 % trunc_text)
    elif N is None:
        N = DEFAULT_TRUNCATION

    mono_line, mono_text = only("monomial")
    monomial = _parse_monomial_block(mono_text, N, mono_line) if mono_text else None

    ring_line, ring_text = only("ring")
    if ring_text is None:
        if monomial is None:
            raise ParseError("missing 'ring' directive")
        return Instance(monomial.context, None, None, [], monomial=monomial)
    variables = ring_text.split()
    _, div_text = only("divisor")
    divisor = div_text.split() if div_text else []
    for v in divisor:
        if v not in variables:
            raise ParseError("divisor variable %r not in the ring" % v)
    ctx = RingContext(variables, divisor=divisor, truncation=N)

    ideal_line, ideal_text = only("ideal")
    rees_line, rees_text = only("rees")
    if ideal_text and rees_text:
        raise ParseError("give either 'ideal' or 'rees', not both")
    if rees_text:
        with _at_line(rees_line):
            gens = []
            for part in rees_text.split(";"):
                part = part.strip()
                if not part:
                    continue
                poly, _, deg = part.rpartition("@")
                if not poly:
                    raise ParseError("rees generator %r lacks '@degree'" % part)
                gens.append((parse_poly(ctx, poly), _rational(deg)))
            R = ReesAlgebra(ctx, gens)
    elif ideal_text:
        with _at_line(ideal_line):
            gens = [parse_poly(ctx, part) for part in ideal_text.split(";")
                    if part.strip()]
            R = rees_from_ideal(IdealGens(ctx, gens))
    else:
        R = ReesAlgebra(ctx, [])

    fol_line, fol_text = only("foliation")
    if fol_text:
        with _at_line(fol_line):
            F = Foliation(ctx, [parse_derivation(ctx, part)
                                for part in fol_text.split(";") if part.strip()])
    else:
        F = Foliation.full(ctx)

    center_line, center_text = only("center")
    explicit_center = None
    if center_text:
        with _at_line(center_line):
            transverse, divisorial = [], []
            for part in center_text.split():
                v, _, w = part.partition("@")
                if v not in variables:
                    raise ParseError("center variable %r not in the ring" % v)
                (divisorial if ctx.is_divisor(v) else transverse).append(
                    (v, _rational(w)))
            explicit_center = Center(ctx, transverse=transverse,
                                     divisorial=divisorial)

    sub_line, sub_text = only("subspace")
    subspace = None
    if sub_text:
        with _at_line(sub_line):
            subspace = IdealGens(ctx, [parse_poly(ctx, part)
                                       for part in sub_text.split(";")
                                       if part.strip()])

    points = []
    for n, h, rest in directives:
        if h != "point":
            continue
        coords = rest.split()
        with _at_line(n):
            if len(coords) != len(variables):
                raise ParseError("point has %d coordinates for %d variables"
                                 % (len(coords), len(variables)))
            points.append({v: _rational(c) for v, c in zip(variables, coords)})
    return Instance(ctx, R, F, points, monomial=monomial,
                    explicit_center=explicit_center, subspace=subspace)


@contextmanager
def _at_line(lineno: int):
    """Input errors raised inside name the line; their type is kept."""
    try:
        yield
    except ValueError as exc:
        exc.args = ("line %d: %s" % (lineno, exc),)
        raise


def _rational(text: str) -> Fraction:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad rational number %r" % text) from None


def _parse_monomial_block(text: str, truncation: int,
                          lineno) -> MonomialPresentation:
    """`p=<int> rows=[[...]] vars v1 .. wm` (vars optional)."""
    fields = {}
    toks = text.split()
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == "vars" or tok.startswith("vars="):
            tail = toks[i + 1:]
            if tok.startswith("vars="):
                tail = [tok.partition("=")[2]] + tail
            fields["vars"] = [t for t in tail if t]
            break
        if "=" in tok:
            key, _, val = tok.partition("=")
            fields[key] = val
            i += 1
        else:
            raise ParseError("line %s: bad monomial token %r" % (lineno, tok))
    try:
        p = int(fields["p"])
        rows = json.loads(fields["rows"])
    except (KeyError, ValueError) as exc:
        raise ParseError("line %s: bad monomial block (%s)" % (lineno, exc))
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError("line %s: rows must be a list of lists" % lineno)
    names = fields.get("vars")
    if names:
        ctx = RingContext(names, divisor=(), truncation=truncation)
        return MonomialPresentation(ctx, p, rows)
    return MonomialPresentation.from_matrix(rows, p=p, truncation=truncation)


# ---------------------------------------------------------------------------
# point tracking

@dataclass(frozen=True)
class ChartPoint:
    chart: str                       # center variable naming the chart
    coordinates: Optional[dict]      # chart coords; None when skipped
    skipped: Optional[str] = None    # reason, e.g. irrational root


def _integer_root(m: int, n: int) -> Optional[int]:
    """The exact n-th root of an integer m >= 1, or None: isqrt for n = 2,
    otherwise integer Newton from an upper bound, which decreases to the
    floor of the root."""
    if n == 2:
        r = isqrt(m)
    else:
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r ** n == m else None


def _rational_root(c: Fraction, n: int) -> Optional[Fraction]:
    """The rational n-th root of c, if one exists (positive root for even
    n; sign preserved for odd n)."""
    if n == 1:
        return c
    if c == 0:
        return Q(0)
    sign = 1
    if c < 0:
        if n % 2 == 0:
            return None
        sign, c = -1, -c

    pr, qr = _integer_root(c.numerator, n), _integer_root(c.denominator, n)
    if pr is None or qr is None:
        return None
    return sign * Q(pr, qr)


def track_point(B: Cobordism, point: dict) -> List[ChartPoint]:
    """Preimages of a source point in the blow-up charts.

    For each chart (one per center variable) the substitution
    x_i = sbar^{w_i}, x_j = sbar^{w_j} xbar_j is solved for the barred
    coordinates.  Points on the center have the whole exceptional fibre as
    preimage; the deterministic sample is the chart origin (sbar = 0,
    barred zero).  Irrational roots are reported as skipped, never silently
    dropped.
    """
    src = B.source
    pt = {v: Q(point.get(v, 0)) for v in src.variables}
    cvars = B.center.variables()
    on_center = all(pt[v] == 0 for v in cvars)
    out: List[ChartPoint] = []
    for ci in cvars:
        names = B.chart_names(ci)
        if on_center:
            sbar = Q(0)
        elif pt[ci] == 0:
            continue  # the point misses this chart
        else:
            sbar = _rational_root(pt[ci], B.weights[ci])
            if sbar is None:
                out.append(ChartPoint(ci, None,
                                      skipped="no rational %d-th root of %s"
                                      % (B.weights[ci], pt[ci])))
                continue
        coords = {names[ci]: sbar}
        for cj in cvars:
            if cj != ci:
                coords[names[cj]] = pt[cj] / sbar ** B.weights[cj] if sbar else Q(0)
        for v in src.variables:
            if v not in cvars:
                coords[v] = pt[v]
        out.append(ChartPoint(ci, coords))
    return out


# ---------------------------------------------------------------------------
# the principalization loop

def _unit_times_divisor_monomial(f: Jet) -> bool:
    """f = (monomial in divisor variables) * unit, exactly: f has the term
    prod z^{ord_z f} over the divisor variables z."""
    return not f.is_zero() and f.coefficient(
        {z: f.var_order(z) for z in f.context.divisor}) != 0


def _is_principalized(R: ReesAlgebra, mode: str) -> bool:
    if R.is_trivial() or R.has_unit_generator():
        return True
    if mode == "strict":
        return False
    return all(_unit_times_divisor_monomial(f) for f, _ in R.generators)


def _rewrite_derivation(center: Center, d: Derivation) -> Derivation:
    """Express an ambient derivation in the center's aligned coordinates."""
    return d if center.change is None else center.change.push_derivation(d)


def _coordinate_center(center: Center) -> Center:
    """The same tiers without the chart data (data already rewritten)."""
    return Center(center.context, transverse=center.transverse,
                  invariant=center.invariant, divisorial=center.divisorial)


def _translate_local(ctx: RingContext, R: ReesAlgebra, F: Foliation,
                     shift: Dict[str, Fraction]):
    """Re-center at the shifted point; divisor flags of variables moved off
    their hyperplane are dropped (the divisor no longer passes through the
    new origin)."""
    moved = [v for v, c in shift.items() if c != 0 and ctx.is_divisor(v)]
    if moved:
        keep = [v for v in ctx.variables
                if ctx.is_divisor(v) and v not in moved]
        ctx2 = RingContext(ctx.variables, divisor=keep,
                           truncation=ctx.truncation)
    else:
        ctx2 = ctx
    # rename first so translations off a divisor hyperplane act in the
    # context that no longer flags the moved variable
    return ctx2, R.rename(ctx2).translate(shift), F.rename(ctx2).translate(shift)


def _blow_up(center: Center, R: ReesAlgebra, F: Foliation, mode: str):
    """Rewrite (R, F) into the center's aligned chart and blow up there:
    (cobordism, transformed R, transformed F) in the given mode."""
    ctx = R.context
    Ra = ReesAlgebra(ctx, [(center.rewrite(f), b) for f, b in R.generators])
    Fa = Foliation(ctx, [_rewrite_derivation(center, d) for d in F])
    B = build_cobordant(_coordinate_center(center))
    return B, transform_rees(B, Ra, mode=mode), transform_foliation(B, Fa, mode=mode)


@dataclass(eq=False)
class _Local:
    """One origin-pointed tracked instance, with its (InvVector, Center)
    once the drop certificate has computed it."""
    context: RingContext
    rees: ReesAlgebra
    foliation: Foliation
    branch: str = ""
    inv: Optional[Tuple[InvVector, Center]] = None


def principalize(instance: Instance, config: RunConfig) -> List[TraceStep]:
    """Blow up the invariant-maximal center at every tracked point until
    the transformed data is principal (controlled mode: a unit times a
    divisor monomial; strict mode: trivial), certifying the strict
    invariant drop of every chart sample along the way."""
    ctx, R, F = instance.context, instance.rees, instance.foliation
    if R is None:
        raise ValueError("instance has no ideal or rees data")
    locals_: List[_Local] = []
    points = instance.points or [dict()]
    for i, pt in enumerate(points):
        shift = {v: Q(pt.get(v, 0)) for v in ctx.variables}
        c2, r2, f2 = _translate_local(ctx, R, F, shift)
        label = "" if len(points) == 1 else "p%d" % i
        locals_.append(_Local(c2, r2, f2, label))
    steps: List[TraceStep] = []
    for round_no in range(config.max_steps):
        active = [L for L in locals_
                  if not _is_principalized(L.rees, config.mode)]
        if not active:
            return steps
        next_locals: List[_Local] = []
        for L in locals_:
            if L not in active:
                next_locals.append(L)
                continue
            vec, center = L.inv or inv_at(
                PointedInstance(L.context, L.rees, L.foliation))
            if center.is_empty():
                raise CertificateFailure(
                    "no center at branch %r yet the data is not principal"
                    % L.branch)
            B, Rt, Ft = _blow_up(center, L.rees, L.foliation, config.mode)
            after = []
            for ci in B.center.variables():
                shift = {v: Q(0) for v in B.target.variables}
                shift[B.name_map[ci]] = Q(1)
                c2, r2, f2 = _translate_local(B.target, Rt, Ft, shift)
                child_label = (L.branch + "/" if L.branch else "") + ci
                child_inv = inv_at(PointedInstance(c2, r2, f2))
                vec2 = child_inv[0]
                if compare_inv(vec2, vec) >= 0:
                    raise CertificateFailure(
                        "invariant failed to drop at chart %s: %s -> %s"
                        % (child_label, vec, vec2))
                after.append((ci, vec2))
                next_locals.append(_Local(c2, r2, f2, child_label, child_inv))
            steps.append(TraceStep(
                index=round_no, branch=L.branch, before=vec, center=center,
                cobordism_summary=str(B), after=tuple(after)))
        locals_ = next_locals
    remaining = [L.branch for L in locals_
                 if not _is_principalized(L.rees, config.mode)]
    if remaining:
        raise BudgetExhausted(
            "step budget %d exhausted with unfinished branches %s"
            % (config.max_steps, remaining))
    return steps


# ---------------------------------------------------------------------------
# command line

def _load(path: str, truncation: Optional[int]) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), truncation=truncation)


def _pick_center(inst: Instance) -> Center:
    if inst.explicit_center is not None:
        return inst.explicit_center
    _, center = inv_at(PointedInstance(inst.context, inst.rees, inst.foliation))
    return center


def _print(out, line):
    out.write(line + "\n")


def cli_main(argv: Optional[Sequence[str]] = None,
             out=None) -> int:
    out = out or sys.stdout
    ap = argparse.ArgumentParser(
        prog="folprin",
        description="exact foliated principalization over Q")
    ap.add_argument("command",
                    choices=["order", "inv", "center", "blowup",
                             "principalize", "monres", "check-transverse"])
    ap.add_argument("instance", help="instance file")
    ap.add_argument("--mode", choices=["controlled", "strict"],
                    default="controlled")
    ap.add_argument("--max-steps", type=int, default=20)
    ap.add_argument("--truncation", type=int, default=None)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--chart", default=None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return _dispatch(args, out)
    except (BudgetExhausted, TruncationOverflow) as exc:
        _print(out, "budget error: %s" % exc)
        return 2
    except (ParseError, ValueError, NotLogarithmic, CertificateFailure,
            SmRankFailure, OSError) as exc:
        _print(out, "error: %s" % exc)
        return 1


def _dispatch(args, out) -> int:
    inst = _load(args.instance, args.truncation)

    if args.command == "monres":
        if inst.monomial is None:
            raise ValueError("instance has no 'monomial' block")
        steps = monomial_resolve(inst.monomial)
        if args.json:
            doc = [{"step": s.index, "branch": s.label,
                    "center": list(s.center_variables),
                    "substitutions": list(s.substitutions),
                    "samples": [{"point": [str(c) for c in pt], "sm_rank": r}
                                for pt, r in s.samples]}
                   for s in steps]
            _print(out, json.dumps(doc, indent=2))
        else:
            _print(out, resolve_report(steps))
        return 0

    if inst.rees is None:
        raise ValueError("instance has no ideal or rees data")
    pointed = PointedInstance(inst.context, inst.rees, inst.foliation)

    if args.command == "order":
        o = f_order_rees(inst.foliation, inst.rees)
        _print(out, "inf" if o == INFINITE else str(o))
        return 0

    if args.command in ("inv", "center"):
        vec, center = inv_at(pointed)
        if args.json:
            _print(out, json.dumps({"inv": str(vec), "center": str(center)}))
        elif args.command == "inv":
            _print(out, str(vec))
            _print(out, "center: %s" % center)
        else:
            _print(out, str(center))
        return 0

    if args.command == "blowup":
        center = _pick_center(inst)
        if center.is_empty():
            raise ValueError("empty center: nothing to blow up")
        mode = args.mode
        B, Rt, Ft = _blow_up(center, inst.rees, inst.foliation, mode)
        _print(out, str(B))
        for f, b in Rt.generators:
            _print(out, "%s transform: %s @ %s" % (mode, f, b))
        for d in Ft.generators:
            _print(out, "%s foliation: %s" % (mode, d))
        if args.chart:
            ch = etale_chart(B, args.chart)
            _print(out, ch.report())
        return 0

    if args.command == "principalize":
        config = RunConfig(max_steps=args.max_steps, mode=args.mode)
        steps = principalize(inst, config)
        if args.json:
            _print(out, json.dumps([s.as_dict() for s in steps], indent=2))
        else:
            if not steps:
                _print(out, "already principal: no blow-up needed")
            for s in steps:
                for line in s.report_lines():
                    _print(out, line)
        return 0

    if args.command == "check-transverse":
        if inst.subspace is None:
            raise ValueError("instance has no 'subspace' directive")
        ok = check_transverse(pointed, inst.subspace)
        _print(out, "transverse" if ok else "not transverse")
        return 0

    raise ValueError("unknown command %r" % args.command)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
