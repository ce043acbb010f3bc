"""Cobordant weighted blow-ups: the total space B with its exceptional
coordinate s, controlled and strict transforms of elements, Rees algebras,
derivations and foliations, and the etale charts W_i with their residual
group weights.

The substitution x_i -> s^{w_i} x'_i is applied monomial by monomial, so
the s-exponent of every image term is exact; poles are never represented by
rational functions but by an explicit integer s-exponent ledger next to a
polynomial cofactor.
"""

from __future__ import annotations

from typing import Tuple

from .foliation import BudgetExhausted, Derivation, Foliation
from .kernel import ContextMismatch, Echelon, Jet, Q, RingContext
from .rees import Center, ReesAlgebra, is_admissible, rational_lcm

EXCEPTIONAL = "s"


class Cobordism:
    """The blow-up total space of a weighted center.

    Center variables x_i (weight a_i) become primed variables x_i' in the
    target; every other variable keeps its name; the fresh exceptional
    variable s is divisor-flagged and placed last.  The substitution is
    x_i -> s^{w_i} x_i' with w_i = w / a_i an exact integer.  Every derived
    name, here and in the charts, is picked by `_pick_names`.
    """

    __slots__ = ("center", "source", "target", "w", "weights", "name_map",
                 "exceptional")

    def __init__(self, center: Center, w: int, weights: dict, target: RingContext,
                 name_map: dict, exceptional: str):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "source", center.context)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "weights", dict(weights))
        object.__setattr__(self, "name_map", dict(name_map))
        object.__setattr__(self, "exceptional", exceptional)

    def __setattr__(self, *a):
        raise AttributeError("Cobordism is immutable")

    def chart_names(self, variable: str) -> dict:
        """Source variable -> name in the chart of the center variable
        `variable`: the other center variables are barred with a '~', the
        rest keep their names, and `variable` names the chart's exceptional
        coordinate, the exceptional name with a '~'."""
        src = self.source.variables
        barred = [v for v in src if v in self.weights and v != variable]
        picks = _pick_names([v for v in src if v not in self.weights],
                            [v + "~" for v in barred] + [self.exceptional + "~"])
        names = dict(zip(barred + [variable], picks))
        return {v: names.get(v, v) for v in src}

    def __str__(self):
        subs = ", ".join("%s -> %s^%d*%s" % (v, self.exceptional, self.weights[v], self.name_map[v])
                         for v in self.center.variables())
        return "cobordism(w=%d; %s)" % (self.w, subs)

    __repr__ = __str__


def build_cobordant(C: Center) -> Cobordism:
    """w = lcm(weights), scaled up to an integer when the rational lcm is
    fractional; chart weights w_i = w/a_i are exact integers."""
    if C.is_empty():
        raise ValueError("cannot blow up an empty center")
    ctx = C.context
    w = rational_lcm(C.weights().values())
    if w.denominator != 1:
        w = w * w.denominator
    w = int(w)
    weights = {}
    for v, a in (list(C.transverse) + list(C.invariant) + list(C.divisorial)):
        wi = Q(w) / a
        if wi.denominator != 1:
            raise ValueError("chart weight w/%s is not an integer" % a)
        weights[v] = int(wi)
    primed = [v for v in ctx.variables if v in weights]
    *picks, exceptional = _pick_names(
        [v for v in ctx.variables if v not in weights],
        [v + "'" for v in primed] + [EXCEPTIONAL])
    name_map = {v: v for v in ctx.variables}
    name_map.update(zip(primed, picks))
    variables = [name_map[v] for v in ctx.variables] + [exceptional]
    divisor = [name_map[v] for v in ctx.divisor] + [exceptional]
    target = RingContext(variables, divisor=divisor, truncation=ctx.truncation)
    return Cobordism(C, w, weights, target, name_map, exceptional)


def _pick_names(kept, wanted) -> list:
    """The derived names for `wanted`, in order: each wanted name, or else
    the first of name2, name3, ... that no kept name and no earlier pick
    already has."""
    taken = set(kept)
    picks = []
    for base in wanted:
        name, k = base, 2
        while name in taken:
            name = "%s%d" % (base, k)
            k += 1
        taken.add(name)
        picks.append(name)
    return picks


def _substitute(B: Cobordism, f: Jet, s_shift: int) -> Jet:
    """Monomial-exact pullback through x_i -> s^{w_i} x'_i, divided by
    s^{s_shift}.  Terms whose image exceeds the truncation order are
    dropped (they are beyond the certified precision of the input)."""
    src, tgt = B.source, B.target
    if f.context != src:
        raise ContextMismatch("jet does not live on the blow-up source")
    n = len(tgt.variables)
    s_index = tgt.index(B.exceptional)
    out = {}
    for e, c in f.terms.items():
        sval = 0
        new_e = [0] * n
        for v, k in zip(src.variables, e):
            if k == 0:
                continue
            sval += B.weights.get(v, 0) * k
            new_e[tgt.index(B.name_map[v])] = k
        if sval - s_shift < 0:
            raise ValueError(
                "s^%d does not divide the pullback (monomial %r has "
                "s-valuation %d)" % (s_shift, e, sval))
        new_e[s_index] = sval - s_shift
        key = tuple(new_e)
        out[key] = out.get(key, Q(0)) + c
    return Jet(tgt, out)


def transform_element(B: Cobordism, f: Jet, mode: str = "controlled",
                      a=None) -> Tuple[Jet, int]:
    """(cofactor, extracted s-exponent).

    controlled: divide the pullback by exactly s^{a*w}; every monomial of f
    must lie in the center's degree-a graded piece, which is precisely the
    per-monomial divisibility condition.
    strict: divide by the maximal power s^{b_f}.
    """
    if f.is_zero():
        return Jet.zero(B.target), 0
    if mode == "controlled":
        if a is None:
            raise ValueError("controlled transform needs the control degree a")
        k = Q(a) * B.w
        if k.denominator != 1:
            raise ValueError(
                "a*w = %s is not an integer: the control degree a is not a "
                "multiple of 1/w for this center" % k)
        k = int(k)
    elif mode == "strict":
        k = f.weighted_order(B.weights)
    else:
        raise ValueError("unknown transform mode %r" % mode)
    return _substitute(B, f, k), k


def transform_rees(B: Cobordism, R: ReesAlgebra, mode: str = "controlled") -> ReesAlgebra:
    """Generator-wise transform at each generator's own degree."""
    if mode == "controlled" and not R.is_trivial():
        if not is_admissible(R, B.center):
            raise ValueError("center is not admissible for this Rees algebra")
    return ReesAlgebra(B.target, [(transform_element(B, f, mode, a=b)[0], b)
                                  for f, b in R.generators])


def transform_derivation(B: Cobordism, d: Derivation,
                         mode: str = "controlled") -> Tuple[Derivation, int]:
    """Transform of a derivation with its integer s-exponent ledger.

    sigma^*(sum g_v d/dv) = sum sigma^*(g_v) s^{-w_v} d/dv' with
    sigma^*(d)(s) = 0.  Let v_min be the minimal s-valuation over all
    coefficient monomials (shifted by -w_v on center variables).  The
    returned pair (D, k) satisfies D = s^k * sigma^*(d):

      controlled: k = max(0, -v_min), the minimal nonnegative power
        clearing all poles;
      strict: k = -v_min, additionally removing any common s-factor.
    """
    if d.is_zero():
        return Derivation.zero(B.target), 0
    if d.context != B.source:
        raise ContextMismatch("derivation does not live on the blow-up source")
    v_min = min(g.weighted_order(B.weights) - B.weights.get(v, 0)
                for v, g in d.coefficients.items())
    if mode == "controlled":
        k = max(0, -v_min)
    elif mode == "strict":
        k = -v_min
    else:
        raise ValueError("unknown transform mode %r" % mode)
    coeffs = {}
    for v, g in d.coefficients.items():
        shift = B.weights.get(v, 0) - k
        coeffs[B.name_map[v]] = _substitute(B, g, shift)
    return Derivation(B.target, coeffs), k


def _divide_derivation_by_s(D: Derivation, s_index: int, m: int) -> Derivation:
    ctx = D.context
    coeffs = {}
    for v, g in D.coefficients.items():
        terms = {}
        for e, c in g.terms.items():
            e2 = list(e)
            e2[s_index] -= m
            if e2[s_index] < 0:
                raise ValueError("s-division of a derivation is not exact")
            terms[tuple(e2)] = c
        coeffs[v] = Jet(ctx, terms)
    return Derivation(ctx, coeffs)


def _rational_dependency(vectors):
    """A nontrivial rational kernel vector of the column family, or None.

    The rows [v_j | e_j] go through one echelon basis in order.  The first
    row that reduces into the identity block gives the combination
    {k: c_k} with sum c_k v_k = 0, scaled so that c_j = 1; it is unique,
    since the earlier vectors are independent."""
    keys = {}
    for vec in vectors:
        for key in vec:
            keys.setdefault(key, len(keys))
    m = len(keys)
    basis = Echelon()
    for j, vec in enumerate(vectors):
        row = {keys[key]: c for key, c in vec.items()}
        row[m + j] = 1
        lead = basis.add(row)
        if lead >= m:
            row = basis.rows[lead]
            return {k - m: Q(c, row[m + j]) for k, c in row.items()}
    return None


def transform_foliation(B: Cobordism, F: Foliation, mode: str = "controlled") -> Foliation:
    """Controlled: the controlled transform of each generator.  Strict: the
    strict transforms closed under clearing common s-factors of rational
    combinations, iterated until the generators are independent modulo s
    (bounded saturation with a stability certificate)."""
    gens = []
    for d in F.generators:
        D, _ = transform_derivation(B, d, mode)
        if not D.is_zero():
            gens.append(D)
    if mode != "strict":
        return Foliation(B.target, gens)
    s = B.exceptional
    s_index = B.target.index(s)
    budget = B.target.truncation * max(1, len(gens))
    for _ in range(budget + 1):
        if not gens:
            break
        # each generator's terms at s = 0, keyed by (variable, exponent)
        combo = _rational_dependency(
            [{(v, e): c for v, g in D.coefficients.items()
              for e, c in g.restrict(s).terms.items()} for D in gens])
        if combo is None:
            break  # independent modulo s: saturation is stable
        E = Derivation.zero(B.target)
        for j, c in combo.items():
            E = E + gens[j].scale(c)
        j_drop = max(combo)
        if E.is_zero():
            del gens[j_drop]
            continue
        m = min(g.var_order(s) for g in E.coefficients.values())
        if m < 1:
            raise BudgetExhausted("s-saturation failed to make progress")
        gens[j_drop] = _divide_derivation_by_s(E, s_index, m)
    else:
        raise BudgetExhausted("s-saturation did not stabilize within budget")
    return Foliation(B.target, gens)


class EtaleChart:
    """The chart W_i with residual group mu_{w_i}.

    Substitution from the ambient: x_i -> sbar^{w_i}, x_j -> sbar^{w_j}
    xbar_j for the other center variables, untouched otherwise.  Names come
    from `Cobordism.chart_names`.
    Group weights: -1 on sbar and w_j on each xbar_j.
    """

    __slots__ = ("cobordism", "variable", "group_order", "context",
                 "name_map", "images")

    def __init__(self, cobordism: Cobordism, variable: str):
        weights = cobordism.weights
        if variable not in weights:
            raise ValueError("%r is not a center variable" % variable)
        src = cobordism.source
        name_map = cobordism.chart_names(variable)
        sbar = name_map[variable]
        variables = [sbar] + [name_map[v] for v in src.variables if v != variable]
        divisor = [sbar] + [name_map[v] for v in src.divisor if v != variable]
        # chart images have degree up to max(w_i); scale the precision so
        # substitution through them stays faithful to the source precision
        scale = max(weights.values())
        ctx = RingContext(variables, divisor=divisor,
                          truncation=src.truncation * scale)
        images = {}
        sbar_jet = Jet.variable(ctx, sbar)
        for v in src.variables:
            if v == variable:
                images[v] = sbar_jet ** weights[v]
            elif v in weights:
                images[v] = (sbar_jet ** weights[v]) * Jet.variable(ctx, name_map[v])
            else:
                images[v] = Jet.variable(ctx, name_map[v])
        object.__setattr__(self, "cobordism", cobordism)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "group_order", weights[variable])
        object.__setattr__(self, "context", ctx)
        object.__setattr__(self, "name_map", name_map)
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("EtaleChart is immutable")

    def group_weights(self) -> dict:
        out = {self.name_map[self.variable]: -1}
        for v, wv in self.cobordism.weights.items():
            if v != self.variable:
                out[self.name_map[v]] = wv
        return out

    def pull(self, f: Jet) -> Jet:
        if f.context != self.cobordism.source:
            raise ContextMismatch("jet does not live on the chart's source")
        return f.substitute(self.images, self.context)

    def report(self) -> str:
        lines = []
        for v in self.cobordism.source.variables:
            img = self.images[v]
            lines.append("%s -> %s" % (v, img))
        mu = ", ".join("%s -> %d" % (v, w)
                       for v, w in sorted(self.group_weights().items()))
        lines.append("mu %d: %s" % (self.group_order, mu))
        return "\n".join(lines)


def etale_chart(B: Cobordism, variable: str) -> EtaleChart:
    """Chart of the center variable `variable`."""
    return EtaleChart(B, variable)


def chart_transform_derivation(chart: EtaleChart, d: Derivation) -> Derivation:
    """Controlled chart transform, by linear extension of the table
    tau^c(d/dx_1) = (1/w_1)(sbar d/dsbar - sum w_j xbar_j d/dxbar_j),
    tau^c(d/dx_j) = d/dxbar_j, tau^c(d/dv) = d/dv."""
    B = chart.cobordism
    if d.context != B.source:
        raise ContextMismatch("derivation does not live on the chart's source")
    ctx = chart.context
    sbar = chart.name_map[chart.variable]
    w1 = chart.group_order
    out = Derivation.zero(ctx)
    for v, g in d.coefficients.items():
        coeff = chart.pull(g)
        if v == chart.variable:
            table = {sbar: Jet.variable(ctx, sbar) * Q(1, w1)}
            for u, wu in B.weights.items():
                if u == chart.variable:
                    continue
                nu = chart.name_map[u]
                table[nu] = Jet.variable(ctx, nu) * Q(-wu, w1)
            term = Derivation(ctx, table)
        else:
            term = Derivation.partial(ctx, chart.name_map[v])
        out = out + term.scale(coeff)
    return out
