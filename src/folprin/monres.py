"""Monomial foliation normal forms over Q and the sm-rank smoothing loop.

A monomial presentation packages a foliation generated by p coordinate
fields d/dv_i together with invariant generators
nabla_j = sum_k a_{jk} w_k d/dw_k.  Blowing up the coordinate ideal of the
w-variables appearing in the matrix (all weights 1) transforms each
nabla_j into the same expression in the primed variables, with the exact
same matrix; the evaluated rank strictly increases on the punctured total
space.  Iterating through local models at the sampled points of minimal
rank terminates in at most rank(A) rounds with a log-smooth foliation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .blowup import build_cobordant, transform_foliation
from .foliation import (
    BudgetExhausted, Derivation, Foliation, is_f_invariant, log_smooth_at,
    sm_rank_at,
)
from .kernel import (
    DEFAULT_TRUNCATION, Echelon, IdealGens, Jet, Q, RingContext, rank,
)
from .rees import Center, rees_from_ideal


class MonomialPresentation:
    """p free coordinate fields plus rational matrix rows over the
    w-variables.

    The context's first p variables are the free block v_1..v_p; the
    remaining m variables are the w-block indexed by the matrix columns.
    """

    __slots__ = ("context", "p", "rows")

    def __init__(self, context: RingContext, p: int, rows: Sequence[Sequence]):
        if p < 0 or p > len(context.variables):
            raise ValueError("free-variable count out of range")
        m = len(context.variables) - p
        norm_rows = []
        for row in rows:
            row = [Q(c) for c in row]
            if len(row) != m:
                raise ValueError(
                    "matrix row has %d entries for %d w-variables"
                    % (len(row), m))
            norm_rows.append(tuple(row))
        for v in context.variables[:p]:
            if context.is_divisor(v):
                raise ValueError(
                    "free-block variable %r carries a divisor flag" % v)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", tuple(norm_rows))

    def __setattr__(self, *a):
        raise AttributeError("MonomialPresentation is immutable")

    @staticmethod
    def from_matrix(rows: Sequence[Sequence], p: int = 0,
                    truncation: int = DEFAULT_TRUNCATION) -> "MonomialPresentation":
        """Fresh context v1..vp, w1..wm (no divisor), m from the rows."""
        rows = [list(r) for r in rows]
        ctx = _fresh_context(p, len(rows[0]) if rows else 0, truncation)
        return MonomialPresentation(ctx, p, rows)

    @property
    def free_variables(self) -> Tuple[str, ...]:
        return tuple(self.context.variables[:self.p])

    @property
    def w_variables(self) -> Tuple[str, ...]:
        return tuple(self.context.variables[self.p:])

    def matrix_rank(self) -> int:
        return rank(self.rows)

    def full_rank(self) -> int:
        """Generic rank of the presented foliation."""
        return self.p + self.matrix_rank()

    def __str__(self):
        return "monomial(p=%d, rows=%s, vars=%s)" % (
            self.p, [[str(c) for c in r] for r in self.rows],
            " ".join(self.context.variables))

    __repr__ = __str__


def _fresh_context(p: int, m: int, truncation: int) -> RingContext:
    """v1..vp, w1..wm, no divisor."""
    names = ["v%d" % (i + 1) for i in range(p)]
    names += ["w%d" % (k + 1) for k in range(m)]
    return RingContext(names, divisor=(), truncation=truncation)


def monomial_to_foliation(M: MonomialPresentation) -> Foliation:
    """Generators d/dv_1..d/dv_p and nabla_j = sum a_{jk} w_k d/dw_k."""
    ctx = M.context
    gens = [Derivation.partial(ctx, v) for v in M.free_variables]
    wvars = M.w_variables
    for row in M.rows:
        coeffs = {}
        for a, w in zip(row, wvars):
            if a != 0:
                coeffs[w] = Jet.variable(ctx, w) * a
        gens.append(Derivation(ctx, coeffs))
    return Foliation(ctx, gens)


def smrank_center(M: MonomialPresentation) -> IdealGens:
    """The coordinate ideal of every w_k whose matrix column is nonzero."""
    ctx = M.context
    gens = []
    for k, w in enumerate(M.w_variables):
        if any(row[k] != 0 for row in M.rows):
            gens.append(Jet.variable(ctx, w))
    return IdealGens(ctx, gens)


# ---------------------------------------------------------------------------
# the smoothing loop

@dataclass(frozen=True)
class ResolveStep:
    """One blow-up round of the loop, in one local model."""

    index: int
    label: str                     # branch path of sample points, "" = root
    center_variables: Tuple[str, ...]
    target_variables: Tuple[str, ...]  # coordinates of the sample points
    substitutions: Tuple[str, ...]  # chart substitution strings
    samples: Tuple[Tuple[Tuple[Fraction, ...], int], ...]  # (point, sm-rank)
    rank_before: int               # sm-rank at the model origin (= p)
    full_rank: int                 # generic rank of the foliation
    continued_at: Tuple[Tuple[Fraction, ...], ...]  # samples spawning models

    def min_sampled_rank(self) -> int:
        return min(r for _, r in self.samples)

    def report_lines(self) -> List[str]:
        where = " [branch %s]" % self.label if self.label else ""
        lines = ["step %d%s: blow up (%s), all weights 1" % (
            self.index, where, ", ".join(self.center_variables))]
        lines.extend("  " + s for s in self.substitutions)
        for pt, r in self.samples:
            coords = ", ".join(
                "%s=%s" % (v, c) for v, c in zip(self.target_variables, pt))
            tail = "" if r == self.full_rank else "  (continues)"
            lines.append("  sample (%s): sm-rank %d of %d%s"
                         % (coords, r, self.full_rank, tail))
        return lines


class SmRankFailure(RuntimeError):
    """The sampled sm-rank failed to strictly increase; carries a witness."""

    def __init__(self, message, point):
        super().__init__(message)
        self.point = point


def _bit_patterns(n: int):
    """All 0/1 tuples of length n with at least one 1, lexicographic."""
    for mask in range(1, 1 << n):
        yield tuple(Q((mask >> i) & 1) for i in range(n))


def _local_model(M: MonomialPresentation, pattern: dict) -> MonomialPresentation:
    """The monomial presentation at a 0/1 point of the w-block.

    Translating w_k by 1 makes its coefficient a unit.  The rows reduce
    through one `Echelon` with the unit columns first: a row led in a unit
    column is a fresh smooth field (p grows by their count); the others
    vanish there (a row's lead is its lowest column) and form the new matrix
    over the still-vanishing columns.  Later steps read only p and that row
    space, so the rows are the echelon's primitive integer rows.  The child
    keeps every still-vanishing column, with or without a row on it.
    """
    wvars = M.w_variables
    unit = [k for k, w in enumerate(wvars) if pattern.get(w, 0) != 0]
    order = unit + [k for k in range(len(wvars)) if k not in unit]
    basis = Echelon()
    for row in M.rows:
        basis.add({j: row[k] for j, k in enumerate(order)})
    u = len(unit)
    rows = [[basis.rows[lead].get(j, 0) for j in range(u, len(order))]
            for lead in sorted(basis.rows) if lead >= u]
    p = M.p + sum(lead < u for lead in basis.rows)
    ctx = _fresh_context(p, len(wvars) - u, M.context.truncation)
    return MonomialPresentation(ctx, p, rows)


def monomial_resolve(M: MonomialPresentation) -> List[ResolveStep]:
    """The smoothing loop: blow up the sm-rank center with all weights 1,
    transform, certify the strict sm-rank increase on the sampled
    punctured exceptional locus, and recurse into local models at the
    samples that are not yet of full rank.  Terminates in at most
    rank(matrix) rounds along every branch; the zero matrix yields the
    empty sequence.
    """
    steps: List[ResolveStep] = []
    worklist: List[Tuple[MonomialPresentation, str, int]] = [(M, "", 0)]
    guard = 0
    while worklist:
        guard += 1
        if guard > 4 * (M.matrix_rank() + 1) * (len(M.context.variables) + 1) ** 2:
            raise BudgetExhausted("smoothing loop failed to terminate")
        cur, label, depth = worklist.pop(0)
        if depth > max(1, M.matrix_rank()):
            raise SmRankFailure(
                "loop exceeded the rank bound on branch %r" % label, None)
        center_ideal = smrank_center(cur)
        if not center_ideal.generators:
            # already spanned by coordinate fields: log-smooth, nothing to do
            continue
        F = monomial_to_foliation(cur)
        if not is_f_invariant(F, rees_from_ideal(center_ideal)):
            raise SmRankFailure("center is not invariant for %s" % cur, None)
        cvars = [v for v in cur.context.variables
                 if Jet.variable(cur.context, v) in center_ideal.generators]
        center = Center(cur.context,
                        transverse=[(v, Q(1)) for v in cvars
                                    if not cur.context.is_divisor(v)],
                        divisorial=[(v, Q(1)) for v in cvars
                                    if cur.context.is_divisor(v)])
        B = build_cobordant(center)
        F2 = transform_foliation(B, F, mode="controlled")
        want = F.rename(B.target, B.name_map)
        if F2.generators != want.generators:
            raise SmRankFailure(
                "transformed generators differ from the original matrix:\n"
                "got  %s\nwant %s" % (F2, want), None)
        # deterministic samples: every 0/1 pattern of the primed center
        # variables except all-zero (the punctured locus), s = 0, the rest 0
        patterns = list(_bit_patterns(len(cvars)))
        if len(patterns) > 256:
            raise BudgetExhausted(
                "%d sample patterns exceed the budget 256" % len(patterns))
        full = cur.full_rank()
        samples = []
        continued = []
        children = []
        for pat in patterns:
            assignment = {B.name_map[v]: c for v, c in zip(cvars, pat)}
            point = tuple(assignment.get(v, Q(0)) for v in B.target.variables)
            r = sm_rank_at(F2, point)
            if r <= cur.p:
                raise SmRankFailure(
                    "sm-rank did not increase at sample %s (still %d)"
                    % (point, r), point)
            samples.append((point, r))
            if r < full:
                src_pattern = {v: c for v, c in zip(cvars, pat)}
                child = _local_model(cur, src_pattern)
                continued.append(point)
                children.append((child,
                                 (label + "/" if label else "") +
                                 "(" + ",".join("%s=%s" % (v, c)
                                                for v, c in zip(cvars, pat)) + ")",
                                 depth + 1))
            else:
                shifted = F2.translate(dict(zip(B.target.variables, point)))
                if not log_smooth_at(shifted, full):
                    raise SmRankFailure(
                        "full sm-rank yet not log-smooth at %s" % (point,),
                        point)
        subs = ["%s -> %s^%d * %s" % (v, B.exceptional, B.weights[v],
                                      B.name_map[v]) for v in cvars]
        steps.append(ResolveStep(
            index=len(steps), label=label,
            center_variables=tuple(cvars),
            target_variables=tuple(B.target.variables),
            substitutions=tuple(subs),
            samples=tuple(samples), rank_before=cur.p, full_rank=full,
            continued_at=tuple(continued)))
        worklist.extend(children)
    return steps


def resolve_report(steps: Iterable[ResolveStep]) -> str:
    lines: List[str] = []
    for step in steps:
        lines.extend(step.report_lines())
    if not lines:
        lines = ["already log-smooth: no blow-up needed"]
    return "\n".join(lines)
