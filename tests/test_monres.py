"""Monomial presentations and the sm-rank smoothing loop."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folprin import (
    MonomialPresentation, Q, RingContext, SmRankFailure, monomial_resolve,
    monomial_to_foliation, resolve_report, smrank_center,
)
from folprin.kernel import rank
from folprin.monres import _local_model


def test_presentation_to_foliation():
    M = MonomialPresentation.from_matrix([[1, 1]], p=1)
    F = monomial_to_foliation(M)
    texts = {str(d) for d in F}
    assert texts == {"d/dv1", "w1*d/dw1 + w2*d/dw2"}


def test_full_free_block():
    ctx = RingContext(["v1", "v2"], truncation=8)
    M = MonomialPresentation(ctx, 2, [])
    F = monomial_to_foliation(M)
    assert {str(d) for d in F} == {"d/dv1", "d/dv2"}


def test_hyperbolic_generator():
    M = MonomialPresentation.from_matrix([[1, -1]], p=0)
    F = monomial_to_foliation(M)
    assert {str(d) for d in F} == {"w1*d/dw1 + -w2*d/dw2"}


def test_smrank_center_columns():
    assert {str(g) for g in
            smrank_center(MonomialPresentation.from_matrix([[1, 1]])).generators} \
        == {"w1", "w2"}
    assert {str(g) for g in
            smrank_center(MonomialPresentation.from_matrix([[1, 0]])).generators} \
        == {"w1"}
    M0 = MonomialPresentation.from_matrix([[0, 0]])
    assert not smrank_center(M0).generators


def test_resolve_catalog():
    catalog = [[[1, 1]], [[1, 0]], [[1, -1], [0, 1]], [[2, 3]]]
    for rows in catalog:
        M = MonomialPresentation.from_matrix(rows, p=0)
        steps = monomial_resolve(M)
        rank = M.matrix_rank()
        assert steps, "nonzero matrix must need at least one blow-up"
        # every branch uses at most rank(A) rounds
        for step in steps:
            depth = 1 + (step.label.count("/") + 1 if step.label else 0)
            assert depth <= rank + 1
            assert step.min_sampled_rank() > step.rank_before
        report = resolve_report(steps)
        assert "blow up" in report


def test_resolve_zero_matrix_is_empty():
    assert monomial_resolve(MonomialPresentation.from_matrix([], p=2)) == []
    assert monomial_resolve(MonomialPresentation.from_matrix([[0, 0]], p=0)) == []


def test_resolve_three_variable_chain():
    M = MonomialPresentation.from_matrix([[1, -1, 0], [0, 1, -1]], p=0)
    steps = monomial_resolve(M)
    first = steps[0]
    assert first.center_variables == ("w1", "w2", "w3")
    assert first.min_sampled_rank() == 1
    assert any(r == 2 for _, r in first.samples)
    # all continuation branches end at full rank
    for step in steps[1:]:
        assert all(r == step.full_rank for _, r in step.samples)


def test_matrix_row_length_validated():
    with pytest.raises(ValueError):
        MonomialPresentation.from_matrix([[1, 2], [3]], p=0)


def _ref_local_model(M, pattern):
    """Gauss-Jordan over the unit columns, pivot by pivot: (p, rows over
    the still-vanishing columns), zero rows dropped."""
    rows = [list(r) for r in M.rows]
    wvars = list(M.w_variables)
    unit_cols = [k for k, w in enumerate(wvars) if pattern.get(w, Q(0)) != 0]
    pivots, dead = 0, set()
    for k in unit_cols:
        pivot = next((j for j, row in enumerate(rows)
                      if j not in dead and row[k] != 0), None)
        if pivot is None:
            continue
        for j, row in enumerate(rows):
            if j != pivot and row[k] != 0:
                factor = row[k] / rows[pivot][k]
                rows[j] = [c - factor * d for c, d in zip(row, rows[pivot])]
        dead.add(pivot)
        pivots += 1
    keep = [k for k in range(len(wvars)) if k not in unit_cols]
    reduced = [[row[k] for k in keep] for j, row in enumerate(rows)
               if j not in dead]
    return M.p + pivots, [r for r in reduced if any(r)]


_ENTRY = st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2)])


@st.composite
def _matrix_and_pattern(draw):
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        # a dependent row: a combination of the drawn ones
        coeffs = draw(st.lists(st.sampled_from([0, 1, -1, 2]),
                               min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[k] for c, r in zip(coeffs, rows))
                     for k in range(ncols)])
    p = draw(st.integers(0, 1))
    M = MonomialPresentation.from_matrix(rows, p=p)
    bits = draw(st.lists(st.sampled_from([0, 1]), min_size=ncols,
                         max_size=ncols))
    return M, {w: Q(b) for w, b in zip(M.w_variables, bits)}


@settings(max_examples=300, deadline=None)
@given(_matrix_and_pattern())
def test_local_model_matches_gauss_jordan(case):
    M, pattern = case
    child = _local_model(M, pattern)
    p, rows = _ref_local_model(M, pattern)
    assert child.p == p
    # the same row space: stacking adds nothing to either rank
    assert rank(child.rows) == rank(rows) == rank(list(child.rows) + rows)
    if rows:
        want = MonomialPresentation.from_matrix(rows, p=p)
        assert child.context == want.context
        assert smrank_center(child).generators == smrank_center(want).generators
    else:
        assert child.rows == ()
    unit = [w for w in M.w_variables if pattern.get(w, 0) != 0]
    assert len(child.w_variables) == len(M.w_variables) - len(unit)


def test_local_model_without_rows_keeps_its_w_columns():
    # w1 is a unit at the point and the row leads there, so no row is left;
    # the child still models a point in 3 variables: v1 and the vanishing
    # w-columns of w2 and w3
    child = _local_model(MonomialPresentation.from_matrix([[1, 0, 1]]),
                         {"w1": 1})
    assert (child.p, child.rows) == (1, ())
    assert child.context.variables == ("v1", "w1", "w2")
