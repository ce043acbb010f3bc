"""Tests of the benchmark itself.  From the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import pytest  # noqa: E402

import workloads as W  # noqa: E402
from folprin import InvVector, fin  # noqa: E402


def _same(a, b):
    return (a.context == b.context and a.rees == b.rees
            and a.foliation.generators == b.foliation.generators)


def test_drop_generator_reproduces_criterion_5():
    from test_acceptance import _drop_instances
    ours = W.drop_instances(W.CORPUS_SEED)
    theirs = _drop_instances()
    assert len(ours) == len(theirs) == 52
    for (name, a), (want, b) in zip(ours, theirs):
        assert name == want
        assert _same(a, b)


def test_other_corpus_seed_is_held_out():
    ours = W.drop_instances(W.CORPUS_SEED, 13)
    other = W.drop_instances(W.CORPUS_SEED + 1, 13)
    assert not all(_same(a, b) for (_, a), (_, b) in zip(ours, other))


def _rees(tasks):
    return [task.run.args[0].rees for task in tasks]


def test_seed_changes_content_not_shape():
    one, two = W.drop_tasks(1, 0), W.drop_tasks(2, 0)
    assert [t.label for t in one] == [t.label for t in two]
    assert _rees(one) != _rees(two)
    assert _rees(W.drop_tasks(1, 0)) == _rees(one)
    for a, b in zip(_rees(one), _rees(two)):
        assert sorted(sorted(map(abs, f.terms.values())) for f, _ in a.generators) \
            == sorted(sorted(map(abs, f.terms.values())) for f, _ in b.generators)


def test_checks_reject_wrong_outputs():
    before = InvVector([fin(2)])
    assert W._strictly_drops((before, [InvVector([fin(1)])]))
    assert not W._strictly_drops((before, [before]))
    assert not W._strictly_drops((before, []))
    (task,) = [t for t in W.inv_tasks(1, 0) if t.label.startswith("inv (5,")][:1]
    assert task.check(task.run())
    assert not task.check((InvVector([fin(5)]), None))


def test_principalize_files_leave_out_ex510():
    names = [p.name for p in W.principalize_files(ROOT)]
    assert "ex510.fol" not in names and "monomial22.fol" not in names
    assert "ex513.fol" in names


@pytest.fixture
def tracer():
    from tracing import Tracer
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracer_patches_every_binding(tracer):
    import folprin
    import folprin.driver
    import folprin.invariant
    import folprin.kernel
    assert tracer.unpatched() == []
    for alias in (folprin.inv_at, folprin.driver.inv_at, W.inv_at):
        assert alias is folprin.invariant.inv_at
        assert hasattr(alias, "__wrapped__")
    assert folprin.kernel.Jet.__rmul__ is folprin.kernel.Jet.__mul__
    assert hasattr(folprin.foliation.linsolve, "__wrapped__")


def test_tracer_self_times_add_up(tracer):
    (task,) = [t for t in W.inv_tasks(1, 0) if t.label.startswith("inv (5,")][:1]
    tracer.enabled = True
    task.run()
    tracer.enabled = False
    stats = tracer._tree()
    roots = [i for i in range(len(tracer.parent)) if tracer.parent[i] < 0]
    total = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(s[1] for s in stats.values()) == pytest.approx(total)
    calls, self_s, incl_s = stats["invariant.inv_at"]
    assert calls == 1 and 0 <= self_s <= incl_s
    metrics = tracer.layer_metrics(total, 0.0)
    assert metrics["invariant.inv_at.calls"]["value"] == 1
    assert metrics["kernel.linsolve.calls"]["value"] > 0
