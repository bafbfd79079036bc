"""The decopt names that the benchmark's tracer rebinds exist, and it puts them back.

perfbench/tracing.py wraps decopt's layer boundaries by attribute name
(``runner.graph_laplacian_sqrt``, the stepsize selections on
``decopt.solvers``, ...). A rename in decopt would otherwise pass these tests
and fail only a traced benchmark run.
"""

from pathlib import Path

import pytest

from decopt import diagnostics, objectives, runner, solvers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

OWNERS = (runner, solvers, diagnostics, diagnostics.Trace, diagnostics.TraceRecorder,
          objectives.ProblemInstance)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_rebinds_and_restores_every_name(tracing):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracer.install_phases()
        tracer.install_layers()
        saved = list(tracer._saved)
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in saved)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in saved)
    assert {owner for owner, _, _ in saved} <= set(OWNERS)
    for owner, names in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys(), owner
        assert all(after[k] is v for k, v in names.items()), owner
