"""Trace rows in batches.

TraceRecorder defers each row's objective gap to a batch of rows, sized by
diagnostics.TRACE_BATCH_BYTES; with that constant at 0 every batch holds one
row. merit_ergodic and lyapunov take F from the engines' products when the
row is due, so they, and every other column but objective_gap, must be
byte-identical at any batch size.

objective_gap takes its values from one product of the data with all of a
batch's stacks. It is byte-identical only where the BLAS gives every row of
that product the bits it gives it in a product with fewer rows, which
OpenBLAS 0.3.31 does at the preset shapes but not at every shape: at m=20,
n=15, d=20 (the ridge_wide case) it rounds differently from 40 rows on.
Where the BLAS does not, it must agree to 1e-12 relative.

A stop rule on merit or objective_gap computes its value once, when it tests
it, and the row at that k reports that very value.
"""

import functools
import math

import numpy as np
import pytest

from decopt import diagnostics, objectives
from decopt.diagnostics import CSV_HEADER, TraceRecorder, compute_saddle, trace_batch_rows
from decopt.objectives import synth_logistic, synth_ridge
from decopt.solvers import (
    ExtraParams,
    FixedStepParams,
    State,
    StopRule,
    adolf_step,
    run,
)
from decopt.stepsize import GrowthPolicy, StepsizeParams
from decopt.topology import (
    GossipMatrix,
    graph_laplacian_sqrt,
    make_erdos_renyi,
    metropolis_hastings,
)

DEFAULT_BYTES = diagnostics.TRACE_BATCH_BYTES

PARAMS = {
    "adolf": StepsizeParams(c1=0.9, c2=0.9, alpha0=1e-3, sigma_bar=1.0),
    "adolf_local": StepsizeParams(local=True, c1=0.9, c2=0.9, alpha0=1e-3, eta=0.9,
                                  sigma_bar=1.0, growth=GrowthPolicy(kind="additive")),
    "condat_vu": FixedStepParams(alpha=0.05, sigma=1.0, gamma=1.0),  # carries Y itself
    "extra": ExtraParams(alpha=0.05),
}
# a stepsize at which the run diverges between rounds 5 and 40, on both problems below
DIVERGING = {"adolf": FixedStepParams(alpha=3.0), "condat_vu": FixedStepParams(alpha=3.0)}


PROBLEMS = {
    "ridge": lambda: synth_ridge(m=6, n=8, d=4, seed=3),
    "logistic": lambda: synth_logistic(m=5, n=10, d=3, seed=3),
    "ridge_wide": lambda: synth_ridge(m=20, n=15, d=20, seed=3),
}


@functools.cache
def make_setup(name: str):
    prob = PROBLEMS[name]()
    gossip = GossipMatrix(metropolis_hastings(make_erdos_renyi(prob.m, 0.6, seed=4)), c=0.4)
    x0 = np.random.default_rng(5).standard_normal((prob.m, prob.d))
    return prob, gossip, compute_saddle(prob, gossip), x0


@pytest.fixture(params=list(PROBLEMS))
def setup(request):
    return make_setup(request.param)


@pytest.fixture(params=["ridge", "logistic"])
def small_setup(request):
    return make_setup(request.param)


def batch_rows_at(prob, batch_bytes: int) -> int:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagnostics, "TRACE_BATCH_BYTES", batch_bytes)
        return trace_batch_rows(prob)


def few_rows_bytes(prob) -> int:
    """A byte constant that gives batches of about four rows."""
    return DEFAULT_BYTES // batch_rows_at(prob, DEFAULT_BYTES) * 4


def traced(setup, algorithm, params, stop, cadence, batch_bytes, monkeypatch):
    prob, gossip, saddle, x0 = setup
    monkeypatch.setattr(diagnostics, "TRACE_BATCH_BYTES", batch_bytes)
    recorder = TraceRecorder(prob, graph_laplacian_sqrt(gossip), saddle, cadence=cadence)
    return run(algorithm, prob, gossip, params, stop, recorder, x0)


@functools.cache
def rows_independent(prob, batch_rows: int) -> bool:
    """Whether the BLAS gives each stack of a product over up to batch_rows stacks
    the objective values of a product over that stack alone."""
    stacks = np.random.default_rng(0).standard_normal((batch_rows, prob.m, prob.d))
    alone = np.concatenate([prob.average_values_at_rows(x) for x in stacks])
    return all(np.array_equal(prob.average_values_at_rows(stacks[:rows].reshape(-1, prob.d)),
                              alone[:rows * prob.m]) for rows in range(2, batch_rows + 1))


def assert_same_rows(trace, other, rounded=()):
    """Byte-identical rows, but for the rounded columns, which agree to 1e-12."""
    assert trace.status == other.status
    assert len(trace.records) == len(other.records)
    for row, other_row in zip(trace.records, other.records):
        for name, cell, other_cell in zip(CSV_HEADER, row.csv_row(), other_row.csv_row()):
            if name not in rounded or "" in (cell, other_cell):
                assert cell == other_cell, (row.k, name)
                continue
            a, b = float(cell), float(other_cell)
            if not (math.isnan(a) and math.isnan(b)):
                assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (row.k, name)


def rounded(prob, batch_bytes: int) -> tuple[str, ...]:
    """The columns that may round differently at batch_bytes from batches of one row."""
    exact = rows_independent(prob, batch_rows_at(prob, batch_bytes))
    return () if exact else ("objective_gap",)


@pytest.mark.parametrize("algorithm", list(PARAMS))
@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("budget", [0, 1, 17, 40])
def test_rows_do_not_depend_on_the_batch_size(setup, monkeypatch, algorithm, cadence, budget):
    stop = StopRule(max_iter=budget)
    one = traced(setup, algorithm, PARAMS[algorithm], stop, cadence, 0, monkeypatch)
    # a few rows a batch, so that most budgets end mid-batch; and the default
    few = few_rows_bytes(setup[0])
    assert 3 <= batch_rows_at(setup[0], few) <= 4
    for batch_bytes in (few, DEFAULT_BYTES):
        trace = traced(setup, algorithm, PARAMS[algorithm], stop, cadence, batch_bytes,
                       monkeypatch)
        assert_same_rows(one, trace, rounded(setup[0], batch_bytes))
    assert one.final.k == budget
    rows = [row for row in one.records if row.merit_ergodic is not None]
    assert len(rows) == len(one.records) - 1  # every row but row 0 has an ergodic average
    if algorithm in ("adolf", "condat_vu") and budget:
        assert one.records[0].lyapunov is not None


@pytest.mark.parametrize("algorithm", list(DIVERGING))
def test_divergence_mid_batch(setup, monkeypatch, algorithm):
    stop = StopRule(max_iter=40)
    with np.errstate(all="ignore"):  # the last rows overflow
        one, few, default = (traced(setup, algorithm, DIVERGING[algorithm], stop, 1,
                                    batch_bytes, monkeypatch)
                             for batch_bytes in (0, few_rows_bytes(setup[0]), DEFAULT_BYTES))
    assert one.status == "diverged" and 5 < one.final.k < 40
    assert_same_rows(one, few, rounded(setup[0], few_rows_bytes(setup[0])))
    assert_same_rows(one, default, rounded(setup[0], DEFAULT_BYTES))


def spy_on_stop_tests(monkeypatch) -> list[tuple[int, float]]:
    """(k, value) of every stop test from here on."""
    tested = []
    row_metric = TraceRecorder.row_metric

    def spy(self, name, state):
        value = row_metric(self, name, state)
        tested.append((state.k, value))
        return value

    monkeypatch.setattr(TraceRecorder, "row_metric", spy)
    return tested


@pytest.mark.parametrize("metric, threshold", [("merit", 1e-2), ("objective_gap", 1e-8)])
def test_stop_row_reports_the_tested_value(small_setup, monkeypatch, metric, threshold):
    tested = spy_on_stop_tests(monkeypatch)
    stop = StopRule(max_iter=20_000, metric=metric, threshold=threshold, cadence=3)
    trace = traced(small_setup, "adolf", PARAMS["adolf"], stop, 1, DEFAULT_BYTES, monkeypatch)
    assert trace.status == "converged"
    k, value = tested[-1]
    assert trace.final.k == k
    assert trace.final.metric(metric) == value <= threshold
    by_k = {row.k: row for row in trace.records}
    assert all(by_k[k].metric(metric) == value for k, value in tested)


def test_objective_gap_costs_one_cross_product_per_tick(small_setup, monkeypatch):
    prob = small_setup[0]
    loss = type(prob)
    calls = []
    cross_values = loss._cross_values

    def counted(self, x_rows):
        calls.append(len(x_rows))
        return cross_values(self, x_rows)

    monkeypatch.setattr(loss, "_cross_values", counted)
    stop = StopRule(max_iter=20_000, metric="objective_gap", threshold=1e-8, cadence=4)
    trace = traced(small_setup, "adolf", PARAMS["adolf"], stop, 4, DEFAULT_BYTES, monkeypatch)
    assert trace.status == "converged"
    assert len(calls) == len(trace.records)  # a row every tick, from k = 0
    assert calls == [prob.m] * len(calls)


def test_batch_rows_fit_the_byte_constant(monkeypatch):
    prob = synth_ridge(m=20, n=20, d=500, seed=0)  # the fig2 shape
    rows = trace_batch_rows(prob)
    row_bytes = 8 * prob.m * prob.d + prob.cross_bytes(prob.m)  # its iterate and its products
    assert rows > 1 and rows * row_bytes <= DEFAULT_BYTES
    monkeypatch.setattr(diagnostics, "TRACE_BATCH_BYTES", 0)
    assert trace_batch_rows(prob) == 1


def test_laned_rows_count_one_block(monkeypatch):
    """Above the lane cutoff a lane holds one agent's block product at a time, so a
    row counts that block's product, at any CPU count; and the batch's objective
    values are those of each row alone."""
    counts = []
    for cpus in (1, 4):
        monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
        prob = synth_logistic(m=20, n=80, d=784, seed=0)  # 10 MB of features: laned
        assert prob.lanes == min(cpus, prob.m) and prob.block_rows == prob.n
        counts.append(trace_batch_rows(prob))
    row_bytes = 8 * prob.m * prob.d + 2 * 8 * prob.n * prob.m  # its iterate and a block's 2 arrays
    assert counts == [DEFAULT_BYTES // row_bytes] * 2 == [10, 10]
    stacks = np.random.default_rng(1).standard_normal((counts[0], prob.m, prob.d))
    alone = np.concatenate([prob.average_values_at_rows(x) for x in stacks])
    np.testing.assert_array_equal(prob.average_values_at_rows(stacks.reshape(-1, prob.d)),
                                  alone)


def test_records_complete_only_after_finalize(small_setup):
    prob, gossip, saddle, x0 = small_setup
    params = PARAMS["adolf"]
    recorder = TraceRecorder(prob, graph_laplacian_sqrt(gossip), saddle)
    state = State(x0, x0, dual=np.zeros_like(x0))
    for k in range(5):
        new = adolf_step(state, prob, gossip, params)
        recorder.observe(state, new)
        state = new
    assert recorder.trace.records == []  # five rows wait in one batch
    trace = recorder.finalize(state)
    assert [row.k for row in trace.records] == list(range(6))
    assert all(row.objective_gap is not None for row in trace.records)
