"""Tests for the benchmark's own output checks (``perfbench/checks.py``).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks  # noqa: E402
from perfbench.common import CheckFailure, import_program  # noqa: E402

import_program()


def chain(n: int = 4, memory: float = 10.0) -> checks.GraphData:
    """A linear chain 0 -> 1 -> ... -> n-1 with unit costs."""
    deps = tuple(((j - 1,) if j else ()) for j in range(n))
    users = tuple(((i + 1,) if i + 1 < n else ()) for i in range(n))
    return checks.GraphData(costs=(1.0,) * n, memories=(memory,) * n, deps=deps,
                            users=users, overhead=5.0, terminal=n - 1)


def test_checkpoint_all_is_correct_and_costs_one_pass():
    g = chain()
    R, S = checks.checkpoint_all_matrices(g.n)
    assert checks.constraint_violations(g, R, S) == []
    assert checks.compute_cost(g, R) == 4.0
    # Every value stays resident: overhead + all four activations.
    assert checks.peak_memory(g, R, S) == 45.0


def test_recompute_schedule_frees_what_it_does_not_keep():
    g = chain()
    # Keep nothing between stages; recompute every ancestor in each stage.
    R = [[1 if i <= t else 0 for i in range(4)] for t in range(4)]
    S = [[0] * 4 for _ in range(4)]
    assert checks.constraint_violations(g, R, S) == []
    assert checks.compute_cost(g, R) == 10.0
    # Within a stage each value is freed once its only user ran: at most two
    # chain values are live at once.
    assert checks.peak_memory(g, R, S) == 25.0


def test_dropped_dependency_is_rejected():
    g = chain()
    R, S = checks.checkpoint_all_matrices(g.n)
    S[2][1] = 0  # stage 2 computes node 2 without its parent 1 resident
    S[3][1] = 0
    violations = checks.constraint_violations(g, R, S)
    assert any(v.startswith("(1b)") for v in violations)
    with pytest.raises(CheckFailure, match="incorrect schedule"):
        checks.check_schedule(g, R, S, budget=None)


def test_checkpoint_beyond_frontier_is_rejected():
    g = chain()
    R, S = checks.checkpoint_all_matrices(g.n)
    S[1][2] = 1
    assert any(v.startswith("(8b)") or v.startswith("(1c)")
               for v in checks.constraint_violations(g, R, S))


def test_schedule_over_budget_is_rejected():
    g = chain()
    R, S = checks.checkpoint_all_matrices(g.n)
    with pytest.raises(CheckFailure, match="exceeds budget"):
        checks.check_schedule(g, R, S, budget=44.0)
    checks.check_schedule(g, R, S, budget=45.0)


def test_misreported_cost_is_rejected():
    g = chain()
    R, S = checks.checkpoint_all_matrices(g.n)
    with pytest.raises(CheckFailure, match="reported cost"):
        checks.check_schedule(g, R, S, budget=None, reported_cost=3.0)


def test_sweep_must_be_monotone_and_free_at_the_top():
    checks.check_sweep_monotone([30, 40, 45], [12.0, 10.0, 4.0], 4.0, 45,
                                mip_gap=1e-4, label="ok")
    with pytest.raises(CheckFailure, match="exceeds"):
        checks.check_sweep_monotone([30, 40, 45], [10.0, 12.0, 4.0], 4.0, 45,
                                    mip_gap=1e-4, label="bad")
    with pytest.raises(CheckFailure, match="not 1.0"):
        checks.check_sweep_monotone([30, 45], [12.0, 5.0], 4.0, 45,
                                    mip_gap=1e-4, label="bad")


def test_agrees_with_the_program_on_real_schedules():
    """The independent re-derivation matches what the solver reports."""
    from repro import SolveService
    from repro.experiments.presets import build_training_graph

    graph = build_training_graph("linear_cnn", scale="ci")
    g = checks.GraphData.of(graph)
    budget = graph.constant_overhead + 0.6 * graph.total_activation_memory()
    for strategy in ("checkmate_ilp", "approx_threshold_sweep", "approx_randomized"):
        result = SolveService().solve(graph, strategy, budget)
        report = checks.check_result(g, result, label=strategy)
        assert report.peak <= budget * (1 + checks.BUDGET_RTOL)


def test_tampered_real_schedule_is_rejected():
    from repro import SolveService
    from repro.experiments.presets import build_training_graph

    graph = build_training_graph("linear_cnn", scale="ci")
    g = checks.GraphData.of(graph)
    budget = graph.constant_overhead + 0.6 * graph.total_activation_memory()
    result = SolveService().solve(graph, "checkmate_ilp", budget)
    R, S = result.matrices.R.copy(), result.matrices.S.copy()
    # Keep every computed value into every later stage: S = checkpoint-all.
    for t in range(g.n):
        S[t, :t] = 1
    with pytest.raises(CheckFailure, match="exceeds budget"):
        checks.check_schedule(g, R, S, budget=budget)
    # Drop the parent of the last node from the last stage.
    R, S = result.matrices.R.copy(), result.matrices.S.copy()
    parent = g.deps[g.n - 1][0]
    R[g.n - 1, parent] = 0
    S[g.n - 1, parent] = 0
    with pytest.raises(CheckFailure, match="incorrect schedule"):
        checks.check_schedule(g, R, S, budget=budget)
