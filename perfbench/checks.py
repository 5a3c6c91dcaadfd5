"""Independent checks of the program's outputs.

The schedule checks re-derive everything from the ``R`` / ``S`` matrices and
the graph's costs, memories and edges, written from the paper's equations
without calling the program's simulator, validator or their reference
oracles:

* correctness constraints (1b)-(1e) and the frontier-advancing shape
  (8a)-(8c);
* compute cost as the ``R``-weighted sum of node costs (objective 1a);
* peak memory from the ``U`` recurrence of Eq. (2)-(4), freeing values by
  the ``FREE`` rule of Eq. (5), which must fit the budget.

The method-property checks compare solver outputs with one another: exact
sweeps must be monotone in budget and exactly free at checkpoint-all's peak,
approximations may not beat the LP relaxation, and served results must equal
in-process solves of the same cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .common import CheckFailure

#: Relative slack for floating-point cost comparisons.
COST_RTOL = 1e-9
#: HiGHS accepts MILP solutions within its primal feasibility tolerance
#: (1e-7 of the formulation's memory scale), so an exact schedule may exceed
#: the budget by a few bytes; this is the relative slack allowed for that.
BUDGET_RTOL = 1e-6


@dataclass(frozen=True)
class GraphData:
    """Plain-Python view of a graph: all the checker reads from the program."""

    costs: Tuple[float, ...]
    memories: Tuple[float, ...]
    deps: Tuple[Tuple[int, ...], ...]
    users: Tuple[Tuple[int, ...], ...]
    overhead: float
    terminal: int

    @property
    def n(self) -> int:
        return len(self.costs)

    @classmethod
    def of(cls, graph) -> "GraphData":
        n = graph.size
        deps = tuple(tuple(sorted(graph.predecessors(j))) for j in range(n))
        users: List[List[int]] = [[] for _ in range(n)]
        for j, parents in enumerate(deps):
            for i in parents:
                users[i].append(j)
        return cls(
            costs=tuple(float(graph.cost(i)) for i in range(n)),
            memories=tuple(float(graph.memory(i)) for i in range(n)),
            deps=deps,
            users=tuple(tuple(sorted(u)) for u in users),
            overhead=float(graph.constant_overhead),
            terminal=int(graph.terminal_node),
        )


def _rows(matrix) -> List[List[int]]:
    return [[int(v) for v in row] for row in matrix]


def constraint_violations(g: GraphData, R, S) -> List[str]:
    """Violations of (1b)-(1e) and (8a)-(8c); empty when the schedule is correct."""
    R, S = _rows(R), _rows(S)
    T = len(R)
    out: List[str] = []
    if T == 0 or len(S) != T or any(len(r) != g.n for r in R + S):
        return [f"matrices are not {g.n} wide with equal stage counts"]
    for t in range(T):
        for j in range(g.n):
            if R[t][j]:
                for i in g.deps[j]:
                    if not (R[t][i] or S[t][i]):
                        out.append(f"(1b) stage {t}: node {j} computed without parent {i}")
            if t > 0 and S[t][j] and not (R[t - 1][j] or S[t - 1][j]):
                out.append(f"(1c) stage {t}: node {j} kept but absent in stage {t - 1}")
    if any(S[0]):
        out.append("(1d) stage 0 starts with checkpoints")
    if not any(R[t][g.terminal] for t in range(T)):
        out.append(f"(1e) terminal node {g.terminal} never computed")
    if T != g.n:
        out.append(f"(8) {T} stages for {g.n} nodes")
        return out
    for t in range(T):
        if not R[t][t]:
            out.append(f"(8a) stage {t} does not compute its frontier node")
        if any(R[t][t + 1:]):
            out.append(f"(8c) stage {t} computes a node beyond the frontier")
        if any(S[t][t:]):
            out.append(f"(8b) stage {t} checkpoints a node not yet computed")
    return out


def compute_cost(g: GraphData, R) -> float:
    """Objective (1a): sum over stages and nodes of ``C_i R[t, i]``."""
    return float(sum(g.costs[i] for row in _rows(R) for i, r in enumerate(row) if r))


def peak_memory(g: GraphData, R, S) -> float:
    """Peak of the ``U`` recurrence (Eq. 2-4) with frees by Eq. (5).

    ``U[t, 0]`` is the overhead plus every checkpoint entering stage ``t``;
    evaluating ``v_k`` adds ``M_k``; right after it, each ``v_i`` with ``i``
    in ``DEPS[k]`` or ``i == k`` is freed when it is not kept into stage
    ``t + 1`` and no later user of it is evaluated in stage ``t``.
    """
    R, S = _rows(R), _rows(S)
    T = len(R)
    peak = float("-inf")
    for t in range(T):
        kept_next = S[t + 1] if t + 1 < T else [0] * g.n
        running = g.overhead + sum(g.memories[i] for i in range(g.n) if S[t][i])
        peak = max(peak, running)
        for k in range(g.n):
            if not R[t][k]:
                continue
            running += g.memories[k]
            peak = max(peak, running)
            for i in g.deps[k] + (k,):
                if kept_next[i]:
                    continue
                if any(R[t][j] for j in g.users[i] if j > k):
                    continue
                running -= g.memories[i]
    return peak


@dataclass
class ScheduleReport:
    cost: float
    peak: float
    recomputations: int


def check_schedule(g: GraphData, R, S, *, budget: Optional[float],
                   reported_cost: Optional[float] = None,
                   reported_peak: Optional[float] = None,
                   label: str = "") -> ScheduleReport:
    """Run every schedule check; raise :class:`CheckFailure` on the first miss."""
    violations = constraint_violations(g, R, S)
    if violations:
        raise CheckFailure(f"{label}: incorrect schedule: {violations[:3]}")
    cost = compute_cost(g, R)
    peak = peak_memory(g, R, S)
    if reported_cost is not None and abs(cost - reported_cost) > COST_RTOL * max(cost, 1.0):
        raise CheckFailure(f"{label}: reported cost {reported_cost!r} != re-derived {cost!r}")
    if reported_peak is not None and abs(peak - reported_peak) > 1.0:
        raise CheckFailure(f"{label}: reported peak {reported_peak!r} != re-derived {peak!r}")
    if budget is not None and peak > budget * (1.0 + BUDGET_RTOL):
        raise CheckFailure(f"{label}: peak {peak:.0f} B exceeds budget {budget:.0f} B")
    recomputations = sum(int(v) for row in _rows(R) for v in row) - g.n
    return ScheduleReport(cost=cost, peak=peak, recomputations=recomputations)


def check_result(g: GraphData, result, *, label: str) -> ScheduleReport:
    """Check a feasible :class:`ScheduledResult` against its own budget."""
    if not result.feasible or result.matrices is None:
        raise CheckFailure(f"{label}: no feasible schedule ({result.solver_status})")
    return check_schedule(g, result.matrices.R, result.matrices.S,
                          budget=result.budget, reported_cost=result.compute_cost,
                          reported_peak=result.peak_memory, label=label)


# --------------------------------------------------------------------------- #
# Method properties
# --------------------------------------------------------------------------- #
def checkpoint_all_matrices(n: int):
    """``R = I``, ``S`` = strictly lower triangle: compute once, keep everything."""
    R = [[1 if i == t else 0 for i in range(n)] for t in range(n)]
    S = [[1 if i < t else 0 for i in range(n)] for t in range(n)]
    return R, S


def check_sweep_monotone(budgets: Sequence[float], costs: Sequence[float],
                         total_cost: float, top_budget: float, *,
                         mip_gap: float, label: str) -> None:
    """Overhead is non-increasing in budget and exactly 1.0 at the top budget.

    Optimal objectives are monotone up to the MILP's relative gap, which is
    the slack allowed between neighbouring cells.
    """
    cells = sorted(zip(budgets, costs))
    for (b_lo, c_lo), (b_hi, c_hi) in zip(cells, cells[1:]):
        if c_hi > c_lo * (1.0 + mip_gap) + COST_RTOL:
            raise CheckFailure(f"{label}: cost {c_hi!r} at budget {b_hi:.0f} exceeds "
                               f"{c_lo!r} at the smaller budget {b_lo:.0f}")
    top = [c for b, c in cells if b == top_budget]
    if not top or abs(top[0] - total_cost) > COST_RTOL * total_cost:
        raise CheckFailure(f"{label}: overhead at checkpoint-all's peak is not 1.0")


def check_above_lp_bound(cost: float, lp_objective: float, *, label: str) -> None:
    if cost < lp_objective * (1.0 - 1e-7) - COST_RTOL:
        raise CheckFailure(f"{label}: cost {cost!r} is below the LP bound {lp_objective!r}")


def check_same_objective(served: float, local: float, *, label: str,
                         rtol: float = COST_RTOL) -> None:
    """Served and in-process objectives agree; ``rtol`` is the MILP's gap
    where the two may stop at different incumbents of the same cell."""
    if abs(served - local) > max(rtol, COST_RTOL) * max(abs(local), 1.0):
        raise CheckFailure(f"{label}: served objective {served!r} != in-process {local!r}")
