"""``exact_sweep``: the paper's Figure 5 use, one cold exact sweep per preset.

Each round runs, for every preset (in a seed-shuffled order), one
``SolveService.sweep`` of ``checkmate_ilp`` over a descending budget grid
that tops out at checkpoint-all's peak.  Every sweep starts from empty plan,
compiled-formulation, LP-relaxation and lint caches, like the first request
for a new graph, so the warm chains (reuse and bound-skip) and the
compile-once / re-budget path run exactly as they do for a user's sweep.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Tuple

from . import checks
from .common import CheckFailure, RoundClock, budget_at, geomean, median, self_peak_rss_mib

#: (preset, budget fractions below the top) at ci scale.  The top of every
#: grid is checkpoint-all's peak.  Fractions sit above each preset's
#: feasibility floor; linear_mlp at 0.36 branches in HiGHS, the other cells
#: are settled at the root LP or by a warm seed.
PRESETS: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("linear_mlp", (0.6, 0.45, 0.36, 0.34)),
    ("resnet_tiny", (0.78, 0.56, 0.506)),
    ("vgg16", (0.77, 0.54, 0.5)),
    ("unet", (0.7, 0.6, 0.55)),
    ("deepblock", (0.68, 0.4437)),
)

#: Generous enough that no cell stops on the wall clock (which would make
#: its incumbent load-dependent).
TIME_LIMIT_S = 300.0
#: The MILP's default relative gap: the slack of the monotonicity check.
MIP_GAP = 1e-4

PROVEN = ("optimal", "warm-reused-optimal", "warm-bound-skip")


def setup():
    """Build the graphs and budget grids (the repeatable part of set-up)."""
    from repro.experiments.presets import build_training_graph

    cases = []
    for key, fractions in PRESETS:
        graph = build_training_graph(key, scale="ci")
        data = checks.GraphData.of(graph)
        top = checks.peak_memory(data, *checks.checkpoint_all_matrices(data.n))
        budgets = [top] + [budget_at(graph, f) for f in fractions]
        cases.append((key, graph, data, budgets))
    return cases


def reset_caches() -> None:
    """Empty every process-wide cache a first request for a graph would miss."""
    from repro.analysis import lint
    from repro.solvers.compiled import get_formulation_cache
    from repro.solvers.rounding_portfolio import get_lp_relaxation_cache

    get_formulation_cache().clear()
    get_lp_relaxation_cache().clear()
    with lint._lint_memo_lock:
        lint._lint_memo.clear()


def run(cases, *, seed: int, seconds: float, timer=None) -> Dict[str, object]:
    from repro import SolveService, SolverOptions

    rng = random.Random(seed)
    options = SolverOptions(time_limit_s=TIME_LIMIT_S)
    sweep_walls: Dict[str, List[float]] = {key: [] for key, *_ in cases}
    results: List[Tuple[str, list, list, bool]] = []
    warm_seeds = 0
    traced_walls: List[float] = []
    untraced_walls: List[float] = []
    clock = RoundClock(seconds)
    cells = 0
    round_index = 0
    while clock.another() or (timer is not None and round_index < 2):
        traced = timer is not None and round_index % 2 == 1
        order = list(cases)
        rng.shuffle(order)
        round_start = time.perf_counter()
        for key, graph, data, budgets in order:
            reset_caches()
            gc.collect()  # no collector pause left over from the previous operation
            service = SolveService()
            if timer is not None:
                timer.active = traced
            start = time.perf_counter()
            swept = service.sweep(graph, [("checkmate_ilp", b) for b in budgets],
                                  options=options)
            wall = time.perf_counter() - start
            if timer is not None:
                timer.active = False
            if traced:
                warm_seeds += service.statistics()["warm_seeds"]
            else:
                sweep_walls[key].append(wall)
            cells += len(budgets)
            results.append((key, budgets, swept, traced))
        round_wall = time.perf_counter() - round_start
        clock.record(round_wall)
        (traced_walls if traced else untraced_walls).append(round_wall)
        round_index += 1
    elapsed = clock.elapsed

    by_key = {key: (graph, data) for key, graph, data, _ in cases}
    overheads = []
    for key, budgets, swept, _ in results:
        graph, data = by_key[key]
        costs = []
        for budget, result in zip(budgets, swept):
            label = f"exact_sweep {key} @ {budget:.0f} B"
            if result.solver_status not in PROVEN:
                raise CheckFailure(f"{label}: not proven optimal ({result.solver_status})")
            report = checks.check_result(data, result, label=label)
            costs.append(report.cost)
        total = sum(data.costs)
        checks.check_sweep_monotone(budgets, costs, total, budgets[0],
                                    mip_gap=MIP_GAP, label=f"exact_sweep {key}")
        overheads += [c / total for c in costs[1:]]

    out: Dict[str, object] = {
        "attempted": cells,
        "failed": 0,
        "metrics": {
            "ops_per_s": (cells / elapsed, "1/s"),
            "op_s_geomean": (geomean(median(w) for w in sweep_walls.values()), "s"),
            "overhead_geomean": (geomean(overheads), "ratio"),
            "peak_rss_mib": (self_peak_rss_mib(), "MiB"),
        },
    }
    if timer is not None:
        traced_results = [r for _, _, swept, traced in results if traced for r in swept]
        out["layers"] = traced_layers(traced_results, timer, warm_seeds, cases)
        out["layers"]["trace.overhead_ratio"] = (
            median(traced_walls) / median(untraced_walls) - 1.0)
    return out


def traced_layers(traced, timer, warm_seeds: int, cases) -> Dict[str, float]:
    """Per-layer figures of the traced rounds (every other round)."""
    from .layers import formulation_sizes

    reused = sum(1 for r in traced
                 if r.solver_status in ("warm-reused-optimal", "warm-bound-skip"))
    nodes = sum(int(r.extra.get("mip_node_count") or 0) for r in traced
                if r.solver_status == "optimal")
    variables, nnz = formulation_sizes(graph for _, graph, _, _ in cases)
    reset_caches()
    return {
        "lint.s": timer.seconds["lint"],
        "compiled.build_s": timer.seconds["compiled.build"],
        "compiled.rebudget_s": timer.seconds["compiled.rebudget"],
        "compiled.decode_s": timer.seconds["compiled.decode"],
        "compiled.vars": variables,
        "compiled.nnz": nnz,
        "ilp.s": timer.seconds["ilp"],
        "ilp.calls": timer.calls["ilp"],
        "ilp.mip_nodes": nodes,
        "warm.seeds": warm_seeds,
        "warm.reused": reused,
        "warm.useful_ratio": reused / warm_seeds if warm_seeds else 0.0,
        "lp.s": timer.seconds["lp"],
        "lp.calls": timer.calls["lp"],
        "simulator.s": timer.seconds["simulator"],
        "validate.s": timer.seconds["validate"],
        "plan.s": timer.seconds["plan"],
    }
