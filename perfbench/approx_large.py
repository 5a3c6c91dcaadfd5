"""``approx_large``: LP-rounding approximation on graphs too large for routine
exact solves.

Each round solves every cell -- (preset, scale, budget fraction, scheme) --
once, in a seed-shuffled order, with a fresh plan cache and empty
LP-relaxation and compiled-formulation caches, so every cell is the cold
solve a user pays for.  The schemes are the deterministic
``approx_threshold_sweep`` and ``approx_randomized`` with one rounding seed
per run, drawn from the benchmark seed.  HiGHS solves an LP here, not a
MILP; the rest of a cell is rounding, min-R completion, simulation and
planning in Python.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Tuple

from . import checks
from .common import CheckFailure, RoundClock, budget_at, geomean, median, self_peak_rss_mib
from .exact_sweep import reset_caches

#: (preset, scale, budget fraction).  At each budget both schemes return a
#: feasible schedule that rematerializes, whatever the rounding seed.
CELLS: Tuple[Tuple[str, str, float], ...] = (
    ("resnet50", "ci", 0.4),
    ("vgg16", "paper", 0.5),
    ("mobilenet", "paper", 0.5),
    ("segnet", "paper", 0.5),
)
SCHEMES = ("approx_threshold_sweep", "approx_randomized")


def setup():
    from repro.experiments.presets import build_training_graph

    graphs = {}
    cases = []
    for key, scale, fraction in CELLS:
        if (key, scale) not in graphs:
            graph = build_training_graph(key, scale=scale)
            graphs[key, scale] = (graph, checks.GraphData.of(graph))
        graph, data = graphs[key, scale]
        cases.append((f"{key}/{scale}@{fraction}", graph, data, budget_at(graph, fraction)))
    return cases


def run(cases, *, seed: int, seconds: float, timer=None) -> Dict[str, object]:
    from repro import SolveService, SolverOptions

    rng = random.Random(seed)
    rounding_seed = rng.randrange(2**31)
    options = {
        "approx_threshold_sweep": SolverOptions(),
        "approx_randomized": SolverOptions(seed=rounding_seed),
    }
    work = [(case, scheme) for case in cases for scheme in SCHEMES]
    cell_walls: Dict[str, List[float]] = {}
    results: List[Tuple[tuple, str, object, bool]] = []
    traced_walls: List[float] = []
    untraced_walls: List[float] = []
    clock = RoundClock(seconds)
    round_index = 0
    rounding_s = 0.0
    while clock.another() or (timer is not None and round_index < 2):
        traced = timer is not None and round_index % 2 == 1
        order = list(work)
        rng.shuffle(order)
        round_start = time.perf_counter()
        untimed = 0.0
        for case, scheme in order:
            name, graph, _, budget = case
            reset_caches()
            gc.collect()  # no collector pause left over from the previous operation
            service = SolveService()
            if timer is not None:
                timer.active = traced
            start = time.perf_counter()
            result = service.solve(graph, scheme, budget, options[scheme])
            wall = time.perf_counter() - start
            if timer is not None:
                timer.active = False
            if traced:
                # The portfolio solve alone: the same cell again, past the
                # plan cache, with its LP relaxation still cached.  Kept out
                # of the round's wall time.
                start = time.perf_counter()
                service.solve(graph, scheme, budget, options[scheme], use_cache=False)
                rounding_s += time.perf_counter() - start
                untimed += time.perf_counter() - start
            else:
                cell_walls.setdefault(f"{name}/{scheme}", []).append(wall)
            results.append((case, scheme, result, traced))
        round_wall = time.perf_counter() - round_start - untimed
        clock.record(round_wall)
        (traced_walls if traced else untraced_walls).append(round_wall)
        round_index += 1
    elapsed = clock.elapsed

    # Lower bound per budget: the LP relaxation solved on its own, once.
    from repro.solvers.lp_relaxation import solve_lp_relaxation

    lp_bound = {}
    for name, graph, _, budget in cases:
        lp = solve_lp_relaxation(graph, budget)
        if not lp.feasible:
            raise CheckFailure(f"approx_large {name}: LP relaxation infeasible")
        lp_bound[name] = lp.objective
    overheads = []
    for (name, _, data, _), scheme, result, _ in results:
        label = f"approx_large {name} {scheme}"
        report = checks.check_result(data, result, label=label)
        if report.recomputations <= 0:
            raise CheckFailure(f"{label}: schedule does not rematerialize")
        checks.check_above_lp_bound(report.cost, lp_bound[name], label=label)
        overheads.append(report.cost / sum(data.costs))

    out: Dict[str, object] = {
        "attempted": len(results),
        "failed": 0,
        "metrics": {
            "ops_per_s": (len(results) / elapsed, "1/s"),
            "op_s_geomean": (geomean(median(w) for w in cell_walls.values()), "s"),
            "overhead_geomean": (geomean(overheads), "ratio"),
            "peak_rss_mib": (self_peak_rss_mib(), "MiB"),
        },
    }
    if timer is not None:
        traced_results = [(case, scheme, r) for case, scheme, r, t in results if t]
        out["layers"] = traced_layers(traced_results, timer, cases)
        out["layers"]["rounding.s"] = rounding_s
        out["layers"]["trace.overhead_ratio"] = (
            median(traced_walls) / median(untraced_walls) - 1.0)
    return out


def traced_layers(traced, timer, cases) -> Dict[str, float]:
    """Per-layer figures of the traced rounds."""
    from .layers import formulation_sizes

    candidates = feasible = 0
    for _, _, result in traced:
        portfolio = result.extra["portfolio"]
        candidates += int(portfolio["attempts"])
        feasible += int(portfolio["feasible_candidates"])
    variables, nnz = formulation_sizes(graph for _, graph, _, _ in cases)
    reset_caches()
    return {
        "lint.s": timer.seconds["lint"],
        "compiled.build_s": timer.seconds["compiled.build"],
        "compiled.rebudget_s": timer.seconds["compiled.rebudget"],
        "compiled.decode_s": timer.seconds["compiled.decode"],
        "compiled.vars": variables,
        "compiled.nnz": nnz,
        "lp.s": timer.seconds["lp"],
        "lp.calls": timer.calls["lp"],
        "simulator.s": timer.seconds["simulator"],
        "validate.s": timer.seconds["validate"],
        "plan.s": timer.seconds["plan"],
        "rounding.candidates": candidates,
        "rounding.feasible_ratio": feasible / candidates if candidates else 0.0,
    }
