"""Where does a Pareto trace spend its time, compared with a dense grid?

A reference measurement, not a workload: ``SolveService.pareto()`` on a
preset against a dense ``checkmate_ilp`` grid at the trace's resolution
(the comparison ``benchmarks/perf_formulation.py --pr6`` records), each
from empty caches.  Every solve is split with the traced-mode shims into
HiGHS MILP time, LP-bound time, warm reuse and MIP nodes.

Usage (from the root of a checkout)::

    python3 perfbench/pareto_probe.py --preset resnet_tiny [--probes]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import import_program  # noqa: E402


def traced_solves(service, timer, rows):
    """Record every ``service.solve`` call with the layer time it spent."""
    inner = service.solve

    def solve(graph, strategy, budget=None, *args, **kwargs):
        before = (timer.seconds["ilp"], timer.seconds["lp"], timer.calls["ilp"])
        start = time.perf_counter()
        result = inner(graph, strategy, budget, *args, **kwargs)
        rows.append({
            "budget": budget,
            "wall_s": time.perf_counter() - start,
            "milp_s": timer.seconds["ilp"] - before[0],
            "lp_bound_s": timer.seconds["lp"] - before[1],
            "milp_calls": timer.calls["ilp"] - before[2],
            "status": result.solver_status,
            "nodes": int(result.extra.get("mip_node_count") or 0)
            if result.solver_status == "optimal" else 0,
        })
        return result

    service.solve = solve


def summarize(name: str, rows, wall: float, show: bool) -> None:
    milp = sum(r["milp_s"] for r in rows)
    lp = sum(r["lp_bound_s"] for r in rows)
    calls = sum(r["milp_calls"] for r in rows)
    nodes = sum(r["nodes"] for r in rows)
    reused = sum(1 for r in rows if r["status"].startswith("warm-"))
    print(f"{name}: {wall:.2f} s wall, {len(rows)} solves, {calls} MILP calls "
          f"({milp:.2f} s HiGHS MILP), LP bound {lp:.2f} s, {reused} warm-reused, "
          f"{nodes} MIP nodes ({nodes / max(calls, 1):.1f} per MILP call)")
    if show:
        for r in rows:
            print(f"  budget {r['budget']:>14.1f}  {r['status']:<24} wall {r['wall_s']:7.3f} s"
                  f"  milp {r['milp_s']:7.3f} s  lp {r['lp_bound_s']:6.3f} s"
                  f"  nodes {r['nodes']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="resnet_tiny")
    parser.add_argument("--probes", action="store_true", help="print every solve")
    args = parser.parse_args(argv)
    import_program()
    import numpy as np
    from repro import SolveService
    from repro.experiments.presets import build_training_graph

    from perfbench.exact_sweep import reset_caches
    from perfbench.layers import LayerTimer, install_solver_layers

    timer = LayerTimer()
    install_solver_layers(timer)
    timer.active = True
    graph = build_training_graph(args.preset)

    reset_caches()
    service, trace_rows = SolveService(), []
    traced_solves(service, timer, trace_rows)
    start = time.perf_counter()
    front = service.pareto(graph, "checkmate_ilp")
    summarize("pareto", trace_rows, time.perf_counter() - start, args.probes)

    steps = int(round((front.high - front.low) / front.resolution))
    grid = [float(b) for b in np.linspace(front.low, front.high, steps + 1)]
    reset_caches()
    service, dense_rows = SolveService(), []
    traced_solves(service, timer, dense_rows)
    start = time.perf_counter()
    service.sweep(graph, [("checkmate_ilp", b) for b in grid], parallel=False)
    summarize("dense grid", dense_rows, time.perf_counter() - start, args.probes)
    timer.restore()
    return 0


if __name__ == "__main__":
    sys.exit(main())
