"""One benchmark for Checkmate: exact sweeps, large-graph approximation, a served mix.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no timing shims
installed; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics instead (see README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  A failed output check
exits non-zero without printing a result.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("exact_sweep", "approx_large", "served_mix")
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3
#: The imports -- nearly all of set-up for the in-process workloads -- are
#: timed this many times per run (this process once, fresh interpreters for
#: the rest); the median is reported.
IMPORT_SAMPLES = 3


def import_modules() -> None:
    """Import the program and the workload modules: the import part of set-up."""
    common.import_program()
    import repro  # noqa: F401
    import repro.server.client  # noqa: F401

    from perfbench import approx_large, exact_sweep, layers, served_mix  # noqa: F401


def fresh_import_seconds() -> float:
    """Wall time of ``import_modules`` in a fresh interpreter."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "from perfbench.run import import_modules; import_modules(); "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, common.ROOT], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def metric_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them.

    Every workload reports every metric; a layer a workload does not reach
    reads 0 on it.
    """
    bench = common.load_benchmark()
    return tuple({m["name"]: m["unit"] for m in bench[kind]}
                 for kind in ("end_to_end", "per_layer"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_in_process(module, args, timer):
    """exact_sweep / approx_large: set up, run, report (this process solves)."""
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = module.setup()
        walls.append(time.perf_counter() - start)
    out = module.run(cases, seed=args.seed, seconds=args.seconds, timer=timer)
    return out, walls


def run_served(module, args, timer):
    """served_mix: boot and fill the daemon several times, keep the last one."""
    walls = []
    daemon = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            module.stop_daemon(daemon.process)
        start = time.perf_counter()
        daemon = module.setup()
        walls.append(time.perf_counter() - start)
    try:
        out = module.run(daemon, seed=args.seed, seconds=args.seconds, timer=timer)
    finally:
        module.stop_daemon(daemon.process)
    out["metrics"]["peak_rss_mib"] = (common.children_peak_rss_mib(), "MiB")
    if timer is not None:
        out["layers"].update(module.latency_tail(out["latencies"]))
    return out, walls


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop the daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_modules()
    imported_s = time.perf_counter() - PROCESS_START

    from perfbench import approx_large, exact_sweep, served_mix
    from perfbench.layers import LayerTimer, install_solver_layers

    timer = None
    if args.trace:
        timer = LayerTimer()
        install_solver_layers(timer)
        timer.wrap_function("repro.utils.serialization", "graph_to_wire",
                            "wire.graph_encode")
    module = {"exact_sweep": exact_sweep, "approx_large": approx_large,
              "served_mix": served_mix}[args.workload]
    try:
        if args.workload == "served_mix":
            out, setup_walls = run_served(module, args, timer)
        else:
            out, setup_walls = run_in_process(module, args, timer)
    finally:
        if timer is not None:
            timer.restore()

    end_to_end, per_layer = metric_units()
    if args.trace:
        values = {name: 0.0 for name in per_layer}
        values.update(out["layers"])
        units = per_layer
    else:
        values = {name: value for name, (value, _) in out["metrics"].items()}
        # Sampled after the timed phase, so the fresh interpreters neither
        # share its processors nor count toward a peak resident set.
        imports = [imported_s] + [fresh_import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
        values["setup_s"] = common.median(imports) + common.median(setup_walls)
        units = end_to_end
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": True,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: common.metric(values[name], units[name]) for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
