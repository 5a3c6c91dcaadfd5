"""Collect sets of benchmark runs, report their spread, compare two sets.

Usage (from the root of a checkout)::

    # ten untraced runs per workload (seeds 1..10) plus one traced run each
    python3 perfbench/compare.py collect --out perfbench/runs/a.jsonl --runs 10 --traced 1
    # steadiness: each metric's quartile spread against its bound
    python3 perfbench/compare.py spread perfbench/runs/a.jsonl
    # parent (a) against change (b): medians, quartiles, ratios, verdicts
    python3 perfbench/compare.py diff perfbench/runs/a.jsonl perfbench/runs/b.jsonl

A runs file holds one JSON object per line: ``workload``, ``seed``,
``trace`` and the run's ``result`` (the last line ``run.py`` printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import ROOT, load_benchmark  # noqa: E402


def collect(args) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    plan = [(w, args.first_seed + i, 0) for w in workloads for i in range(args.runs)]
    plan += [(w, args.first_seed + i, 1) for w in workloads for i in range(args.traced)]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as out:
        for workload, seed, trace in plan:
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            out.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                  "result": result}) + "\n")
            out.flush()
            print(f"{workload} seed {seed} trace {trace}: "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
    return 0


def load_runs(path: str) -> Dict[tuple, Dict[str, List[float]]]:
    """(workload, trace) -> metric -> values, plus failed shares under '__failed__'."""
    runs: Dict[tuple, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            result = row["result"]
            bucket = runs[row["workload"], row["trace"]]
            for name, entry in result["metrics"].items():
                bucket[name].append(float(entry["value"]))
            bucket["__failed__"].append(result["failed"] / result["attempted"])
    return runs


def summary(values: List[float]) -> tuple:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def spread(args) -> int:
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = load_runs(args.runs)
    worst = 0.0
    print(f"{'workload':<14}{'metric':<18}{'n':>3}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  ok")
    for (workload, trace), metrics in sorted(runs.items()):
        if trace:
            continue
        for name, values in metrics.items():
            if name == "__failed__":
                shares = sorted(set(values))
                print(f"{workload:<14}failed share: {shares}"
                      f"{'' if len(shares) == 1 else '  UNEQUAL'}")
                continue
            med, q1, q3, rel = summary(values)
            bound = bounds[name]
            limit = bound if name == "setup_s" else bound / 3
            ok = "yes" if rel <= limit else ("within bound" if rel <= bound else "NO")
            if name != "setup_s":
                worst = max(worst, rel / bound)
            print(f"{workload:<14}{name:<18}{len(values):>3}{med:>14.6g}{q1:>14.6g}"
                  f"{q3:>14.6g}{rel:>9.4f}{bound:>7.2f}  {ok}")
    print(f"largest spread / bound (setup_s aside): {worst:.3f}")
    return 0


def verdict(base: List[float], change: List[float], bound: float, better: str) -> str:
    """"unresolved" when a spread exceeds the bound (unless every change run
    beats every base run); "worse" past the bound; "better" when the change
    wins nine tenths of all run pairs and the medians differ by more than
    the base's own spread; otherwise "same"."""
    bmed, _, _, bspread = summary(base)
    cmed, _, _, cspread = summary(change)
    lower = better == "lower"
    pairs = [(c < b) if lower else (c > b) for c in change for b in base]
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    if max(bspread, cspread) > bound and not all(pairs):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if sum(pairs) >= 0.9 * len(pairs) and -worse_by > bspread:
        return "better"
    return "same"


def diff(args) -> int:
    bench = load_benchmark()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load_runs(args.base), load_runs(args.change)
    print("end to end (untraced runs): base = first file")
    print(f"{'workload':<14}{'metric':<18}{'base median [q1, q3]':>36}"
          f"{'change median [q1, q3]':>36}{'ratio':>9}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        if trace:
            continue
        for name in e2e:
            if name not in base[key] or name not in change[key]:
                continue
            b, c = base[key][name], change[key][name]
            bm, bq1, bq3, _ = summary(b)
            cm, cq1, cq3, _ = summary(c)
            text_b = f"{bm:.5g} [{bq1:.5g}, {bq3:.5g}]"
            text_c = f"{cm:.5g} [{cq1:.5g}, {cq3:.5g}]"
            v = verdict(b, c, e2e[name]["bound"], e2e[name]["better"])
            print(f"{workload:<14}{name:<18}{text_b:>36}{text_c:>36}{cm / bm:>9.4f}  {v}")
        fb, fc = base[key]["__failed__"], change[key]["__failed__"]
        print(f"{workload:<14}failed share    base {sorted(set(fb))}  change {sorted(set(fc))}")
    print("\nper layer (traced runs, medians): ratio = change / base")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        if not trace:
            continue
        for name in sorted(base[key]):
            if name == "__failed__" or name not in change[key]:
                continue
            bm = statistics.median(base[key][name])
            cm = statistics.median(change[key][name])
            if bm == 0 and cm == 0:
                continue
            ratio = f"{cm / bm:.4f}" if bm else "n/a"
            print(f"{workload:<14}{name:<26}{bm:>14.6g}{cm:>14.6g}{ratio:>9}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark and append to a runs file")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    p.add_argument("--first-seed", type=int, default=1)
    p.set_defaults(fn=collect)
    p = sub.add_parser("spread", help="steadiness of one set of runs")
    p.add_argument("runs")
    p.set_defaults(fn=spread)
    p = sub.add_parser("diff", help="compare a base set of runs with a change")
    p.add_argument("base")
    p.add_argument("change")
    p.set_defaults(fn=diff)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
