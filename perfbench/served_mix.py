"""``served_mix``: ``repro serve`` driven closed-loop over HTTP.

The daemon runs in its own process with its default thread backend and
worker count.  This process is the client: two caller threads, each sending
its next request only after the previous one settled and its result was
fetched.  A round is 1,000 requests (500 per caller):

* 995 repeat a hit set filled during set-up, half naming a preset, half
  sending the wire-encoded graph;
* 4 are two fresh-budget ``checkmate_ilp`` cells, each sent by both callers
  at once (one single-flighted solve each).  The budget lies between a
  cached cell's budget and that cell's peak, so the miss is answered from a
  warm seed;
* 1 is a deadline-bound ``checkmate_ilp`` solve, a cache miss by its own
  ``time_limit_s``, whose ``deadline_s`` is far below its solve time.

The seed sets the request order, the preset/wire choice and the fresh
budgets; the deadline-bound request does not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import checks
from .common import (ROOT, SRC, CheckFailure, RoundClock, budget_at, geomean, median,
                     nearest_rank)
from .exact_sweep import MIP_GAP

#: Hit set: (preset, strategy, budget fraction), all at ci scale.
HIT_CELLS: Tuple[Tuple[str, str, float], ...] = (
    ("linear_cnn", "checkmate_ilp", 1.0),
    ("linear_cnn", "checkmate_ilp", 0.7),
    ("linear_cnn", "approx_threshold_sweep", 0.7),
    ("resnet_tiny", "checkmate_ilp", 1.0),
    ("resnet_tiny", "checkmate_ilp", 0.7),
    ("resnet_tiny", "approx_threshold_sweep", 0.7),
    ("vgg16", "checkmate_ilp", 1.0),
    ("vgg16", "checkmate_ilp", 0.7),
    ("vgg16", "approx_threshold_sweep", 0.7),
)
#: Fresh-budget families: a fresh budget is drawn between the cached
#: ``checkmate_ilp`` cell at this fraction and that cell's peak memory.
FRESH_FAMILIES: Tuple[Tuple[str, float], ...] = (("linear_cnn", 0.7), ("resnet_tiny", 0.7))
#: The deadline-bound request: its cold solve takes ~0.5 s on a 2-CPU host.
DEADLINE_CELL = ("vgg16", "checkmate_ilp", 1.0)
DEADLINE_S = 0.05
#: ``time_limit_s`` of the deadline-bound request is this plus the round
#: index: a different plan-cache key every round, the same solve.
DEADLINE_TIME_LIMIT_S = 600.0

REQUESTS_PER_CALLER = 500
CALLERS = 2
#: Client poll interval while a job is queued or running.
POLL_S = 0.001
#: A deadline-bound request succeeds when it settles (done in time, or
#: failed with a ``deadline-exceeded`` verdict) within deadline + poll
#: interval + this tolerance, measured by the daemon's own timestamps.
DEADLINE_TOLERANCE_S = 0.1


@dataclass(frozen=True)
class Request:
    kind: str                    # "hit", "fresh" or "deadline"
    preset: str
    strategy: str
    budget: float
    wire: bool = False
    options: Optional[dict] = None
    deadline_s: Optional[float] = None

    @property
    def cell(self) -> tuple:
        return (self.preset, self.strategy, self.budget,
                json.dumps(self.options, sort_keys=True))


@dataclass
class Outcome:
    request: Request
    latency: float
    state: str
    status: dict
    result: Optional[dict]
    failed: bool = False


@dataclass
class Daemon:
    process: subprocess.Popen
    url: str
    graphs: Dict[str, object] = field(default_factory=dict)
    data: Dict[str, checks.GraphData] = field(default_factory=dict)
    wire: Dict[str, dict] = field(default_factory=dict)
    hit_results: Dict[tuple, dict] = field(default_factory=dict)


def _client(url: str):
    from repro.server.client import ServeClient

    return ServeClient(url, timeout=60.0, max_retries=0)


def start_daemon() -> Daemon:
    """Start ``repro serve`` on an ephemeral port and wait for ``/v1/healthz``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = process.stdout.readline()
    found = re.search(r"listening on (http://\S+)", line)
    if not found:
        stop_daemon(process)
        raise RuntimeError(f"daemon did not start: {line!r}")
    url = found.group(1)
    client = _client(url)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            if client.healthz().get("status") == "ok":
                break
        except OSError:
            pass
        if time.monotonic() > deadline:
            stop_daemon(process)
            raise RuntimeError("daemon never became healthy")
        time.sleep(0.01)
    return Daemon(process=process, url=url)


def stop_daemon(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    if process.stdout is not None:
        process.stdout.close()


def setup() -> Daemon:
    """Boot the daemon and fill the hit set (the repeatable part of set-up)."""
    from repro.experiments.presets import build_training_graph
    from repro.utils.serialization import graph_to_wire

    daemon = start_daemon()
    try:
        for preset in sorted({cell[0] for cell in HIT_CELLS}):
            graph = build_training_graph(preset, scale="ci")
            daemon.graphs[preset] = graph
            daemon.data[preset] = checks.GraphData.of(graph)
            daemon.wire[preset] = graph_to_wire(graph)
        client = _client(daemon.url)
        for preset, strategy, fraction in HIT_CELLS:
            request = Request("hit", preset, strategy,
                              budget_at(daemon.graphs[preset], fraction))
            outcome = send(client, request, daemon)
            if outcome.state != "done" or not outcome.result["feasible"]:
                raise CheckFailure(f"served_mix set-up: {request} settled {outcome.state}")
            daemon.hit_results[request.cell] = outcome.result
    except BaseException:
        stop_daemon(daemon.process)
        raise
    return daemon


def send(client, request: Request, daemon: Daemon) -> Outcome:
    """One closed-loop request: submit, poll until settled, fetch the result."""
    start = time.perf_counter()
    if request.wire:
        payload = {"graph": daemon.graphs[request.preset]}
    else:
        payload = {"preset": request.preset}
    handle = client.submit_solve(strategy=request.strategy, budget=request.budget,
                                 options=request.options, deadline_s=request.deadline_s,
                                 **payload)
    job_id = handle["job_id"]
    while True:
        status = client.job(job_id)
        if status["state"] not in ("queued", "running"):
            break
        time.sleep(POLL_S)
    result = client.result(job_id)["result"] if status["state"] == "done" else None
    return Outcome(request, time.perf_counter() - start, status["state"], status, result)


def settle_s(status: dict) -> float:
    return status["finished_at"] - status["submitted_at"]


def judge(outcome: Outcome) -> None:
    """Mark deadline-bound requests that missed their deadline as failed."""
    request, status = outcome.request, outcome.status
    if request.kind != "deadline":
        if outcome.state != "done":
            raise CheckFailure(f"served_mix: {request} settled {outcome.state}: "
                               f"{status.get('error')}")
        return
    in_time = settle_s(status) <= request.deadline_s + POLL_S + DEADLINE_TOLERANCE_S
    verdict_ok = outcome.state == "done" or (
        outcome.state == "failed"
        and (status.get("error_info") or {}).get("type") == "deadline-exceeded")
    outcome.failed = not (in_time and verdict_ok)


def make_round(rng: random.Random, daemon: Daemon, round_index: int,
               fresh_windows: Dict[str, Tuple[float, float]]) -> List[List[Request]]:
    """The per-caller request lists of one round."""
    hit_cells = [(p, s, budget_at(daemon.graphs[p], f)) for p, s, f in HIT_CELLS]
    slots = list(range(REQUESTS_PER_CALLER))
    rng.shuffle(slots)
    pair_slots = slots[:len(FRESH_FAMILIES)]
    deadline_slot = slots[len(FRESH_FAMILIES)]
    callers: List[List[Request]] = [[] for _ in range(CALLERS)]
    for caller in callers:
        for _ in range(REQUESTS_PER_CALLER):
            preset, strategy, budget = rng.choice(hit_cells)
            caller.append(Request("hit", preset, strategy, budget, wire=rng.random() < 0.5))
    for slot, (preset, _) in zip(pair_slots, FRESH_FAMILIES):
        low, high = fresh_windows[preset]
        fresh = Request("fresh", preset, "checkmate_ilp",
                        low + rng.uniform(0.05, 0.95) * (high - low))
        for caller in callers:
            caller[slot] = fresh
    preset, strategy, fraction = DEADLINE_CELL
    callers[0][deadline_slot] = Request(
        "deadline", preset, strategy, budget_at(daemon.graphs[preset], fraction),
        options={"time_limit_s": DEADLINE_TIME_LIMIT_S + round_index},
        deadline_s=DEADLINE_S)
    return callers


def run_round(daemon: Daemon, callers: List[List[Request]]) -> List[Outcome]:
    outcomes: List[List[Outcome]] = [[] for _ in callers]
    barrier = threading.Barrier(len(callers))
    errors: List[BaseException] = []

    def caller(index: int) -> None:
        client = _client(daemon.url)
        try:
            for request in callers[index]:
                if request.kind == "fresh":
                    barrier.wait(timeout=60)
                outcomes[index].append(send(client, request, daemon))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=caller, args=(i,), name=f"caller-{i}")
               for i in range(len(callers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("a caller thread did not finish its round")
    if errors:
        raise errors[0]
    return [o for per_caller in outcomes for o in per_caller]


def fresh_windows(daemon: Daemon) -> Dict[str, Tuple[float, float]]:
    """(peak, budget) of each fresh family's cached cell: where fresh budgets go."""
    windows = {}
    for preset, fraction in FRESH_FAMILIES:
        budget = budget_at(daemon.graphs[preset], fraction)
        cached = daemon.hit_results[Request("hit", preset, "checkmate_ilp", budget).cell]
        peak = float(cached["peak_memory"])
        if not peak < budget - 1.0:
            raise CheckFailure(f"served_mix: {preset} @ {fraction} has no slack for fresh budgets")
        windows[preset] = (peak + 1.0, budget)
    return windows


def metrics_snapshot(daemon: Daemon) -> dict:
    return _client(daemon.url).metrics()


def run(daemon: Daemon, *, seed: int, seconds: float, timer=None) -> Dict[str, object]:
    rng = random.Random(seed)
    windows = fresh_windows(daemon)
    outcomes: List[Tuple[Outcome, bool]] = []
    round_walls: Dict[bool, List[float]] = {False: [], True: []}
    # Per untraced round: requests per second and geometric-mean latency.
    # Every round sends the same mix, so their medians shrug off a slow
    # spell of the host that covers fewer than half of a run's rounds.
    round_rates: List[float] = []
    round_latencies: List[float] = []
    clock = RoundClock(seconds)
    round_index = 0
    counters = {"dedup": 0, "hits": 0, "misses": 0}
    while clock.another() or (timer is not None and round_index < 2):
        traced = timer is not None and round_index % 2 == 1
        callers = make_round(rng, daemon, round_index, windows)
        if traced:
            before = metrics_snapshot(daemon)
            timer.active = True
        round_start = time.perf_counter()
        settled = run_round(daemon, callers)
        wall = time.perf_counter() - round_start
        if timer is not None:
            timer.active = False
        if traced:
            _add_delta(counters, before, metrics_snapshot(daemon))
        clock.record(wall)
        round_walls[traced].append(wall)
        if not traced:
            round_rates.append(len(settled) / wall)
            round_latencies.append(geomean(o.latency for o in settled))
        outcomes += [(o, traced) for o in settled]
        round_index += 1

    for outcome, _ in outcomes:
        judge(outcome)
    check_results(daemon, [o for o, _ in outcomes])
    latencies = [o.latency for o, _ in outcomes]
    out: Dict[str, object] = {
        "attempted": len(outcomes),
        "failed": sum(1 for o, _ in outcomes if o.failed),
        "metrics": {
            "ops_per_s": (median(round_rates), "1/s"),
            "op_s_geomean": (median(round_latencies), "s"),
            "overhead_geomean": (served_overhead(daemon, [o for o, _ in outcomes]), "ratio"),
        },
        "latencies": latencies,
    }
    if timer is not None:
        traced_outcomes = [o for o, t in outcomes if t]
        out["layers"] = traced_layers(daemon, traced_outcomes, timer, counters)
        out["layers"]["trace.overhead_ratio"] = (
            median(round_walls[True]) / median(round_walls[False]) - 1.0)
    return out


def _add_delta(totals: Dict[str, int], before: dict, after: dict) -> None:
    """Accumulate dedup and plan-cache counters over one traced round."""
    totals["dedup"] += after["jobs"]["deduplicated"] - before["jobs"]["deduplicated"]
    for name in ("hits", "misses"):
        totals[name] += after["service"]["cache"][name] - before["service"]["cache"][name]


def check_results(daemon: Daemon, outcomes: List[Outcome]) -> None:
    """Schedule checks per distinct cell; every repeat must return the same schedule."""
    from repro import SolveService

    first: Dict[tuple, dict] = {}
    digests: Dict[tuple, str] = {}
    for outcome in outcomes:
        if outcome.result is None:
            continue
        cell = outcome.request.cell
        digest = hashlib.sha256(outcome.result["schedule"].encode()).hexdigest()
        if cell not in first:
            first[cell], digests[cell] = outcome.result, digest
        elif digests[cell] != digest:
            raise CheckFailure(f"served_mix: {cell} returned two different schedules")
    local = SolveService()
    for cell, result in first.items():
        preset, strategy, budget, options_json = cell
        label = f"served_mix {preset} {strategy} @ {budget:.0f} B"
        schedule = json.loads(result["schedule"])
        report = checks.check_schedule(
            daemon.data[preset], schedule["R"], schedule["S"], budget=budget,
            reported_cost=result["compute_cost"], reported_peak=result["peak_memory"],
            label=label)
        if options_json != "null":
            continue  # deadline-bound: the same cell as a hit-set one, checked there
        # The daemon may answer from a warm seed, the cold local solve from
        # its own incumbent: MILP objectives agree within the MILP's gap.
        solved = local.solve(daemon.graphs[preset], strategy, budget, auto_warm_start=False)
        checks.check_same_objective(report.cost, solved.compute_cost, label=label,
                                    rtol=MIP_GAP if strategy == "checkmate_ilp" else 0.0)


def served_overhead(daemon: Daemon, outcomes: List[Outcome]) -> float:
    """Geometric mean cost / checkpoint-all cost over distinct served cells
    below checkpoint-all's peak."""
    ratios = {}
    for outcome in outcomes:
        request, result = outcome.request, outcome.result
        if result is None or request.options is not None:
            continue
        data = daemon.data[request.preset]
        top = budget_at(daemon.graphs[request.preset], 1.0)
        if request.budget < top:
            ratios[request.cell] = result["compute_cost"] / sum(data.costs)
    return geomean(ratios.values())


def traced_layers(daemon: Daemon, outcomes: List[Outcome], timer,
                  counters: Dict[str, int]) -> Dict[str, float]:
    hits = [o for o in outcomes if o.request.kind == "hit"]
    deadline = [o for o in outcomes if o.request.kind == "deadline"]
    lookups = counters["hits"] + counters["misses"]
    layers = {
        "jobs.wait_s_p50": median([o.status["wait_s"] for o in outcomes]),
        "jobs.run_s_p50": median([o.status["run_s"] for o in outcomes]),
        "jobs.dedup": counters["dedup"],
        "jobs.deadline_overrun_s": median(
            [settle_s(o.status) - o.request.deadline_s for o in deadline]),
        "http.hit_s_p50": median([o.latency for o in hits]),
        "http.overhead_s_p50": median(
            [o.latency - o.status["wait_s"] - o.status["run_s"] for o in hits]),
        "cache.hit_ratio": counters["hits"] / lookups if lookups else 0.0,
        "wire.graph_encode_s": timer.seconds["wire.graph_encode"],
    }
    layers.update(in_process_layers(daemon))
    return layers


def _p50_of(fn, repeats: int = 200) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


def in_process_layers(daemon: Daemon) -> Dict[str, float]:
    """Layers inside the daemon, timed in this process on the served inputs:
    the cache-hit path of the service and of the job queue, and the wire
    codecs the daemon runs per request."""
    from repro import SolveService
    from repro.server.jobs import JobQueue
    from repro.utils.serialization import graph_from_wire, result_from_wire, result_to_wire

    preset, strategy, fraction = DEADLINE_CELL
    graph = daemon.graphs[preset]
    budget = budget_at(graph, fraction)
    service = SolveService()
    result = service.solve(graph, strategy, budget)
    wire_graph = daemon.wire[preset]
    wire_result = result_to_wire(result)
    layers = {
        "service.hit_s": _p50_of(lambda: service.solve(graph, strategy, budget)),
        "wire.graph_decode_s": _p50_of(lambda: graph_from_wire(wire_graph)),
        "wire.result_encode_s": _p50_of(lambda: result_to_wire(result)),
        "wire.result_decode_s": _p50_of(lambda: result_from_wire(wire_result, graph), 50),
        "wire.result_bytes": len(json.dumps(wire_result)),
    }
    queue = JobQueue(service).start()
    try:
        def hit() -> None:
            job = queue.submit_solve(graph, strategy, budget)
            if not job.wait(timeout=30):
                raise RuntimeError("in-process job did not settle")
        layers["jobs.hit_s"] = _p50_of(hit)
    finally:
        queue.shutdown()
    return layers


def latency_tail(latencies: List[float]) -> Dict[str, float]:
    return {"http.latency_p50_s": median(latencies),
            "http.latency_p99_s": nearest_rank(latencies, 0.99)}
