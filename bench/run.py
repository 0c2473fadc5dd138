"""conjsep benchmark: one seeded workload per run, every verdict checked.

    python3 bench/run.py --workload tower-cold --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports conjsep from src/.  It is
single-process and single-threaded: one client in a closed loop issues a
query, waits for the verdict, checks it against an oracle that shares no
decision code with conjsep, and only then issues the next.  Rounds of
queries are run whole until --seconds of wall time have passed.

--trace 0 reports the end-to-end metrics, with set-up repeated and its median
reported.  --trace 1 runs a fixed number of rounds untraced, then the same
rounds again with every layer wrapped (see tracing.py), reports the per-layer
metrics, and writes the spans to bench/out/.  The last line of standard output
is the JSON result; a wrong verdict prints it with "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

from oracles import WrongVerdict, expect
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
MIN_QUERIES = 100  # so that at least 10 latencies lie beyond the 90th percentile
SETUP_SAMPLES = 3  # reference samples taken on each side of a set-up
MODULES = ("cli", "conjugacy", "errors", "finite", "groupspec", "intlin", "separability", "unitri")

END_TO_END_UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms",
    "verified_ratio": "ratio", "peak_rss_mb": "MB", "decided_levels_ratio": "ratio",
}


class Lib:
    """The freshly imported conjsep modules, looked up at call time so that
    the traced run's patched bindings take effect."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "conjsep" or n.startswith("conjsep.")]:
            del sys.modules[name]
        package = importlib.import_module("conjsep")
        if not Path(package.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"conjsep imported from {package.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"conjsep.{name}"))


def _reference_work() -> int:
    """Fixed integer arithmetic that allocates no containers."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


class Speed:
    """The machine's current speed, from a reference loop timed between queries.

    On a shared machine the same query can take 30% longer for tens of seconds
    at a time.  Every measured time is therefore scaled to the speed at which
    the reference loop takes NOMINAL seconds, judged by the samples taken just
    before and after it.  Raw times are kept in the run's context record.
    """

    NOMINAL = 0.02
    INTERVAL = 0.5

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Sample when INTERVAL has passed; return the index of the latest sample."""
        if force or perf_counter() - self.last >= self.INTERVAL:
            start = perf_counter()
            _reference_work()
            self.last = perf_counter()
            self.samples.append(self.last - start)
        return len(self.samples) - 1

    def scale(self, elapsed: float, index: int, width: int = 2) -> float:
        """elapsed at nominal speed, judged by `width` samples on each side."""
        window = self.samples[max(0, index - width + 1): index + width + 1]
        return elapsed * self.NOMINAL / statistics.median(window)


class Phase:
    """Counts and latencies of one measured loop."""

    def __init__(self):
        self.attempted = self.verified = self.budget = self.crashed = 0
        self.requested = self.decided = 0
        self.timings = []     # (raw seconds, speed sample index, verified) per query
        self.rounds = 0

    def finalize(self, speed: Speed) -> None:
        speed.tick(force=True)
        self.latencies = [speed.scale(t, i) for t, i, ok in self.timings if ok]
        self.busy = sum(speed.scale(t, i) for t, i, _ in self.timings)
        self.raw_latencies = [t for t, _, ok in self.timings if ok]
        self.raw_busy = sum(t for t, _, _ in self.timings)

    @property
    def qps(self) -> float:
        return self.verified / self.busy if self.busy else 0.0


def measure(workload, lib, seed: int, seconds: float | None, rounds: int | None,
            tracer: Tracer | None = None) -> Phase:
    """Run whole rounds until `rounds` rounds are done, or else until `seconds`
    of wall time have passed and at least MIN_QUERIES queries were made."""
    gc.collect()
    phase = Phase()
    speed = Speed()
    rng = Random(seed)
    size_limit = lib.errors.SizeLimit
    deadline = perf_counter() + seconds if seconds is not None else None

    def more() -> bool:
        if rounds is not None:
            return phase.rounds < rounds
        return perf_counter() < deadline or phase.attempted < MIN_QUERIES

    while more():
        for query in workload.round(rng):
            if tracer:
                tracer.paused = True
            call, check = query.prepare()
            mark = speed.tick()
            if tracer:
                tracer.qid, tracer.paused = phase.attempted, False
            result = None
            start = perf_counter()
            try:
                result = call()
            except size_limit:
                outcome = "budget"
            except Exception:  # noqa: BLE001 - a crash is a query without a verdict
                outcome = "crash"
                traceback.print_exc(file=sys.stderr)
            else:
                outcome = "answer"
            elapsed = perf_counter() - start
            if tracer:
                tracer.qid, tracer.paused = -1, True
            phase.attempted += 1
            verified = False
            if outcome == "answer":
                verdict = check(result)
                verified = verdict.verified
                phase.requested += verdict.requested
                phase.decided += verdict.decided
            phase.verified += verified
            phase.budget += outcome == "budget" or (outcome == "answer" and not verified)
            phase.crashed += outcome == "crash"
            phase.timings.append((elapsed, mark, verified))
            if tracer:
                tracer.paused = False
        phase.rounds += 1
    phase.finalize(speed)
    workload.finish()
    return phase


def end_to_end(phase: Phase, setup_times: list) -> dict:
    lat = sorted(phase.latencies)
    expect(len(lat) >= 2, "fewer than two verified queries")
    values = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": phase.qps,
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "verified_ratio": phase.verified / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # A workload that requests no tower levels has nothing left undecided.
        "decided_levels_ratio": phase.decided / phase.requested if phase.requested else 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def context(args, workload, phase: Phase) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src.lines": src_lines,
        "rounds": phase.rounds,
        "attempted": phase.attempted,
        "verified": phase.verified,
        "failed_ratio": {"value": (phase.budget + phase.crashed) / phase.attempted,
                         "base": phase.attempted, "budget": phase.budget, "crashed": phase.crashed},
        "latency_samples": len(phase.latencies),
        "levels": {"requested": phase.requested, "decided": phase.decided},
        "quotient_cache": dict(workload.cache),
    }


def run_plain(workload, args):
    speed, raw = Speed(), []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        for _ in range(SETUP_SAMPLES):
            mark = speed.tick(force=True)
        start = perf_counter()
        lib = Lib()
        workload.setup(lib)
        raw.append((perf_counter() - start, mark))
    for _ in range(SETUP_SAMPLES):
        speed.tick(force=True)
    setup_times = [speed.scale(t, i, SETUP_SAMPLES) for t, i in raw]
    check_shape(workload, args.seed)
    phase = measure(workload, lib, args.seed, args.seconds, None)
    lat = sorted(phase.raw_latencies)
    unscaled = {
        "setup_s": statistics.median(t for t, _ in raw),
        "queries_per_s": phase.verified / phase.raw_busy,
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
    }
    return phase, end_to_end(phase, setup_times), {"unscaled": unscaled}


def run_traced(workload, args):
    lib = Lib()
    workload.setup(lib)
    check_shape(workload, args.seed)
    plain = measure(workload, lib, args.seed, None, workload.trace_rounds)
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(lib)
        traced = measure(workload, lib, args.seed, None, workload.trace_rounds, tracer)
    finally:
        tracer.uninstall()
    counts = tracer.count
    missing = [name for name in workload.expect_nonzero if not counts[name]]
    stray = [name for name in workload.expect_zero if counts[name]]
    expect(not missing, f"traced run recorded no {', '.join(missing)}")
    expect(not stray, f"traced run touched {', '.join(stray)}")
    overhead = plain.qps / traced.qps if traced.qps else 0.0
    metrics = tracer.metrics(traced.attempted, overhead)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
    tracer.write(spans)
    return traced, metrics, {"spans": len(tracer.spans), "spans_file": str(spans.relative_to(ROOT)),
                             "untraced_queries_per_s": plain.qps, "traced_queries_per_s": traced.qps}


def check_shape(workload, seed: int) -> None:
    """A second seed must give the same query-type mix and oracle pass."""
    first, second = workload.shape(Random(seed)), workload.shape(Random(seed + 1))
    expect(first == second, f"seeds {seed} and {seed + 1} give different query mixes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "conjsep" / "__init__.py").is_file():
        print(f"conjsep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    try:
        phase, metrics, extra = (run_traced if args.trace else run_plain)(workload, args)
    except WrongVerdict as exc:
        print(f"wrong verdict: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    ctx = context(args, workload, phase) | extra
    for name, metric in metrics.items():
        print(f"{name:48} {metric['value']:>16.6f} {metric['unit']}")
    fr = ctx["failed_ratio"]
    print(f"failed_ratio {fr['value']:.4f} of {fr['base']} queries "
          f"({fr['budget']} budget, {fr['crashed']} crashed); {ctx['rounds']} rounds")
    print(json.dumps({"context": ctx}))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": ctx, "metrics": metrics}, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": True,
        "attempted": phase.attempted,
        "failed": phase.budget + phase.crashed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
