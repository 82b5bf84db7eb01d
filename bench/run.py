"""Benchmark of the twisted_satake package, end to end and per module.

    python3 bench/run.py --workload posets-cli --seed 1 --seconds 40 --trace 0

Workloads (see bench/README.md): posets-cli and branching-cli answer seeded
CLI queries through `cli.main`, each in a child forked from a parent
process that has only imported the package; library-session drives the
library API in one warm child per round.  Every answer is checked against the oracles in
`oracles.py`.  A run answers whole rounds of queries, as many as fit in
--seconds.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it runs rounds untraced for half the time and then the same rounds traced,
and prints the per-module metrics of traced round 0 and the tracing
overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_AT_START = 4     # set-up samples before the first round; one more before each round
CHILD_TIMEOUT_S = 150

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import twisted_satake.cli\n"
    "twisted_satake.default_presets()\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_once():
    """Time to import the package with its CLI module and build the preset
    registry in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.strip())


def in_child(fn, *args):
    """Run fn(*args) in a forked child; return (its JSON-able result, wall
    seconds from fork to the child's exit).  A child that raises or runs
    past CHILD_TIMEOUT_S yields {"crash": reason}."""
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                payload = {"ok": fn(*args)}
            except Exception:  # reported to the parent, which fails the run
                payload = {"crash": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(payload).encode())
            code = 0
        finally:
            os._exit(code)  # a forked child never returns into the parent
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    return (json.loads(data) if data else {"crash": "child died"}), wall


class Round:
    def __init__(self):
        self.wall = 0.0
        self.latencies = []     # seconds; failed queries count as infinitely slow
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.maxrss_kb = 0
        self.output_bytes = 0
        self.traces = []


def _traced(tracer, fn):
    """fn wrapped so that the child reports its spans along with its result."""
    def run(*args):
        if tracer is not None:
            tracer.begin()
        result = fn(*args)
        return {"result": result,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": tracer.snapshot() if tracer is not None else None}
    return run


class ColdWorkload:
    """One forked child per CLI query, started from the just-imported state."""

    def __init__(self, make_round, check, prepare=None):
        self.make_round = make_round
        self.check = check
        self.prepare = prepare

    def context(self):
        if self.prepare is None:
            return None

        def run_cli(argv):
            payload, _wall = in_child(workloads.cli_query, argv)
            if "crash" in payload or payload["ok"]["code"] != 0:
                raise RuntimeError(f"preparing {argv} failed: {payload}")
            return payload["ok"]

        return self.prepare(run_cli)

    def run_round(self, queries, context, tracer=None):
        rnd = Round()
        child = _traced(tracer, workloads.cli_query)
        for query in queries:
            payload, wall = in_child(child, query["argv"])
            rnd.wall += wall
            rnd.attempted += 1
            if "crash" in payload:
                raise RuntimeError(f"{query['argv']}: {payload['crash']}")
            body = payload["ok"]
            outcome = body["result"]
            rnd.maxrss_kb = max(rnd.maxrss_kb, body["maxrss_kb"])
            rnd.output_bytes += len(outcome["out"].encode())
            if body["trace"] is not None:
                rnd.traces.append(body["trace"])
            failed, error = workloads.judge_cli(query, outcome, self.check, context)
            rnd.failed += failed
            rnd.latencies.append(float("inf") if failed else wall)
            if error:
                rnd.errors.append(error)
        return rnd


class SessionWorkload:
    """One warm forked child answers the whole round through the library."""

    make_round = staticmethod(workloads.session_round)

    def context(self):
        return None

    def run_round(self, queries, _context, tracer=None):
        rnd = Round()
        payload, rnd.wall = in_child(_traced(tracer, workloads.run_session), queries)
        if "crash" in payload:
            raise RuntimeError(payload["crash"])
        body = payload["ok"]
        session = body["result"]
        rnd.attempted = len(queries)
        rnd.latencies = list(session["latencies"])
        rnd.maxrss_kb = body["maxrss_kb"]
        if body["trace"] is not None:
            rnd.traces.append(body["trace"])
        error = workloads.check_session(queries, session["answers"])
        if error:
            rnd.errors.append(error)
        return rnd


def build_workloads():
    return {
        "posets-cli": ColdWorkload(workloads.posets_round, workloads.check_posets_answer),
        "branching-cli": ColdWorkload(workloads.branching_round,
                                      workloads.check_branching_answer,
                                      prepare=workloads.describe_folded),
        "library-session": SessionWorkload(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def central_median(values):
    """The median, estimated as the mean of the middle fifth of the sorted
    values: query costs form clusters, and the single middle value jumps
    between neighbouring clusters from run to run."""
    ordered = sorted(values)
    lo = int(0.4 * len(ordered))
    hi = max(int(0.6 * len(ordered)), lo + 1)
    return sum(ordered[lo:hi]) / (hi - lo)


def whole_rounds(seconds, run_one):
    """Rounds 0, 1, ... while the next one still ends within `seconds`,
    taking it to last as long as the longest so far; at least one, and at
    most ROUNDS_MAX, after which a cold query would repeat."""
    rounds, longest = [], 0.0
    start = time.perf_counter()
    while not rounds or (len(rounds) < workloads.ROUNDS_MAX
                         and time.perf_counter() - start + longest <= seconds):
        t0 = time.perf_counter()
        rounds.append(run_one(len(rounds)))
        longest = max(longest, time.perf_counter() - t0)
    return rounds


def measure(name, seed, seconds, trace):
    wl = build_workloads()[name]
    context = wl.context()

    def run_one(index, tracer=None):
        return wl.run_round(wl.make_round(seed, index, context), context, tracer)

    extra = {}
    if trace:
        # Untraced rounds for half the time, then the same rounds traced
        # (the wrappers cannot be taken off again).  The per-layer metrics
        # come from traced round 0 alone, so two runs give the same counts.
        plain = whole_rounds(seconds / 2, run_one)
        tracer = spans.Tracer()
        tracer.install()
        traced = [run_one(index, tracer) for index in range(len(plain))]
        rounds = plain + traced
        merged = spans.merge(traced[0].traces)
        metrics = spans.layer_metrics(merged)
        metrics["cli.output_bytes"] = _metric(traced[0].output_bytes, "bytes")
        overhead = sum(r.wall for r in traced) / sum(r.wall for r in plain)
        metrics["trace.overhead"] = _metric(overhead, "ratio")
        extra["spans"] = merged
        extra["traced_rounds"] = len(traced)
    else:
        # set-up samples spread over the run, as the queries are, so that
        # both see the same share of the machine's slow spells
        setup = [setup_once() for _ in range(SETUP_AT_START)]

        def setup_and_round(index):
            setup.append(setup_once())
            return run_one(index)

        rounds = whole_rounds(seconds, setup_and_round)
        latencies = [x for r in rounds for x in r.latencies]
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "queries_per_s": _metric(sum(r.attempted for r in rounds) / sum(r.wall for r in rounds),
                                     "1/s"),
            "latency_p50_s": _metric(central_median(latencies), "s"),
            "peak_rss_mb": _metric(max(r.maxrss_kb for r in rounds) / 1024, "MB"),
        }
        extra["latency_p90_s"] = statistics.quantiles(latencies, n=10)[8]
        extra["latency_samples"] = len(latencies)
        extra["rounds"] = len(rounds)
        extra["setup_samples"] = len(setup)
        extra["round_rates"] = [r.attempted / r.wall for r in rounds]
    errors = [e for r in rounds for e in r.errors]
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    return result, dict(extra, errors=errors[:20], workload=name, seed=seed, trace=trace)


def report(result, extra):
    name = extra["workload"]
    for metric, m in sorted(result["metrics"].items()):
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    if "latency_p90_s" in extra:
        print(f"{name} latency_p90_s {extra['latency_p90_s']:.6g} s "
              f"(reference, {extra['latency_samples']} samples, {extra['rounds']} rounds)")
    print(f"{name} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for err in extra["errors"]:
        print(f"{name} WRONG {err}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{extra['seed']}-trace{int(extra['trace'])}.json"
    path.write_text(json.dumps({"result": result, **extra}, indent=1, sort_keys=True))


def main(argv=None):
    names = tuple(build_workloads())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "twisted_satake" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'twisted_satake'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twisted_satake.cli  # noqa: F401  the state every forked query starts from

    results = {}
    for name in (names if args.workload == "all" else (args.workload,)):
        result, extra = measure(name, args.seed, args.seconds, bool(args.trace))
        report(result, extra)
        results[name] = result
    if len(results) == 1:
        combined = results[args.workload]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
