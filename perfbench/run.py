"""Query-service benchmark: seeded workloads driven over HTTP.

Usage::

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  Each run generates its workload's
corpus and references from ``--seed``, starts ``repro serve`` from
``src/`` (set up ``SETUPS`` times; ``setup_s`` is the median), drives it
with a closed loop of 2 client threads for ``--seconds``, checks every
answer, and prints one JSON object as the last line of stdout.  The
end-to-end metrics are taken over the slices of the window in which the
host took little CPU time from this machine (see ``calm_slices``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures an
untraced and a traced server and reports the per-layer metrics.  A
human-readable report goes to stderr.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import attribution  # noqa: E402
import harness  # noqa: E402
from corpus import DEFAULT_SEED, SAMPLING_DELTA, WORKLOADS, build_corpus  # noqa: E402

#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: The measured window is cut into slices of about this many seconds.
#: The metrics are taken over the slices in which the host gave at most
#: ``STEAL_LIMIT`` of the CPUs to other guests (steal); when fewer than
#: half the slices are that calm, over the calmest half.
SLICE_S = 2.0
STEAL_LIMIT = 0.05

#: A run must complete this many queries so p95 has 10 samples beyond it.
MIN_QUERIES = 200

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "answered_ratio": "ratio",
    "cpu_s_per_query": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer time metrics: metric -> span names whose attributed time
#: (self time, or waiting for the queue) it sums, per completed query.
LAYER_TIMES = {
    "service.queue_wait_s": ("service.queue_wait",),
    "service.http.backlog_s": ("service.http.backlog",),
    "service.session_prepare_s": ("service.session_prepare",),
    "analysis.analyze_s": ("analysis.analyze",),
    "analysis.partition_plan_s": ("analysis.partition_plan",),
    "kernel.compile_s": ("kernel.compile",),
    "core.sample_s": ("core.sample",),
    "core.chain_build_s": ("core.chain_build",),
    "core.exact_s": ("core.exact",),
    "datalog.evaluate_s": ("datalog.evaluate",),
    "perf.supervisor.dispatch_s": ("perf.supervisor.dispatch",),
    "sparse.assemble_s": ("sparse.assemble",),
    "sparse.solve_s": ("sparse.solve",),
    "markov.solve_s": ("markov.solve",),
    "markov.lump_s": ("markov.lump",),
    "runtime.ladder_s": ("runtime.ladder",),
    "runtime.partition_exec_s": ("runtime.partition_exec",),
}

#: What each workload was chosen to load, and what it should bypass.
LAYER_EXPECTATIONS = {
    "sampling": {
        "loads": ("core.sample", "perf.supervisor.dispatch", "kernel.compile"),
        "bypasses": ("core.chain_build", "markov.solve", "markov.lump", "sparse.assemble",
                     "sparse.solve", "runtime.partition_exec", "runtime.ladder"),
    },
    "exact_certified": {
        "loads": ("core.chain_build", "markov.solve", "markov.lump", "sparse.assemble",
                  "sparse.solve", "runtime.ladder", "runtime.partition_exec",
                  "analysis.partition_plan"),
        "bypasses": ("core.sample", "perf.supervisor.dispatch"),
    },
    "admission_mix": {
        "loads": ("service.http", "analysis.analyze", "service.session_prepare",
                  "datalog.evaluate"),
        "bypasses": ("core.sample", "sparse.assemble", "sparse.solve",
                     "perf.supervisor.dispatch"),
    },
}

#: A bypassed layer may take at most this share of traced wall time.
NEAR_ZERO = 0.01


def log(message: str = "") -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """One workload's corpus plus the output directory of its servers."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.out = root / ".perfbench"
        self.out.mkdir(exist_ok=True)
        started = time.time()
        self.corpus = build_corpus(workload, seed)
        log(f"[{workload}] corpus seed={seed}: {len(self.corpus.requests)} requests, "
            f"references in {time.time() - started:.2f}s, digest {self.corpus.digest()[:12]}")
        self.warm_failures = 0

    def setup(self, label: str, traced_to: Path | None = None) -> tuple[harness.Server, float]:
        """Launch a server, wait until healthy, warm it up.  Returns the
        server and the seconds from launch to the end of warm-up."""
        launcher = None
        if traced_to is not None:
            launcher = [sys.executable, str(HERE / "launcher.py"), str(traced_to)]
        server = harness.Server(self.root, harness.server_command(launcher=launcher),
                                self.out / f"{self.workload}-{label}.log")
        try:
            server.wait_healthy()
            warm = harness.run_sequential(server, self.corpus.warmup, f"{label}-warm")
            if self.workload == "sampling":
                warm += self._fill_product_cache(server, label)
            self.warm_failures += sum(not o.ok for o in warm)
        except BaseException:
            server.stop()
            raise
        return server, time.time() - server.started

    def _fill_product_cache(self, server: harness.Server, label: str) -> list:
        """Send product-chain requests until its transition cache evicts
        (it is full, so hit rates are at their steady state)."""
        outcomes = []
        for index, request in enumerate(self.corpus.info["fill"]):
            outcomes += harness.run_sequential(server, [request], f"{label}-fill{index}")
            sessions = server.get("/v1/metrics")["session_pool"]["sessions"]
            if any(((s["columnar"] or {}).get("transition_cache") or {}).get("evictions")
                   for s in sessions):
                return outcomes
        raise RuntimeError("product-chain cache never filled during warm-up")

    def measure(self, server: harness.Server, seconds: float, label: str) -> dict:
        """One measured window, its server-tree CPU and host steal sampled
        slice by slice."""
        slices = max(1, round(seconds / SLICE_S))
        source = enumerate(self.corpus.requests)
        before = server.get("/v1/metrics")
        with harness.Meter(server.process.pid, slices, seconds / slices) as meter:
            outcomes, start, end = harness.closed_loop(server, source, seconds, label)
        after = server.get("/v1/metrics")
        # Steal is time the host ran other guests on these CPUs: slices
        # with much of it are slow for reasons outside the program.
        samples = meter.samples[:slices + 1]
        log(f"[{self.workload}] {label}: window {end - start:.2f}s, server tree CPU "
            f"{meter.cpu_s:.2f}s, load-generator CPU {meter.client_cpu_s:.2f}s, "
            f"host steal {meter.steal_s:.2f}s; per slice "
            f"{[round(b[2] - a[2], 2) for a, b in zip(samples, samples[1:])]}")
        return {"outcomes": outcomes, "samples": samples,
                "peak_rss_mb": meter.peak_rss_mb, "before": before, "after": after}


def calm_slices(samples: list[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    """``(start, end, server CPU)`` of the slices with little host steal
    (see ``STEAL_LIMIT``)."""
    capacity = os.cpu_count() or 1
    slices = [(t0, t1, cpu1 - cpu0, steal1 - steal0)
              for (t0, cpu0, steal0), (t1, cpu1, steal1) in zip(samples, samples[1:])]
    calm = [i for i, (t0, t1, _, steal) in enumerate(slices)
            if steal <= STEAL_LIMIT * capacity * (t1 - t0)]
    half = math.ceil(len(slices) / 2)
    if len(calm) < half:
        calm = sorted(range(len(slices)), key=lambda i: (slices[i][3], i))[:half]
    return [slices[i][:3] for i in sorted(calm)]


def summarize(measured: dict) -> dict:
    """Counts over every answer of a window, and end-to-end metrics over
    the answers that arrived in its calm slices."""
    outcomes = measured["outcomes"]
    attempted = len(outcomes)
    sampling = [o for o in outcomes if o.request.check["kind"] == "sampling" and o.ok]
    outside = sum(o.outside for o in sampling)
    share_outside = outside / len(sampling) if sampling else 0.0
    failed = sum(not o.ok for o in outcomes)
    if share_outside > SAMPLING_DELTA:
        failed += outside
    calm = calm_slices(measured["samples"])
    counted = [o for o in outcomes if any(t0 <= o.done < t1 for t0, t1, _ in calm)]
    answered = [o for o in counted if o.ok]
    latencies = [o.latency if o.ok else math.inf for o in counted] or [math.inf]
    calm_s = sum(t1 - t0 for t0, t1, _ in calm)
    return {
        "attempted": attempted,
        "failed": failed,
        "completed": len(answered),
        "calm_s": calm_s,
        "sampling_outside_eps": outside,
        "sampling_answers": len(sampling),
        "metrics": {
            "throughput_qps": len(answered) / calm_s,
            "latency_p50_s": percentile(latencies, 0.50),
            "latency_p95_s": percentile(latencies, 0.95),
            "answered_ratio": 1.0 - failed / attempted,
            "failed_ratio": failed / attempted,
            "cpu_s_per_query": sum(cpu for _, _, cpu in calm) / max(1, len(answered)),
            "peak_rss_mb": measured["peak_rss_mb"],
        },
    }


def report_tags(outcomes) -> None:
    """Per request class: count, median and slowest latency."""
    by_tag: dict[str, list[float]] = {}
    for outcome in outcomes:
        by_tag.setdefault(outcome.request.tag, []).append(outcome.latency)
    for tag, values in sorted(by_tag.items()):
        log(f"  {tag:28} n={len(values):5d}  p50={1e3 * statistics.median(values):9.2f} ms"
            f"  max={1e3 * max(values):9.2f} ms")


def report_failures(outcomes) -> None:
    for outcome in [o for o in outcomes if not o.ok][:5]:
        log(f"  FAILED {outcome.rid} {outcome.request.tag}: status={outcome.status} "
            f"check={outcome.request.check} record="
            f"{json.dumps(outcome.record, default=str)[:400]}")


def end_to_end(run: Run, seconds: float) -> dict:
    setups = []
    server = None
    for index in range(SETUPS):
        if server is not None:
            server.stop()
        server, seconds_to_ready = run.setup(f"setup{index}")
        setups.append(seconds_to_ready)
    try:
        measured = run.measure(server, seconds, "run")
    finally:
        server.stop()
    summary = summarize(measured)
    summary["metrics"]["setup_s"] = statistics.median(setups)
    summary["setups"] = setups
    report_tags(measured["outcomes"])
    report_failures(measured["outcomes"])
    return summary


# -- the traced run ----------------------------------------------------------


def _cache_counters(snapshot: dict) -> dict[tuple, dict]:
    """Transition-cache counters per (session, cache) in a metrics snapshot."""
    caches = {}
    for session in snapshot["session_pool"]["sessions"]:
        ident = (session["key"], session["created_at"])
        if session.get("transition_cache"):
            caches[ident + ("frozenset",)] = session["transition_cache"]
        columnar = session.get("columnar") or {}
        if columnar.get("transition_cache"):
            caches[ident + ("columnar",)] = columnar["transition_cache"]
    return caches


def layer_metrics(run: Run, measured: dict, spans: dict, untraced_qps: float,
                  traced_qps: float) -> dict:
    outcomes = [o for o in measured["outcomes"] if o.ok]
    n = len(outcomes)
    index = attribution.SpanIndex(spans)
    totals, wall, worst = attribution.layer_table(outcomes, index)
    metrics: dict[str, float] = {}
    for name, spans_of in LAYER_TIMES.items():
        metrics[name] = sum(totals.get(s, 0.0) for s in spans_of) / n

    def job_seconds(o, key):
        return o.record.get(key) or 0.0

    metrics["service.http_s"] = sum(
        o.latency - job_seconds(o, "queue_seconds") - job_seconds(o, "run_seconds")
        for o in outcomes) / n
    metrics["service.poll_wait_s"] = totals.get("service.poll_wait", 0.0) / n

    names_of = {o.rid: {entry[2] for rid in (o.rid, o.record.get("id"))
                        for entry in index.by_rid.get(rid, ())} for o in outcomes}
    admitted = [o for o in outcomes if "service.admit" in names_of[o.rid]]
    prepared = sum("service.session_prepare" in names_of[o.rid] for o in admitted)
    metrics["service.session_hit_ratio"] = 1 - prepared / len(admitted) if admitted else 0.0
    jobs = [o for o in outcomes if o.record.get("id")]
    metrics["service.result_cache_hit_ratio"] = (
        sum(bool(o.record.get("cache_hit")) for o in jobs) / len(jobs) if jobs else 0.0)

    metrics["kernel.transitions_evaluated"] = sum(
        index.count("kernel.transitions", o.rid, o.record.get("id")) for o in outcomes) / n
    spent = [(o.record.get("report") or {}).get("spent") or {} for o in jobs]
    metrics["core.sample_steps"] = sum(s.get("steps", 0) for s in spent) / n
    metrics["core.chain_states"] = sum(s.get("states", 0) for s in spent) / n

    sparse = {"states": 0.0, "nnz": 0.0, "iterations": 0.0}
    for o in jobs:
        ledger = (o.record.get("report") or {}).get("ledger") or {}
        for row in ledger.get("rows", ()):
            if row.get("phase") == "sparse-solve":
                for key in sparse:
                    sparse[key] += row["counters"].get(key, 0.0)
    metrics["sparse.states"] = sparse["states"] / n
    metrics["sparse.nnz"] = sparse["nnz"] / n
    metrics["sparse.solve_iterations"] = sparse["iterations"] / n

    before, after = _cache_counters(measured["before"]), _cache_counters(measured["after"])
    hits = misses = evictions = 0
    for ident, stats in after.items():
        base = before.get(ident, {"hits": 0, "misses": 0, "evictions": 0})
        hits += stats["hits"] - base["hits"]
        misses += stats["misses"] - base["misses"]
        evictions += stats["evictions"] - base["evictions"]
    metrics["perf.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["perf.cache.evictions"] = float(evictions)
    pool = spans.get("warm_pool") or {}
    metrics["perf.supervisor.restarts"] = float(pool.get("restarts", 0))

    ladder = [o for o in jobs if "runtime.ladder" in names_of[o.rid]]
    attempts = sum(1 + len((o.record.get("report") or {}).get("downgrades") or ())
                   for o in ladder)
    metrics["runtime.rung_success_ratio"] = len(ladder) / attempts if attempts else 0.0
    asked = [o for o in jobs if (o.request.body.get("params") or {}).get("partition") == "auto"]
    split = sum("runtime.partition_exec" in names_of[o.rid] for o in asked)
    metrics["runtime.partition_split_ratio"] = split / len(asked) if asked else 0.0

    unattributed = totals.get("unattributed", 0.0)
    metrics["unattributed_s"] = unattributed / n
    metrics["attributed_ratio"] = 1 - unattributed / wall
    metrics["trace_overhead_ratio"] = untraced_qps / traced_qps

    log(f"[{run.workload}] traced run: {n} completed queries, traced wall time {wall:.3f}s")
    rollup: dict[str, float] = {}
    for name, seconds in totals.items():
        layer = name.split(".", 1)[0]
        rollup[layer] = rollup.get(layer, 0.0) + seconds
    log(attribution.render(rollup, wall, n))
    log()
    log(attribution.render(totals, wall, n))
    share = metrics["attributed_ratio"]
    verdict = "meets" if share >= 0.95 else "BELOW"
    log(f"attributed to named layers: {share:.2%} ({verdict} the 95% target); "
        f"largest unattributed stretch {1e3 * worst[0]:.3f} ms in request {worst[1]}")
    log(f"trace_overhead_ratio: {metrics['trace_overhead_ratio']:.4f} "
        f"(untraced {untraced_qps:.2f} qps / traced {traced_qps:.2f} qps)")
    for name, value in metrics.items():
        log(f"  {name:32} {value:14.6f} {_layer_unit(name)}")
    expect = LAYER_EXPECTATIONS[run.workload]
    for name in expect["loads"]:
        seconds = totals.get(name, 0.0)
        log(f"  loads    {name:28} {seconds / wall:7.2%}  {'ok' if seconds > 0 else 'NOT LOADED'}")
    for name in expect["bypasses"]:
        seconds = totals.get(name, 0.0)
        ok = seconds / wall <= NEAR_ZERO
        log(f"  bypasses {name:28} {seconds / wall:7.2%}  {'ok' if ok else 'NOT NEAR ZERO'}")
    return metrics


def traced(run: Run, seconds: float) -> dict:
    server, _ = run.setup("untraced")
    try:
        plain = run.measure(server, seconds, "plain")
    finally:
        server.stop()
    plain_summary = summarize(plain)
    spans_path = run.out / f"{run.workload}-spans.json"
    spans_path.unlink(missing_ok=True)
    server, _ = run.setup("traced", traced_to=spans_path)
    try:
        measured = run.measure(server, seconds, "traced")
    finally:
        server.stop()
    spans = json.loads(spans_path.read_text())
    summary = summarize(measured)
    summary["metrics"] = layer_metrics(
        run, measured, spans, plain_summary["metrics"]["throughput_qps"],
        summary["metrics"]["throughput_qps"])
    summary["attempted"] += plain_summary["attempted"]
    summary["failed"] += plain_summary["failed"]
    report_failures(plain["outcomes"] + measured["outcomes"])
    return summary


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(root, workload, seed)
    summary = traced(run, seconds) if trace else end_to_end(run, seconds)
    summary["warmup_failed"] = run.warm_failures
    summary["correct"] = summary["failed"] == 0 and run.warm_failures == 0
    if not trace:
        m = summary["metrics"]
        log(f"[{workload}] {summary['completed']} answered in the calm {summary['calm_s']:.2f}s "
            f"of the window (p95 has "
            f"{summary['completed'] - math.ceil(0.95 * summary['completed'])} samples "
            f"beyond it); {summary['attempted']} attempted in the window, "
            f"{summary['sampling_outside_eps']} of {summary['sampling_answers']} "
            f"sampling estimates outside eps; setups {[round(s, 3) for s in summary['setups']]}")
        for name, value in m.items():
            unit = END_TO_END_UNITS.get(name, "ratio")
            log(f"  {name:18} {value:12.6f} {unit}")
    if summary["completed"] < MIN_QUERIES:
        log(f"[{workload}] WARNING: only {summary['completed']} queries completed; "
            f"p95 needs {MIN_QUERIES}")
    return summary


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in summary["metrics"].items()}
    else:
        metrics = {name: {"value": summary["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so every server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        log(f"error: {root} holds no repro sources (src/repro); run from a checkout's root")
        return 2
    sys.path.insert(0, str(root / "src"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in workloads:
        summary = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        lines[workload] = result_line(summary, bool(args.trace))
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
