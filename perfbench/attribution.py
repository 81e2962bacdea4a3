"""Split traced wall time across the layers, request by request.

The traced wall time is the sum of the client latencies of the
completed queries.  Within one request's latency interval each instant
goes to exactly one layer:

1. the innermost span of the job's execution (the scheduler worker
   thread: ``service.execute`` and everything it calls);
2. otherwise the job's queue wait (``submitted_at`` to ``started_at``
   from the job record);
3. otherwise the innermost span of the submit (``service.http`` POST,
   admission, session preparation, analysis);
4. otherwise the innermost span of a poll (``service.http`` GET);
5. otherwise, between the job finishing and the poll that observes it,
   ``service.poll_wait``: the service has no blocking wait, so clients
   learn of completion only at their next poll;
6. otherwise, from the client opening a call's connection until the
   server's single accept thread takes it (``service.http.accept``
   starts), ``service.http.backlog``: the connection waits in the listen
   backlog, mostly for the accept thread to get the interpreter lock;
7. otherwise nothing: ``unattributed`` (client and socket time).

A span's self time is its duration minus the part covered by its child
spans, so the table sums exactly to the traced wall time.
"""

from __future__ import annotations

from collections import defaultdict

EXECUTE, QUEUE, SUBMIT, POLL, POLL_WAIT, BACKLOG = range(6)


def _self_segments(spans: list) -> dict[int, list[tuple[float, float]]]:
    """Self-time segments of every span of one thread."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    segments = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        if end is None:
            continue
        pieces, cursor = [], start
        for child in children.get(index, ()):
            c_start, c_end = spans[child][1], spans[child][2] or end
            if c_start > cursor:
                pieces.append((cursor, c_start))
            cursor = max(cursor, c_end)
        if end > cursor:
            pieces.append((cursor, end))
        segments[index] = pieces
    return segments


class SpanIndex:
    """Spans of one traced server, indexed by request id."""

    def __init__(self, dump: dict):
        self.by_rid: dict[str, list] = defaultdict(list)
        for thread in dump["threads"]:
            spans = thread["spans"]
            segments = _self_segments(spans)
            for index, span in enumerate(spans):
                rid = span[4]
                if rid is None or index not in segments:
                    continue
                root = index
                while spans[root][3] >= 0:
                    root = spans[root][3]
                self.by_rid[rid].append((spans[root][0], spans[root][1], span[0],
                                         segments[index]))
        self.jobs: dict[str, str] = dump.get("jobs", {})
        self.counts: dict[tuple[str, str], int] = {
            (name, rid): n for name, rid, n in dump.get("counts", ()) if rid is not None
        }

    def count(self, name: str, rid: str, job_id: str | None) -> int:
        return self.counts.get((name, rid), 0) + self.counts.get((name, job_id), 0)


def attribute(outcome, index: SpanIndex) -> dict[str, float]:
    """Seconds of one request's latency per layer (plus ``unattributed``)."""
    record = outcome.record
    job_id = record.get("id") or index.jobs.get(outcome.rid)
    segments: list[tuple[float, float, int, str]] = []
    accepted = []
    for rid in (outcome.rid, job_id):
        for root_name, root_start, name, pieces in index.by_rid.get(rid, ()):
            if name == "service.http.accept":
                accepted.append(root_start)
            if root_name == "service.execute":
                priority = EXECUTE
            elif root_name.startswith("service.http") and rid == outcome.rid:
                priority = SUBMIT
            else:
                priority = POLL
            segments += [(a, b, priority, name) for a, b in pieces]
    submitted, started, finished = (record.get(k) for k in
                                    ("submitted_at", "started_at", "finished_at"))
    if submitted is not None and started is not None:
        segments.append((submitted, started, QUEUE, "service.queue_wait"))
    if finished is not None and len(outcome.calls) > 1:
        segments.append((finished, outcome.calls[-1][0], POLL_WAIT, "service.poll_wait"))
    for call_start, call_end in outcome.calls:
        for accept_start in accepted:
            if call_start <= accept_start <= call_end:
                segments.append((call_start, accept_start, BACKLOG, "service.http.backlog"))
    lo, hi = outcome.sent, outcome.done
    cuts = sorted({lo, hi} | {t for a, b, _, _ in segments for t in (a, b) if lo < t < hi})
    totals: dict[str, float] = defaultdict(float)
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        best = None
        for s_a, s_b, priority, name in segments:
            if s_a <= mid < s_b and (best is None or priority < best[0]):
                best = (priority, name)
        totals[best[1] if best else "unattributed"] += b - a
    return totals


def layer_table(outcomes, index: SpanIndex) -> tuple[dict[str, float], float, tuple]:
    """Totals by span name over all outcomes, the traced wall time, and
    the longest unattributed stretch of any single request."""
    totals: dict[str, float] = defaultdict(float)
    wall = 0.0
    worst = (0.0, None)
    for outcome in outcomes:
        per_request = attribute(outcome, index)
        wall += outcome.latency
        for name, seconds in per_request.items():
            totals[name] += seconds
        gap = per_request.get("unattributed", 0.0)
        if gap > worst[0]:
            worst = (gap, outcome.rid)
    return dict(totals), wall, worst


def render(totals: dict[str, float], wall: float, completed: int) -> str:
    """Self-time table by layer, largest first, summing to ``wall``."""
    lines = [f"{'layer / span':34} {'total_s':>10} {'per_query_ms':>13} {'share':>7}"]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:34} {seconds:10.4f} {1e3 * seconds / completed:13.4f} "
                     f"{seconds / wall:7.2%}")
    lines.append(f"{'traced wall time':34} {wall:10.4f} {1e3 * wall / completed:13.4f} "
                 f"{sum(totals.values()) / wall:7.2%}")
    return "\n".join(lines)
