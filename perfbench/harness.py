"""Server lifecycle, closed-loop HTTP client and /proc accounting.

The benchmark talks to ``repro serve`` the way a user does: JSON over
HTTP on loopback, submit then poll, a fresh connection per call (as the
service's own urllib client does).  Nothing here imports the program;
``Server`` starts it as a child process from the checkout's ``src/``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

#: Mean poll delays after a submit (seconds); the last entry repeats.
#: The service has no blocking wait, so completion is observed by
#: polling.  Each delay is drawn uniformly from half to one and a half
#: times its mean: with fixed delays every latency would fall on the
#: lattice of poll times, and a percentile would jump a whole poll
#: interval (8 ms, a sixth of a typical p50) when the service got
#: slightly faster or slower.
POLL_SCHEDULE = (0.002, 0.004, 0.008)

#: A request that has not finished after this long counts as failed.
REQUEST_TIMEOUT_S = 60.0

#: Scheduler workers (the service default) and closed-loop clients.
SERVER_WORKERS = 2
CLIENTS = 2

FINISHED = ("done", "failed", "cancelled")


class Server:
    """One ``repro serve`` child process on an ephemeral loopback port."""

    def __init__(self, root: Path, command: list[str], log_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.started = time.time()
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        line = self.process.stdout.readline().decode().strip()
        if not line.startswith("serving: http://"):
            self.stop()
            raise RuntimeError(f"server did not start (first line {line!r}); see {log_path}")
        host_port = line.split("http://", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        # Drain further stdout so the child never blocks on a full pipe.
        threading.Thread(target=self.process.stdout.read, daemon=True).start()

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> dict:
        conn = self.connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.time() + timeout
        while True:
            try:
                if self.get("/v1/healthz").get("status") == "ok":
                    return
            except OSError:
                pass
            if time.time() > deadline or self.process.poll() is not None:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def stop(self, timeout: float = 30.0) -> int | None:
        """SIGTERM (graceful, exit 130), then SIGKILL the whole group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        code = self.process.wait(timeout=timeout)
        self._log.close()
        return code


def server_command(launcher: list[str] | None = None) -> list[str]:
    """``repro serve`` as the benchmark runs it, optionally via a launcher."""
    return (launcher or [sys.executable, "-m", "repro"]) + [
        "serve", "--port", "0", "--workers", str(SERVER_WORKERS),
        "--supervise", "2", "--log-level", "warning",
    ]


# -- /proc accounting --------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:
        return None
    return raw.rsplit(")", 1)[1].split()


def process_tree(root: int) -> dict[int, list[str]]:
    """``pid -> stat fields`` for ``root`` and all its descendants."""
    stats, children = {}, {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None:
                stats[int(entry)] = fields
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = {}, [root]
    while frontier:
        pid = frontier.pop()
        if pid in stats:
            tree[pid] = stats[pid]
            frontier.extend(children.get(pid, ()))
    return tree


def _peak_rss_mb(pid: int) -> float:
    """The kernel's resident-memory high-water mark of one process."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def tree_cpu_s(root: int) -> float:
    """User+system CPU seconds of the process tree: every live process
    plus the children they already reaped, so short-lived pool workers
    count too."""
    return sum(sum(int(fields[i]) for i in (11, 12, 13, 14)) / _TICK
               for fields in process_tree(root).values())


def tree_peak_rss_mb(root: int) -> float:
    """Summed resident-memory high-water marks of the live process tree."""
    return sum(_peak_rss_mb(pid) for pid in process_tree(root))


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _TICK


class Meter:
    """Server-tree CPU and host steal sampled at ``slices`` equal steps of
    ``slice_s`` seconds from a background thread over a ``with`` block,
    plus one last sample at its end; load-generator CPU and the tree's
    peak resident memory over the whole block.

    ``samples`` holds ``(time, tree CPU seconds, host steal seconds)``;
    consecutive samples bound one slice.
    """

    def __init__(self, pid: int, slices: int, slice_s: float):
        self.pid, self.slices, self.slice_s = pid, slices, slice_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_slices, daemon=True)

    def _sample(self) -> tuple[float, float, float]:
        return time.time(), tree_cpu_s(self.pid), host_steal_s()

    def _sample_slices(self) -> None:
        start = self.samples[0][0]
        for index in range(1, self.slices + 1):
            if self._stop.wait(max(0.0, start + index * self.slice_s - time.time())):
                return
            self.samples.append(self._sample())

    def __enter__(self) -> "Meter":
        self.client_start = time.process_time()
        self.samples = [self._sample()]
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        # The loop runs past its last slice boundary (in-flight requests
        # finish), so the sampler has taken or is about to take every
        # boundary sample; cut it short only on an error.
        if exc[0] is not None:
            self._stop.set()
        self._thread.join()
        self.samples.append(self._sample())
        first, last = self.samples[0], self.samples[-1]
        self.cpu_s = last[1] - first[1]
        self.steal_s = last[2] - first[2]
        self.client_cpu_s = time.process_time() - self.client_start
        self.peak_rss_mb = tree_peak_rss_mb(self.pid)


# -- answer checking ---------------------------------------------------------


def check_answer(check: dict, status: int, record: dict) -> tuple[bool, bool]:
    """``(ok, outside_eps)`` for one finished request against its reference."""
    kind = check["kind"]
    if kind == "reject":
        error = record.get("error") or {}
        codes = (error.get("details") or {}).get("codes") or ()
        return status == 400 and error.get("type") == "ProgramRejectedError" \
            and check["code"] in codes, False
    if status != 202 or record.get("state") != "done":
        return False, False
    result = record.get("result") or {}
    if kind == "sampling":
        estimate = result.get("estimate")
        if estimate is None:
            return False, False
        return True, abs(estimate - check["mean"]) > check["eps"]
    reference = Fraction(check["value"])
    if kind == "interval":
        lo, hi = result.get("interval") or (None, None)
        certified = (result.get("certificate") or {}).get("satisfied")
        return bool(certified) and lo is not None and \
            Fraction(lo) <= reference <= Fraction(hi), False
    probability = result.get("probability")
    return probability is not None and Fraction(probability) == reference, False


# -- the closed loop ---------------------------------------------------------


@dataclass
class Outcome:
    """One request as the client saw it."""

    request: object
    rid: str
    sent: float
    done: float = 0.0
    ok: bool = False
    outside: bool = False
    status: int = 0
    record: dict = field(default_factory=dict)
    #: (start, end) of the submit and of every poll, client clock.
    calls: list = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.done - self.sent


def _call(server: "Server", method: str, path: str, body: bytes | None,
          headers: dict) -> tuple[int, dict]:
    """One HTTP exchange on a fresh connection, as the service's own
    client (urllib) makes it."""
    conn = server.connection()
    try:
        conn.request(method, path, body=body, headers={"Connection": "close", **headers})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def run_one(server: "Server", request, rid: str) -> Outcome:
    """Submit one request, poll it to completion, check the answer.

    ``rid`` goes out as the ``X-Request-Id`` idempotency key; it is unique
    per submit, so repeats of a request body stay separate submits.
    """
    outcome = Outcome(request, rid, time.time())
    deadline = outcome.sent + REQUEST_TIMEOUT_S
    jitter = random.Random(rid)
    try:
        status, record = _call(server, "POST", "/v1/jobs", request.payload,
                               {"Content-Type": "application/json", "X-Request-Id": rid})
        outcome.status = status
        outcome.calls.append((outcome.sent, time.time()))
        if status == 202:
            polls = 0
            while record.get("state") not in FINISHED and time.time() < deadline:
                mean = POLL_SCHEDULE[min(polls, len(POLL_SCHEDULE) - 1)]
                time.sleep(mean * jitter.uniform(0.5, 1.5))
                polls += 1
                start = time.time()
                poll_status, record = _call(server, "GET", f"/v1/jobs/{record['id']}", None, {})
                outcome.calls.append((start, time.time()))
                if poll_status != 200:
                    break
        outcome.record = record
        outcome.ok, outcome.outside = check_answer(request.check, outcome.status, record)
    except (OSError, http.client.HTTPException, ValueError) as error:
        outcome.record = {"client_error": repr(error)}
    outcome.done = time.time()
    return outcome


def closed_loop(server: Server, source, seconds: float, label: str,
                clients: int = CLIENTS) -> tuple[list[Outcome], float, float]:
    """Run ``clients`` threads, each taking its next ``(index, request)``
    from ``source`` only after the previous one finished, until
    ``seconds`` have passed.

    Returns the outcomes in completion order, and the window's start and
    end (the end is when the last in-flight request finished).
    """
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    start = time.time()
    stop_at = start + seconds

    def client() -> None:
        while time.time() < stop_at:
            with lock:
                index, request = next(source, (None, None))
            if request is None:
                raise RuntimeError("corpus exhausted before the run ended")
            outcome = run_one(server, request, f"{label}-{index}")
            with lock:
                outcomes.append(outcome)

    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            client()
        except BaseException as error:  # noqa: BLE001 - reported by the caller
            errors.append(error)

    threads = [threading.Thread(target=guarded) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes, start, time.time()


def run_sequential(server: Server, requests, label: str) -> list[Outcome]:
    """Send requests one at a time (warm-up)."""
    return [run_one(server, request, f"{label}-{i}") for i, request in enumerate(requests)]
