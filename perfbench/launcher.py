"""Start ``repro serve`` with each layer's entry functions wrapped in spans.

Usage: ``python perfbench/launcher.py SPANS.json serve [serve options]``

Before handing control to the CLI, every entry function listed in
``LAYER_ENTRIES`` is replaced — in its defining module and in every
``repro`` module that imported it — by a wrapper that records a span:
name, start, end, parent and request id (the client's ``X-Request-Id``
during a submit, the job id afterwards).  ``COUNTED`` methods only
count calls per request.  Spans stay in memory and are written to
SPANS.json when the server shuts down, together with the warm pool's
counters.  Spans of supervised worker processes are not recorded: the
dispatching call in the server (``perf.supervisor``) covers their time.

The program itself is not modified; without this launcher nothing is
traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (module, attribute) -> span name.  ``Class.method`` attributes are
#: patched on the class.  The span name's prefix is its layer.
LAYER_ENTRIES = {
    ("repro.service.http", "ServiceServer.process_request_thread"): "service.http",
    ("repro.service.http", "ServiceHandler.do_POST"): "service.http",
    ("repro.service.http", "ServiceHandler.do_GET"): "service.http",
    ("repro.service.service", "QueryService.submit"): "service.admit",
    ("repro.service.service", "QueryService._execute"): "service.execute",
    ("repro.service.session", "SessionPool.get_or_create"): "service.session_lookup",
    ("repro.service.session", "EngineSession.prepare"): "service.session_prepare",
    ("repro.service.session", "EngineSession.evaluate"): "service.evaluate",
    ("repro.service.session", "EngineSession.check_event"): "analysis.event_check",
    ("repro.analysis.analyze", "analyze_source"): "analysis.analyze",
    ("repro.analysis.partition", "compute_partition_plan"): "analysis.partition_plan",
    ("repro.kernel.compile", "compile_kernel"): "kernel.compile",
    ("repro.kernel.compile", "compile_event"): "kernel.compile",
    ("repro.core.evaluation.sampling_noninflationary", "evaluate_forever_mcmc"): "core.sample",
    ("repro.core.evaluation.sampling_inflationary", "evaluate_inflationary_sampling"): "core.sample",
    ("repro.core.chain_builder", "build_state_chain"): "core.chain_build",
    ("repro.core.evaluation.exact_noninflationary", "evaluate_forever_exact"): "core.exact",
    ("repro.core.evaluation.exact_inflationary", "evaluate_inflationary_exact"): "core.exact",
    ("repro.core.evaluation.lumped", "evaluate_forever_lumped"): "core.exact",
    ("repro.datalog.engine", "evaluate_datalog_exact"): "datalog.evaluate",
    ("repro.datalog.engine", "evaluate_datalog_sampling"): "datalog.evaluate",
    ("repro.markov.absorption", "long_run_event_probability"): "markov.solve",
    ("repro.markov.linalg", "solve_exact"): "markov.solve",
    ("repro.markov.analysis", "classify"): "markov.solve",
    ("repro.markov.lumping", "lumped_event_probability"): "markov.lump",
    ("repro.markov.lumping", "coarsest_lumping"): "markov.lump",
    ("repro.sparse.evaluate", "evaluate_forever_sparse"): "sparse.evaluate",
    ("repro.sparse.assemble", "assemble_sparse_chain"): "sparse.assemble",
    ("repro.sparse.solve", "solve_long_run"): "sparse.solve",
    ("repro.runtime.degradation", "evaluate_forever_resilient"): "runtime.ladder",
    ("repro.runtime.partition_exec", "evaluate_partitioned"): "runtime.partition_exec",
    ("repro.perf.supervisor", "supervised_run"): "perf.supervisor.dispatch",
}

#: Methods whose calls are counted per request: one call is one
#: transition row evaluated by a kernel (frozenset, columnar, datalog).
COUNTED = {
    ("repro.core.interpretation", "Interpretation.transition"): "kernel.transitions",
    ("repro.kernel.compile", "CompiledKernel.transition"): "kernel.transitions",
    ("repro.datalog.engine", "InflationaryDatalogEngine.transition"): "kernel.transitions",
}


class Recorder:
    """Per-thread span lists; a span is ``[name, start, end, parent, rid]``."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.local = threading.local()
        self.threads: list[tuple[int, list]] = []
        self.counts: dict = {}
        self.jobs: dict[str, str] = {}
        self._lock = threading.Lock()

    def _state(self):
        local = self.local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.rid, local.accept = [], [], None, None
            with self._lock:
                self.threads.append((threading.get_ident(), local.spans))
        return local

    def span(self, name: str, func, rid_of=None):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return func(*args, **kwargs)
            local = recorder._state()
            rid = rid_of(args) if rid_of is not None else local.rid
            parent = local.stack[-1] if local.stack else -1
            if rid is not None and rid_of is not None:
                # The request id is known only once the handler parsed
                # the request: hand it to the enclosing handler spans.
                for open_index in local.stack:
                    if local.spans[open_index][4] is None:
                        local.spans[open_index][4] = rid
                if local.accept is not None:
                    local.accept[4] = rid
            record = [name, time.time(), None, parent, rid]
            local.stack.append(len(local.spans))
            local.spans.append(record)
            outer_rid, local.rid = local.rid, rid
            try:
                result = func(*args, **kwargs)
                if name == "service.admit" and rid is not None:
                    # Submit spans carry the client's request id; the
                    # job id tags everything the job does afterwards.
                    recorder.jobs[rid] = result.id
                return result
            finally:
                record[2] = time.time()
                local.stack.pop()
                local.rid = outer_rid

        return wrapper

    def accepting(self, process_request, process_request_thread):
        """Wrap the server's connection hand-off: ``service.http.accept``
        runs from accepting a connection until its handler thread runs
        (thread start, including the wait for the interpreter lock)."""
        recorder, pending = self, {}

        @functools.wraps(process_request)
        def accept(server, request, client_address):
            local = recorder._state()
            record = ["service.http.accept", time.time(), None, -1, None]
            local.spans.append(record)
            pending[id(request)] = record
            return process_request(server, request, client_address)

        @functools.wraps(process_request_thread)
        def handler_thread(server, request, client_address):
            local = recorder._state()
            local.accept = pending.pop(id(request), None)
            if local.accept is not None:
                local.accept[2] = time.time()
            try:
                return process_request_thread(server, request, client_address)
            finally:
                local.accept = None

        return accept, handler_thread

    def counter(self, name: str, func):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() == recorder.pid:
                key = (name, getattr(recorder.local, "rid", None))
                recorder.counts[key] = recorder.counts.get(key, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def dump(self, path: Path, extra: dict) -> None:
        with self._lock:
            threads = [(tid, list(spans)) for tid, spans in self.threads]
        payload = {
            "threads": [{"tid": tid, "spans": spans} for tid, spans in threads],
            "counts": [[name, rid, n] for (name, rid), n in self.counts.items()],
            "jobs": dict(self.jobs),
            **extra,
        }
        path.write_text(json.dumps(payload))


def _header_rid(args) -> str | None:
    return args[0].headers.get("X-Request-Id")


def _job_rid(args) -> str | None:
    return getattr(args[1], "id", None)


def _path_rid(args) -> str | None:
    path = args[0].path.split("?", 1)[0]
    if path.startswith("/v1/jobs/"):
        return path[len("/v1/jobs/"):].split("/", 1)[0]
    return None


RID_OF = {
    "ServiceHandler.do_POST": _header_rid,
    "ServiceHandler.do_GET": _path_rid,
    "QueryService._execute": _job_rid,
}


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    owner, _, name = attr.rpartition(".")
    if not owner:
        return module, name, getattr(module, name)
    holder = getattr(module, owner)
    # The raw attribute (a classmethod stays a classmethod), inherited or not.
    return holder, name, next(k.__dict__[name] for k in holder.__mro__ if name in k.__dict__)


def install(recorder: Recorder) -> None:
    """Patch every entry.  Modules imported later bind the wrappers
    already; the ones loaded now are rebound below."""
    for module_name, _ in list(LAYER_ENTRIES) + list(COUNTED):
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")]
    plans = [(key, name, True) for key, name in LAYER_ENTRIES.items()]
    plans += [(key, name, False) for key, name in COUNTED.items()]
    for (module_name, attr), name, is_span in plans:
        holder, attr_name, original = _resolve(module_name, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(recorder.span(name, original.__func__))
            setattr(holder, attr_name, wrapped)
            continue
        if is_span:
            wrapped = recorder.span(name, original, RID_OF.get(attr))
        else:
            wrapped = recorder.counter(name, original)
        setattr(holder, attr_name, wrapped)
        if holder is sys.modules[module_name]:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    from repro.service.http import ServiceServer

    ServiceServer.process_request, ServiceServer.process_request_thread = recorder.accepting(
        ServiceServer.process_request, ServiceServer.process_request_thread)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main
    from repro.perf.supervisor import warm_pool_stats

    pool: dict = {}
    try:
        return cli_main(argv[1:])
    finally:
        try:
            pool = warm_pool_stats()
        finally:
            recorder.dump(out, {"warm_pool": pool})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
