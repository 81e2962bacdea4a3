"""Persistent engine sessions: parse once, keep the kernel warm.

A one-shot CLI run (one fresh session per invocation) pays the full
bill every time: parse the program, decode the database, build the
chain or walk it cold.  An
:class:`EngineSession` is the long-lived alternative — the parsed
kernel (or datalog program), the decoded initial :class:`Database`, and
one warm :class:`~repro.perf.cache.TransitionCache` live as long as the
session does, so repeated queries against the same program (different
events, seeds, ε/δ, modes) skip everything but the actual evaluation,
and even that draws memoized transition rows.

Sessions are immutable after preparation apart from the cache and the
served-request counters, and the cache is thread-safe, so one session
may serve concurrent scheduler workers.  A :class:`SessionPool` bounds
how many prepared programs stay resident (LRU beyond ``maxsize``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Mapping

from repro.analysis import AnalysisResult, DiagnosticReport, analyze_source
from repro.analysis.datalog import check_rules
from repro.analysis.kernel import check_kernel
from repro.core import (
    ForeverQuery,
    InflationaryQuery,
    evaluate_forever_exact,
    evaluate_forever_lumped,
    evaluate_forever_mcmc,
    evaluate_inflationary_exact,
    evaluate_inflationary_sampling,
)
from repro.core.events import parse_event
from repro.datalog import evaluate_datalog_exact, evaluate_datalog_sampling
from repro.errors import InvalidRequestError, ProgramRejectedError, ReproError
from repro.io import database_from_json, pc_database_from_json
from repro.perf.cache import TransitionCache
from repro.runtime import DegradationPolicy, RunContext, evaluate_forever_resilient
from repro.service.request import QueryRequest

#: Default capacity of a session's warm transition cache.
DEFAULT_TRANSITION_CACHE_SIZE = 4096

#: Default number of resident sessions in a pool.
DEFAULT_SESSION_POOL_SIZE = 32


def result_payload(result) -> dict:
    """JSON-friendly rendering of an evaluator result: the wire schema
    that ``repro submit``, the local query subcommands, and
    :class:`~repro.service.ServiceClient` readers all share."""
    details = result.details
    # Certified results also expose .probability (a float), so the
    # certificate check must come first.
    if hasattr(result, "certificate"):
        lo, hi = result.interval
        payload = {
            "kind": "sparse",
            "method": result.method,
            "probability_float": result.probability,
            "interval": [lo, hi],
            "certificate": result.certificate.as_dict(),
            "states_explored": result.states_explored,
        }
        keys: tuple[str, ...] = ("backend", "sccs", "leaf_sccs", "irreducible")
    elif hasattr(result, "probability"):
        payload = {
            "kind": "exact",
            "method": result.method,
            "probability": str(result.probability),
            "probability_float": float(result.probability),
            "states_explored": result.states_explored,
        }
        keys = ("backend", "irreducible", "full_states", "quotient_states")
    else:
        payload = {
            "kind": "sampling",
            "method": result.method,
            "estimate": result.estimate,
            "samples": result.samples,
            "positive": result.positive,
            "epsilon": result.epsilon,
            "delta": result.delta,
        }
        keys = ("burn_in", "workers", "backend")
        if details.get("cache"):
            payload["transition_cache"] = dict(details["cache"])
        if details.get("resumed_at") is not None:
            payload["resumed_at_sample"] = details["resumed_at"]
    for key in keys:
        if details.get(key) is not None:
            payload[key] = details[key]
    return payload


def _with_downgrades(payload: dict, context: RunContext | None) -> dict:
    """Append the run's recorded ladder downgrades to ``payload``."""
    if context is not None:
        downgrades = context.report().downgrades
        if downgrades:
            payload["downgrades"] = [d.as_dict() for d in downgrades]
    return payload


def _degradation_policy(
    params: Mapping[str, Any], mcmc_workers: int = 1
) -> DegradationPolicy:
    """The request's degradation ladder (the one place it is built)."""
    return DegradationPolicy(
        mode=params.get("fallback") or "none",
        sparse_epsilon=params.get("epsilon") or 1e-6,
        mcmc_epsilon=params.get("epsilon") or 0.1,
        mcmc_delta=params.get("delta") or 0.05,
        mcmc_samples=params.get("samples"),
        mcmc_burn_in=params.get("burn_in"),
        mcmc_workers=mcmc_workers,
        # ``cache_size: 0`` means uncached, which the policy spells None.
        mcmc_cache_size=params.get("cache_size") or None,
    )


def _rejection(report: DiagnosticReport) -> ProgramRejectedError:
    """A 400-mapped error carrying the analyzer's findings.

    The rejecting codes are the error-level ones when any exist;
    otherwise (event admission promotes ``DD002``) every reported code.
    """
    primary = report.errors or list(report)
    summary = primary[0].message if primary else "program rejected"
    codes = list(report.error_codes()) or list(report.codes())
    return ProgramRejectedError(
        f"program rejected by static analysis: {summary}",
        details={
            "diagnostics": [d.as_dict() for d in report],
            "codes": codes,
        },
    )


class EngineSession:
    """A prepared program: parsed artifacts plus a warm transition cache.

    Build one with :meth:`prepare`; evaluate any number of requests that
    share its :meth:`~repro.service.request.QueryRequest.session_key`
    with :meth:`evaluate`.

    Examples
    --------
    >>> request = QueryRequest.from_json({
    ...     "semantics": "forever",
    ...     "program": "C := rename[J->I](project[J](repair-key[I@P](C join E)))",
    ...     "database": {"relations": {
    ...         "C": {"columns": ["I"], "rows": [["a"]]},
    ...         "E": {"columns": ["I", "J", "P"],
    ...               "rows": [["a", "b", 1], ["b", "a", 1], ["a", "a", 1]]}}},
    ...     "event": "C(b)",
    ... })
    >>> session = EngineSession.prepare(request)
    >>> session.evaluate(request)["probability"]
    '1/3'
    >>> session.requests_served
    1
    """

    def __init__(
        self,
        key: str,
        semantics: str,
        kernel=None,
        program=None,
        database=None,
        pc_tables=None,
        cache_size: int = DEFAULT_TRANSITION_CACHE_SIZE,
    ):
        self.key = key
        self.semantics = semantics
        self.kernel = kernel
        self.program = program
        self.database = database
        self.pc_tables = pc_tables
        self.analysis: AnalysisResult | None = None
        self.created_at = time.time()
        self.requests_served = 0
        self._served_lock = threading.Lock()
        self._cache_size = cache_size
        # Columnar bundle: None = not yet requested; a str = compile
        # failed with that reason; a tuple = (CompiledKernel,
        # ColumnarDatabase, columnar TransitionCache), built once and
        # shared by every columnar request on this session.
        self._columnar: "tuple | str | None" = None
        self._columnar_lock = threading.Lock()
        self._cache: TransitionCache | None = None
        if kernel is not None:
            memo_kernel = kernel
            if semantics == "inflationary":
                # The inflationary fixpoint check enumerates the pc-free
                # kernel; memoize that one (see evaluate_inflationary_sampling).
                memo_kernel = kernel.without_pc_tables()
            self._cache = TransitionCache(memo_kernel, maxsize=cache_size)

    @classmethod
    def prepare(
        cls,
        request: QueryRequest,
        cache_size: int = DEFAULT_TRANSITION_CACHE_SIZE,
    ) -> "EngineSession":
        """Parse, statically analyze, and compile a request's program once.

        The full analyzer (:mod:`repro.analysis`) runs here, at admission
        time; a program with error-level diagnostics never becomes a
        session — :class:`~repro.errors.ProgramRejectedError` carries the
        diagnostic list (rendered as HTTP 400 by the service).  Event-
        dependent checks are *not* run here (a session is shared across
        events); see :meth:`check_event`.
        """
        database = database_from_json(dict(request.database))
        pc = (
            pc_database_from_json(dict(request.pc_tables))
            if request.pc_tables is not None
            else None
        )
        analysis = analyze_source(
            request.semantics, request.program, database=database, pc_tables=pc
        )
        if analysis.report.has_errors:
            raise _rejection(analysis.report)
        session = cls(
            key=request.session_key(),
            semantics=request.semantics,
            kernel=analysis.kernel,
            program=analysis.program,
            database=database,
            pc_tables=pc,
            cache_size=cache_size,
        )
        session.analysis = analysis
        return session

    # -- introspection --------------------------------------------------

    @property
    def cache(self) -> TransitionCache | None:
        """The session's warm transition cache (``None`` for datalog)."""
        return self._cache

    @property
    def hints(self):
        """The analyzer's :class:`~repro.analysis.hints.PlanHints` (or None)."""
        return self.analysis.hints if self.analysis is not None else None

    def check_event(self, event_text: str) -> DiagnosticReport:
        """Run the event-dependent checks for one request.

        Sessions are shared across events, so :meth:`prepare` cannot run
        these.  Returns the report (warnings like dead rules included);
        raises :class:`~repro.errors.ProgramRejectedError` when the event
        itself is broken (``PE002``) or provably constant-false against
        this program (``DD002``/``DD003`` are error-level here: evaluating
        would silently return probability 0 for a typo).
        """
        report = DiagnosticReport()
        try:
            event = parse_event(event_text)
        except ReproError as error:
            report.add("PE002", f"cannot parse the query event: {error}")
            raise _rejection(report)
        if self.program is not None:
            full = check_rules(
                list(self.program.rules),
                database=self.database,
                pc_tables=self.pc_tables,
                event=event,
            )
        else:
            full = check_kernel(
                self.kernel,
                database=self.database,
                event=event,
                semantics=self.semantics,
            )
        event_codes = {"DD001", "DD002", "DD003", "DD004", "PH003"}
        for diagnostic in full:
            if diagnostic.code in event_codes:
                report.extend([diagnostic])
        if any(d.code in ("DD002", "DD003") for d in report):
            raise _rejection(report)
        return report

    def _columnar_artifacts(self, context: RunContext | None):
        """The session's compiled columnar bundle, built on first use.

        Returns ``(CompiledKernel, ColumnarDatabase, TransitionCache)``
        or ``None`` when the program is kernel-ineligible — the reason
        is remembered, and every affected request counts one fallback
        (``repro_kernel_fallback_total``).
        """
        with self._columnar_lock:
            state = self._columnar
            if state is None:
                from repro.kernel import KernelCompileError, compile_kernel

                try:
                    compiled, initial = compile_kernel(self.kernel, self.database)
                except KernelCompileError as error:
                    state = str(error)
                else:
                    state = (
                        compiled,
                        initial,
                        TransitionCache(compiled, maxsize=self._cache_size),
                    )
                self._columnar = state
        if isinstance(state, str):
            from repro.core.evaluation.backend import record_fallback

            record_fallback(state, context)
            return None
        return state

    def _compiled_query(self, query_cls, event, context: RunContext | None):
        """``query_cls`` over the compiled kernel, or ``None`` → frozenset.

        Returns ``(query, columnar_initial, columnar_cache)``.  The
        kernel compiles once per session; the event compiles per
        request (sessions are shared across events).
        """
        artifacts = self._columnar_artifacts(context)
        if artifacts is None:
            return None
        compiled, initial, cache = artifacts
        from repro.core.evaluation.backend import record_fallback
        from repro.kernel import KernelCompileError, compile_event

        try:
            compiled_event = compile_event(event, compiled)
        except KernelCompileError as error:
            record_fallback(str(error), context)
            return None
        return query_cls(compiled, compiled_event), initial, cache

    def stats(self) -> dict:
        """JSON-friendly session snapshot for the metrics endpoint."""
        hints = self.hints
        columnar = self._columnar
        return {
            "key": self.key,
            "semantics": self.semantics,
            "created_at": self.created_at,
            "requests_served": self.requests_served,
            "transition_cache": self._cache.stats() if self._cache else None,
            "plan_hints": hints.as_dict() if hints is not None else None,
            "columnar": (
                {"compiled": True, "transition_cache": columnar[2].stats()}
                if isinstance(columnar, tuple)
                else {"compiled": False, "reason": columnar}
                if columnar is not None
                else None
            ),
        }

    # -- evaluation -----------------------------------------------------

    def evaluate(
        self,
        request: QueryRequest,
        context: RunContext | None = None,
        *,
        checkpoint_path: str | None = None,
        resume: str | None = None,
    ) -> dict:
        """Evaluate one request on this prepared engine.

        Returns the JSON-friendly result payload.  Raises any
        :class:`~repro.errors.ReproError` the evaluators raise —
        budget exhaustion and cancellation included — unchanged, so the
        scheduler can classify the failure.

        ``checkpoint_path`` and ``resume`` are run options of the
        Theorem 5.6 sampler (see
        :func:`~repro.core.evaluate_forever_mcmc`), not request params:
        they shape where progress is saved, never the answer, so cache
        keys ignore them.  ``resume`` forces the sampler.
        """
        if request.session_key() != self.key:
            raise InvalidRequestError(
                "request does not belong to this session "
                f"(session {self.key[:12]}…, request {request.session_key()[:12]}…)"
            )
        params = request.params
        sampling = (
            params.get("samples") is not None
            or params.get("epsilon") is not None
            or bool(params.get("mcmc"))
            or resume is not None
        )
        kernel_ops_before = self._op_timings_snapshot()
        if self.semantics == "forever":
            payload = self._evaluate_forever(
                request, context, sampling, checkpoint_path, resume
            )
        elif self.semantics == "inflationary":
            payload = self._evaluate_inflationary(request, context, sampling)
        else:
            payload = self._evaluate_datalog(request, context, sampling)
        self._record_kernel_ops(context, kernel_ops_before)
        with self._served_lock:
            self.requests_served += 1
        return payload

    def _op_timings_snapshot(self) -> "dict[str, dict[str, float]] | None":
        columnar = self._columnar
        if isinstance(columnar, tuple):
            return columnar[0].op_timings()
        return None

    def _record_kernel_ops(
        self,
        context: RunContext | None,
        before: "dict[str, dict[str, float]] | None",
    ) -> None:
        """Attribute this request's share of the compiled kernel's
        cumulative per-operator timings to the run's resource ledger.

        The session's compiled kernel is shared, so the counters only
        ever grow; the request's share is the delta across ``evaluate``.
        A request that triggered the compile has no *before* snapshot —
        the whole total is its share.
        """
        if context is None:
            return
        columnar = self._columnar
        if not isinstance(columnar, tuple):
            return
        after = columnar[0].op_timings()
        prior = before or {}
        delta: dict[str, dict[str, float]] = {}
        for op, stats in after.items():
            base = prior.get(op, {"calls": 0, "seconds": 0.0})
            calls = stats["calls"] - base["calls"]
            seconds = stats["seconds"] - base["seconds"]
            if calls > 0 or seconds > 0:
                delta[op] = {"calls": calls, "seconds": seconds}
        if delta:
            context.ledger.record_kernel_ops(delta)

    @property
    def _deterministic(self) -> bool:
        hints = self.hints
        return hints is not None and hints.deterministic

    def _answer(self, sampling: bool, exact, sample) -> dict:
        """Run ``exact() -> payload`` or ``sample() -> result``.

        The one PH001 short-circuit: when the kernel makes no
        probabilistic choice, a requested estimate would converge on a
        number a single exact run computes outright.
        """
        if not sampling:
            return exact()
        if self._deterministic:
            payload = exact()
            payload["hint_applied"] = "PH001"
            return payload
        return result_payload(sample())

    def _backend_inputs(
        self,
        query,
        params: Mapping[str, Any],
        context: RunContext | None,
        checkpointing: bool,
    ):
        """``(query, initial, cache, backend)`` for the request's backend.

        With ``backend: "columnar"`` the query comes back over the
        session's compiled kernel (and its columnar cache), unless the
        run dispatches to worker processes or checkpoints — compiled
        plans neither pickle nor serialise, so the evaluator gets
        ``backend="columnar"`` and compiles (or falls back) itself.

        ``cache`` is the session's warm cache; ``cache_size: 0`` opts
        out (the polynomial ``sample_transition`` path, e.g. for
        kernels with exponential per-state support).  Any other value
        keeps the session cache — per-request sizes would defeat
        sharing.
        """
        initial, cache, backend = self.database, self._cache, None
        if params.get("backend") == "columnar":
            if (params.get("workers") or 1) > 1 or checkpointing:
                backend = "columnar"
            else:
                compiled = self._compiled_query(type(query), query.event, context)
                if compiled is not None:
                    query, initial, cache = compiled
                    backend = "columnar"
        if params.get("cache_size") == 0:
            cache = None
        return query, initial, cache, backend

    def _evaluate_partitioned(
        self,
        query,
        params: Mapping[str, Any],
        max_states: int,
        context: RunContext | None,
    ) -> dict | None:
        """The ``partition: "auto"`` path (``PP001``).

        Executes the admission-time partition plan: each independent
        component on its own rung, recombined by independence.  Returns
        ``None`` when partitioning was not requested or the plan does
        not apply (single component, event does not decompose) — the
        caller evaluates whole-program.
        """
        if params.get("partition") != "auto":
            return None
        from repro.runtime.partition_exec import can_partition, evaluate_partitioned

        plan = self.analysis.partition if self.analysis is not None else None
        if plan is None or not can_partition(plan, query.event):
            if context is not None:
                context.record_event(
                    "partition requested but the program does not split; "
                    "using whole-program evaluation"
                )
            return None
        result = evaluate_partitioned(
            query,
            self.database,
            plan,
            max_states=max_states,
            policy=(
                None if isinstance(query, InflationaryQuery)
                else _degradation_policy(params)
            ),
            context=context,
            seed=params.get("seed"),
            backend="columnar" if params.get("backend") == "columnar" else None,
            prefer_sparse=params.get("backend") == "sparse",
            workers=params.get("workers") or 1,
        )
        payload = result_payload(result)
        payload["partition"] = {
            "components": len(plan.components),
            "evaluated": len(result.details["components"]),
            "pruned": list(result.details["pruned"]),
        }
        return _with_downgrades(payload, context)

    def _evaluate_forever(
        self,
        request: QueryRequest,
        context: RunContext | None,
        sampling: bool,
        checkpoint_path: str | None,
        resume: str | None,
    ) -> dict:
        params = request.params
        query = ForeverQuery(self.kernel, parse_event(request.event))
        max_states = params.get("max_states") or 20_000
        partitioned = self._evaluate_partitioned(query, params, max_states, context)
        if partitioned is not None:
            return partitioned
        query, initial, cache, backend = self._backend_inputs(
            query, params, context,
            checkpointing=checkpoint_path is not None or resume is not None,
        )
        prefer_sparse = params.get("backend") == "sparse"
        if (params.get("fallback") or "none") != "none" or prefer_sparse:
            result = evaluate_forever_resilient(
                query,
                initial,
                max_states=max_states,
                policy=_degradation_policy(params, params.get("workers") or 1),
                context=context,
                rng=params.get("seed"),
                checkpoint_path=checkpoint_path,
                resume=resume,
                cache=cache,
                hints=self.hints,
                backend=backend,
                prefer_sparse=prefer_sparse,
            )
            return _with_downgrades(result_payload(result), context)

        def exact() -> dict:
            evaluator = (
                evaluate_forever_lumped
                if params.get("lumped") and not sampling
                else evaluate_forever_exact
            )
            return result_payload(evaluator(
                query, initial, max_states=max_states,
                context=context, cache=cache, backend=backend,
            ))

        def sample():
            return evaluate_forever_mcmc(
                query,
                initial,
                epsilon=params.get("epsilon") or 0.1,
                delta=params.get("delta") or 0.05,
                samples=params.get("samples"),
                burn_in=params.get("burn_in"),
                rng=params.get("seed"),
                context=context,
                checkpoint_path=checkpoint_path,
                resume=resume,
                cache=cache,
                parallel=_parallel_config(params),
                backend=backend,
            )

        return self._answer(sampling, exact, sample)

    def _evaluate_inflationary(
        self, request: QueryRequest, context: RunContext | None, sampling: bool
    ) -> dict:
        params = request.params
        query = InflationaryQuery(self.kernel, parse_event(request.event))
        max_states = params.get("max_states") or 100_000
        partitioned = self._evaluate_partitioned(query, params, max_states, context)
        if partitioned is not None:
            return partitioned
        query, initial, cache, backend = self._backend_inputs(
            query, params, context, checkpointing=False
        )

        def exact() -> dict:
            payload = result_payload(evaluate_inflationary_exact(
                query, initial, max_states=max_states, context=context
            ))
            if initial is not self.database:
                # Ran on the compiled kernel; the evaluator does not
                # record backends itself.
                payload["backend"] = "columnar"
            return payload

        def sample():
            return evaluate_inflationary_sampling(
                query,
                initial,
                epsilon=params.get("epsilon") or 0.05,
                delta=params.get("delta") or 0.05,
                samples=params.get("samples"),
                rng=params.get("seed"),
                context=context,
                cache=cache,
                parallel=_parallel_config(params),
                backend=backend,
            )

        return self._answer(sampling, exact, sample)

    def _evaluate_datalog(
        self, request: QueryRequest, context: RunContext | None, sampling: bool
    ) -> dict:
        params = request.params
        event = parse_event(request.event)

        def exact() -> dict:
            result = evaluate_datalog_exact(
                self.program,
                self.database,
                event,
                pc_tables=self.pc_tables,
                max_states=params.get("max_states") or 100_000,
                context=context,
            )
            payload = result_payload(result)
            payload["pc_worlds"] = result.details.get("pc_worlds", 1)
            return payload

        def sample():
            return evaluate_datalog_sampling(
                self.program,
                self.database,
                event,
                pc_tables=self.pc_tables,
                epsilon=params.get("epsilon") or 0.05,
                delta=params.get("delta") or 0.05,
                samples=params.get("samples"),
                rng=params.get("seed"),
                context=context,
            )

        return self._answer(sampling, exact, sample)


def _parallel_config(params: Mapping[str, Any]):
    """A :class:`~repro.perf.ParallelConfig` from ``workers`` (None when
    sequential)."""
    workers = params.get("workers") or 1
    if workers <= 1:
        return None
    from repro.perf import ParallelConfig

    return ParallelConfig(workers=workers)


class SessionPool:
    """A bounded, thread-safe LRU pool of :class:`EngineSession`.

    ``get_or_create`` is the only entry point: the pool either returns
    the resident session for the request's
    :meth:`~repro.service.request.QueryRequest.session_key` (a *hit* —
    parse work and cache warmth are reused) or prepares a fresh one,
    evicting the least-recently-used session beyond ``maxsize``.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_SESSION_POOL_SIZE,
        transition_cache_size: int = DEFAULT_TRANSITION_CACHE_SIZE,
    ):
        if maxsize < 1:
            raise ReproError(f"session pool maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self.transition_cache_size = transition_cache_size
        self._sessions: OrderedDict[str, EngineSession] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def get_or_create(self, request: QueryRequest) -> EngineSession:
        """The resident session for the request, preparing it on miss."""
        key = request.session_key()
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self.hits += 1
                self._sessions.move_to_end(key)
                return session
            self.misses += 1
        # Prepare outside the lock: parsing can be slow and two racing
        # requests for the same program at worst parse twice.
        session = EngineSession.prepare(
            request, cache_size=self.transition_cache_size
        )
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
            self._sessions[key] = session
            if len(self._sessions) > self.maxsize:
                self._sessions.popitem(last=False)
                self.evictions += 1
        return session

    def stats(self) -> dict:
        """JSON-friendly pool snapshot for the metrics endpoint.

        Counters and the session list are read in one critical section,
        so a concurrent eviction can't pair a new size with stale
        counters; per-session stats are rendered outside the lock (they
        take the sessions' own locks).
        """
        with self._lock:
            sessions = list(self._sessions.values())
            hits, misses, evictions = self.hits, self.misses, self.evictions
        total = hits + misses
        return {
            "size": len(sessions),
            "maxsize": self.maxsize,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": (hits / total) if total else None,
            "sessions": [session.stats() for session in sessions],
        }
