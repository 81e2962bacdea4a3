"""EngineSession / SessionPool: prepared programs and warm caches."""

from __future__ import annotations

import pytest

from repro.core import ForeverQuery, evaluate_forever_exact
from repro.core.events import parse_event
from repro.errors import InvalidRequestError
from repro.io import database_from_json
from repro.relational.parser import parse_interpretation
from repro.runtime import Budget, RunContext
from repro.service import EngineSession, QueryRequest, SessionPool

from tests.service.conftest import (
    REACH_DATABASE,
    REACH_DATALOG,
    WALK_DATABASE,
    WALK_PROGRAM,
    walk_body,
)


def make_request(**overrides) -> QueryRequest:
    return QueryRequest.from_json(walk_body(**overrides))


class TestEngineSession:
    def test_forever_exact_matches_direct_evaluation(self, walk_request):
        session = EngineSession.prepare(walk_request)
        payload = session.evaluate(walk_request)
        kernel = parse_interpretation(WALK_PROGRAM)
        database = database_from_json(WALK_DATABASE)
        direct = evaluate_forever_exact(
            ForeverQuery(kernel, parse_event("C(b)")), database
        )
        assert payload["probability"] == str(direct.probability)
        assert payload["kind"] == "exact"

    def test_warm_cache_survives_across_requests(self, walk_request):
        session = EngineSession.prepare(walk_request)
        session.evaluate(walk_request)
        misses_after_first = session.cache.misses
        assert misses_after_first > 0
        # a different event on the same session walks memoized rows
        other = make_request(event="C(a)")
        session.evaluate(other)
        assert session.cache.hits > 0
        assert session.cache.misses == misses_after_first
        assert session.requests_served == 2

    def test_seeded_mcmc_uses_session_cache(self, walk_request):
        session = EngineSession.prepare(walk_request)
        request = make_request(
            params={"mcmc": True, "samples": 200, "seed": 11, "burn_in": 16}
        )
        payload = session.evaluate(request)
        assert payload["kind"] == "sampling"
        assert 0.0 <= payload["estimate"] <= 1.0
        assert session.cache.hits + session.cache.misses > 0

    def test_cache_size_zero_opts_out(self, walk_request):
        session = EngineSession.prepare(walk_request)
        request = make_request(
            params={"mcmc": True, "samples": 50, "seed": 3,
                    "burn_in": 8, "cache_size": 0}
        )
        session.evaluate(request)
        assert session.cache.hits + session.cache.misses == 0

    @pytest.mark.parametrize(
        "params",
        [
            {"fallback": "mcmc", "max_states": 1, "samples": 40,
             "burn_in": 4, "seed": 5},
            {"fallback": "auto", "max_states": 1},
        ],
        ids=["fallback-mcmc", "fallback-auto"],
    )
    def test_cache_size_zero_with_fallback(self, params):
        # cache_size 0 means "uncached"; the degradation policy spells
        # that None and must not see the 0 (it requires sizes >= 1).
        request = make_request(params={**params, "cache_size": 0})
        session = EngineSession.prepare(request)
        payload = session.evaluate(request, RunContext(Budget.unlimited()))
        assert payload["downgrades"]
        assert "transition_cache" not in payload
        assert session.cache.hits + session.cache.misses == 0

    def test_cache_size_zero_with_partition_auto(self):
        request = QueryRequest.from_json({
            "semantics": "forever",
            "program": (
                "C := rename[J->I](project[J](repair-key[I@P](C join E)))\n"
                "D := rename[J->I](project[J](repair-key[I@P](D join E)))\n"
            ),
            "database": {"relations": {
                "C": {"columns": ["I"], "rows": [["a"]]},
                "D": {"columns": ["I"], "rows": [["b"]]},
                "E": {"columns": ["I", "J", "P"], "rows": [
                    ["a", "a", 1], ["a", "b", 1], ["b", "b", 1], ["b", "a", 1],
                ]},
            }},
            "event": "C(b) and D(a)",
            "params": {"partition": "auto", "cache_size": 0},
        })
        payload = EngineSession.prepare(request).evaluate(request)
        assert payload["probability"] == "1/4"
        assert payload["partition"]["evaluated"] == 2

    def test_fallback_degrades_and_reports(self, walk_request):
        request = make_request(
            params={"fallback": "lumped", "max_states": 1}
        )
        session = EngineSession.prepare(request)
        context = RunContext(Budget.unlimited())
        payload = session.evaluate(request, context)
        assert payload["probability"] == "1/3"
        assert payload["downgrades"]

    def test_foreign_request_rejected(self, walk_request):
        session = EngineSession.prepare(walk_request)
        foreign = make_request(program="C := C")
        with pytest.raises(InvalidRequestError, match="does not belong"):
            session.evaluate(foreign)

    def test_inflationary_session(self):
        request = QueryRequest.from_json({
            "semantics": "inflationary",
            "program": "T := T union E",
            "database": {"relations": {
                "T": {"columns": ["A", "B"], "rows": []},
                "E": {"columns": ["A", "B"], "rows": [["a", "b"]]},
            }},
            "event": "T(a, b)",
        })
        session = EngineSession.prepare(request)
        payload = session.evaluate(request)
        assert payload["probability"] == "1"

    def test_datalog_session_has_no_transition_cache(self):
        request = QueryRequest.from_json({
            "semantics": "datalog",
            "program": REACH_DATALOG,
            "database": REACH_DATABASE,
            "event": "t(a, c)",
        })
        session = EngineSession.prepare(request)
        assert session.cache is None
        payload = session.evaluate(request)
        assert payload["probability"] == "1"
        assert payload["pc_worlds"] == 1

    def test_budget_exhaustion_propagates(self, walk_request):
        from repro.errors import BudgetExceededError

        session = EngineSession.prepare(walk_request)
        context = RunContext(Budget(max_steps=0))
        request = make_request(params={"mcmc": True, "samples": 50, "seed": 1})
        with pytest.raises(BudgetExceededError):
            session.evaluate(request, context)


class TestSessionPool:
    def test_hit_on_same_program(self, walk_request):
        pool = SessionPool(maxsize=4)
        first = pool.get_or_create(walk_request)
        second = pool.get_or_create(make_request(event="C(a)"))
        assert first is second
        assert (pool.hits, pool.misses) == (1, 1)

    def test_lru_eviction(self, walk_request):
        pool = SessionPool(maxsize=1)
        pool.get_or_create(walk_request)
        pool.get_or_create(make_request(program="C := C"))
        assert pool.evictions == 1
        assert len(pool) == 1

    def test_stats_include_sessions(self, walk_request):
        pool = SessionPool(maxsize=4)
        session = pool.get_or_create(walk_request)
        session.evaluate(walk_request)
        stats = pool.stats()
        assert stats["size"] == 1
        assert stats["sessions"][0]["requests_served"] == 1
        assert stats["sessions"][0]["transition_cache"]["maxsize"] > 0
