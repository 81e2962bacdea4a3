"""The HTTP front-end and its urllib client, over a real socket."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.errors import InvalidRequestError, JobNotFoundError, ServiceError
from repro.service import QueryService, ServiceClient, ServiceConfig, make_server

from tests.service.conftest import walk_body


@pytest.fixture
def served():
    """A started service on an ephemeral port, with its client."""
    service = QueryService(ServiceConfig(workers=2, queue_size=8))
    service.start()
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(wait=False, cancel_running=True)


class TestRoutes:
    def test_submit_poll_result(self, served):
        _, client = served
        record = client.submit(walk_body())
        assert record["state"] in ("queued", "running", "done")
        done = client.wait(record["id"], timeout=30.0)
        assert done["state"] == "done"
        assert done["result"]["probability"] == "1/3"
        assert done["report"]["outcome"] == "ok"

    def test_list_jobs(self, served):
        _, client = served
        record = client.submit(walk_body())
        client.wait(record["id"], timeout=30.0)
        listed = client.jobs()
        assert any(job["id"] == record["id"] for job in listed)

    def test_cancel_route(self, served):
        service, client = served
        # fill both workers so a third job stays queued and cancellable
        blockers = [
            client.submit(walk_body(params={"mcmc": True, "samples": 100_000,
                                            "seed": s, "burn_in": 4}))
            for s in (1, 2)
        ]
        queued = client.submit(walk_body(event="C(a)"))
        client.cancel(queued["id"])
        final = client.wait(queued["id"], timeout=30.0)
        assert final["state"] in ("cancelled", "done")
        for record in blockers:
            client.cancel(record["id"])

    def test_healthz(self, served):
        _, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_metrics_document(self, served):
        _, client = served
        record = client.submit(walk_body())
        client.wait(record["id"], timeout=30.0)
        metrics = client.metrics()
        assert metrics["jobs"]["submitted"] >= 1
        assert "result_cache" in metrics
        assert "session_pool" in metrics
        assert "scheduler" in metrics
        assert "forever" in metrics["latency"]["run_seconds"]


class TestErrorMapping:
    def _status(self, client, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"{client.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status
        except urllib.error.HTTPError as error:
            return error.code

    def test_invalid_request_is_400(self, served):
        _, client = served
        assert self._status(client, "POST", "/v1/jobs", {"semantics": "x"}) == 400
        with pytest.raises(InvalidRequestError):
            client.submit({"semantics": "x"})
        bad_param = walk_body(params={"samples": "abc"})
        assert self._status(client, "POST", "/v1/jobs", bad_param) == 400

    def test_malformed_json_is_400(self, served):
        _, client = served
        request = urllib.request.Request(
            f"{client.base_url}/v1/jobs", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_job_is_404(self, served):
        _, client = served
        assert self._status(client, "GET", "/v1/jobs/job-0-nope") == 404
        with pytest.raises(JobNotFoundError):
            client.job("job-0-nope")

    def test_unknown_endpoint_is_404(self, served):
        _, client = served
        assert self._status(client, "GET", "/v1/nope") == 404

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()
