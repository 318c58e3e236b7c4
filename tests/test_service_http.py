"""Tests for the HTTP JSON API (ephemeral-port servers, stdlib client)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.model import CacheMVAModel
from repro.protocols.family import PROTOCOLS
from repro.service import ModelService, start_server
from repro.workload.parameters import SharingLevel, appendix_a_workload


@pytest.fixture()
def server():
    server = start_server(ModelService())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers["Content-Type"], exc.read()


def _post(server, path, body, raw=False):
    data = body if raw else json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _message(payload):
    """The error message out of the /v1 envelope."""
    return payload["error"]["message"]


class TestHealthz:
    def test_ok(self, server):
        status, content_type, body = _get(server, "/v1/healthz")
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0


class TestSolve:
    def test_matches_the_solve_subcommand(self, server):
        """POST /v1/solve returns exactly what `repro solve` computes."""
        status, payload = _post(server, "/v1/solve",
                                {"protocol": "berkeley", "n": [4, 10]})
        assert status == 200
        expected = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT),
            PROTOCOLS["berkeley"])
        assert payload["protocol"] == "Berkeley"
        for row, n in zip(payload["results"], [4, 10]):
            report = expected.solve(n)
            assert row["n_processors"] == n
            assert row["speedup"] == pytest.approx(report.speedup)
            assert row["u_bus"] == pytest.approx(report.u_bus)
            assert row["cached"] is False

    def test_repeat_request_is_served_from_cache(self, server):
        body = {"protocol": "1,4", "n": 6, "sharing": "20"}
        _, first = _post(server, "/v1/solve", body)
        _, second = _post(server, "/v1/solve", body)
        assert first["results"][0]["cached"] is False
        assert second["results"][0]["cached"] is True
        assert second["summary"]["cache_hit_rate"] == 1.0
        assert second["results"][0]["speedup"] == \
            first["results"][0]["speedup"]

    def test_workload_overrides(self, server):
        status, payload = _post(server, "/v1/solve", {
            "protocol": "write-once", "n": 4, "workload": {"tau": 5.0}})
        assert status == 200
        expected = CacheMVAModel(
            appendix_a_workload(SharingLevel.FIVE_PERCENT).replace(tau=5.0))
        assert payload["results"][0]["speedup"] == pytest.approx(
            expected.speedup(4))

    def test_malformed_json_body_is_400(self, server):
        status, payload = _post(server, "/v1/solve", b"{not json", raw=True)
        assert status == 400
        assert "not valid JSON" in _message(payload)

    def test_missing_fields_are_400(self, server):
        for body in ({}, {"protocol": "berkeley"}, {"n": 4}):
            status, payload = _post(server, "/v1/solve", body)
            assert status == 400
            assert "missing required field" in _message(payload)
            assert payload["error"]["code"] == "missing-field"

    def test_bad_values_are_400(self, server):
        cases = [
            {"protocol": "warp-drive", "n": 4},
            {"protocol": "berkeley", "n": 0},
            {"protocol": "berkeley", "n": [], },
            {"protocol": "berkeley", "n": 4, "sharing": "37"},
            {"protocol": "berkeley", "n": 4, "workload": {"tau": -1}},
            {"protocol": "berkeley", "n": 4, "workload": {"nope": 1}},
        ]
        for body in cases:
            status, payload = _post(server, "/v1/solve", body)
            assert status == 400, body
            assert "error" in payload

    def test_non_object_body_is_400(self, server):
        status, payload = _post(server, "/v1/solve", [1, 2, 3])
        assert status == 400
        assert "JSON object" in _message(payload)


class TestGrid:
    def test_sweep(self, server):
        status, payload = _post(server, "/v1/grid", {
            "protocols": ["write-once", "1"], "n": [2, 4],
            "sharing": ["5"]})
        assert status == 200
        assert len(payload["cells"]) == 4
        assert payload["summary"]["total"] == 4
        assert [c["protocol"] for c in payload["cells"]] == \
            ["Write-Once", "Write-Once", "WO+1", "WO+1"]

    def test_cell_limit_enforced(self, server):
        server.service.max_grid_cells = 3
        status, payload = _post(server, "/v1/grid", {
            "protocols": ["write-once"], "n": [1, 2, 4, 8],
            "sharing": ["5"]})
        assert status == 400
        assert "exceeds" in _message(payload)
        assert payload["error"]["code"] == "grid-too-large"

    def test_missing_protocols_is_400(self, server):
        status, _ = _post(server, "/v1/grid", {"n": [2]})
        assert status == 400

    def test_rows_carry_per_cell_status(self, server):
        status, payload = _post(server, "/v1/grid", {
            "protocols": ["write-once"], "n": [2, 4], "sharing": ["5"]})
        assert status == 200
        assert all(cell["status"] == "ok" for cell in payload["cells"])
        assert all(cell["error"] is None for cell in payload["cells"])
        assert payload["failures"] == []
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["recovered"] == 0


class TestFailureSemantics:
    """Partial failure is a 200 with error rows; only a sweep with no
    surviving cell is a request-level error."""

    def _poison(self, monkeypatch, dead_sizes):
        """Kill the batch engine wholesale, so every cell falls back to
        the per-cell path, where the cells of ``dead_sizes`` raise."""
        import repro.service.executor as executor_module
        real = executor_module.evaluate_task

        def poisoned(task):
            if task.n in dead_sizes:
                raise RuntimeError(f"injected failure at N={task.n}")
            return real(task)

        def batch_down(tasks):
            raise RuntimeError("batch engine down")
        monkeypatch.setattr(executor_module, "evaluate_task", poisoned)
        monkeypatch.setattr(executor_module, "evaluate_mva_batch",
                            batch_down)

    def test_partial_failure_is_200_with_error_row(self, server,
                                                   monkeypatch):
        self._poison(monkeypatch, {4})
        status, payload = _post(server, "/v1/grid", {
            "protocols": ["write-once"], "n": [2, 4, 8], "sharing": ["5"]})
        assert status == 200
        by_n = {cell["n_processors"]: cell for cell in payload["cells"]}
        assert by_n[4]["status"] == "error"
        assert by_n[4]["speedup"] is None
        assert "injected failure" in by_n[4]["error"]
        assert by_n[2]["status"] == by_n[8]["status"] == "ok"
        assert payload["summary"]["failed"] == 1
        assert len(payload["failures"]) == 1
        assert payload["failures"][0]["n_processors"] == 4

    def test_total_failure_is_500_with_failure_records(self, server,
                                                       monkeypatch):
        self._poison(monkeypatch, {2, 4})
        status, payload = _post(server, "/v1/grid", {
            "protocols": ["write-once"], "n": [2, 4], "sharing": ["5"]})
        assert status == 500
        assert "all 2 cells failed" in _message(payload)
        assert payload["error"]["code"] == "all-cells-failed"
        assert len(payload["error"]["detail"]["failures"]) == 2

    def test_metrics_expose_failures(self, server, monkeypatch):
        self._poison(monkeypatch, {4})
        _post(server, "/v1/grid", {"protocols": ["write-once"],
                                   "n": [2, 4], "sharing": ["5"]})
        _, _, body = _get(server, "/v1/metrics")
        text = body.decode()
        assert 'repro_cells_failed_total{method="mva"} 1' in text


class TestMetrics:
    def test_exposition_after_traffic(self, server):
        _post(server, "/v1/solve", {"protocol": "berkeley", "n": 4})
        _post(server, "/v1/solve", {"protocol": "berkeley", "n": 4})
        status, content_type, body = _get(server, "/v1/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode()
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 1" in text
        assert "repro_cache_misses_total 1" in text
        assert 'repro_cells_solved_total{method="mva"} 1' in text
        assert "repro_solve_latency_seconds_bucket" in text
        assert "repro_solver_iterations_count 1" in text


class TestRouting:
    def test_unknown_path_is_404(self, server):
        status, _, body = _get(server, "/nope")
        assert status == 404
        assert "unknown path" in _message(json.loads(body))

    def test_post_only_routes_reject_get(self, server):
        status, _, body = _get(server, "/v1/solve")
        assert status == 405
        assert "requires POST" in _message(json.loads(body))

    def test_get_only_routes_reject_post(self, server):
        status, payload = _post(server, "/v1/healthz", {})
        assert status == 405
        assert "requires GET" in _message(payload)

    def test_405_carries_allow_header(self, server):
        request = urllib.request.Request(server.url + "/v1/solve")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.headers["Allow"] == "POST"

    def test_empty_post_body_is_400(self, server):
        request = urllib.request.Request(server.url + "/v1/solve", data=b"")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestLegacyGone:
    """The retired unversioned endpoints answer 410 with the /v1
    envelope and a machine-readable successor pointer."""

    @pytest.mark.parametrize("method,path,successor", [
        ("GET", "/healthz", "/v1/healthz"),
        ("GET", "/metrics", "/v1/metrics"),
        ("POST", "/solve", "/v1/solve"),
        ("POST", "/grid", "/v1/grid"),
    ])
    def test_legacy_paths_are_gone(self, server, method, path, successor):
        if method == "GET":
            status, _, body = _get(server, path)
            payload = json.loads(body)
        else:
            status, payload = _post(server, path, {"protocol": "berkeley",
                                                   "n": 4})
        assert status == 410
        assert payload["error"]["code"] == "gone"
        assert successor in payload["error"]["message"]
        assert payload["error"]["detail"]["successor"] == successor

    def test_gone_applies_to_any_method(self, server):
        """410 on a retired path even with the 'wrong' verb -- the
        resource is gone, not method-confused."""
        status, payload = _post(server, "/healthz", {})
        assert status == 410
        assert payload["error"]["code"] == "gone"

    def test_gone_carries_successor_link_header(self, server):
        try:
            urllib.request.urlopen(server.url + "/healthz", timeout=10)
            raise AssertionError("expected HTTP 410")
        except urllib.error.HTTPError as exc:
            assert exc.code == 410
            assert "/v1/healthz" in exc.headers["Link"]
            assert "successor-version" in exc.headers["Link"]

    def test_unversioned_sweep_suggests_v1(self, server):
        status, payload = _post(server, "/sweep",
                                {"protocols": ["write-once"], "n": [2]})
        assert status == 404
        assert "/v1/sweep" in _message(payload)


class TestCapabilities:
    def test_capabilities_advertise_the_surface(self, server):
        status, _, body = _get(server, "/v1/capabilities")
        assert status == 200
        payload = json.loads(body)
        assert payload["api_version"] == "v1"
        assert payload["engines"] == ["scalar", "batch"]
        assert payload["default_engine"] == "scalar"
        assert "dispatch_modes" not in payload
        assert payload["coalesce"] == {"enabled": False}
        assert payload["limits"]["max_grid_cells"] == 4096
        assert "/v1/solve" in payload["endpoints"]["post"]
        assert "/v1/capabilities" in payload["endpoints"]["get"]

    def test_capabilities_report_coalescing_settings(self):
        service = ModelService.with_coalescer(max_batch=32)
        try:
            coalesce = service.capabilities()["coalesce"]
            assert coalesce == {"enabled": True, "max_batch": 32}
        finally:
            service.close()


class TestJobs:
    def test_empty_listing(self, server):
        status, _, body = _get(server, "/v1/jobs")
        assert status == 200
        assert json.loads(body) == {"jobs": [], "count": 0}

    def test_lists_submitted_sweeps_with_progress(self, server):
        status, submitted = _post(server, "/v1/sweep", {
            "protocols": ["write-once"], "sharing": ["5"], "n": [2, 4]})
        assert status == 200
        job_id = submitted["job_id"]
        import time
        deadline = time.time() + 30
        while time.time() < deadline:
            _, _, body = _get(server, "/v1/jobs")
            listing = json.loads(body)
            if listing["jobs"] and listing["jobs"][0]["state"] == "done":
                break
            time.sleep(0.05)
        assert listing["count"] == 1
        (job,) = listing["jobs"]
        assert job["job_id"] == job_id
        assert job["kind"] == "sweep"
        assert job["state"] == "done"
        assert job["cells"] == 2
        assert job["cells_done"] == 2
        assert job["cells_failed"] == 0
        assert job["status_path"] == f"/v1/sweep/{job_id}"
