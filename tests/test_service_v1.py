"""The versioned /v1 API: unified schema, error envelope, retirement.

The consolidated /v1 routes (including the 410 answers on the retired
unversioned endpoints) are covered by ``test_service_http.py``; this
module covers the contract details on top:

* the structured error envelope ``{"error": {code, message, detail}}``;
* strict request parsing (unknown top-level fields are a 400);
* the retired legacy endpoints answering 410 ``gone`` everywhere;
* ``Allow`` headers on 405 responses;
* the ``engine`` request field and the typed schema module itself.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ModelService, start_server
from repro.service.schema import (
    GridRequest,
    ServiceError,
    SolveRequest,
)
from repro.workload.parameters import SharingLevel


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
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _post(server, path, body):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class TestV1Routes:
    def test_healthz(self, server):
        status, headers, body = _get(server, "/v1/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["engine"] == "scalar"
        assert "Deprecation" not in headers

    def test_metrics(self, server):
        _post(server, "/v1/solve", {"protocol": "berkeley", "n": 4})
        status, headers, body = _get(server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_cells_solved_total" in body.decode()
        assert "Deprecation" not in headers

    def test_solve_response_schema(self, server):
        body = {"protocol": "berkeley", "n": [4, 10]}
        status, headers, v1 = _post(server, "/v1/solve", body)
        assert status == 200
        assert "Deprecation" not in headers
        assert set(v1) == {"protocol", "sharing", "results", "failures",
                           "summary"}
        assert [r["n_processors"] for r in v1["results"]] == [4, 10]

    def test_grid(self, server):
        status, _, payload = _post(server, "/v1/grid", {
            "protocols": ["write-once", "1"], "n": [2, 4],
            "sharing": ["5"]})
        assert status == 200
        assert len(payload["cells"]) == 4
        assert payload["summary"]["total"] == 4

    def test_unknown_v1_path_is_404_with_envelope(self, server):
        status, _, body = _get(server, "/v1/nope")
        assert status == 404
        error = json.loads(body)["error"]
        assert error["code"] == "not-found"
        assert "unknown path" in error["message"]

    def test_unknown_version_is_404(self, server):
        status, _, _ = _get(server, "/v2/healthz")
        assert status == 404


class TestV1ErrorEnvelope:
    def test_missing_field(self, server):
        status, _, payload = _post(server, "/v1/solve", {"n": 4})
        assert status == 400
        error = payload["error"]
        assert error["code"] == "missing-field"
        assert "missing required field 'protocol'" in error["message"]

    def test_bad_engine(self, server):
        status, _, payload = _post(server, "/v1/solve", {
            "protocol": "berkeley", "n": 4, "engine": "quantum"})
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert "'engine'" in payload["error"]["message"]

    def test_unknown_top_level_field_rejected(self, server):
        status, _, payload = _post(server, "/v1/solve", {
            "protocol": "berkeley", "n": 4, "shading": "5"})
        assert status == 400
        error = payload["error"]
        assert error["code"] == "unknown-field"
        assert "'shading'" in error["message"]
        assert error["detail"]["unknown"] == ["shading"]
        assert "sharing" in error["detail"]["allowed"]

    def test_method_not_allowed_carries_allow_header(self, server):
        status, headers, body = _get(server, "/v1/solve")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert json.loads(body)["error"]["code"] == "method-not-allowed"
        status, headers, _ = _post(server, "/v1/metrics", {})
        assert status == 405
        assert headers["Allow"] == "GET"


class TestLegacyRetirement:
    """The unversioned endpoints shipped Deprecation/Link headers for
    two release cycles and are now 410 Gone per the documented policy."""

    def test_legacy_get_paths_are_gone_with_successor(self, server):
        for path in ("/healthz", "/metrics"):
            status, headers, body = _get(server, path)
            assert status == 410
            error = json.loads(body)["error"]
            assert error["code"] == "gone"
            assert error["detail"]["successor"] == f"/v1{path}"
            assert f"</v1{path}>" in headers["Link"]
            assert 'rel="successor-version"' in headers["Link"]

    def test_legacy_solve_is_gone_even_with_a_valid_body(self, server):
        status, _, payload = _post(server, "/solve",
                                   {"protocol": "berkeley", "n": 4})
        assert status == 410
        assert payload["error"]["code"] == "gone"
        assert payload["error"]["detail"]["successor"] == "/v1/solve"

    def test_plain_404_carries_no_successor_link(self, server):
        _, headers, _ = _get(server, "/nope")
        assert "Link" not in headers


class TestEngineField:
    def test_solve_with_batch_engine_matches_scalar(self, server):
        _, plain_headers, scalar = _post(server, "/v1/solve",
                                         {"protocol": "berkeley",
                                          "n": [4, 10]})
        assert "Deprecation" not in plain_headers
        # Fresh service so the cache cannot mask the engine.
        batch_server = start_server(ModelService())
        thread = threading.Thread(target=batch_server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            _, headers, batch = _post(batch_server, "/v1/solve",
                                      {"protocol": "berkeley", "n": [4, 10],
                                       "engine": "batch"})
        finally:
            batch_server.shutdown()
            batch_server.server_close()
            thread.join(timeout=5)
        assert batch["summary"]["mode"] == "batch"
        assert [r["speedup"] for r in batch["results"]] == \
            [r["speedup"] for r in scalar["results"]]
        assert batch["results"] == scalar["results"]
        # The field is deprecated (RFC 8594): still accepted, no effect.
        assert headers["Deprecation"] == "true"
        assert headers["Sunset"] == "Thu, 01 Apr 2027 00:00:00 GMT"

    def test_grid_engine_field(self, server):
        body = {"protocols": ["write-once"], "n": [2, 4], "sharing": ["5"]}
        status, headers, payload = _post(server, "/v1/grid",
                                         dict(body, engine="scalar"))
        assert status == 200
        assert payload["summary"]["mode"] == "batch"
        assert all(c["status"] == "ok" for c in payload["cells"])
        assert headers["Deprecation"] == "true"
        assert "Sunset" in headers
        fresh = ModelService().grid(body)
        assert [dict(c, cached=False) for c in payload["cells"]] == \
            fresh["cells"]

    def test_service_default_engine(self):
        """The ``engine`` keyword is accepted and ignored: the executor
        picks batch for two or more cells and scalar for one."""
        for cells, mode in (([2], "serial"), ([2, 4], "batch")):
            body = {"protocols": ["write-once"], "n": cells,
                    "sharing": ["5"]}
            payload = ModelService(engine="batch").grid(body)
            assert payload["summary"]["mode"] == mode
            assert payload["cells"] == ModelService().grid(body)["cells"]
        with pytest.raises(ValueError):
            ModelService(engine="quantum")


class TestSchemaModule:
    def test_solve_request_defaults(self):
        request = SolveRequest.from_payload(
            {"protocol": "berkeley", "n": 4})
        assert request.sizes == (4,)
        assert request.sharing is SharingLevel.FIVE_PERCENT
        assert request.engine is None

    def test_grid_request_cell_count_doubles_with_simulate(self):
        base = {"protocols": ["write-once"], "n": [2, 4],
                "sharing": ["5"]}
        plain = GridRequest.from_payload(base)
        assert plain.cell_count == 2
        sim = GridRequest.from_payload(dict(base, simulate=True))
        assert sim.cell_count == 4

    def test_grid_request_spec_round_trip(self):
        request = GridRequest.from_payload(
            {"protocols": ["write-once", "1,4"], "n": [2, 8],
             "sharing": ["1", "20"], "seed": 7, "requests": 1000})
        spec = request.spec()
        assert [p.label for p in spec.protocols] == ["Write-Once", "WO+1+4"]
        assert tuple(spec.sizes) == (2, 8)
        assert spec.sim_seed == 7
        assert spec.sim_requests == 1000

    def test_strict_rejects_unknown_fields_with_code(self):
        with pytest.raises(ServiceError) as excinfo:
            GridRequest.from_payload(
                {"protocols": ["write-once"], "n": [2], "engines": "batch"},
                strict=True)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unknown-field"
        assert excinfo.value.details["unknown"] == ["engines"]

    def test_lenient_accepts_unknown_fields(self):
        request = GridRequest.from_payload(
            {"protocols": ["write-once"], "n": [2], "engines": "batch"})
        assert request.engine is None

    def test_bad_requests_field(self):
        with pytest.raises(ServiceError) as excinfo:
            GridRequest.from_payload(
                {"protocols": ["write-once"], "n": [2], "requests": "many"})
        assert "'requests'" in excinfo.value.message

    def test_error_code_defaults_from_status(self):
        assert ServiceError(400, "x").code == "bad-request"
        assert ServiceError(404, "x").code == "not-found"
        assert ServiceError(500, "x").code == "internal-error"
        assert ServiceError(418, "x").code == "error"
        assert ServiceError(400, "x", code="custom").code == "custom"


class TestVerifyEndpoint:
    """POST /v1/verify: the verification suite behind the service.

    The endpoint is /v1-only (it never existed unversioned, so there
    is no legacy behaviour to preserve); most cases stub ``run_verify``
    to keep the suite fast, plus one real quick-tier run end to end.
    """

    def _stub(self, monkeypatch, report=None):
        from repro.verify.violations import VerifyReport
        import repro.verify.runner as runner_mod

        calls = []

        def fake(tier="quick", metrics=None, **kwargs):
            calls.append({"tier": tier, "metrics": metrics})
            stubbed = report or VerifyReport(tier=tier, checks=7)
            return stubbed

        monkeypatch.setattr(runner_mod, "run_verify", fake)
        return calls

    def test_verify_default_tier(self, server, monkeypatch):
        calls = self._stub(monkeypatch)
        status, headers, payload = _post(server, "/v1/verify", {})
        assert status == 200
        assert payload["ok"] is True
        assert payload["tier"] == "quick"
        assert payload["checks"] == 7
        assert "Deprecation" not in headers
        # The run feeds the service's own metrics registry.
        assert calls[0]["metrics"] is server.service.metrics

    def test_verify_reports_violations_as_data(self, server,
                                               monkeypatch):
        """A failing verification is still HTTP 200: violations are
        the payload, not a transport error."""
        from repro.verify.violations import VerifyReport, Violation

        failing = VerifyReport(tier="quick", checks=3)
        failing.add([Violation(law="engine-parity", subject="cell",
                               message="drift")], 0, "engine-parity")
        self._stub(monkeypatch, report=failing)
        status, _, payload = _post(server, "/v1/verify", {})
        assert status == 200
        assert payload["ok"] is False
        assert payload["violations"][0]["law"] == "engine-parity"

    def test_bad_tier_envelope(self, server):
        status, _, payload = _post(server, "/v1/verify",
                                   {"tier": "exhaustive"})
        assert status == 400
        error = payload["error"]
        assert error["code"] == "unknown-tier"
        assert "'tier'" in error["message"]

    def test_unknown_field_rejected(self, server):
        status, _, payload = _post(server, "/v1/verify",
                                   {"tier": "quick", "golden": "x"})
        assert status == 400
        error = payload["error"]
        assert error["code"] == "unknown-field"
        assert error["detail"]["unknown"] == ["golden"]
        assert error["detail"]["allowed"] == ["tier"]

    def test_no_legacy_alias(self, server):
        """Unversioned /verify never existed: 404 (with a hint), not a
        deprecated alias -- and GET on it is 404 too, while GET on the
        real /v1/verify is a 405 with Allow."""
        status, headers, payload = _post(server, "/verify", {})
        assert status == 404
        assert "Deprecation" not in headers
        assert "/v1/verify" in payload["error"]["message"]
        status, headers, _ = _get(server, "/verify")
        assert status == 404
        status, headers, _ = _get(server, "/v1/verify")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_real_quick_run_end_to_end(self, server):
        status, _, payload = _post(server, "/v1/verify",
                                   {"tier": "quick"})
        assert status == 200
        assert payload["ok"] is True
        assert payload["checks"] > 10_000
        assert sorted(payload["sections"]) == list(payload["sections"])
        _, _, body = _get(server, "/v1/metrics")
        text = body.decode()
        assert "repro_verify_checks_total" in text
