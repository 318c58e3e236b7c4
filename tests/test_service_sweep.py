"""The async /v1/sweep endpoints: submit, poll, errors, cache handoff.

``POST /v1/sweep`` returns a job handle immediately and runs the sweep
through the :class:`repro.sweepq.SweepQueue` on a background thread;
``GET /v1/sweep/{job_id}`` serves the journal's progress counters.
Results are not shipped over the status endpoint -- they land in the
service's shared result cache, so a ``/v1/grid`` request after
completion is answered entirely from cache (asserted here).
"""

import itertools
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ModelService, start_server
from repro.service.schema import ServiceError, SweepRequest


@pytest.fixture()
def server():
    server = start_server(ModelService(jobs=2))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def _post(server, path, body):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


_BODY = {"protocols": ["write-once", "1,4"], "n": [2, 4, 6],
         "sharing": ["5"]}


def _wait_done(server, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = _get(server, f"/v1/sweep/{job_id}")
        assert status == 200
        if body["state"] in ("done", "failed"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"sweep {job_id} did not finish in {timeout}s")


class TestSweepSubmit:
    def test_submit_returns_job_handle(self, server):
        status, _, body = _post(server, "/v1/sweep", _BODY)
        assert status == 200
        assert body["state"] == "running"
        assert body["cells"] == 6
        assert body["chunks"] >= 1
        assert body["status_path"] == f"/v1/sweep/{body['job_id']}"

    def test_status_reaches_done_with_full_counters(self, server):
        _, _, submitted = _post(server, "/v1/sweep", dict(_BODY,
                                                          workers=2))
        final = _wait_done(server, submitted["job_id"])
        assert final["state"] == "done"
        assert final["chunks"]["done"] == final["chunks"]["chunks"]
        assert final["chunks"]["queued"] == 0
        assert final["cells_done"] == 6
        assert final["cells_failed"] == 0
        assert final["requeues"] == 0
        assert final["recovered"] == 0
        assert 1 <= final["workers_used"] <= 2
        assert final["workers"] == 2
        assert final["wall_seconds"] > 0

    def test_completed_sweep_feeds_the_grid_cache(self, server):
        _, _, submitted = _post(server, "/v1/sweep", _BODY)
        _wait_done(server, submitted["job_id"])
        status, _, grid = _post(server, "/v1/grid", _BODY)
        assert status == 200
        assert grid["summary"]["cache_hits"] == grid["summary"]["total"]

    def test_sweep_metrics_published(self, server):
        _, _, submitted = _post(server, "/v1/sweep", _BODY)
        _wait_done(server, submitted["job_id"])
        with urllib.request.urlopen(server.url + "/v1/metrics",
                                    timeout=10) as resp:
            text = resp.read().decode()
        assert 'repro_sweep_chunks{state="done"}' in text
        assert "repro_sweep_cells_done" in text


#: 12 cells: six MVA rows, each with its simulation row.
_MIXED = dict(_BODY, n=[2, 4, 8], simulate=True, requests=300)
#: 3072 MVA cells: all 16 protocols, three sharing levels, N = 1..64.
_MVA_ONLY = {"protocols": ["write-once"] + [
    ",".join(map(str, mods)) for k in (1, 2, 3, 4)
    for mods in itertools.combinations((1, 2, 3, 4), k)],
    "n": list(range(1, 65))}


class TestSweepChunkTables:
    """The queue's default chunk size gives ``POST /v1/sweep`` the same
    (chunks, chunk size) it had when the service computed its own; the
    fixture's service defaults to ``workers`` = its ``jobs`` = 2."""

    @pytest.mark.parametrize("body, table", [
        (_MIXED, (6, 2)), (dict(_MIXED, workers=4), (12, 1)),
        (_MVA_ONLY, (8, 384)), (dict(_MVA_ONLY, workers=1), (4, 768)),
    ])
    def test_chunk_table(self, server, body, table):
        status, _, submitted = _post(server, "/v1/sweep", body)
        assert status == 200
        assert (submitted["chunks"], submitted["chunk_size"]) == table
        final = _wait_done(server, submitted["job_id"])
        assert final["chunks"]["done"] == table[0]

    def test_explicit_chunk_size_wins(self, server):
        _, _, submitted = _post(server, "/v1/sweep",
                                dict(_MIXED, chunk_size=5))
        assert (submitted["chunks"], submitted["chunk_size"]) == (3, 5)
        _wait_done(server, submitted["job_id"])


class TestSweepErrors:
    def test_unknown_job_is_404(self, server):
        status, _, body = _get(server, "/v1/sweep/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown-job"

    def test_no_legacy_alias(self, server):
        """/sweep never had an unversioned predecessor: plain 404 (with
        a hint), not the 410 the retired legacy paths answer."""
        status, _, body = _post(server, "/sweep", _BODY)
        assert status == 404
        assert body["error"]["code"] == "not-found"
        assert "/v1/sweep" in body["error"]["message"]

    def test_unknown_field_rejected(self, server):
        status, _, body = _post(server, "/v1/sweep",
                                dict(_BODY, engine="batch"))
        assert status == 400
        assert body["error"]["code"] == "unknown-field"

    def test_status_requires_get(self, server):
        status, headers, _ = _post(server, "/v1/sweep/whatever", {})
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_submit_requires_post(self, server):
        status, headers, _ = _get(server, "/v1/sweep")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_oversized_sweep_rejected(self, server):
        body = dict(_BODY, n=list(range(1, 4097)))
        status, _, payload = _post(server, "/v1/sweep", body)
        assert status == 400
        assert payload["error"]["code"] == "grid-too-large"

    def test_bad_workers_rejected(self, server):
        status, _, payload = _post(server, "/v1/sweep",
                                   dict(_BODY, workers=0))
        assert status == 400
        assert "workers" in payload["error"]["message"]


class TestSweepRequestSchema:
    def test_defaults(self):
        request = SweepRequest.from_payload(_BODY, strict=True)
        assert request.workers is None
        assert request.chunk_size is None
        assert not request.simulate
        assert request.cell_count == 6

    def test_rejects_engine_field_strictly(self):
        with pytest.raises(ServiceError) as excinfo:
            SweepRequest.from_payload(dict(_BODY, engine="batch"),
                                      strict=True)
        assert excinfo.value.code == "unknown-field"

    def test_chunk_size_validated(self):
        with pytest.raises(ServiceError, match="chunk_size"):
            SweepRequest.from_payload(dict(_BODY, chunk_size=0))

    def test_spec_matches_grid_semantics(self):
        request = SweepRequest.from_payload(
            dict(_BODY, simulate=True, requests=500, seed=9))
        spec = request.spec()
        assert spec.include_simulation
        assert spec.sim_requests == 500
        assert spec.sim_seed == 9
        assert request.cell_count == 12
