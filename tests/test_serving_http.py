"""HTTP frontend: route/status mapping over a real localhost server.

Every typed service failure must surface as its designated status code
(429/504/503/404/400, with ``Retry-After`` where promised), because clients
build their backoff behaviour on exactly these contracts.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.durability import DurableStreamSession
from repro.exceptions import TaskFailedError
from repro.matchers import MLNMatcher
from repro.obs import registry as obs_registry
from repro.serving import MatchService, MatchServingHTTPServer, ServiceConfig
from repro.serving.http import MAX_BODY_BYTES
from repro.streaming import StreamSession
from test_serving import FakeClock
from util import build_shared_coauthor_store


def _request(url: str, body: dict = None, headers: dict = None):
    """(status, json document, response headers) for one request."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url, data=data, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture()
def served():
    service = MatchService(
        session=StreamSession(MLNMatcher(),
                              build_shared_coauthor_store())).start()
    with MatchServingHTTPServer(service) as server:
        yield service, server.url
    service.drain()


class TestReadRoutes:
    def test_health_ready_metrics(self, served):
        _, url = served
        status, doc, _ = _request(url + "/health")
        assert (status, doc["status"], doc["mode"]) == (200, "ok",
                                                        "read-write")
        status, doc, _ = _request(url + "/ready")
        assert (status, doc) == (200, {"ready": True})
        status, doc, _ = _request(url + "/metrics")
        assert status == 200
        assert doc["epoch"] == 0
        assert doc["counters"]["commits_total"] == 0
        assert doc["breaker"]["state"] == "closed"

    def test_resolve_cluster_same(self, served):
        _, url = served
        status, doc, _ = _request(url + "/resolve/c2")
        assert (status, doc["canonical"], doc["epoch"]) == (200, "c1", 0)
        status, doc, _ = _request(url + "/cluster/c1")
        assert (status, doc["members"]) == (200, ["c1", "c2"])
        status, doc, _ = _request(url + "/same?a=c1&b=c2")
        assert (status, doc["same"]) == (200, True)
        status, doc, _ = _request(url + "/same?a=c1&b=d1")
        assert (status, doc["same"]) == (200, False)

    def test_unknown_entity_is_404(self, served):
        _, url = served
        status, doc, _ = _request(url + "/resolve/ghost")
        assert status == 404
        assert "ghost" in doc["error"]

    def test_unknown_route_is_404_and_bad_query_is_400(self, served):
        _, url = served
        assert _request(url + "/nope")[0] == 404
        status, doc, _ = _request(url + "/same?a=c1")  # missing b=
        assert status == 400
        status, doc, _ = _request(url + "/resolve/c1",
                                  headers={"X-Deadline": "banana"})
        assert status == 400
        status, doc, _ = _request(url + "/resolve/c1",
                                  headers={"X-Deadline": "-1"})
        assert status == 400


class TestDeltaRoute:
    def test_commit_round_trip(self, served):
        service, url = served
        body = {"ops": [
            {"op": "add_entity", "id": "c7", "type": "author",
             "attributes": {"fname": "Carla", "lname": "Neumann"}},
            {"op": "upsert_similarity", "first": "c1", "second": "c7",
             "score": 0.97, "level": 3},
        ]}
        status, doc, _ = _request(url + "/deltas", body=body)
        assert status == 200
        assert doc["batch"] == 1
        assert doc["ops"] == 2
        status, doc, _ = _request(url + "/resolve/c7")
        assert (status, doc["epoch"]) == (200, 1)
        assert service.current_epoch().epoch_id == 1

    def test_no_wait_is_202(self, served):
        _, url = served
        body = {"ops": [{"op": "upsert_similarity", "first": "c1",
                         "second": "d1", "score": 0.2, "level": 1}],
                "wait": False}
        status, doc, _ = _request(url + "/deltas", body=body)
        assert (status, doc["accepted"]) == (202, True)

    def test_malformed_bodies_are_400(self, served):
        _, url = served
        request = urllib.request.Request(url + "/deltas", data=b"not json")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert _request(url + "/deltas", body={"ops": []})[0] == 400
        assert _request(url + "/deltas", body={"nope": 1})[0] == 400
        assert _request(url + "/deltas",
                        body={"ops": [{"op": "teleport"}]})[0] == 400

    def test_invalid_batch_is_400_without_mutation(self, served):
        service, url = served
        body = {"ops": [{"op": "remove_entity", "id": "ghost"}]}
        status, doc, _ = _request(url + "/deltas", body=body)
        assert status == 400
        assert "ghost" in doc["error"]
        assert service.current_epoch().epoch_id == 0

    @pytest.mark.parametrize("deadline", ["banana", "-1", "inf", "nan"])
    def test_bad_deadline_is_400_without_commit(self, served, deadline):
        service, url = served
        body = {"ops": [{"op": "upsert_similarity", "first": "c1",
                         "second": "d1", "score": 0.2, "level": 1}]}
        status, doc, _ = _request(url + "/deltas", body=body,
                                  headers={"X-Deadline": deadline})
        assert status == 400
        assert "X-Deadline" in doc["error"]
        assert service.current_epoch().epoch_id == 0
        assert _request(url + "/resolve/c1",
                        headers={"X-Deadline": deadline})[0] == 400

    @pytest.mark.parametrize("records", [
        [1],
        [{"op": "upsert_similarity", "first": "c1", "second": "d1",
          "score": "x", "level": 1}],
        [{"op": "add_tuple", "relation": "coauthor", "members": 5}],
    ])
    def test_malformed_records_are_400_without_commit(self, served, records):
        service, url = served
        status, doc, _ = _request(url + "/deltas", body={"ops": records})
        assert status == 400
        assert "malformed delta record" in doc["error"]
        assert service.current_epoch().epoch_id == 0


@pytest.fixture()
def durable_served(tmp_path):
    service = MatchService(session=DurableStreamSession(
        StreamSession(MLNMatcher(), build_shared_coauthor_store()),
        tmp_path / "wal")).start()
    with MatchServingHTTPServer(service) as server:
        yield service, server.url, tmp_path / "wal"
    service.drain(checkpoint=False)


def _upsert(score, level):
    return {"ops": [{"op": "upsert_similarity", "first": "c1",
                     "second": "d1", "score": score, "level": level}]}


def test_out_of_range_similarity_is_400_before_the_wal(durable_served):
    """A score outside [0, 1] (NaN and inf included, which ``json.loads``
    accepts) or a level outside {1, 2, 3} is a client error: refused before
    the commit point, so it never reaches the WAL that recovery replays."""
    service, url, directory = durable_served
    appends = obs_registry.registry().get("wal_appends_total")
    before = appends.value()
    for score, level in ((1.5, 2), (float("nan"), 2), (float("inf"), 2),
                         (-0.1, 2), (0.5, -3), (0.5, 99), (0.5, 0)):
        status, doc, _ = _request(url + "/deltas", body=_upsert(score, level))
        assert status == 400, (score, level)
        assert "similarity" in doc["error"]
    assert appends.value() == before
    counters = service.metrics()["counters"]
    assert counters["commit_failures"] == 0
    assert counters["deltas_invalid"] == 0      # refused at parse time
    assert service.current_epoch().epoch_id == 0
    assert _request(url + "/deltas", body=_upsert(0.95, 3))[0] == 200
    assert appends.value() == before + 1
    matches = service.current_epoch().matches
    service.drain(checkpoint=False)

    recovered = MatchService.recover(directory).start()
    try:
        assert recovered.current_epoch().epoch_id == 1
        assert recovered.current_epoch().matches == matches
    finally:
        recovered.drain(checkpoint=False)


def _assert_retry_after(headers, doc, seconds=None):
    """``Retry-After`` is integer seconds (rounded up, at least 1); the
    precise hint is ``retry_after_seconds`` in the JSON body."""
    import math
    header = headers["Retry-After"]
    assert header.isdigit() and int(header) >= 1
    assert int(header) == max(1, math.ceil(doc["retry_after_seconds"]))
    if seconds is not None:
        assert doc["retry_after_seconds"] == pytest.approx(seconds)


class TestKeepAliveAfterEarlyErrors:
    """A reply sent before the request body was read must end the connection:
    on a keep-alive connection the unread body would otherwise be parsed as
    the next request line (and answered with a stdlib 400 HTML page)."""

    BODY = json.dumps({"ops": [{"kind": "add_entity"}]}).encode()

    @pytest.mark.parametrize("request_line, content_length, status", [
        ("POST /nope", str(len(BODY)), 404),
        ("POST /deltas", "many", 400),
        ("POST /deltas", str(MAX_BODY_BYTES + 1), 429),
    ])
    def test_unread_body_never_becomes_the_next_request(
            self, served, request_line, content_length, status):
        _, url = served
        host, port = url[len("http://"):].split(":")
        follow_up = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
        with socket.create_connection((host, int(port)), timeout=30) as conn:
            conn.sendall(f"{request_line} HTTP/1.1\r\nHost: test\r\n"
                         f"Content-Type: application/json\r\n"
                         f"Content-Length: {content_length}\r\n\r\n"
                         .encode() + self.BODY + follow_up)
            conn.shutdown(socket.SHUT_WR)
            received = b""
            try:
                while chunk := conn.recv(65536):
                    received += chunk
            except ConnectionResetError:
                pass  # closed with our unread bytes still queued
        replies = [line for line in received.split(b"\r\n")
                   if line.startswith(b"HTTP/1.")]
        assert replies[0].split()[1] == str(status).encode()
        # Then /health answered properly, or nothing at all — never a 400.
        assert [reply.split()[1] for reply in replies[1:]] in ([], [b"200"])
        assert b"Bad request" not in received


class TestDegradedStatuses:
    def test_not_ready_is_503_with_retry_after(self):
        gate = threading.Event()

        def slow_factory():
            gate.wait(10)
            return StreamSession(MLNMatcher(),
                                 build_shared_coauthor_store())

        service = MatchService(session_factory=slow_factory)
        with MatchServingHTTPServer(service) as server:
            service.start_background()
            status, doc, headers = _request(server.url + "/ready")
            assert (status, doc["ready"], doc["state"]) == (503, False,
                                                            "starting")
            _assert_retry_after(headers, doc)
            status, doc, headers = _request(server.url + "/resolve/c1")
            assert status == 503
            _assert_retry_after(headers, doc)
            status, doc, _ = _request(server.url + "/health")
            assert (status, doc["status"]) == (200, "ok")  # alive, not ready
            gate.set()
            assert service.wait_ready(30)
            assert _request(server.url + "/resolve/c1")[0] == 200
        service.drain()

    def test_read_only_mode_is_503_with_retry_after(self):
        clock = FakeClock()
        service = MatchService(
            session=StreamSession(MLNMatcher(),
                                  build_shared_coauthor_store()),
            config=ServiceConfig(breaker_threshold=1, breaker_cooldown=30.0),
            clock=clock).start()
        service._session.apply = lambda batch: (_ for _ in ()).throw(
            TaskFailedError("pool lost"))
        with MatchServingHTTPServer(service) as server:
            body = {"ops": [{"op": "upsert_similarity", "first": "c1",
                             "second": "d1", "score": 0.3, "level": 1}]}
            status, doc, _ = _request(server.url + "/deltas", body=body)
            assert status == 500  # the TaskFailedError itself
            status, doc, headers = _request(server.url + "/deltas",
                                            body=body)
            assert status == 503
            assert "read-only" in doc["error"]
            _assert_retry_after(headers, doc, seconds=30.0)
            assert headers["Retry-After"] == "30"
            status, doc, _ = _request(server.url + "/health")
            assert (status, doc["mode"]) == (200, "read-only")
            # Reads keep working from the last epoch while degraded.
            assert _request(server.url + "/resolve/c2")[0] == 200
        service.drain()

    def test_overloaded_reads_are_429_with_retry_after(self):
        service = MatchService(
            session=StreamSession(MLNMatcher(),
                                  build_shared_coauthor_store()),
            config=ServiceConfig(max_inflight=1, max_waiting=0,
                                 retry_after=0.2)).start()
        occupied = threading.Event()
        release = threading.Event()
        holder = threading.Thread(target=lambda: service.read(
            lambda epoch: (occupied.set(), release.wait(10))))
        holder.start()
        try:
            with MatchServingHTTPServer(service) as server:
                assert occupied.wait(5)
                status, doc, headers = _request(server.url + "/resolve/c1")
                assert status == 429
                # A sub-second hint still advertises a valid, non-zero
                # delay: "0.200" is not an RFC 9110 delay-seconds and stock
                # clients (urllib3.Retry) drop or choke on it.
                _assert_retry_after(headers, doc, seconds=0.2)
                assert headers["Retry-After"] == "1"
        finally:
            release.set()
            holder.join(timeout=10)
            service.drain()
