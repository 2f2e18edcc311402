"""Stdlib HTTP frontend for :class:`~repro.serving.service.MatchService`.

A thin translation layer over :class:`http.server.ThreadingHTTPServer` —
every request handler thread delegates to the service, which owns all of
the robustness machinery (epoch pinning, admission, deadlines, breaker).

Routes::

    GET  /resolve/<entity-id>      canonical representative of the entity
    GET  /cluster/<entity-id>      all members of the entity's cluster
    GET  /same?a=<id>&b=<id>       pairwise same-entity check
    POST /deltas                   submit a change batch (JSON wire format)
    GET  /health                   liveness + mode (always answers)
    GET  /ready                    readiness (503 until recovery completes)
    GET  /metrics                  operational counters; JSON by default,
                                   Prometheus text format 0.0.4 when the
                                   ``Accept`` header asks for ``text/plain``
                                   or ``application/openmetrics-text``

Typed service failures map to distinct statuses: 429 + ``Retry-After``
(shed), 504 (deadline), 503 + ``Retry-After`` (not ready / draining /
read-only), 404 (unknown entity), 400 (malformed request or batch).
``Retry-After`` is whole seconds (rounded up); ``retry_after_seconds`` in
the body is the precise hint.
Every response carries the answering epoch where applicable, so clients
can correlate reads with committed batches.

``POST /deltas`` body: ``{"ops": [<delta records>], "wait": true}`` using
the :func:`repro.streaming.deltas.op_from_dict` wire format.  With
``wait`` (the default) the response reports the commit; with
``"wait": false`` the batch is acknowledged with 202 as soon as it is
accepted into the bounded commit queue.
"""

from __future__ import annotations

import json
import math
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..exceptions import (
    DataModelError,
    DeadlineExceededError,
    DeltaError,
    ServiceOverloadedError,
    ServiceReadOnlyError,
    ServiceUnavailableError,
    UnknownEntityError,
)
from ..obs.exposition import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..streaming.deltas import ChangeBatch, op_from_dict
from .service import MatchService

#: Upper bound on an accepted ``POST /deltas`` body, in bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One request; the owning server carries the service reference."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> MatchService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics endpoint's job

    # ----------------------------------------------------------- responses
    def _send_json(self, status: int, payload: dict,
                   retry_after: Optional[float] = None) -> None:
        if retry_after is not None:
            payload = dict(payload, retry_after_seconds=max(retry_after, 0.0))
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            # RFC 9110 delay-seconds is a whole number.
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str,
                    retry_after: Optional[float] = None) -> None:
        self._send_json(status, {"error": message}, retry_after=retry_after)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _wants_prometheus(self) -> bool:
        """Content negotiation for ``/metrics``: JSON unless the client's
        ``Accept`` header asks for a text (Prometheus/OpenMetrics) scrape."""
        accept = self.headers.get("Accept", "")
        for clause in accept.split(","):
            media = clause.split(";", 1)[0].strip().lower()
            if media in ("text/plain", "application/openmetrics-text"):
                return True
            if media == "application/json":
                return False
        return False

    def _deadline(self) -> Optional[float]:
        """Per-request deadline from the ``X-Deadline`` header (seconds)."""
        raw = self.headers.get("X-Deadline")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise DeltaError(f"X-Deadline is not a number: {raw!r}")
        if not (math.isfinite(value) and value > 0):
            raise DeltaError("X-Deadline must be a positive finite number")
        return value

    def _guarded(self, fn) -> None:
        """Run a route, translating typed failures into status codes."""
        try:
            fn()
        except ServiceOverloadedError as error:
            self._send_error(429, str(error), retry_after=error.retry_after)
        except DeadlineExceededError as error:
            self._send_error(504, str(error))
        except ServiceReadOnlyError as error:
            self._send_error(503, str(error), retry_after=error.retry_after)
        except ServiceUnavailableError as error:
            self._send_error(503, str(error), retry_after=error.retry_after)
        except UnknownEntityError as error:
            self._send_error(404, str(error))
        except (DeltaError, DataModelError) as error:
            self._send_error(400, str(error))
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # pragma: no cover - last-resort 500
            self._send_error(500, f"internal error: {error!r}")

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:
        self._guarded(self._route_get)

    def do_POST(self) -> None:
        self._guarded(self._route_post)

    def _route_get(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = urllib.parse.parse_qs(parsed.query)
        if parts == ["health"]:
            self._send_json(200, self.service.health())
        elif parts == ["ready"]:
            if self.service.ready:
                self._send_json(200, {"ready": True})
            else:
                self._send_json(503, {"ready": False,
                                      "state": self.service.state},
                                retry_after=self.service.config.retry_after)
        elif parts == ["metrics"]:
            if self._wants_prometheus():
                self._send_text(200, self.service.prometheus_metrics(),
                                PROMETHEUS_CONTENT_TYPE)
            else:
                self._send_json(200, self.service.metrics())
        elif len(parts) == 2 and parts[0] == "resolve":
            entity_id = urllib.parse.unquote(parts[1])
            self._send_json(200, self.service.resolve(
                entity_id, deadline_seconds=self._deadline()))
        elif len(parts) == 2 and parts[0] == "cluster":
            entity_id = urllib.parse.unquote(parts[1])
            self._send_json(200, self.service.cluster(
                entity_id, deadline_seconds=self._deadline()))
        elif parts == ["same"]:
            first = query.get("a", [None])[0]
            second = query.get("b", [None])[0]
            if first is None or second is None:
                raise DeltaError("same requires query parameters a= and b=")
            self._send_json(200, self.service.same(
                first, second, deadline_seconds=self._deadline()))
        else:
            self._send_error(404, f"no such route: {parsed.path}")

    def _route_post(self) -> None:
        # Any reply sent before the body is read ends the connection: the
        # unread bytes would otherwise be parsed as the next request line.
        keep_alive, self.close_connection = self.close_connection, True
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path.rstrip("/") != "/deltas":
            self._send_error(404, f"no such route: {parsed.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise DeltaError("Content-Length is not a number")
        if length <= 0:
            raise DeltaError("POST /deltas requires a JSON body")
        if length > MAX_BODY_BYTES:
            raise ServiceOverloadedError(
                f"request body too large ({length} bytes, "
                f"limit {MAX_BODY_BYTES})",
                retry_after=self.service.config.retry_after)
        raw = self.rfile.read(length)
        self.close_connection = keep_alive
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise DeltaError(f"body is not valid JSON: {error}")
        if not isinstance(document, dict) or "ops" not in document:
            raise DeltaError('body must be {"ops": [<delta records>], ...}')
        ops = document["ops"]
        if not isinstance(ops, list) or not ops:
            raise DeltaError("ops must be a non-empty list of delta records")
        batch = ChangeBatch([op_from_dict(record) for record in ops])
        deadline = self._deadline()  # a bad header must not commit the batch
        ticket = self.service.submit_deltas(batch)
        if document.get("wait", True):
            result = ticket.wait(deadline
                                 if deadline is not None
                                 else self.service.config.default_deadline)
            self._send_json(200, {
                "batch": result.batch_index,
                "ops": result.ops,
                "matches": len(result.matches),
                "added": len(result.added),
                "retracted": len(result.retracted),
                "epoch": result.batch_index,
            })
        else:
            self._send_json(202, {"accepted": True,
                                  "queued": self.service.metrics()
                                  ["delta_queue_depth"]})


class MatchServingHTTPServer:
    """Lifecycle wrapper: a threading HTTP server bound to one service."""

    def __init__(self, service: MatchService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MatchServingHTTPServer":
        """Serve in a background thread (the caller's thread stays free for
        the service lifecycle — startup, drain waits, signals)."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="match-serving-http",
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "MatchServingHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
