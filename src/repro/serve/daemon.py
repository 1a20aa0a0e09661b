"""The ``qpt serve`` daemon: a local HTTP shell around the service.

Stdlib only (:mod:`http.server`), bound to loopback by default, one
handler thread per connection (builds themselves serialize on the
service's build lock — the threads exist so health checks and stats
never queue behind a build). Endpoints:

``POST /v1/batch``
    One protocol envelope in, one out (:mod:`repro.serve.protocol`).
    Malformed requests get 400 with a JSON error body; an overloaded
    service answers 429 (admission control) — clients should back off
    and retry.

``GET /healthz``
    ``{"ok": true, "version": 1}`` as soon as the socket is up; cheap
    enough for tight readiness polling.

``GET /stats``
    :meth:`~repro.serve.service.SchedulingService.stats` — request and
    latency percentiles, cache tiers, pool state.

``POST /shutdown``
    Acknowledges, then stops the server. On the way out the daemon
    writes the table states its hot models learned back to the store
    (:meth:`~repro.serve.service.SchedulingService.persist_tables`) and
    flushes a ``kind="serve"`` ledger record (when it was started with
    ``--ledger``). A killed daemon does neither.

The daemon prints exactly one ready line to stdout::

    qpt serve: listening on http://127.0.0.1:43211

Port 0 (the default) asks the OS for a free port; the line is how a
parent process learns which. See ``docs/serving.md``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .protocol import PROTOCOL_VERSION, ProtocolError
from .service import AdmissionRefused, SchedulingService, ServiceConfig

#: Loopback only: the daemon trusts its callers with build-sized work.
DEFAULT_HOST = "127.0.0.1"


class ServeHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the shared service."""

    #: suppress the default per-request stderr lines; the service's
    #: recorder and ``/stats`` are the observability story.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> SchedulingService:
        return self.server.service

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._reply(200, {"ok": True, "version": PROTOCOL_VERSION})
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:
        if self.path == "/shutdown":
            self._reply(200, {"ok": True, "stopping": True})
            self.server.request_shutdown()
            return
        if self.path != "/v1/batch":
            self._reply(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, TypeError) as exc:
            self._reply(400, {"error": f"request body is not JSON: {exc}"})
            return
        try:
            self._reply(200, self.service.handle_batch(payload))
        except ProtocolError as exc:
            self._reply(400, {"error": str(exc)})
        except AdmissionRefused as exc:
            self._reply(429, {"error": str(exc)})


class ServeDaemon(ThreadingHTTPServer):
    """The HTTP server plus its service and shutdown choreography."""

    daemon_threads = True

    def __init__(self, service: SchedulingService, host: str = DEFAULT_HOST, port: int = 0):
        super().__init__((host, port), ServeHandler)
        self.service = service
        self._stop_thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def request_shutdown(self) -> None:
        """Stop the serve loop from a handler thread (``shutdown`` would
        deadlock if called synchronously from inside ``serve_forever``)."""
        if self._stop_thread is None:
            self._stop_thread = threading.Thread(target=self.shutdown, daemon=True)
            self._stop_thread.start()


def run_daemon(
    config: ServiceConfig | None = None,
    *,
    host: str = DEFAULT_HOST,
    port: int = 0,
    ledger: bool = False,
    announce=print,
    service: SchedulingService | None = None,
) -> SchedulingService:
    """Serve until ``/shutdown`` (or KeyboardInterrupt), then persist
    the learned table states; returns the service so callers can
    inspect its final stats."""
    service = service or SchedulingService(config)
    with ServeDaemon(service, host, port) as server:
        announce(f"qpt serve: listening on {server.url}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    service.persist_tables()
    if ledger:
        service.flush_ledger()
    return service
