"""The HTTP service skeleton ``repro-server`` and ``repro-gateway`` share.

Both tiers speak one JSON-over-HTTP protocol on one asyncio loop, so
everything that is not a handler lives here, once:

- the protocol's route table (:data:`ROUTES`) and the rule for which
  requests are traced (:func:`_is_traced`);
- the connection loop: per-request read deadline, body cap (413),
  keep-alive, and a quiet exit when :meth:`HttpService.stop` cancels
  an open connection;
- dispatch: one root span per traced request, the trace echoed on the
  response (:meth:`HttpService._stamp_trace`), and exceptions
  translated into JSON error envelopes at one boundary;
- the start/stop lifecycle and the observability endpoints
  ``GET /v1/traces`` and ``GET /v1/logs``;
- :class:`ServiceHandle`, which hosts an app on a background thread.

An app subclasses :class:`HttpService` and supplies the handlers the
route table names, plus hooks: :meth:`~HttpService._on_start` runs
before the socket is bound, :meth:`~HttpService._on_closing` after the
listener closes but before open connections are cancelled, and
:meth:`~HttpService._on_closed` after they are gone.
:meth:`~HttpService._relay_error` translates the exceptions the shared
table does not map, and :meth:`~HttpService._trace_extra` adds fields
to a request's trace record.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, Protocol, Self

from repro.api.solution import Solution
from repro.errors import (
    InvalidProblemError,
    InvalidSolverOptionError,
    SerdeError,
    UnknownSolverError,
)
from repro.obs.log import LogRing, RingHandler, StructuredLogger
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    wants_prometheus,
)
from repro.obs.store import TraceStore
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    SpanCollector,
    TraceContext,
    collecting,
    span,
)
from repro.server.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    read_request,
)
from repro.server.router import Router

#: The protocol both tiers serve: ``(method, path template, handler
#: method name)``.  The gateway forwards each route to the same route
#: on a backend, so one table keeps the two in step.
ROUTES = (
    ("GET", "/healthz", "_health"),
    ("GET", "/metrics", "_metrics_endpoint"),
    ("POST", "/v1/problems", "_register_endpoint"),
    ("GET", "/v1/problems/{pid}", "_get_problem"),
    ("POST", "/v1/problems/{pid}/solve", "_solve_registered"),
    ("POST", "/v1/solve", "_solve_inline"),
    ("POST", "/v1/jobs", "_submit_job"),
    ("GET", "/v1/jobs/{jid}", "_get_job"),
    ("GET", "/v1/jobs/{jid}/solution", "_get_job_solution"),
    ("GET", "/v1/diff", "_diff_jobs"),
    ("GET", "/v1/traces", "_list_traces"),
    ("GET", "/v1/traces/{tid}", "_get_trace"),
    ("GET", "/v1/logs", "_get_logs"),
)

#: Paths outside the trace pipeline: probe/scrape traffic would churn
#: the trace store, and the observability endpoints must not trace
#: themselves.
_UNTRACED_PREFIXES = ("/healthz", "/metrics", "/v1/traces", "/v1/logs")

#: Read-only paths whose GETs skip tracing: async-job status polls
#: arrive tens of times per solve, so tracing them would both dominate
#: the per-request overhead and evict the solve traces an operator
#: actually wants from the recent store.  The job's own ``job.solve``
#: trace (recorded by the server's pump) is the inspectable artifact.
_UNTRACED_GET_PREFIXES = ("/v1/jobs",)


def _is_traced(method: str, path: str) -> bool:
    if path.startswith(_UNTRACED_PREFIXES):
        return False
    return not (method == "GET" and path.startswith(_UNTRACED_GET_PREFIXES))


_BAD_REQUEST_ERRORS = (
    SerdeError,
    InvalidProblemError,
    UnknownSolverError,
    InvalidSolverOptionError,
)


class _NotFound(Exception):
    """Internal: a referenced problem/job/trace id does not exist (→ 404)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables every :class:`HttpService` has; each app's config
    extends it (and sets its own default ``port``)."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (read it back from the
    #: app's ``port`` once started).
    port: int = 0
    #: ``Retry-After`` hint on 429 (server) / 503 (gateway) responses.
    retry_after_seconds: float = 1.0
    #: Per-request read deadline; a peer that stalls mid-request (or a
    #: half-open connection) is dropped instead of pinning the task
    #: forever.  ``None`` disables the deadline.
    read_timeout_seconds: float | None = 30.0
    max_body_bytes: int = MAX_BODY_BYTES
    #: LRU bound on registered problems (the server's catalogues, the
    #: gateway's routing entries and re-registration payloads); an
    #: evicted id 404s and the client simply re-registers —
    #: registration is idempotent by content digest.
    problem_registry_size: int = 4096
    #: Master switch for request tracing + trace retention (structured
    #: logging and the log ring stay on; they replace plain logging).
    observability: bool = True
    #: Requests at or over this wall time are pinned in the slow-trace
    #: store (the slow-solve log).
    slow_trace_threshold_seconds: float = 0.25
    #: LRU bound of the recent-trace store.
    trace_store_size: int = 256
    #: LRU bound of the pinned slow-trace store.
    slow_trace_store_size: int = 64
    #: Bounded in-process log ring served at ``GET /v1/logs``.
    log_ring_size: int = 512

    def validate(self) -> None:
        """Raise :class:`ValueError` for a value no app can run with,
        so a bad flag fails at construction — not later as a wedged
        queue or a registry that evicts every entry it stores."""
        if self.problem_registry_size < 1:
            raise ValueError("problem_registry_size must be >= 1")
        if self.retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be >= 0")
        if self.read_timeout_seconds is not None and self.read_timeout_seconds <= 0:
            raise ValueError("read_timeout_seconds must be > 0 (or None)")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.slow_trace_threshold_seconds < 0:
            raise ValueError("slow_trace_threshold_seconds must be >= 0")
        if self.trace_store_size < 1 or self.slow_trace_store_size < 1:
            raise ValueError("trace store sizes must be >= 1")
        if self.log_ring_size < 1:
            raise ValueError("log_ring_size must be >= 1")


class _ResponseCounter(Protocol):
    def record_response(self, status: int) -> None: ...


class HttpService:
    """The skeleton of one serving app; see the module docstring."""

    #: ``"server"`` or ``"gateway"``: names the root span
    #: (``<role>.request``), the hosting thread and error messages.
    _role: ClassVar[str]
    #: Seconds :meth:`ServiceHandle.start` waits for the socket to bind.
    _STARTUP_TIMEOUT: ClassVar[float]
    _log: ClassVar[StructuredLogger]
    _metrics: _ResponseCounter

    def __init__(self, config: ServiceConfig) -> None:
        config.validate()
        self.config = config
        self.port: int | None = None
        self._conn_tasks: set[asyncio.Task[Any]] = set()
        self._tcp: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._traces = TraceStore(
            recent_size=config.trace_store_size,
            slow_size=config.slow_trace_store_size,
            slow_threshold_seconds=config.slow_trace_threshold_seconds,
        )
        self._log_ring = LogRing(config.log_ring_size)
        self._ring_handler: RingHandler | None = None
        self._node: str | None = None
        self._router = Router()
        for method, template, handler in ROUTES:
            self._router.add(method, template, getattr(self, handler))

    # -- hooks ---------------------------------------------------------

    async def _on_start(self) -> None:
        """Runs on the loop before the socket is bound."""

    async def _on_closing(self) -> None:
        """Runs once the listener is closed, before open connections
        are cancelled."""

    async def _on_closed(self) -> None:
        """Runs after every connection task has finished."""

    def _trace_extra(self, spans: list[Span]) -> dict[str, Any] | None:
        """Extra fields for a finished request's trace record."""
        return None

    def _relay_error(self, request: Request, exc: Exception) -> Response:
        """Translate an exception the shared table does not map; the
        base answers 500 and logs the traceback."""
        self._log.exception(
            "unhandled request error", method=request.method, path=request.path
        )
        return Response.error(500, f"internal {self._role} error")

    # -- protocol helpers ----------------------------------------------

    @staticmethod
    def _require_mapping(body: object) -> Mapping[str, Any]:
        if not isinstance(body, Mapping):
            raise SerdeError("request body must be a JSON object")
        return body

    @classmethod
    def _solve_target(cls, body: object) -> Mapping[str, Any]:
        """A ``/v1/solve`` or ``/v1/jobs`` body: a JSON object with
        exactly one of an inline ``problem`` or a string ``problem_id``."""
        target = cls._require_mapping(body)
        if ("problem" in target) == ("problem_id" in target):
            raise SerdeError(
                "request body needs exactly one of 'problem' or 'problem_id'"
            )
        if "problem_id" in target and not isinstance(target["problem_id"], str):
            raise SerdeError("'problem_id' must be a string")
        return target

    @staticmethod
    def _diff_ids(request: Request) -> tuple[str, str]:
        try:
            return request.query["a"], request.query["b"]
        except KeyError:
            raise SerdeError(
                "diff needs 'a' and 'b' query parameters (job ids)"
            ) from None

    @staticmethod
    def _diff_body(id_a: str, id_b: str, a: Solution, b: Solution) -> dict[str, Any]:
        diff = a.diff(b)
        return {
            "a": id_a,
            "b": id_b,
            "identical": not diff,
            "units_changed": diff.units_changed,
            "added": [list(t) for t in diff.added],
            "removed": [list(t) for t in diff.removed],
        }

    def _metrics_response(self, request: Request, snapshot: dict[str, Any]) -> Response:
        """``/metrics``: the app's snapshot plus the trace store and log
        ring sections, as JSON or Prometheus text."""
        snapshot["traces"] = self._traces.info()
        snapshot["log_ring"] = self._log_ring.info()
        if wants_prometheus(request):
            return Response(
                body=render_prometheus(snapshot).encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        return Response.json(snapshot)

    # -- observability endpoints ---------------------------------------

    async def _list_traces(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError:
            raise SerdeError("'limit' must be an integer") from None
        return Response.json(
            {"traces": self._traces.recent(limit), "info": self._traces.info()}
        )

    async def _get_logs(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "100"))
        except ValueError:
            raise SerdeError("'limit' must be an integer") from None
        level = request.query.get("level")
        return Response.json(
            {
                "entries": self._log_ring.tail(limit, level),
                "ring": self._log_ring.info(),
            }
        )

    # -- connection handling -------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        if not self.config.observability or not _is_traced(
            request.method, request.path
        ):
            return await self._dispatch_inner(request)
        parent = TraceContext.parse(request.headers.get("x-repro-trace"))
        collector = SpanCollector()
        with collecting(collector, parent=parent):
            with span(
                f"{self._role}.request", method=request.method, path=request.path
            ) as root:
                response = await self._dispatch_inner(request)
                root.attributes["status"] = response.status
                if response.status >= 500:
                    root.status = "error"
                    root.error = f"HTTP {response.status}"
        response = self._stamp_trace(response, root.trace_id, root.span_id)
        spans = collector.spans
        record = self._traces.record(
            root, spans, node=self._node, extra=self._trace_extra(spans)
        )
        if record["slow"]:
            self._log.warning(
                "slow request",
                method=request.method,
                path=request.path,
                trace_id=root.trace_id,
                duration_ms=round(record["duration_seconds"] * 1000, 2),
            )
        return response

    @staticmethod
    def _stamp_trace(response: Response, trace_id: str, span_id: str) -> Response:
        """Echo the trace on the response: the header on every reply,
        and ``trace_id`` inside JSON error envelopes so a failure
        report carries its trace handle even through clients that drop
        headers."""
        response.headers[TRACE_HEADER] = f"{trace_id}:{span_id}"
        if response.status >= 400 and response.content_type == "application/json":
            try:
                payload = json.loads(response.body)
            except ValueError:
                return response
            if isinstance(payload, dict) and "trace_id" not in payload:
                payload["trace_id"] = trace_id
                body = json.dumps(payload, sort_keys=True) + "\n"
                response.body = body.encode("utf-8")
        return response

    async def _dispatch_inner(self, request: Request) -> Response:
        routed = self._router.dispatch(request)
        if isinstance(routed, Response):
            response = routed
        else:
            handler, params = routed
            try:
                response = await handler(request, **params)
            except _BAD_REQUEST_ERRORS as exc:
                response = Response.error(400, str(exc), type=type(exc).__name__)
            except _NotFound as exc:
                response = Response.error(404, str(exc))
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                response = self._relay_error(request, exc)
        self._metrics.record_response(response.status)
        return response

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, max_body_bytes=self.config.max_body_bytes),
                        timeout=self.config.read_timeout_seconds,
                    )
                except TimeoutError:
                    break  # stalled or idle peer: drop the connection
                except ProtocolError as exc:
                    response = Response.error(exc.status, str(exc))
                    self._metrics.record_response(response.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.keep_alive
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        # lint: except-ok(client hung up or idled out; nothing to answer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        # lint: except-ok(stop() cancels open connections; end quietly)
        except asyncio.CancelledError:
            # Returning (not re-raising) keeps asyncio's stream callback,
            # which asks the finished task for its exception, from
            # logging a traceback for every kept-alive connection.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Run the start hook, then bind the socket (call on the loop)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self._on_start()
        self._tcp = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        # Node identity (host:bound-port) is per-app, not per-process:
        # embedded servers and gateways can share one process, so the
        # ring handler and trace store stamp records with their
        # owner's identity at record time.
        self._node = f"{self.config.host}:{self.port}"
        self._ring_handler = RingHandler(self._log_ring, node=self._node)
        repro_logger = logging.getLogger("repro")
        repro_logger.addHandler(self._ring_handler)
        # Embedded apps run without configure_logging(); the ring still
        # captures INFO-level operational events (the last-resort
        # console handler stays WARNING+, so stdout is unchanged).
        if repro_logger.getEffectiveLevel() > logging.INFO:
            repro_logger.setLevel(logging.INFO)

    async def stop(self) -> None:
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        await self._on_closing()
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self._on_closed()
        if self._ring_handler is not None:
            logging.getLogger("repro").removeHandler(self._ring_handler)
            self._ring_handler = None

    def request_stop(self) -> None:
        """Thread-safe shutdown signal (used by :class:`ServiceHandle`)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    async def _serve_until_stopped(
        self, on_started: Callable[[Self], None] | None = None
    ) -> None:
        await self.start()
        if on_started is not None:
            on_started(self)
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def serve_forever(self, on_started: Callable[[Self], None] | None = None) -> None:
        """Run the app on a fresh event loop until stopped."""
        asyncio.run(self._serve_until_stopped(on_started=on_started))


class ServiceHandle:
    """An app hosted on a background thread, for tests, examples and
    benchmarks; ``with`` closes it on exit."""

    def __init__(self, app: HttpService, thread: threading.Thread) -> None:
        self.app = app
        self.thread = thread

    @classmethod
    def start(cls, app: HttpService) -> Self:
        """Serve ``app`` on a daemon thread; returns once the socket is
        bound (so :attr:`port` is valid)."""
        name = f"repro-{app._role}"
        started = threading.Event()
        failures: list[BaseException] = []

        def _run() -> None:
            try:
                app.serve_forever(on_started=lambda _app: started.set())
            except BaseException as exc:  # surfaced to the caller below
                failures.append(exc)
                started.set()

        thread = threading.Thread(target=_run, name=name, daemon=True)
        thread.start()
        timeout = app._STARTUP_TIMEOUT
        if not started.wait(timeout=timeout):
            raise RuntimeError(f"{name} did not start within {timeout:g}s")
        if failures:
            raise RuntimeError(f"{name} failed to start") from failures[0]
        return cls(app, thread)

    @property
    def port(self) -> int:
        assert self.app.port is not None
        return self.app.port

    @property
    def base_url(self) -> str:
        return f"http://{self.app.config.host}:{self.port}"

    def close(self, timeout: float = 15.0) -> None:
        self.app.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError(f"repro-{self.app._role} thread did not stop in time")

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["ROUTES", "HttpService", "ServiceConfig", "ServiceHandle"]
