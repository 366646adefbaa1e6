"""The stdlib HTTP front end of the campaign service.

Endpoints (all JSON; full schema in docs/SERVICE.md):

=======  ==================================  ===============================
method   path                                meaning
=======  ==================================  ===============================
POST     ``/campaigns``                      submit a spec (the request body
                                             is the spec JSON); 200 = served
                                             from the result cache, 202 =
                                             scheduled or coalesced, 400 =
                                             malformed spec
GET      ``/campaigns/<spec_hash>``          result / status; 200 complete,
                                             202 in flight, 404 unknown,
                                             500 failed
GET      ``/campaigns/<spec_hash>/partial``  streamed Wilson-interval
                                             estimate from the live
                                             checkpoint shard
GET      ``/healthz``                        liveness + counters
=======  ==================================  ===============================

Built on ``http.server.ThreadingHTTPServer`` — no dependencies beyond
the stdlib, one thread per connection, all shared state behind the
scheduler's locks and the stores' atomic-rename discipline.
"""

from __future__ import annotations

import copy
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional, Union

from repro.campaigns.executors import Executor
from repro.campaigns.specs import SpecError, Sweep, spec_from_json, spec_hash
from repro.service.scheduler import Scheduler
from repro.service.store import ServiceStore, read_partial

#: Request header naming the submitting tenant (fairness unit).
TENANT_HEADER = "X-Repro-Tenant"
DEFAULT_TENANT = "public"


def _default_executor_factory() -> Callable[[], Executor]:
    from repro import config
    from repro.campaigns.cli import parse_executor
    value = config.service_executor()
    parse_executor(value)  # fail fast on a bad REPRO_SERVICE_EXECUTOR
    return lambda: parse_executor(value)


class ServiceApp:
    """The server's state and request logic, HTTP-free and testable.

    Every handler method returns ``(status_code, document)``; the
    :class:`_Handler` below only routes, reads bodies, and writes JSON.
    """

    def __init__(self, store_dir: Union[str, Path],
                 executor_factory: Optional[Callable[[], Executor]] = None,
                 threads: Optional[int] = None,
                 version: Optional[str] = None,
                 refine: bool = True,
                 verbose: bool = False):
        import repro
        from repro import config
        if executor_factory is None:
            executor_factory = _default_executor_factory()
        if threads is None:
            threads = config.service_threads()
        self.version = version if version is not None else repro.__version__
        self.verbose = verbose
        self.store = ServiceStore(store_dir, version=self.version)
        self.scheduler = Scheduler(self.store, executor_factory,
                                   threads=threads, refine=refine)

    def close(self) -> None:
        self.scheduler.shutdown()

    # ------------------------------------------------------------------
    def submit(self, body: bytes, tenant: str) -> tuple[int, dict]:
        """``POST /campaigns``: cache read, coalesce, or schedule."""
        try:
            spec = spec_from_json(body.decode("utf-8", errors="replace"))
        except SpecError as exc:
            return 400, {"error": str(exc)}
        if isinstance(spec, Sweep):
            return 400, {"error": "sweeps are a client-side loop: submit "
                                  "each grid point as its own campaign"}
        h = spec_hash(spec)
        record = self.store.results.get_hash(h)
        if record is not None:
            return 200, self._complete_doc(h, record, cache_hit=True)
        job, coalesced = self.scheduler.submit(spec, tenant)
        return 202, {
            **job.snapshot(),
            "cache_hit": False,
            "coalesced": coalesced,
            "links": {"status": f"/campaigns/{h}",
                      "partial": f"/campaigns/{h}/partial"},
        }

    def status(self, h: str) -> tuple[int, dict]:
        """``GET /campaigns/<spec_hash>``: the result or job state."""
        # Job first: a job leaves the registry only after its record is
        # stored, so one that completes between the lookups reads as
        # complete here, not unknown.
        job = self.scheduler.job(h)
        record = self.store.results.get_hash(h)
        if record is not None:
            return 200, self._complete_doc(h, record, cache_hit=True)
        if job is None:
            return 404, {"error": f"unknown campaign {h!r}",
                         "spec_hash": h}
        if job.state == "failed":
            return 500, {**job.snapshot(), "error": job.error}
        return 202, job.snapshot()

    def partial(self, h: str) -> tuple[int, dict]:
        """``GET /campaigns/<spec_hash>/partial``: the live estimate."""
        partial = read_partial(self.store.shard_path(h))
        job = self.scheduler.job(h)
        complete = self.store.results.get_hash(h) is not None
        if partial is not None:
            if complete:
                status = "complete"
            elif job is not None:
                status = job.state
            else:
                # A shard with no job and no result: a previous server
                # was interrupted mid-campaign; the next submission
                # resumes exactly here.
                status = "interrupted"
            return 200, {"status": status, "spec_hash": h, **partial}
        if complete:
            # Complete but shardless: an analytic kind, or a cache
            # populated elsewhere.  Nothing to stream.
            return 200, {"status": "complete", "spec_hash": h,
                         "shots_done": None}
        if job is not None:
            return 202, job.snapshot()
        return 404, {"error": f"no partial state for campaign {h!r}",
                     "spec_hash": h}

    def health(self) -> tuple[int, dict]:
        """``GET /healthz``: liveness, version, counters."""
        return 200, {"status": "ok", "version": self.version,
                     "store": str(self.store.root),
                     **self.scheduler.stats()}

    # ------------------------------------------------------------------
    def _complete_doc(self, h: str, record: dict,
                      cache_hit: bool) -> dict:
        result = copy.deepcopy(record["result"])
        provenance = result.get("provenance")
        if isinstance(provenance, dict):
            provenance["cache_hit"] = cache_hit
        return {"status": "complete", "spec_hash": h,
                "version": record.get("version"),
                "cache_hit": cache_hit, "result": result}


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two sends; with Nagle's algorithm on, a
    # keep-alive client's delayed ACK would hold each body back ~40 ms.
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/healthz":
            self._send(*self.app.health())
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) == 2 and parts[0] == "campaigns":
            self._send(*self.app.status(parts[1]))
            return
        if len(parts) == 3 and parts[0] == "campaigns" \
                and parts[2] == "partial":
            self._send(*self.app.partial(parts[1]))
            return
        self._send(404, {"error": f"no such route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/campaigns":
            self._send(404, {"error": f"no such route {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0:
            self._send(400, {"error": "request body must be the spec JSON"})
            return
        body = self.rfile.read(length)
        tenant = self.headers.get(TENANT_HEADER, DEFAULT_TENANT).strip() \
            or DEFAULT_TENANT
        self._send(*self.app.submit(body, tenant))

    def log_message(self, format: str, *args: object) -> None:
        if self.app.verbose:
            super().log_message(format, *args)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer carrying its :class:`ServiceApp`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], app: ServiceApp):
        super().__init__(address, _Handler)
        self.app = app


def make_server(app: ServiceApp, host: str = "127.0.0.1",
                port: int = 0) -> ServiceHTTPServer:
    """Bind the service (``port=0`` picks a free port, for tests)."""
    return ServiceHTTPServer((host, port), app)


def serve(store_dir: Union[str, Path], host: str, port: int,
          executor_factory: Optional[Callable[[], Executor]] = None,
          threads: Optional[int] = None, verbose: bool = True) -> None:
    """Run the campaign server until interrupted (the CLI entry point)."""
    import sys
    app = ServiceApp(store_dir, executor_factory=executor_factory,
                     threads=threads, verbose=verbose)
    server = make_server(app, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro service v{app.version} on http://{bound_host}:{bound_port} "
          f"(store: {app.store.root})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.close()
