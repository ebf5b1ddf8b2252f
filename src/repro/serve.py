"""Live results service: HTTP/SSE front end over the view aggregator.

``python -m repro.serve`` runs an experiment grid with a
:class:`~repro.experiments.aggregate.ViewAggregator` attached and
serves its materialized views over plain HTTP while the grid is still
running — the "heavy traffic" read tier (DESIGN.md §14).  Pure stdlib
asyncio: one event loop on a daemon thread, hand-rolled HTTP/1.1, no
dependencies.

Endpoints:

* ``GET /views``          — the full current snapshot
  (``{"version", "done", "views": {...}}``), canonical JSON;
* ``GET /views/<name>``   — one view body (404 for unknown names);
* ``GET /events``         — Server-Sent Events: one ``snapshot`` event
  (the full state at connect time), then one ``delta`` event per new
  snapshot version (``{"version", "changed", "views": {changed-name:
  body}, "done"}``) — a reader replaces the changed views wholesale
  and is always exactly one atomic version, never a torn one;
* ``GET /healthz``        — liveness + version/done/result counters.

The read path touches only immutable :class:`~repro.experiments.
aggregate.ViewSnapshot` objects — many concurrent readers cost the
compute path nothing but the ``call_soon_threadsafe`` trampoline per
published delta.

Wiring options:

* ``REPRO_SERVE=1`` — every ``run_plan`` serves itself for the
  duration of the plan (:func:`autoserve`, port ``REPRO_SERVE_PORT``);
* ``run_plan(..., sink=aggregator)`` with a caller-owned
  :class:`ViewServer` — how this CLI does it;
* ``REPRO_VIEWS`` — comma-separated view subset (default: all).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import pathlib
import threading
import time

from repro import obs, settings
from repro.experiments.aggregate import (
    ALL_VIEWS,
    ViewAggregator,
    canonical_json,
    views_from_env,
)

__all__ = ["ViewServer", "autoserve", "main"]

#: Queue sentinel: the server is shutting down, close the SSE stream.
_SHUTDOWN = object()


class ViewServer:
    """Asyncio HTTP/SSE server over one aggregator, on its own thread.

    ``start()`` blocks until the socket is bound (``port=0`` resolves
    to the ephemeral port actually bound, readable as ``self.port``)
    and subscribes to the aggregator; ``stop()`` broadcasts a shutdown
    to every SSE client, grants them a short grace to flush, and joins
    the loop thread.  All client state lives on the loop thread; the
    only cross-thread traffic is the aggregator's delta callback
    trampolining through ``call_soon_threadsafe``.
    """

    def __init__(self, aggregator: ViewAggregator, *,
                 host: str = "127.0.0.1",
                 port: "int | None" = None) -> None:
        self.aggregator = aggregator
        self.host = host
        self.port = settings.current().serve_port if port is None \
            else int(port)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._clients: "set[asyncio.Queue]" = set()  # loop thread only
        self._unsubscribe = None
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("view server failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        self._unsubscribe = self.aggregator.subscribe(self._on_delta)

    def stop(self, grace: float = 0.25) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        loop = self._loop
        if loop is not None and not loop.is_closed():
            def _begin_shutdown() -> None:
                loop.create_task(self._shutdown(grace))
            try:
                loop.call_soon_threadsafe(_begin_shutdown)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port))
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._server = server
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            loop.close()

    async def _shutdown(self, grace: float) -> None:
        self._broadcast(_SHUTDOWN)
        await asyncio.sleep(grace)  # let SSE handlers flush and close
        asyncio.get_running_loop().stop()

    # -- aggregator -> clients -----------------------------------------------

    def _on_delta(self, delta: dict) -> None:
        """Aggregator callback (compute thread): trampoline to the loop."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._broadcast, delta)
        except RuntimeError:
            pass  # shutting down

    def _broadcast(self, delta) -> None:
        for queue in list(self._clients):
            queue.put_nowait(delta)

    # -- HTTP ----------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=10)
            parts = request.decode("ascii", errors="replace").split()
            if len(parts) < 2:
                return
            method, path = parts[0], parts[1]
            while True:  # drain headers; bodies are not accepted
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                if line in (b"\r\n", b"\n", b""):
                    break
            if method != "GET":
                self._respond(writer, 405, {"error": "method not allowed"})
            elif path == "/events":
                await self._sse(writer)
            else:
                self._route(writer, path)
            await writer.drain()
        except (ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _route(self, writer: asyncio.StreamWriter, path: str) -> None:
        snapshot = self.aggregator.snapshot()
        if path in ("/", "/healthz"):
            status = snapshot.views.get("status") or {}
            self._respond(writer, 200, {
                "ok": True, "version": snapshot.version,
                "done": snapshot.done,
                "results": status.get("done"),
                "total": status.get("total")})
        elif path == "/views":
            self._raw(writer, 200, snapshot.to_json())
        elif path.startswith("/views/"):
            name = path[len("/views/"):]
            if name in snapshot.views:
                self._raw(writer, 200, canonical_json({
                    "version": snapshot.version, "name": name,
                    "view": snapshot.views[name]}))
            else:
                self._respond(writer, 404, {
                    "error": f"unknown view {name!r}",
                    "views": sorted(snapshot.views)})
        else:
            self._respond(writer, 404, {"error": f"no route {path!r}",
                                        "routes": ["/views",
                                                   "/views/<name>",
                                                   "/events", "/healthz"]})

    @staticmethod
    def _raw(writer: asyncio.StreamWriter, status: int,
             body: str) -> None:
        data = body.encode() + b"\n"
        reason = {200: "OK", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode() + data)

    @classmethod
    def _respond(cls, writer: asyncio.StreamWriter, status: int,
                 body: dict) -> None:
        cls._raw(writer, status, canonical_json(body))

    async def _sse(self, writer: asyncio.StreamWriter) -> None:
        """One Server-Sent-Events reader: snapshot, then deltas.

        The queue registers *before* the snapshot is read, so no
        version can fall between them: deltas already included in the
        snapshot are dropped by the version filter, and anything newer
        arrives queued.  Readers reconstruct by replacing each delta's
        changed views — monotone convergence to the producer's state.
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._clients.add(queue)
        try:
            snapshot = self.aggregator.snapshot()
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Cache-Control: no-cache\r\n"
                         b"Connection: close\r\n\r\n")
            payload = {"version": snapshot.version, "done": snapshot.done,
                       "views": snapshot.views}
            writer.write(b"event: snapshot\ndata: "
                         + canonical_json(payload).encode() + b"\n\n")
            await writer.drain()
            version = snapshot.version
            while True:
                delta = await queue.get()
                if delta is _SHUTDOWN:
                    writer.write(b"event: bye\ndata: {}\n\n")
                    await writer.drain()
                    return
                if delta["version"] <= version:
                    continue  # already inside the connect-time snapshot
                version = delta["version"]
                writer.write(b"event: delta\ndata: "
                             + canonical_json(delta).encode() + b"\n\n")
                await writer.drain()
        finally:
            self._clients.discard(queue)


@contextlib.contextmanager
def autoserve():
    """The ``REPRO_SERVE=1`` wiring for one ``run_plan`` call.

    Builds an aggregator (``REPRO_VIEWS`` selection), serves it on
    ``REPRO_SERVE_PORT`` for the duration of the plan, and yields the
    aggregator as the scheduler's sink.  On exit the final snapshot is
    marked done and the server stops — use ``python -m repro.serve``
    when the views should outlive the grid.
    """
    aggregator = ViewAggregator(views=views_from_env())
    server = ViewServer(aggregator)
    server.start()
    obs.emit("serve", kind="view", attrs={"url": server.url})
    try:
        yield aggregator
    finally:
        aggregator.mark_done()
        server.stop()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run an experiment grid and serve its materialized "
                    "views live over HTTP/SSE")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="listen port (default REPRO_SERVE_PORT or "
                             "8765; 0 = ephemeral)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmarks (default: all)")
    parser.add_argument("--configurations", default=None,
                        help="comma-separated configurations "
                             "(default: the paper's four)")
    parser.add_argument("--depths", default="20",
                        help="comma-separated pipeline depths")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--speculation", default="redirect",
                        choices=("redirect", "wrongpath"))
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--backend", default=None,
                        help="serial | local | queue (default: auto)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--output", default=None,
                        help="write the final snapshot JSON here")
    parser.add_argument("--linger", type=float, default=0.0,
                        help="keep serving this many seconds after the "
                             "grid completes")
    args = parser.parse_args(argv)

    from repro.experiments.runner import CONFIGURATIONS, run_suite
    from repro.workloads.registry import BENCHMARKS

    benchmarks = tuple(
        part.strip() for part in args.benchmarks.split(",")
        if part.strip()) if args.benchmarks else BENCHMARKS
    configurations = tuple(
        part.strip() for part in args.configurations.split(",")
        if part.strip()) if args.configurations else CONFIGURATIONS
    depths = tuple(int(part) for part in args.depths.split(",")
                   if part.strip())

    aggregator = ViewAggregator(views=views_from_env())
    server = ViewServer(aggregator, host=args.host, port=args.port)
    server.start()
    print(f"serving views on {server.url} "
          f"(GET /views, /views/<name>, /events, /healthz)", flush=True)
    try:
        run_suite(configurations, depths=depths, benchmarks=benchmarks,
                  scale=args.scale, warmup=args.warmup,
                  speculation=args.speculation, jobs=args.jobs,
                  backend=args.backend, use_cache=not args.no_cache,
                  sink=aggregator)
        aggregator.mark_done()
        snapshot = aggregator.snapshot()
        if args.output:
            pathlib.Path(args.output).write_text(
                snapshot.to_json() + "\n", encoding="utf-8")
        status = snapshot.views.get("status") or {}
        print(f"grid complete: {status.get('done', len(snapshot.views))} "
              f"result(s), snapshot version {snapshot.version}",
              flush=True)
        if args.linger > 0:
            time.sleep(args.linger)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
