"""The asyncio front end: bounded queues over the verdict service.

Newline-delimited JSON over TCP: each request line is
``{"host": <hostname|host_id>, "claim": <country|null>}`` and each
response line is a full :class:`~repro.service.verdict.VerdictResponse`
serialisation plus the measured ``latency_ms``.  A line that is not a
valid request, or is longer than :data:`REQUEST_LIMIT` bytes, gets an
``{"error": ...}`` reply.

The concurrency story is deliberately simple and bounded:

* arrivals land in one ``asyncio.Queue`` whose size is capped
  (``REPRO_SERVICE_QUEUE_MAX``); when it is full the request is
  immediately *shed* as a degraded verdict instead of queueing without
  bound — overload degrades answers, never latency;
* a single drainer task pulls whatever has accumulated (up to
  ``REPRO_SERVICE_BATCH_MAX``) and evaluates it as **one**
  ``verdict_batch`` call — concurrently-arriving uncached queries
  coalesce into single ``predict_fleet`` sweeps for free.

``time.monotonic`` is used for latency instrumentation only — this is
the one module family where reprolint R002 allows it; verdicts
themselves never read the wall clock.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .verdict import VerdictResponse, VerdictService


#: Longest request line the frontend reads, bytes (asyncio's default
#: stream limit); a longer one is refused with ``RequestTooLarge``.
REQUEST_LIMIT = 2 ** 16


class RequestTooLarge(ValueError):
    """A request line over :data:`REQUEST_LIMIT` bytes."""


def encode_reply(reply: "VerdictResponse | Exception",
                 latency_ms: float) -> bytes:
    """One response line: the verdict, or the error, plus ``latency_ms``."""
    if isinstance(reply, VerdictResponse):
        text = reply.to_json(latency_ms=latency_ms)
    else:
        text = json.dumps({"error": f"{type(reply).__name__}: {reply}",
                           "latency_ms": latency_ms}, sort_keys=True)
    return (text + "\n").encode()


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Read and drop input up to the next newline or the end of input,
    one buffer at a time."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


@dataclass
class FrontendStats:
    """Flat counters over the frontend's lifetime (no per-request state)."""

    requests: int = 0
    responses: int = 0
    shed: int = 0
    errors: int = 0
    batches: int = 0
    max_batch: int = 0


class ServiceFrontend:
    """Bounded-queue micro-batching front end for a `VerdictService`."""

    def __init__(self, service: VerdictService,
                 queue_max: Optional[int] = None,
                 batch_max: Optional[int] = None) -> None:
        from .verdict import _knob_or

        self.service = service
        self.queue_max = _knob_or("REPRO_SERVICE_QUEUE_MAX", queue_max)
        self.batch_max = (batch_max if batch_max is not None
                          else service.batch_max)
        self.stats = FrontendStats()
        self._queue: Optional[asyncio.Queue] = None
        self._drainer: Optional[asyncio.Task] = None

    # -- queue + batching core ------------------------------------------------

    def _ensure_started(self) -> None:
        """Create the bounded queue and drainer inside the running loop."""
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.queue_max)
            self._drainer = asyncio.get_running_loop().create_task(
                self._drain())

    async def enqueue(self, query: Tuple[object, Optional[str]]
                      ) -> VerdictResponse:
        """Queue one query; shed a degraded verdict when over capacity.

        This is the graceful-degradation seam: a full queue means the
        back end is saturated, and the bounded answer is an immediate
        ``degraded`` verdict, not an unbounded wait.
        """
        self._ensure_started()
        assert self._queue is not None
        target, claim = query
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.stats.requests += 1
        try:
            self._queue.put_nowait((query, future))
        except asyncio.QueueFull:
            self.stats.shed += 1
            return VerdictResponse.shed_response(
                hostname=str(target), claim=claim if claim else "",
                epoch_digest=self.service.epoch.digest)
        return await future

    async def _drain(self) -> None:
        """The single batcher: coalesce arrivals, evaluate, resolve."""
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.batches += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            queries = [query for query, _ in batch]
            loop = asyncio.get_running_loop()
            try:
                responses = await loop.run_in_executor(
                    None, self.service.verdict_batch, queries)
            except Exception as exc:  # noqa: BLE001 - resolved per future
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (_, future), response in zip(batch, responses):
                if not future.done():
                    future.set_result(response)
                self.stats.responses += 1

    # -- TCP protocol ---------------------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One connection: a JSON request per line, a JSON verdict back.

        A line longer than :data:`REQUEST_LIMIT` gets a ``RequestTooLarge``
        error reply; the rest of that line is read and dropped, and the
        connection is closed.
        """
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # the last line, without a newline
                except asyncio.LimitOverrunError:
                    self.stats.errors += 1
                    writer.write(encode_reply(RequestTooLarge(
                        f"request line exceeds {REQUEST_LIMIT} bytes"), 0.0))
                    await writer.drain()
                    await _skip_line(reader)
                    break
                if not line:
                    break
                started = time.monotonic()
                reply: "VerdictResponse | Exception"
                try:
                    request = json.loads(line)
                    target = request["host"]
                    claim = request.get("claim")
                    reply = await self.enqueue((target, claim))
                except Exception as exc:  # noqa: BLE001 - sent to the client
                    self.stats.errors += 1
                    reply = exc
                writer.write(encode_reply(reply, round(
                    (time.monotonic() - started) * 1e3, 3)))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # server teardown mid-connection is a normal exit
        finally:
            writer.close()

    async def serve(self, host: str = "127.0.0.1", port: int = 0,
                    ready: Optional[asyncio.Event] = None,
                    max_requests: Optional[int] = None) -> None:
        """Accept connections until cancelled (or ``max_requests`` served).

        ``port=0`` binds an ephemeral port; the bound address is stored
        on ``self.bound`` once listening (and ``ready`` is set, for
        tests that need to connect as soon as the socket exists).
        """
        self._ensure_started()
        server = await asyncio.start_server(self.handle, host, port,
                                            limit=REQUEST_LIMIT)
        self.bound = server.sockets[0].getsockname()
        if ready is not None:
            ready.set()
        async with server:
            if max_requests is None:
                await server.serve_forever()
            else:
                while self.stats.responses + self.stats.shed \
                        + self.stats.errors < max_requests:
                    await asyncio.sleep(0.01)

    def close(self) -> None:
        """Cancel the drainer task (pending futures are abandoned)."""
        if self._drainer is not None:
            self._drainer.cancel()
            self._drainer = None
        self._queue = None


def serve_blocking(service: VerdictService, host: str = "127.0.0.1",
                   port: int = 8737, queue_max: Optional[int] = None,
                   batch_max: Optional[int] = None,
                   max_requests: Optional[int] = None) -> FrontendStats:
    """Run a frontend until interrupted; the ``repro serve`` entry point."""
    frontend = ServiceFrontend(service, queue_max=queue_max,
                               batch_max=batch_max)

    async def _run() -> None:
        ready = asyncio.Event()
        task = asyncio.get_running_loop().create_task(
            frontend.serve(host=host, port=port, ready=ready,
                           max_requests=max_requests))
        await ready.wait()
        print(f"listening on {frontend.bound[0]}:{frontend.bound[1]}",
              flush=True)
        await task

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return frontend.stats
