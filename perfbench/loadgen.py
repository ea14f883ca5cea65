"""Closed-loop load generator for the ``repro serve`` line-JSON TCP protocol.

One process keeps a fixed number of connections open; each sends its
next request as soon as the previous reply arrives, and a request's
latency runs from its send to its reply, on the wall clock and on a
second clock the caller chooses.  The queries are fixed in
advance from the seed.  Traffic crosses the loopback interface only.

Replies are kept as raw bytes and checked against a reference afterwards
(:func:`check_replies`), outside the timed region.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

LOOPBACK = "127.0.0.1"
#: Connections the generator keeps open, each with one request in flight.
CONNECTIONS = 2
#: How long a request may wait for its reply.
REPLY_TIMEOUT_S = 10.0
#: Share of queries that claim a random registry country instead of the
#: host's own claim.
NOVEL_CLAIM_SHARE = 0.1

#: A query: (fleet host id, claimed country or None for the host's own
#: claim).  Host ids, not hostnames, address the fleet: several servers
#: share a hostname, and a name reaches only one of them.
Query = Tuple[int, Optional[str]]


def make_queries(host_ids: Sequence[int], countries: Sequence[str],
                 n: int, rng: np.random.Generator) -> List[Query]:
    """``n`` queries, uniform over the fleet, with the claim mix.

    Every host comes once per cycle, in a fresh seeded order each cycle:
    uniform over the fleet without the clumping of independent draws,
    so each host's (sometimes very slow) re-measurement lands in a run a
    fixed number of times.
    """
    cycles = -(-n // len(host_ids))
    picks = np.concatenate([rng.permutation(len(host_ids))
                            for _ in range(cycles)])[:n]
    novel = rng.random(n) < NOVEL_CLAIM_SHARE
    claims = rng.integers(0, len(countries), size=n)
    return [(int(host_ids[int(h)]), countries[int(c)] if is_novel else None)
            for h, c, is_novel in zip(picks, claims, novel)]


def request_line(query: Query) -> bytes:
    host, claim = query
    return (json.dumps({"host": host, "claim": claim}) + "\n").encode()


Latencies = List[Optional[float]]


def closed_loop(port: int, queries: Sequence[Query],
                clock: Callable[[], float] = time.monotonic,
                connections: int = CONNECTIONS
                ) -> Tuple[float, Latencies, Latencies, List[Optional[bytes]]]:
    """Send ``queries`` closed-loop: each connection waits for its reply.

    Returns the elapsed seconds, each request's latency in ms (send to
    reply) on the wall clock and on ``clock``, and the raw replies; all
    three are None for a request that got no reply.
    """
    latencies: Latencies = [None] * len(queries)
    clocked: Latencies = [None] * len(queries)
    replies: List[Optional[bytes]] = [None] * len(queries)

    def worker(conn: int) -> None:
        try:
            with socket.create_connection((LOOPBACK, port)) as sock:
                sock.settimeout(REPLY_TIMEOUT_S)
                stream = sock.makefile("rb")
                for at in range(conn, len(queries), connections):
                    sent, sent_clock = time.monotonic(), clock()
                    sock.sendall(request_line(queries[at]))
                    line = stream.readline()
                    if not line:
                        return
                    clocked[at] = (clock() - sent_clock) * 1e3
                    latencies[at] = (time.monotonic() - sent) * 1e3
                    replies[at] = line.rstrip(b"\n")
        except OSError:
            return  # the unanswered requests count as failures

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True)
               for conn in range(connections)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.monotonic() - started, latencies, clocked, replies


def reference_verdicts(service, queries: Sequence[Query]) -> Dict[Query, str]:
    """Canonical verdict bytes per distinct query, from an in-process service."""
    distinct = sorted(set(queries), key=lambda q: (q[0], q[1] or ""))
    responses = service.verdict_batch(list(distinct))
    return {query: response.canonical_json()
            for query, response in zip(distinct, responses)}


def reply_matches(reply: Optional[bytes], expected: str) -> bool:
    """Does one TCP reply carry exactly the expected canonical verdict?

    Error replies, shed verdicts and missing replies never match.
    """
    from repro.service.verdict import VerdictResponse

    if reply is None:
        return False
    try:
        payload = json.loads(reply)
    except ValueError:
        return False
    if "error" in payload or payload.get("shed", True):
        return False
    payload.pop("latency_ms", None)
    try:
        response = VerdictResponse(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in payload.items()})
    except TypeError:
        return False
    return response.canonical_json() == expected


def check_replies(queries: Sequence[Query], replies: Sequence[Optional[bytes]],
                  reference: Dict[Query, str]) -> List[bool]:
    """Per request: did its reply arrive and equal the reference?"""
    return [reply_matches(reply, reference[query])
            for query, reply in zip(queries, replies)]
