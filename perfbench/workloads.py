"""The benchmark's workloads: ``campaign-cold`` and ``serve-churn``.

Each workload function takes a :class:`Context` (checkout root, a fresh
work directory, seed, measuring seconds) and returns an
:class:`Outcome`: the end-to-end metrics of an untraced run, or — with
``trace`` — the per-layer metrics of a traced run together with the
untraced run it is compared against for the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import layers, loadgen, procs
from perfbench.spans import load_dump, self_times, wrapper_cost_s
from perfbench.stats import LATENCY_LIMIT_MS, percentile, summary


@dataclass
class Context:
    root: str
    work: str
    seed: int
    seconds: float


@dataclass
class Outcome:
    #: Metric name -> value (units are in ``BENCHMARK.json``).
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Everything else worth keeping: per-metric summaries, per-server and
    #: per-process figures, provenance.
    details: Dict[str, object] = field(default_factory=dict)


def _fresh_dir(ctx: Context, prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=ctx.work)


def _figures(spans_path: str) -> Dict[str, Dict[str, float]]:
    """One traced process: per-span self seconds and dumped values."""
    arrays, values = load_dump(spans_path)
    return {"self": self_times(**arrays), "values": values,
            "spans": len(arrays["span_id"])}


# -- campaign-cold ------------------------------------------------------------

#: Fleet servers a campaign audits: a prefix of the paper-scale fleet
#: (2,400+ servers).  The substrate stays paper scale — every shard
#: process still calibrates all ~1,055 landmarks — and 1,000 servers
#: give the time-to-record p99 its ten samples beyond.
CAMPAIGN_MAX_SERVERS = 1000
CAMPAIGN_SHARDS = 2
#: The paper-scale scenario every campaign audits: the one ``repro
#: campaign --paper-scale`` builds by default.  The run's seed drives
#: the campaign's random streams (``seed=`` of the campaign calls) over
#: it.  Scenarios of other seeds differ in size and in work per server:
#: over ten seeds, ``servers_per_s`` of the same seed correlated 0.8
#: across two sets of runs, so much of a set's spread came with the seed.
CAMPAIGN_SCENARIO_SEED = 0
#: A false-precision floor the merged report must meet (paper: ≥ 0.9).
FALSE_PRECISION_FLOOR = 0.9
CHILD_TIMEOUT_S = 150.0


def _campaign_once(ctx: Context, traced: bool) -> Dict[str, object]:
    """One sharded campaign: shard 0, shard 1, merge — three processes."""
    run_dir = _fresh_dir(ctx, "campaign-")
    journal_dir = os.path.join(run_dir, "journal")
    os.makedirs(journal_dir)
    env = procs.child_env(ctx.root, ctx.work, {
        "REPRO_PATHENGINE_CACHE": os.path.join(run_dir, "pathengine")})
    phases = [("shard", index) for index in range(CAMPAIGN_SHARDS)]
    phases.append(("merge", 0))
    processes: List[Dict[str, object]] = []
    for phase, index in phases:
        tag = f"{phase}{index}" if phase == "shard" else phase
        out = os.path.join(run_dir, f"{tag}.json")
        argv = procs.python_argv(
            "-m", "perfbench.campaign_child", "--phase", phase,
            "--shard-index", str(index), "--shards", str(CAMPAIGN_SHARDS),
            "--scenario-seed", str(CAMPAIGN_SCENARIO_SEED),
            "--seed", str(ctx.seed),
            "--max-servers", str(CAMPAIGN_MAX_SERVERS),
            "--journal-dir", journal_dir, "--out", out)
        spans = os.path.join(run_dir, f"{tag}.npz") if traced else None
        if spans:
            argv += ["--spans", spans]
        spawned, exited, maxrss_kib, cpu_s = procs.run_timed(
            argv, env, ctx.root, os.path.join(run_dir, f"{tag}.log"),
            CHILD_TIMEOUT_S)
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result.update(phase=tag, spawned=spawned, exited=exited,
                      rss_mib=maxrss_kib / 1024.0, cpu_s=cpu_s, spans=spans)
        processes.append(result)
    started = processes[0]["spawned"]
    merged = os.path.join(journal_dir, "campaign.jsonl")
    with open(merged, "rb") as handle:
        merged_records = sum(1 for _ in handle) - 1  # minus the header
    journal_bytes = sum(os.path.getsize(os.path.join(journal_dir, name))
                        for name in os.listdir(journal_dir))
    return {
        "processes": processes,
        "wall_s": processes[-1]["exited"] - started,
        "setup_s": sum(p["built"] - p["spawned"] for p in processes),
        # Time to record: from the start of the record's shard process,
        # which is what a shard's operator waits however the shards are
        # spread over time and machines.
        "record_ms": [(stamp - p["spawned"]) * 1e3 for p in processes
                      for stamp in p["tallied"]],
        "cpu_s": sum(p["cpu_s"] for p in processes),
        "setup_cpu_s": sum(p["built_cpu"] for p in processes),
        "record_cpu_ms": [stamp * 1e3 for p in processes
                          for stamp in p["tallied_cpu"]],
        "n_servers": processes[0]["n_servers"],
        "fleet_size": processes[0]["fleet_size"],
        "merged_records": merged_records,
        "journal_bytes": journal_bytes,
        "report": processes[-1]["report"],
        "pathengine_dir": env["REPRO_PATHENGINE_CACHE"],
    }


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _cache_path(ctx: Context, name: str) -> str:
    """A ``perfbench/.cache`` file keyed by the program's source digest."""
    cache_dir = os.path.join(ctx.root, "perfbench", ".cache")
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, f"{_source_digest(ctx.root)}-{name}.json")


def _store(ctx: Context, name: str, value) -> None:
    path = _cache_path(ctx, name)
    with open(path + ".partial", "w", encoding="utf-8") as handle:
        json.dump(value, handle)
    os.replace(path + ".partial", path)


def _cached(ctx: Context, name: str, compute):
    """``compute()``'s JSON value, computed once per source digest."""
    path = _cache_path(ctx, name)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    value = compute()
    _store(ctx, name, value)
    return value


def _campaign_key(ctx: Context) -> str:
    return f"s{CAMPAIGN_SCENARIO_SEED}-{ctx.seed}-{CAMPAIGN_MAX_SERVERS}"


def _campaign_reference(ctx: Context, pathengine_dir: str) -> str:
    """``single_shot_report(...).to_json()`` for this seed and fleet cap,
    computed in its own process after the timed campaign (and kept per
    source digest, seed and cap)."""
    def compute():
        run_dir = _fresh_dir(ctx, "reference-")
        out = os.path.join(run_dir, "reference.json")
        env = procs.child_env(ctx.root, ctx.work,
                              {"REPRO_PATHENGINE_CACHE": pathengine_dir})
        procs.run_timed(procs.python_argv(
            "-m", "perfbench.campaign_child", "--phase", "reference",
            "--scenario-seed", str(CAMPAIGN_SCENARIO_SEED),
            "--seed", str(ctx.seed),
            "--max-servers", str(CAMPAIGN_MAX_SERVERS),
            "--journal-dir", run_dir, "--out", out),
            env, ctx.root, os.path.join(run_dir, "reference.log"),
            CHILD_TIMEOUT_S)
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)["report"]
    return _cached(ctx, f"campaign-reference-{_campaign_key(ctx)}", compute)


def campaign_failures(campaign: Dict[str, object], reference: str) -> int:
    """Servers counted failed: missing records, or all of them when the
    merged report is wrong in any way."""
    expected = campaign["n_servers"]
    failed = max(0, expected - campaign["merged_records"])
    report = json.loads(campaign["report"])
    if (campaign["report"] != reference
            or report["n_servers"] != expected
            or report["ground_truth"]["false_precision"]
            < FALSE_PRECISION_FLOOR):
        failed = expected
    return failed


def _clock_figures(campaigns: Sequence[Dict[str, object]],
                   failures: Sequence[int], clock: str) -> Dict[str, object]:
    """Set-up, rates and time-to-record on one clock: ``"cpu"`` (the
    campaign processes' CPU seconds) or ``"wall"``."""
    suffix = "_cpu" if clock == "cpu" else ""
    total = "cpu_s" if clock == "cpu" else "wall_s"
    setups = [c[f"setup{suffix}_s"] for c in campaigns]
    busy = [c[total] - setup for c, setup in zip(campaigns, setups)]
    record_ms = [ms for c in campaigns for ms in c[f"record{suffix}_ms"]]
    p99 = percentile(record_ms, 0.99)
    return {
        "setup_s": setups,
        "servers_per_s": [c["n_servers"] / b for c, b in zip(campaigns, busy)],
        "goodput_rps": [(c["n_servers"] - f) / b
                        for c, f, b in zip(campaigns, failures, busy)],
        "time_to_record_ms": record_ms,
        "p50_ms": percentile(record_ms, 0.5),
        "p99_ms": p99 if p99 is not None else max(record_ms),
        "p99_supported": p99 is not None,
    }


def _campaign_e2e(campaigns: Sequence[Dict[str, object]],
                  failures: Sequence[int]) -> Tuple[Dict[str, float], Dict]:
    """End-to-end metrics on the campaign's CPU clock.

    The campaign's processes run one at a time with ``workers=1``, so on
    a quiet host their CPU seconds match the wall clock; unlike it, they
    leave out time the host's hypervisor gives to other guests.  The
    wall-clock figures are kept in the details.
    """
    rss = [p["rss_mib"] for c in campaigns for p in c["processes"]]
    clocks = {clock: _clock_figures(campaigns, failures, clock)
              for clock in ("cpu", "wall")}
    cpu = clocks["cpu"]
    metrics = {
        "setup_s": statistics.median(cpu["setup_s"]),
        "servers_per_s": statistics.median(cpu["servers_per_s"]),
        "p50_ms": cpu["p50_ms"],
        "p99_ms": cpu["p99_ms"],
        "goodput_rps": statistics.median(cpu["goodput_rps"]),
        "peak_rss_mib": max(rss),
    }
    details = {
        "fleet": {"fleet_size": campaigns[0]["fleet_size"],
                  "servers_audited": campaigns[0]["n_servers"],
                  "max_servers": CAMPAIGN_MAX_SERVERS,
                  "scenario_seed": CAMPAIGN_SCENARIO_SEED,
                  "shards": CAMPAIGN_SHARDS, "workers": 1},
        "peak_rss_mib": summary(rss),
        "campaigns": [{
            "wall_s": c["wall_s"], "setup_s": c["setup_s"],
            "cpu_s": c["cpu_s"], "setup_cpu_s": c["setup_cpu_s"],
            "n_servers": c["n_servers"], "fleet_size": c["fleet_size"],
            "journal_bytes": c["journal_bytes"],
            "processes": [{
                "phase": p["phase"],
                "wall_s": p["exited"] - p["spawned"],
                "setup_s": p["built"] - p["spawned"],
                "cpu_s": p["cpu_s"], "setup_cpu_s": p["built_cpu"],
                "rss_mib": p["rss_mib"]} for p in c["processes"]],
        } for c in campaigns],
    }
    for clock, figures in clocks.items():
        details[f"{clock}_clock"] = {
            name: summary(value) if isinstance(value, list) else value
            for name, value in figures.items()}
    return metrics, details


def campaign_cold(ctx: Context, trace: bool) -> Outcome:
    """Whole sharded campaigns, repeated until ``seconds`` have passed.

    A traced run makes one traced campaign.  The untraced campaign it is
    compared with is the latest untraced run of the same seed in this
    checkout (kept in ``perfbench/.cache``), or a fresh one when there
    is none.
    """
    untraced_key = f"campaign-untraced-{_campaign_key(ctx)}"
    if trace:
        return _campaign_traced(ctx, untraced_key)
    started = time.monotonic()
    campaigns = [_campaign_once(ctx, traced=False)]
    while time.monotonic() - started < ctx.seconds:
        campaigns.append(_campaign_once(ctx, traced=False))
    reference = _campaign_reference(ctx, campaigns[0]["pathengine_dir"])
    failures = [campaign_failures(c, reference) for c in campaigns]
    metrics, details = _campaign_e2e(campaigns, failures)
    details["failures"] = failures
    _store(ctx, untraced_key, {
        "metrics": metrics,
        "cpu_s": statistics.median(c["cpu_s"] for c in campaigns)})
    return Outcome(metrics, campaigns[0]["n_servers"] * len(campaigns),
                   sum(failures), details)


def _campaign_traced(ctx: Context, untraced_key: str) -> Outcome:
    traced = _campaign_once(ctx, traced=True)
    reference = _campaign_reference(ctx, traced["pathengine_dir"])
    failed = campaign_failures(traced, reference)
    figures = [_figures(p["spans"]) for p in traced["processes"]]
    traced_metrics, traced_details = _campaign_e2e([traced], [failed])

    baseline_path = _cache_path(ctx, untraced_key)
    if os.path.exists(baseline_path):
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        overhead = {
            "basis": "the latest untraced run of this seed",
            "untraced": baseline["metrics"], "traced": traced_metrics,
            "difference": {k: traced_metrics[k] - baseline["metrics"][k]
                           for k in traced_metrics}}
        overhead_ratio = traced["cpu_s"] / baseline["cpu_s"] - 1.0
    else:
        # No untraced run of this seed yet, and a fresh one would push
        # the run past its time limit: estimate from the span count.
        spans = sum(f["spans"] for f in figures)
        cost_s = spans * wrapper_cost_s()
        overhead = {"basis": "span count x wrapper cost", "spans": spans,
                    "estimated_s": cost_s, "traced": traced_metrics}
        overhead_ratio = cost_s / (traced["cpu_s"] - cost_s)

    per_layer = layers.layer_metrics(figures)
    # Interpreter shutdown (after the child's last clock read) counts as
    # a named part of the wall; installing and dumping the spans does not
    # count at all, since an untraced process does neither.
    exits = [p["exited"] - p["finished"] for p in traced["processes"]]
    coverages = {p["phase"]: layers.covered_share(
        f, p["exited"] - p["spawned"] - p["tracing_s"], exit_s)
        for p, f, exit_s in zip(traced["processes"], figures, exits)}
    per_layer["trace.coverage"] = min(coverages.values())
    per_layer["journal.bytes"] = float(traced["journal_bytes"])
    per_layer["process.exit_s"] = sum(exits)
    per_layer["trace.overhead_ratio"] = overhead_ratio
    per_layer["failed_ratio"] = failed / traced["n_servers"]
    details = {
        "fleet": traced_details["fleet"],
        "coverage_by_process": coverages,
        "overhead": overhead,
        "traced_campaign": traced_details,
        "self_seconds_by_process": {p["phase"]: f["self"] for p, f in
                                    zip(traced["processes"], figures)},
    }
    return Outcome(per_layer, traced["n_servers"], failed, details)


# -- serve-churn --------------------------------------------------------------

#: ``repro serve`` arguments besides ``--port``.  The server starts
#: without ``--warm``: with fewer cache slots than fleet servers, the warm
#: batch evicts its own measurements before reading them back and the
#: server exits.  The benchmark fills the cache over TCP instead.
CHURN_SERVER_ARGS = ("--cache-slots", "128")
#: Server start-ups per run; ``setup_s`` is their median.
SETUP_STARTS = 3
#: Closed-loop requests per second of ``--seconds`` (about the throughput
#: at HEAD), rounded to whole cycles over the fleet so every server is
#: queried equally often.
CHURN_REQUESTS_PER_S = 170.0


def _server_argv(spans: Optional[str],
                 max_requests: Optional[int]) -> List[str]:
    args = ["serve", "--port", "0", *CHURN_SERVER_ARGS]
    if max_requests is not None:
        args += ["--max-requests", str(max_requests)]
    if spans is None:
        return procs.python_argv("-m", "repro", *args)
    return procs.python_argv("-m", "perfbench.serve_child", spans, *args)


def _service_fleet(ctx: Context) -> Tuple[List[int], List[str]]:
    """Fleet host ids and registry country codes of the served scenario."""
    def compute():
        from repro.experiments import default_scenario
        scenario = default_scenario()
        return {"host_ids": [s.host.host_id for s in scenario.all_servers()],
                "countries": scenario.registry.codes()}
    fleet = _cached(ctx, "serve-fleet", compute)
    return fleet["host_ids"], fleet["countries"]


def _serve_reference(ctx: Context, queries: Sequence[loadgen.Query]
                     ) -> Dict[loadgen.Query, str]:
    """Reference verdict bytes for every query of this run.

    Computed in this (the generator's) process by a ``VerdictService``
    over the same scenario and seed as the server, before any server
    starts; kept per (source digest, query set).
    """
    distinct = sorted(set(queries), key=lambda q: (q[0], q[1] or ""))
    key = hashlib.sha256(json.dumps(distinct).encode()).hexdigest()[:16]

    def compute():
        from repro.experiments import default_scenario
        from repro.service import VerdictService
        # Enough slots never to evict: each host is measured once.
        service = VerdictService(default_scenario(), seed=0,
                                 cache_slots=1 << 20)
        verdicts = loadgen.reference_verdicts(service, distinct)
        return [[host, claim, text]
                for (host, claim), text in verdicts.items()]
    rows = _cached(ctx, f"serve-reference-{key}", compute)
    return {(host, claim): text for host, claim, text in rows}


@dataclass
class _Phase:
    """A closed-loop pass over ``queries`` and what came back."""

    queries: List[loadgen.Query]
    elapsed_s: float = 0.0
    #: CPU seconds the server used during the pass.
    cpu_s: float = 0.0
    #: Each request's latency on the wall clock, and on the server's CPU
    #: clock: the server CPU time that passed between send and reply.
    latencies_ms: loadgen.Latencies = field(default_factory=list)
    cpu_latencies_ms: loadgen.Latencies = field(default_factory=list)
    replies: List[Optional[bytes]] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)

    def run(self, server: procs.Server) -> None:
        cpu = server.cpu_s()
        (self.elapsed_s, self.latencies_ms, self.cpu_latencies_ms,
         self.replies) = loadgen.closed_loop(server.port, self.queries,
                                             clock=server.cpu_s)
        self.cpu_s = server.cpu_s() - cpu

    def check(self, reference: Dict[loadgen.Query, str]) -> int:
        """Judge every reply against the reference; returns failures."""
        self.ok = loadgen.check_replies(self.queries, self.replies, reference)
        return self.ok.count(False)

    def good_latencies(self, cpu: bool = True) -> List[float]:
        """Latencies of the requests answered correctly, in send order,
        on the server's CPU clock or on the wall clock."""
        latencies = self.cpu_latencies_ms if cpu else self.latencies_ms
        return [ms for ms, ok in zip(latencies, self.ok) if ok]


def _latency_metrics(phase: _Phase) -> Dict[str, float]:
    """Latency percentiles of the correct replies, and those replies per
    second, all on the server's CPU clock (which, unlike the wall clock,
    leaves out time the host's hypervisor gives to other guests)."""
    latencies = phase.good_latencies()
    p99 = percentile(latencies, 0.99)
    return {"p50_ms": percentile(latencies, 0.5),
            "p99_ms": p99 if p99 is not None else max(latencies),
            "goodput_rps": len(latencies) / phase.cpu_s}


def _server_attempt(ctx: Context, env: Dict[str, str], fill: List,
                    queries: List, spans: Optional[str]) -> Dict[str, object]:
    """One fresh server: start-up, fill pass, measured phase, stop.

    ``steal_share`` is the share of the host's CPU time that other
    guests took meanwhile, reported to explain a slow run.
    """
    steal, clock = procs.steal_s(), time.monotonic()
    tag = "traced" if spans else "untraced"
    server = procs.Server(
        _server_argv(spans, len(fill) + len(queries) if spans else None),
        env, ctx.root, os.path.join(ctx.work, f"{tag}.log"))
    try:
        figures = {"setup_s": server.cpu_s(),
                   "setup_wall_s": server.listening - server.spawned}
        phases = [_Phase(fill), _Phase(queries)]
        for phase in phases:
            phase.run(server)
        # Fill requests are cold misses: each measures one fleet server.
        figures["servers_per_s"] = len(fill) / phases[0].cpu_s
        figures["fill_wall_per_s"] = len(fill) / phases[0].elapsed_s
        figures["vm_hwm_mib"] = server.vm_hwm_mib()
        if spans and server.wait_exit(20.0):
            figures["wall_s"] = server.exited - server.spawned
    finally:
        server.stop()
    cpu_s = (time.monotonic() - clock) * (os.cpu_count() or 1)
    figures["steal_share"] = (procs.steal_s() - steal) / cpu_s
    return {"figures": figures, "phases": phases}


def _setup_only(ctx: Context, env: Dict[str, str]) -> float:
    """Start a server and stop it: its CPU seconds up to ``listening``."""
    server = procs.Server(_server_argv(None, None), env, ctx.root,
                          os.path.join(ctx.work, "setup.log"))
    try:
        return server.cpu_s()
    finally:
        server.stop()


def serve_churn(ctx: Context, trace: bool) -> Outcome:
    """``repro serve --cache-slots 128`` under a closed loop over TCP.

    A run starts a fresh server, fills its cache with every fleet
    server's own claim in fleet order (what ``--warm`` would do), then
    sends the measured queries; then it starts and stops two more
    servers for ``setup_s``.  A traced run does the first part once on an
    untraced server and once on a traced one.
    """
    rng = np.random.default_rng(ctx.seed)
    host_ids, countries = _service_fleet(ctx)
    cycles = max(1, round(CHURN_REQUESTS_PER_S * ctx.seconds / len(host_ids)))
    queries = loadgen.make_queries(host_ids, countries,
                                   cycles * len(host_ids), rng)
    fill = [(host_id, None) for host_id in host_ids]
    reference = _serve_reference(ctx, queries + fill)
    gc.collect()
    gc.freeze()  # keep collector pauses out of the generator

    env = procs.child_env(ctx.root, ctx.work)
    spans_path = os.path.join(ctx.work, "server.npz")
    attempts = [_server_attempt(ctx, env, fill, queries, None)]
    if trace:
        attempts.append(_server_attempt(ctx, env, fill, queries, spans_path))

    phases = [phase for attempt in attempts for phase in attempt["phases"]]
    failed = sum(phase.check(reference) for phase in phases)
    attempted = sum(len(phase.queries) for phase in phases)
    servers = [attempt["figures"] for attempt in attempts]
    details: Dict[str, object] = {
        "transport": (f"TCP over loopback {loadgen.LOOPBACK}, closed loop on "
                      f"{loadgen.CONNECTIONS} connections"),
        "fleet": {"fleet_size": len(host_ids), "server_seed": 0,
                  "server_argv": ["repro", "serve", *CHURN_SERVER_ARGS],
                  "measured_requests": len(queries)},
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "servers": servers,
    }
    if trace:
        return _churn_traced([a["phases"][1] for a in attempts], servers,
                             spans_path, attempted, failed, details)
    server, measured = servers[0], attempts[0]["phases"][1]
    latencies = measured.good_latencies()
    wall = measured.good_latencies(cpu=False)
    setups = [server["setup_s"]] + [_setup_only(ctx, env)
                                    for _ in range(SETUP_STARTS - 1)]
    within = sum(1 for ms in wall if ms <= LATENCY_LIMIT_MS)
    details.update(
        latency_ms=summary(latencies),
        wall_latency_ms={**summary(wall), "p99": percentile(wall, 0.99)},
        p99_supported=percentile(latencies, 0.99) is not None,
        setup_s=summary(setups),
        within_latency_limit={"replies": within,
                              "per_wall_s": within / measured.elapsed_s})
    metrics = {"setup_s": statistics.median(setups),
               "servers_per_s": server["servers_per_s"],
               "peak_rss_mib": server["vm_hwm_mib"],
               **_latency_metrics(measured)}
    return Outcome(metrics, attempted, failed, details)


def _churn_traced(measured: List[_Phase], servers: List[Dict[str, float]],
                  spans_path: str, attempted: int, failed: int,
                  details: Dict) -> Outcome:
    """Per-layer metrics of the traced server, against the untraced one."""
    untraced, traced = (_latency_metrics(phase) for phase in measured)
    figures = _figures(spans_path)
    per_layer = layers.layer_metrics([figures])
    per_layer["loadgen.sent"] = float(len(measured[1].queries))
    per_layer["trace.overhead_ratio"] = traced["p50_ms"] / untraced["p50_ms"] - 1
    per_layer["failed_ratio"] = failed / attempted
    wall = servers[1].get("wall_s")
    per_layer["trace.coverage"] = (layers.covered_share(figures, wall)
                                   if wall else 0.0)
    details.update(
        overhead={"untraced": untraced, "traced": traced,
                  "untraced_setup_s": servers[0]["setup_s"],
                  "traced_setup_s": servers[1]["setup_s"]},
        self_seconds=figures["self"])
    return Outcome(per_layer, attempted, failed, details)
