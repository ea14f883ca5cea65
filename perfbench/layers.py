"""Which public functions each layer's spans wrap, and the metrics built on them.

:func:`install` wraps every layer of the measurement pipeline and the
verdict service in a traced process; :func:`layer_metrics` turns the
dumped spans, counters and service statistics of one or more traced
processes into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Dict, List, Sequence

from perfbench.spans import SpanRecorder, wrap_function, wrap_method
from perfbench.stats import percentile

#: (module, function or Class.method, span name).  Module-level functions
#: are wrapped in every consumer module too (``from x import f`` sites).
LAYERS = (
    ("repro.experiments.scenario", "paper_scale_scenario", "scenario.build"),
    ("repro.experiments.scenario", "default_scenario", "scenario.build"),
    ("repro.netsim.network", "Network.warm_paths", "pathengine.warm"),
    ("repro.netsim.atlas", "AtlasConstellation.ensure_mesh", "atlas.mesh"),
    ("repro.netsim.atlas", "AtlasConstellation.min_one_way_ms", "atlas.mesh"),
    ("repro.core.calibrationset", "CalibrationSet.cbg", "calibration.fit"),
    ("repro.core.calibrationset", "CalibrationSet.octant", "calibration.fit"),
    ("repro.geo.bank", "DistanceBank.rows", "bank.rows"),
    ("repro.core.proxy_adapter", "estimate_eta", "eta.fit"),
    ("repro.core.proxy_adapter", "ProxyMeasurer.observe", "probe.observe"),
    ("repro.core.twophase", "TwoPhaseDriver.collect", "twophase.collect"),
    ("repro.core.twophase", "TwoPhaseDriver.finish", "twophase.finish"),
    ("repro.core.cbgpp", "CBGPlusPlus.predict_fleet",
     "multilat.predict_fleet"),
    ("repro.core.cbgpp", "CBGPlusPlus.predict", "multilat.predict"),
    ("repro.core.assessment", "assess_claim", "assess"),
    ("repro.experiments.checkpoint", "AuditCheckpoint.append",
     "journal.append"),
    ("repro.experiments.checkpoint", "AuditCheckpoint.finalize",
     "journal.finalize"),
    ("repro.experiments.checkpoint", "AuditCheckpoint.merge_from",
     "journal.merge"),
    ("repro.experiments.checkpoint", "AuditCheckpoint.iter_payloads",
     "journal.read"),
    ("repro.experiments.campaign", "CampaignAggregator.accept",
     "aggregate.accept"),
    ("repro.service.frontend", "VerdictResponse.to_json", "frontend.encode"),
)

#: Root spans: the benchmark's own entry points.  Their self time is
#: glue between layers, reported as ``glue.unattributed_s``.
ROOTS = ("campaign.shard", "campaign.merge", "serve.main")

#: Modules whose names must be bound before consumer-site wrapping.
_CONSUMERS = ("repro.experiments", "repro.experiments.audit",
              "repro.experiments.campaign", "repro.service.verdict",
              "repro.service.frontend", "repro.cli", "repro.core")


def _count(recorder: SpanRecorder, name: str, size=None):
    def hook(args, kwargs, result, start, stop):
        recorder.count(name, 1 if size is None else size(args, result))
    return hook


class ServiceProbe:
    """Links frontend enqueues to the ``verdict_batch`` that served them.

    ``enqueue`` runs in the event-loop thread and ``verdict_batch`` in
    the executor thread, so the pending-query table is lock-guarded.  A
    query is identified by the tuple object the frontend queues: the
    drainer hands the very same objects to ``verdict_batch``.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._lock = threading.Lock()
        self._pending: Dict[int, tuple] = {}
        self.queue_waits_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self.batch_ms: List[float] = []
        self.shed = 0
        self.service = None
        self.baseline = None

    def install(self) -> None:
        from repro.service.frontend import ServiceFrontend
        from repro.service.verdict import VerdictService

        probe = self
        enqueue = ServiceFrontend.enqueue
        batch = VerdictService.verdict_batch

        async def traced_enqueue(frontend, query):
            with probe._lock:
                probe._pending[id(query)] = (query, time.perf_counter())
            response = await enqueue(frontend, query)
            if response.shed:
                with probe._lock:
                    probe.shed += 1
                    probe._pending.pop(id(query), None)
            return response

        recorder = self.recorder

        def traced_batch(service, queries):
            start = time.perf_counter()
            with probe._lock:
                linked = bool(queries) and all(
                    id(q) in probe._pending for q in queries)
                if linked and probe.baseline is None:
                    probe.service = service
                    probe.baseline = service.cache_info()
            span_id, parent = recorder.begin()
            try:
                return batch(service, queries)
            finally:
                stop = time.perf_counter()
                recorder.end("service.batch", span_id, parent, start, stop)
                if linked:
                    with probe._lock:
                        for query in queries:
                            _, enqueued = probe._pending.pop(id(query))
                            probe.queue_waits_ms.append(
                                (start - enqueued) * 1e3)
                        probe.batch_sizes.append(len(queries))
                        probe.batch_ms.append((stop - start) * 1e3)

        ServiceFrontend.enqueue = traced_enqueue
        VerdictService.verdict_batch = traced_batch

    def values(self) -> Dict[str, float]:
        """Scalar service/frontend figures for the span dump."""
        out: Dict[str, float] = {
            "frontend.shed": float(self.shed),
            "frontend.batches": float(len(self.batch_sizes)),
            "frontend.queue_waits": float(len(self.queue_waits_ms)),
        }
        if self.batch_sizes:
            out["frontend.batch_size_mean"] = (
                sum(self.batch_sizes) / len(self.batch_sizes))
        for label, samples in (("frontend.queue_wait", self.queue_waits_ms),
                               ("service.batch", self.batch_ms)):
            for q in (0.5, 0.99):
                value = percentile(samples, q)
                if value is not None:
                    out[f"{label}_p{round(q * 100)}_ms"] = value
        if self.service is not None and self.baseline is not None:
            now = self.service.cache_info()
            for tier in ("verdicts", "measurements"):
                hits = now[tier].hits - self.baseline[tier].hits
                misses = now[tier].misses - self.baseline[tier].misses
                out[f"cache.{tier}.hits"] = float(hits)
                out[f"cache.{tier}.misses"] = float(misses)
                out[f"cache.{tier}.evictions"] = float(
                    now[tier].evictions - self.baseline[tier].evictions)
        return out


def install(recorder: SpanRecorder) -> ServiceProbe:
    """Wrap every layer's public functions; returns the service probe."""
    for name in _CONSUMERS:
        importlib.import_module(name)
    hooks = {
        "atlas.mesh": _count(recorder, "atlas.mesh_calls"),
        "calibration.fit": _count(recorder, "calibration.calls"),
        "bank.rows": _count(recorder, "bank.rows_points",
                            lambda args, result: len(args[1])),
        "eta.fit": _count(recorder, "eta.fits"),
        "probe.observe": _count(recorder, "probe.observe_calls"),
        "multilat.predict_fleet": _count(
            recorder, "multilat.fleet_servers",
            lambda args, result: len(args[1])),
        "multilat.predict": _count(recorder, "multilat.scalar_predicts"),
        "assess": _count(recorder, "assess.calls"),
        "journal.append": _count(recorder, "journal.appends"),
        "aggregate.accept": _degraded_hook(recorder),
    }
    for module, target, span in LAYERS:
        hook = hooks.get(span)
        if "." in target:
            wrap_method(recorder, module, target, span, hook)
        else:
            wrap_function(recorder, module, target, span, hook)
    probe = ServiceProbe(recorder)
    probe.install()
    return probe


def _degraded_hook(recorder: SpanRecorder):
    def hook(args, kwargs, result, start, stop):
        recorder.count("aggregate.accepted")
        if args[1].degraded:
            recorder.count("aggregate.degraded")
    return hook


# -- per-layer metrics --------------------------------------------------------

#: name -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "process.exit_s": "s",
    "scenario.build_s": "s",
    "pathengine.warm_s": "s",
    "atlas.mesh_s": "s",
    "atlas.mesh_calls": "count",
    "calibration.fit_s": "s",
    "calibration.calls": "count",
    "calibration.processes_fitting": "count",
    "bank.rows_s": "s",
    "bank.rows_points": "count",
    "eta.fit_s": "s",
    "eta.fits": "count",
    "probe.observe_s": "s",
    "probe.observe_calls": "count",
    "twophase.collect_s": "s",
    "twophase.finish_s": "s",
    "multilat.predict_fleet_s": "s",
    "multilat.fleet_servers": "count",
    "multilat.scalar_predicts": "count",
    "multilat.fleet_share": "ratio",
    "assess.s": "s",
    "assess.calls": "count",
    "journal.append_s": "s",
    "journal.appends": "count",
    "journal.finalize_s": "s",
    "journal.merge_s": "s",
    "journal.read_s": "s",
    "journal.bytes": "bytes",
    "aggregate.accept_s": "s",
    "records.degraded_ratio": "ratio",
    "service.batch_s": "s",
    "service.batch_p99_ms": "ms",
    "cache.verdict_hit_ratio": "ratio",
    "cache.measurement_hit_ratio": "ratio",
    "cache.evictions": "count",
    "frontend.queue_wait_p50_ms": "ms",
    "frontend.queue_wait_p99_ms": "ms",
    "frontend.batch_size_mean": "count",
    "frontend.batches": "count",
    "frontend.encode_s": "s",
    "frontend.shed": "count",
    "loadgen.sent": "count",
    "glue.unattributed_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}

#: Span name -> the ``<span>_s`` self-time metric it feeds.
_SELF_TIME_METRICS = {
    "startup.import": "startup.import_s",
    "scenario.build": "scenario.build_s",
    "pathengine.warm": "pathengine.warm_s",
    "atlas.mesh": "atlas.mesh_s",
    "calibration.fit": "calibration.fit_s",
    "bank.rows": "bank.rows_s",
    "eta.fit": "eta.fit_s",
    "probe.observe": "probe.observe_s",
    "twophase.collect": "twophase.collect_s",
    "twophase.finish": "twophase.finish_s",
    "multilat.predict_fleet": "multilat.predict_fleet_s",
    "multilat.predict": "multilat.predict_fleet_s",
    "assess": "assess.s",
    "journal.append": "journal.append_s",
    "journal.finalize": "journal.finalize_s",
    "journal.merge": "journal.merge_s",
    "journal.read": "journal.read_s",
    "aggregate.accept": "aggregate.accept_s",
    "service.batch": "service.batch_s",
    "frontend.encode": "frontend.encode_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: Sequence[Dict[str, Dict[str, float]]]
                  ) -> Dict[str, float]:
    """Per-layer metrics summed over traced processes.

    Each process is ``{"self": {span: seconds}, "values": {...}}`` as
    the workloads build it from a span dump.  Metrics that need load or
    run context (``journal.bytes``, ``loadgen.*``, ``trace.*``,
    ``failed_ratio``) are filled in by the workload.
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    sums: Dict[str, float] = {}
    for proc in processes:
        for span, seconds in proc["self"].items():
            if span in ROOTS:
                out["glue.unattributed_s"] += seconds
            elif span in _SELF_TIME_METRICS:
                out[_SELF_TIME_METRICS[span]] += seconds
        for key, value in proc["values"].items():
            sums[key] = sums.get(key, 0.0) + value
        if proc["values"].get("calibration.calls", 0) > 0:
            out["calibration.processes_fitting"] += 1
    for key in ("atlas.mesh_calls", "calibration.calls", "bank.rows_points",
                "eta.fits", "probe.observe_calls", "multilat.fleet_servers",
                "multilat.scalar_predicts", "assess.calls",
                "journal.appends", "frontend.batches", "frontend.shed"):
        out[key] = sums.get(key, 0.0)
    out["multilat.fleet_share"] = _ratio(
        out["multilat.fleet_servers"],
        out["multilat.fleet_servers"] + out["multilat.scalar_predicts"])
    out["records.degraded_ratio"] = _ratio(
        sums.get("aggregate.degraded", 0.0),
        sums.get("aggregate.accepted", 0.0))
    # Service figures come from the single server process of a run.
    for proc in processes:
        values = proc["values"]
        if "frontend.batch_size_mean" in values:
            out["frontend.batch_size_mean"] = values[
                "frontend.batch_size_mean"]
        for key in ("frontend.queue_wait_p50_ms",
                    "frontend.queue_wait_p99_ms"):
            if key in values:
                out[key] = values[key]
        if "service.batch_p99_ms" in values:
            out["service.batch_p99_ms"] = values["service.batch_p99_ms"]
    for tier, metric in (("verdicts", "cache.verdict_hit_ratio"),
                         ("measurements", "cache.measurement_hit_ratio")):
        hits = sums.get(f"cache.{tier}.hits", 0.0)
        misses = sums.get(f"cache.{tier}.misses", 0.0)
        out[metric] = _ratio(hits, hits + misses)
    out["cache.evictions"] = (sums.get("cache.verdicts.evictions", 0.0)
                              + sums.get("cache.measurements.evictions", 0.0))
    return out


def covered_share(figures: Dict[str, Dict], wall_s: float,
                  exit_s: float = 0.0) -> float:
    """``trace.coverage`` of one process; ``exit_s`` of interpreter
    shutdown, timed by the parent, counts as covered."""
    from perfbench.spans import coverage
    return coverage(dict(figures["self"], **{"process.exit": exit_s}),
                    wall_s, ROOTS)
