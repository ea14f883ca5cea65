"""The full proxy audit pipeline (section 6): the paper's main experiment.

For every proxy server: estimate the client→proxy leg (η-adapted
self-ping), run the two-phase measurement through the tunnel, multilaterate
with CBG++, assess the provider's country claim, then refine uncertain
verdicts with data-centre and metadata disambiguation.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Protocol,
                    Sequence)

import numpy as np

from ..core.assessment import ClaimAssessment, Verdict, assess_claim
from ..core.base import GeolocationAlgorithm
from ..core.cbgpp import CBGPlusPlus
from ..core.disambiguation import AuditRecord, refine_assessments
from ..core.proxy_adapter import EtaEstimate, ProxyMeasurer, estimate_eta
from ..core.twophase import (
    MIN_MULTILATERATION_OBSERVATIONS,
    TwoPhaseDriver,
    TwoPhaseResult,
    TwoPhaseSelector,
)
from .. import config
from ..geo.region import Region
from ..lrucache import CacheInfo, LruCache
from ..netsim.faults import (
    FaultInjector,
    FaultProfile,
    MeasurementFailed,
    resolve_fault_profile,
)
from ..netsim.proxies import ProxyServer
from .checkpoint import AuditCheckpoint, ServerPayload
from .scenario import Scenario


class AuditSink(Protocol):
    """A streaming consumer of completed audit records.

    ``run_audit(sink=...)`` hands each record to :meth:`accept` the
    moment its payload exists — journal-resume records first (ascending
    index), then live records in *completion* order — and never holds a
    reference afterwards, so the record's packed region is garbage the
    instant the sink is done with it.  Implementations must therefore
    compute only commutative (order-independent) aggregates, which is
    also exactly what makes sharded campaign reports independent of the
    shard count.
    """

    def accept(self, record: AuditRecord) -> None:
        """Consume one completed record; must not retain its region."""


class RecordTally:
    """Single-pass commutative aggregates over audit records.

    One ``add`` per record maintains every integer tally the audit
    report needs — verdicts (initial and current), Figure 17 categories,
    degraded counts, and the ground-truth soundness counters — without
    retaining the record.  Shared by :class:`AuditResult` (which feeds
    it a materialized list) and the streaming campaign sinks (which feed
    it record by record), so both paths count by identical rules.
    """

    def __init__(self) -> None:
        self.n_records = 0
        self.degraded = 0
        self.verdicts: Dict[str, int] = {}
        self.verdicts_initial: Dict[str, int] = {}
        self.categories: Dict[str, int] = {}
        self.false_verdicts = 0
        self.false_verdicts_wrong = 0
        self.credible_verdicts = 0
        self.credible_verdicts_right = 0

    def add(self, record: AuditRecord) -> None:
        self.n_records += 1
        if record.degraded:
            self.degraded += 1
        verdict = record.assessment.verdict
        initial = record.initial_verdict
        assert verdict is not None and initial is not None
        self.verdicts[verdict.value] = self.verdicts.get(verdict.value, 0) + 1
        self.verdicts_initial[initial.value] = \
            self.verdicts_initial.get(initial.value, 0) + 1
        category = record.assessment.category()
        self.categories[category] = self.categories.get(category, 0) + 1
        if record.assessment.is_false:
            self.false_verdicts += 1
            if record.server.honest:
                self.false_verdicts_wrong += 1
        if record.assessment.is_credible:
            self.credible_verdicts += 1
            if record.server.honest:
                self.credible_verdicts_right += 1

    def extend(self, records: Iterable[AuditRecord]) -> "RecordTally":
        for record in records:
            self.add(record)
        return self

    def ground_truth_accuracy(self) -> Dict[str, float]:
        """The audit soundness summary (see AuditResult for semantics)."""
        return {
            "false_verdicts": self.false_verdicts,
            "false_verdicts_wrong": self.false_verdicts_wrong,
            "credible_verdicts": self.credible_verdicts,
            "credible_verdicts_right": self.credible_verdicts_right,
            "false_precision": (
                1.0 - self.false_verdicts_wrong / self.false_verdicts
                if self.false_verdicts else 1.0),
            "credible_precision": (
                self.credible_verdicts_right / self.credible_verdicts
                if self.credible_verdicts else 1.0),
        }


@dataclass
class AuditResult:
    """Everything one audit run produced."""

    records: List[AuditRecord]
    eta: EtaEstimate
    reclassified: Dict[str, int] = field(default_factory=dict)
    #: Name of the fault profile the audit ran under, None for fault-free.
    fault_profile: Optional[str] = None
    #: Records handed to a streaming sink instead of ``records``.
    n_streamed: int = 0

    @property
    def degraded_count(self) -> int:
        """How many servers needed a fallback path to yield a record."""
        return sum(1 for record in self.records if record.degraded)

    # -- tallies -------------------------------------------------------------

    def verdict_counts(self, initial: bool = False) -> Dict[str, int]:
        """Counts per verdict; ``initial=True`` gives pre-disambiguation."""
        tally = RecordTally().extend(self.records)
        return tally.verdicts_initial if initial else tally.verdicts

    def category_counts(self) -> Dict[str, int]:
        """Counts per Figure 17 bar category (post-disambiguation)."""
        return RecordTally().extend(self.records).categories

    def by_provider(self) -> Dict[str, List[AuditRecord]]:
        grouped: Dict[str, List[AuditRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.server.provider, []).append(record)
        return grouped

    def agreement_rate(self, provider: Optional[str] = None,
                       generous: bool = True) -> float:
        """Fraction of claims CBG++ agrees with (the Figure 21 rows).

        ``generous`` counts uncertain claims as credible; strict counts
        them as false.
        """
        records = [r for r in self.records
                   if provider is None or r.server.provider == provider]
        if not records:
            raise ValueError(f"no records for provider {provider!r}")
        agreed = 0
        for record in records:
            verdict = record.assessment.verdict
            if verdict is Verdict.CREDIBLE:
                agreed += 1
            elif verdict in (Verdict.UNCERTAIN, Verdict.UNLOCATABLE) and generous:
                agreed += 1
        return agreed / len(records)

    def ground_truth_accuracy(self) -> Dict[str, float]:
        """How often the verdicts match simulator ground truth.

        Soundness is measured the way the paper wants it: a FALSE verdict
        against an honest server is the error that must not happen.
        """
        return RecordTally().extend(self.records).ground_truth_accuracy()


#: Shared state for forked audit workers.  Set immediately before the
#: pool is created so the fork snapshot carries it; the children read it,
#: the parent clears it once the pool is done.
_FORK_STATE: Optional[tuple] = None


def _audit_one(scenario: Scenario, driver: TwoPhaseDriver,
               server: ProxyServer, eta: EtaEstimate, seed: int):
    """Locate one proxy and assess its claim.

    The measurement stream is keyed by ``(seed, host_id)`` — independent
    of fleet order and of which process runs the server — which is what
    makes serial, parallel, and resumed-from-checkpoint audits
    bit-identical.  A proxy whose tunnel never answers (the paper's
    servers that dropped mid-campaign) yields a degraded UNLOCATABLE
    record rather than an exception.
    """
    rng = np.random.default_rng((seed, server.host.host_id))
    measurer = ProxyMeasurer(scenario.network, scenario.client, server,
                             eta=eta.eta, seed=server.host.host_id)
    with scenario.network.measurement_epoch_for(server.host):
        try:
            result = driver.locate(measurer.observe, rng)
        except MeasurementFailed as exc:
            region = Region.empty(driver.algorithm.grid)
            assessment = assess_claim(region, server.claimed_country,
                                      scenario.worldmap)
            return (region, assessment, [], [], True,
                    [f"tunnel unreachable: {exc}"])
    assessment = assess_claim(result.prediction.region,
                              server.claimed_country, scenario.worldmap)
    observations = (list(result.phase2_observations)
                    + list(result.phase1_observations))
    return (result.prediction.region, assessment, observations,
            list(result.phase2_landmarks), result.degraded,
            list(result.notes))


def _payload_for(scenario: Scenario, driver: TwoPhaseDriver,
                 servers: List[ProxyServer], index: int, eta: EtaEstimate,
                 seed: int) -> ServerPayload:
    region, assessment, observations, names, degraded, notes = _audit_one(
        scenario, driver, servers[index], eta, seed)
    # packed_bytes() emits exactly np.packbits(region.mask).tobytes(),
    # straight from the packed words when the region is packed-native.
    return (index, region.packed_bytes(), assessment,
            observations, names, degraded, notes)


def _collect_one(scenario: Scenario, driver: TwoPhaseDriver,
                 server: ProxyServer, eta: EtaEstimate, seed: int):
    """Measure one proxy without multilaterating: the fleet front half.

    RNG keying, measurer construction, and measurement-epoch scoping are
    identical to :func:`_audit_one` — only the prediction is deferred so
    a whole batch of measurements can share one vectorised sweep.
    Returns the :class:`TwoPhaseMeasurement`, or the
    :class:`MeasurementFailed` exception for a dead tunnel.
    """
    rng = np.random.default_rng((seed, server.host.host_id))
    measurer = ProxyMeasurer(scenario.network, scenario.client, server,
                             eta=eta.eta, seed=server.host.host_id)
    with scenario.network.measurement_epoch_for(server.host):
        try:
            return driver.collect(measurer.observe, rng)
        except MeasurementFailed as exc:
            return exc


def _payload_from_result(scenario: Scenario, servers: List[ProxyServer],
                         index: int, result: TwoPhaseResult) -> ServerPayload:
    server = servers[index]
    assessment = assess_claim(result.prediction.region,
                              server.claimed_country, scenario.worldmap)
    observations = (list(result.phase2_observations)
                    + list(result.phase1_observations))
    return (index, result.prediction.region.packed_bytes(), assessment,
            observations, list(result.phase2_landmarks), result.degraded,
            list(result.notes))


def _fleet_payloads(scenario: Scenario, driver: TwoPhaseDriver,
                    servers: List[ProxyServer], indices: List[int],
                    eta: EtaEstimate, seed: int) -> List[ServerPayload]:
    """Audit a batch of servers through the fleet multilateration engine.

    Measurement stays per-server (streams keyed by ``(seed, host_id)``,
    exactly as the scalar engine); only the multilateration step is
    batched into one ``predict_fleet`` sweep.  Servers that cannot take
    that sweep use the scalar engine's own fallbacks: a dead tunnel
    yields the empty-region payload, an observation-starved (degraded)
    measurement is finished without multilateration.  Payloads come back
    in ``indices`` order, so checkpoint journals are written in the same
    order as the per-server engine's.
    """
    payloads: List[ServerPayload] = []
    fleet: List[tuple] = []
    for index in indices:
        server = servers[index]
        collected = _collect_one(scenario, driver, server, eta, seed)
        if isinstance(collected, MeasurementFailed):
            region = Region.empty(driver.algorithm.grid)
            assessment = assess_claim(region, server.claimed_country,
                                      scenario.worldmap)
            payloads.append((index, region.packed_bytes(), assessment,
                             [], [], True,
                             [f"tunnel unreachable: {collected}"]))
        elif (len(collected.observations)
              < MIN_MULTILATERATION_OBSERVATIONS):
            payloads.append(_payload_from_result(
                scenario, servers, index, driver.finish(collected)))
        else:
            fleet.append((index, collected))
    if fleet:
        predictions = driver.algorithm.predict_fleet(
            [measurement.observations for _, measurement in fleet])
        for (index, measurement), prediction in zip(fleet, predictions):
            payloads.append(_payload_from_result(
                scenario, servers, index,
                driver.finish(measurement, prediction)))
    order = {index: at for at, index in enumerate(indices)}
    payloads.sort(key=lambda payload: order[payload[0]])
    return payloads


def _chunk_payloads(scenario: Scenario, driver: TwoPhaseDriver,
                    servers: List[ProxyServer], indices: List[int],
                    eta: EtaEstimate, seed: int,
                    engine: str) -> List[ServerPayload]:
    """One work unit's payloads, through the selected audit engine."""
    if engine == "fleet":
        return _fleet_payloads(scenario, driver, servers, indices, eta, seed)
    return [_payload_for(scenario, driver, servers, index, eta, seed)
            for index in indices]


def _record_from(server: ProxyServer, region: Region,
                 assessment: ClaimAssessment, observations: list,
                 landmark_names: List[str], degraded: bool,
                 notes: List[str]) -> AuditRecord:
    return AuditRecord(
        server=server,
        region=region,
        assessment=assessment,
        initial_verdict=assessment.verdict,
        observations=observations,
        landmark_names=landmark_names,
        degraded=degraded,
        failure_notes=notes,
    )


def _record_from_payload(servers: List[ProxyServer], grid,
                         payload: ServerPayload) -> AuditRecord:
    index, packed, assessment, observations, names, degraded, notes = payload
    # Under the packed engine the payload bytes are adopted as uint64
    # words without ever materialising the per-record boolean mask —
    # the source of the fleet audit's ~8x region-memory reduction.
    return _record_from(servers[index], Region.from_packbits(grid, packed),
                        assessment, observations, names, degraded, notes)


def _fork_worker(indices: List[int]) -> List[ServerPayload]:
    scenario, driver, servers, eta, seed, engine = _FORK_STATE
    return _chunk_payloads(scenario, driver, servers, indices, eta, seed,
                           engine)


#: Servers per checkpointed work unit: small enough that a killed audit
#: loses little progress, large enough to amortise pool round trips.
_CHECKPOINT_CHUNK = 4


def _parallel_payloads(scenario: Scenario, driver: TwoPhaseDriver,
                       servers: List[ProxyServer], eta: EtaEstimate,
                       seed: int, workers: int, indices: List[int],
                       deliver: Callable[[ServerPayload], None],
                       engine: str, fine_chunks: bool) -> None:
    """Fan the per-server audits over forked worker processes.

    Fork (not spawn) is required: the children inherit the scenario —
    topology, shortest-path caches, the grid's distance bank — as
    copy-on-write pages instead of re-pickling hundreds of megabytes.
    Each worker ships back only a packed region mask plus the small
    assessment/observation records, each of which goes straight to
    ``deliver`` in completion order.  With ``fine_chunks`` (a checkpoint
    or streaming sink downstream) work is split into small chunks so a
    kill loses at most a chunk and memory holds at most a chunk per
    in-flight future; otherwise one round-robin chunk per worker
    minimises IPC.
    """
    global _FORK_STATE
    context = multiprocessing.get_context("fork")
    if fine_chunks:
        chunks = [indices[at:at + _CHECKPOINT_CHUNK]
                  for at in range(0, len(indices), _CHECKPOINT_CHUNK)]
    else:
        chunks = [indices[worker::workers] for worker in range(workers)]
    chunks = [chunk for chunk in chunks if chunk]
    _FORK_STATE = (scenario, driver, servers, eta, seed, engine)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            futures = [pool.submit(_fork_worker, chunk) for chunk in chunks]
            for future in as_completed(futures):
                for payload in future.result():
                    deliver(payload)
    finally:
        _FORK_STATE = None


#: Campaign-level η estimates, keyed by (scenario token, seed, profile).
#: η is a pure function of that key: the fitting rng is derived from the
#: seed alone, fault epochs are order-independent functions of host ids,
#: and the draws never feed any later per-server stream — so a cache hit
#: is bit-identical to refitting, and repeated quick audits of the same
#: campaign skip the whole-fleet self-ping sweep.
_ETA_CACHE: "LruCache[tuple, EtaEstimate]" = LruCache(maxsize=16)


def _campaign_eta(scenario: Scenario, seed: int,
                  profile: Optional[FaultProfile],
                  rng: np.random.Generator) -> EtaEstimate:
    """The memoised whole-fleet η fit for one (scenario, seed, profile)."""
    key = (_scenario_token(scenario), seed, profile)
    eta = _ETA_CACHE.get(key)
    if eta is None:
        eta = estimate_eta(scenario.network, scenario.client,
                           scenario.all_servers(), rng)
        _ETA_CACHE.put(key, eta)
    return eta


def campaign_eta(scenario: Scenario, seed: int = 0,
                 fault_profile: Optional[object] = None) -> EtaEstimate:
    """The η estimate a ``run_audit`` with these parameters would use.

    Replays run_audit's exact fitting environment — profile resolution,
    fault installation, outage schedule, and the seed-derived rng — so a
    campaign merge running in a fresh process (no audit, no warm
    ``_ETA_CACHE``) reports bit-identically to the shards that measured.
    """
    profile = resolve_fault_profile(
        fault_profile if fault_profile is not None
        else scenario.fault_profile)
    injector: Optional[FaultInjector] = None
    if profile is not None:
        injector = FaultInjector(profile, seed=seed)
        injector.schedule_outages(
            [lm.host.host_id for lm in scenario.atlas.all_landmarks()])
    rng = np.random.default_rng(seed)
    with scenario.network.faults_installed(injector):
        return _campaign_eta(scenario, seed, profile, rng)


def run_audit(scenario: Scenario,
              algorithm: Optional[GeolocationAlgorithm] = None,
              servers: Optional[Sequence[ProxyServer]] = None,
              max_servers: Optional[int] = None,
              seed: int = 0,
              disambiguate: bool = True,
              workers: int = 1,
              fault_profile: Optional[object] = None,
              checkpoint_path: Optional[str] = None,
              resume: bool = False,
              sink: Optional[AuditSink] = None,
              finalize_checkpoint: bool = False) -> AuditResult:
    """Audit a proxy fleet end to end.

    Parameters
    ----------
    algorithm:
        Defaults to CBG++, the paper's choice for the audit.
    servers:
        Defaults to the scenario's entire fleet; ``max_servers`` truncates
        (deterministically, in fleet order) for quick runs.
    workers:
        Number of audit processes.  Per-server measurement noise is keyed
        by ``(seed, host_id)``, so any worker count — including 1 —
        produces bit-identical records; parallelism only changes
        wall-clock time.  Falls back to serial where ``fork`` is
        unavailable.
    fault_profile:
        A :class:`~repro.netsim.faults.FaultProfile`, a profile name from
        ``FAULT_PROFILES``, or None.  Defaults to the scenario's own
        ``fault_profile``.  A null profile is byte-identical to no
        profile at all.
    checkpoint_path:
        Journal completed servers to this JSONL file as the audit runs.
    resume:
        With ``checkpoint_path``, load previously completed servers from
        the journal (validating that it belongs to this exact run) and
        audit only the remainder; the merged records are bit-identical to
        an uninterrupted run.  Without ``resume`` an existing journal is
        overwritten.
    sink:
        Stream each completed record to this :class:`AuditSink` instead
        of materialising a result list — journal-resumed records first in
        ascending index order, then live records in completion order, so
        the sink must aggregate commutatively.  Memory stays flat in
        fleet size: each record (and its packed region) is dropped the
        moment the sink returns.  The returned :class:`AuditResult` has
        empty ``records`` and carries the count in ``n_streamed``.
        Incompatible with ``disambiguate`` (which needs the whole fleet
        at once); pass ``disambiguate=False`` and let the campaign
        aggregator apply the streaming-equivalent refinement.
    finalize_checkpoint:
        After the last server is journalled, atomically rewrite the
        journal finalized and index-sorted (see
        :meth:`AuditCheckpoint.finalize`) — the form shard journals must
        be in before a campaign merge.
    """
    # Resolve the engine up front so a typo'd knob fails before any
    # measurement, not in the middle of a forked worker.
    engine = str(config.env_value("REPRO_AUDIT_ENGINE"))
    if sink is not None and disambiguate:
        raise ValueError(
            "a streaming audit cannot disambiguate: refinement needs the "
            "whole fleet at once; pass disambiguate=False and refine in "
            "the sink (see experiments.campaign.CampaignAggregator)")
    if finalize_checkpoint and checkpoint_path is None:
        raise ValueError("finalize_checkpoint requires checkpoint_path")
    rng = np.random.default_rng(seed)
    if algorithm is None:
        algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
    if servers is None:
        servers = scenario.all_servers()
    if max_servers is not None:
        servers = list(servers)[:max_servers]
    servers = list(servers)
    grid = algorithm.grid

    profile: Optional[FaultProfile] = resolve_fault_profile(
        fault_profile if fault_profile is not None
        else scenario.fault_profile)
    injector: Optional[FaultInjector] = None
    if profile is not None:
        injector = FaultInjector(profile, seed=seed)
        injector.schedule_outages(
            [lm.host.host_id for lm in scenario.atlas.all_landmarks()])

    checkpoint: Optional[AuditCheckpoint] = None
    completed: Dict[int, ServerPayload] = {}
    if checkpoint_path is not None:
        checkpoint = AuditCheckpoint(
            checkpoint_path,
            audit_seed=seed,
            profile=profile.name if profile is not None else None,
            n_servers=len(servers),
            n_cells=grid.n_cells,
            fleet_digest=AuditCheckpoint.fleet_digest(
                server.host.host_id for server in servers))
        if resume:
            completed = checkpoint.load()
        checkpoint.start(fresh=not resume)

    # Warm the shortest-path engine for every router this audit can
    # touch — one batched Dijkstra — before any measurement and before
    # the worker pool forks, so children inherit the rows as
    # copy-on-write pages (a no-op under the networkx oracle).  Only the
    # *audited* servers are warmed: a truncated quick run must not pay a
    # full-fleet Dijkstra for servers it will never measure.
    scenario.network.warm_paths(
        [scenario.client]
        + [lm.host for lm in scenario.atlas.all_landmarks()]
        + [server.host for server in servers])
    # Likewise the calibration plane (mesh archive, CBG++ fits, landmark
    # bank rows): loaded from the artifact cache or built in one batched
    # pass, once, before anything forks.
    algorithm.calibrations.ensure_plane()

    # Every completed payload flows through one delivery point: journal
    # first (durability before anything observes the record), then either
    # straight into the streaming sink — after which the payload and its
    # packed region are garbage — or into the legacy completion map.
    n_streamed = 0

    def deliver(payload: ServerPayload, journal: bool = True) -> None:
        nonlocal n_streamed
        if checkpoint is not None and journal:
            checkpoint.append(payload)
        if sink is not None:
            sink.accept(_record_from_payload(servers, grid, payload))
            n_streamed += 1
        else:
            completed[payload[0]] = payload

    if sink is not None and completed:
        # Resumed records reach the sink before any live ones, in
        # ascending index order; the journal already holds them.
        resumed = completed
        completed = {}
        for index in sorted(resumed):
            deliver(resumed[index], journal=False)
        pending = [index for index in range(len(servers))
                   if index not in resumed]
    else:
        pending = [index for index in range(len(servers))
                   if index not in completed]

    with scenario.network.faults_installed(injector):
        # η is a campaign-level calibration: it is always fitted over the
        # scenario's whole fleet (never the truncated slice), so the same
        # (scenario, seed, profile) yields the same η no matter which
        # servers are audited — truncated quick runs stay bit-identical
        # to the corresponding slice of a full audit.
        eta = _campaign_eta(scenario, seed, profile, rng)
        selector = TwoPhaseSelector(scenario.atlas, seed=seed)
        driver = TwoPhaseDriver(selector, algorithm)

        fine_chunks = checkpoint is not None or sink is not None
        use_fork = (workers > 1 and len(pending) > 1
                    and "fork" in multiprocessing.get_all_start_methods())
        if use_fork:
            _parallel_payloads(
                scenario, driver, servers, eta, seed,
                min(workers, len(pending)), pending, deliver, engine,
                fine_chunks)
        else:
            # Serial: one fleet batch over everything pending — unless a
            # checkpoint journal or streaming sink wants finer
            # granularity, in which case the batches mirror the parallel
            # path's chunking so a kill loses at most a chunk and memory
            # holds at most a chunk of payloads either way.
            if not fine_chunks:
                batches = [pending] if pending else []
            else:
                batches = [pending[at:at + _CHECKPOINT_CHUNK]
                           for at in range(0, len(pending),
                                           _CHECKPOINT_CHUNK)]
            for batch in batches:
                for payload in _chunk_payloads(scenario, driver, servers,
                                               batch, eta, seed, engine):
                    deliver(payload)

    if finalize_checkpoint and checkpoint is not None:
        checkpoint.finalize()

    if sink is not None:
        return AuditResult(records=[], eta=eta,
                           reclassified={"datacenter": 0, "metadata": 0,
                                         "total": 0},
                           fault_profile=profile.name if profile else None,
                           n_streamed=n_streamed)

    # The legacy API contract: callers get the full record list.  Bounded
    # by design to figure-sized fleets; campaigns use the sink path above.
    records = [  # reprolint: disable=R008 (legacy materialising API; campaign-scale callers pass a sink)
        _record_from_payload(servers, grid, completed[index])
        for index in range(len(servers))]

    reclassified: Dict[str, int] = {"datacenter": 0, "metadata": 0, "total": 0}
    if disambiguate:
        reclassified = refine_assessments(records, scenario.datacenters,
                                          scenario.worldmap)
    return AuditResult(records=records, eta=eta, reclassified=reclassified,
                       fault_profile=profile.name if profile else None)


_AUDIT_CACHE_SLOTS = 8
_AUDIT_CACHE: "LruCache[tuple, AuditResult]" = LruCache(
    maxsize=_AUDIT_CACHE_SLOTS)
_scenario_tokens = itertools.count()

#: The shared cache-counter record (`functools.lru_cache` field order
#: plus ``evictions``), common to ``cached_audit`` and the verdict
#: service's caches.
AuditCacheInfo = CacheInfo


def _scenario_token(scenario: Scenario) -> int:
    """A stable identity token for a scenario object.

    ``id()`` is unusable as a cache key: after a scenario is garbage
    collected a *different* scenario can be allocated at the same address
    and silently inherit the old audit.  The token lives on the object,
    so it dies with it.
    """
    token = getattr(scenario, "_audit_cache_token", None)
    if token is None:
        token = next(_scenario_tokens)
        scenario._audit_cache_token = token
    return token


def cached_audit(scenario: Scenario, max_servers: Optional[int] = None,
                 seed: int = 0) -> AuditResult:
    """Memoised full-fleet audit, shared by the figure experiments.

    Figures 16 through 23 all consume the same audit run; recomputing it
    per figure would dominate the benchmark harness.  Bounded LRU: the
    oldest audit is dropped once ``_AUDIT_CACHE_SLOTS`` distinct
    (scenario, max_servers, seed) combinations have been seen.

    ``cached_audit.cache_info()`` reports hit/miss/eviction counters
    (the perf benches use them to prove cache effectiveness) and
    ``cached_audit.cache_clear()`` empties both the cache and the
    counters, mirroring :func:`functools.lru_cache`'s wrapper API.  Both
    ride on the shared :class:`repro.lrucache.LruCache`, the same
    implementation behind the verdict service's caches.
    """
    key = (_scenario_token(scenario), max_servers, seed)
    result = _AUDIT_CACHE.get(key)
    if result is None:
        result = run_audit(scenario, max_servers=max_servers, seed=seed)
        _AUDIT_CACHE.put(key, result)
    return result


cached_audit.cache_info = _AUDIT_CACHE.cache_info
cached_audit.cache_clear = _AUDIT_CACHE.cache_clear
