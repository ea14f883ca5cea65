"""The verdict service core: epoch-keyed caching over batched audits.

:class:`VerdictService` answers "is this proxy's claimed location
credible?" out of two bounded caches layered over the fleet audit
machinery:

* a **measurement cache** keyed ``(host_id, epoch_digest)`` holding the
  packed multilateration region (plus the landmark names the
  measurement *requested* — the dependency set epoch rolls invalidate
  by); and
* a :class:`VerdictCache` keyed ``(host_id, epoch_digest, claim)``
  holding the finished assessment, so re-asking about a different
  country for an already-measured host costs one region/country
  intersection, not a measurement.

Uncached queries are coalesced into micro-batches and multilaterated in
single ``predict_fleet`` sweeps — N scalar queries become one vectorized
pass.  Measurement streams stay keyed by ``(seed, host_id)`` exactly as
in :func:`repro.experiments.run_audit`, so a verdict is byte-identical
to the corresponding audit record's assessment at any batch size,
arrival order, or worker count, and a cache hit is byte-identical to a
cold recompute at the same epoch.

Quarantine is a *measure-time filter*: phase panels are selected first
(pool-size-dependent ``rng.choice`` draws untouched), then quarantined
names are dropped from the probe list.  That is what makes incremental
re-audit sound — a server whose requested panel is disjoint from a
quarantine delta sees identical probe lists, consumes identical RNG
draws, and its cached verdict carries forward to the new epoch
unchanged.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from .. import config
from ..core.assessment import assess_claim
from ..core.base import GeolocationAlgorithm
from ..core.cbgpp import CBGPlusPlus
from ..core.disambiguation import AuditRecord
from ..core.observations import RttObservation
from ..core.proxy_adapter import ProxyMeasurer
from ..core.resilience import RetryPolicy
from ..core.twophase import (
    MIN_MULTILATERATION_OBSERVATIONS,
    TwoPhaseDriver,
    TwoPhaseMeasurement,
    TwoPhaseResult,
    TwoPhaseSelector,
)
from ..experiments.audit import AuditSink, campaign_eta
from ..experiments.scenario import Scenario
from ..geo.region import Region
from ..lrucache import CacheInfo, LruCache
from ..netsim.atlas import Landmark
from ..netsim.faults import FaultInjector, MeasurementFailed, resolve_fault_profile
from ..netsim.proxies import ProxyServer
from .epoch import EpochRollStats, TopologyEpoch

#: A query target: a server object, a fleet host id, or a hostname.
Target = Union[ProxyServer, int, str]

#: A verdict query: a bare target (claim defaults to the server's own
#: claimed country) or a ``(target, claim)`` pair.
Query = Union[Target, Tuple[Target, Optional[str]]]

#: One evaluated measurement, in fork-safe wire form: ``(host_id,
#: packed region bytes, deduced continent, used landmark names,
#: requested landmark names (sorted), degraded, notes, observations)``.
_Payload = Tuple[int, bytes, str, Tuple[str, ...], Tuple[str, ...], bool,
                 Tuple[str, ...], tuple]


@dataclass(frozen=True)
class _Measurement:
    """The measurement half of a verdict, cached per (host, epoch)."""

    region_bytes: bytes
    deduced_continent: str
    #: Phase-2 landmark names the prediction actually used.
    used_landmarks: Tuple[str, ...]
    #: Every landmark name the driver *asked* to probe — the dependency
    #: set: a quarantine delta disjoint from it cannot have changed this
    #: measurement.
    requested_landmarks: FrozenSet[str]
    degraded: bool
    notes: Tuple[str, ...]


@dataclass(frozen=True)
class CachedVerdict:
    """One finished claim assessment plus the measurement behind it."""

    measurement: _Measurement
    verdict: str
    continent_verdict: str
    countries: Tuple[str, ...]
    area_km2: float


@dataclass(frozen=True)
class VerdictResponse:
    """Everything one claim query returns.

    :meth:`canonical_json` serialises only the deterministic payload —
    ``cached`` and ``shed`` describe how this particular response was
    produced, not what the verdict is, and are excluded so byte-identity
    can be asserted across cold, cached, and batched paths.
    """

    hostname: str
    host_id: int
    claim: str
    verdict: str
    continent_verdict: str
    countries: Tuple[str, ...]
    area_km2: float
    deduced_continent: str
    used_landmarks: Tuple[str, ...]
    degraded: bool
    notes: Tuple[str, ...]
    epoch_digest: str
    region_sha256: str
    #: Served straight from the verdict cache.
    cached: bool = False
    #: Shed under overload instead of evaluated.
    shed: bool = False

    _VOLATILE = ("cached", "shed")

    def canonical_json(self) -> str:
        """Deterministic serialisation of the verdict payload."""
        payload = asdict(self)
        for name in self._VOLATILE:
            del payload[name]
        return json.dumps(payload, sort_keys=True)

    def to_json(self, latency_ms: Optional[float] = None) -> str:
        """Full wire serialisation (volatile fields included), plus the
        frontend's ``latency_ms`` when given."""
        payload: Dict[str, object] = asdict(self)
        if latency_ms is not None:
            payload["latency_ms"] = latency_ms
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def shed_response(cls, hostname: str, claim: str,
                      epoch_digest: str) -> "VerdictResponse":
        """The degraded verdict an overloaded frontend sheds with."""
        return cls(hostname=hostname, host_id=-1, claim=claim,
                   verdict="degraded", continent_verdict="unknown",
                   countries=(), area_km2=0.0, deduced_continent="unknown",
                   used_landmarks=(), degraded=True,
                   notes=("service overloaded: request shed",),
                   epoch_digest=epoch_digest, region_sha256="",
                   cached=False, shed=True)


class VerdictCache:
    """Bounded LRU of finished verdicts keyed ``(host, epoch, claim)``.

    A thin typed veneer over the shared :class:`repro.lrucache.LruCache`
    (the same implementation behind ``cached_audit``), so hit/miss/
    eviction accounting and the ``cache_info()``/``cache_clear()`` API
    cannot drift between the two call sites.
    """

    def __init__(self, maxsize: int) -> None:
        self._entries: "LruCache[Tuple[int, str, str], CachedVerdict]" = \
            LruCache(maxsize=maxsize)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[int, str, str]) -> Optional[CachedVerdict]:
        return self._entries.get(key)

    def peek(self, key: Tuple[int, str, str]) -> Optional[CachedVerdict]:
        return self._entries.peek(key)

    def put(self, key: Tuple[int, str, str], value: CachedVerdict) -> None:
        self._entries.put(key, value)

    def pop(self, key: Tuple[int, str, str]) -> Optional[CachedVerdict]:
        return self._entries.pop(key)

    def items(self) -> List[Tuple[Tuple[int, str, str], CachedVerdict]]:
        return self._entries.items()

    def cache_info(self) -> CacheInfo:
        return self._entries.cache_info()

    def cache_clear(self) -> None:
        self._entries.cache_clear()


def _knob_or(name: str, override: Optional[int]) -> int:
    """An explicit constructor argument, else the knob (0 = default)."""
    if override is not None:
        if override < 1:
            raise ValueError(f"{name} override must be >= 1: {override!r}")
        return override
    value = config.env_value(name)
    assert isinstance(value, int)
    if value > 0:
        return value
    default = config.knob(name).default
    assert isinstance(default, int)
    return default


#: Shared state for forked service workers; set immediately before the
#: pool is created so the fork snapshot carries the whole service —
#: scenario, warm CSR rows, driver — as copy-on-write pages.
_SERVICE_FORK_STATE: Optional["VerdictService"] = None


def _service_fork_worker(host_ids: List[int]) -> List[_Payload]:
    service = _SERVICE_FORK_STATE
    assert service is not None
    return service._evaluate_chunk(host_ids)


class VerdictService:
    """A long-running claim-credibility oracle over one warmed scenario.

    Construction does all the expensive work once — fault-profile
    resolution, the whole-fleet η fit, a batched Dijkstra warming every
    router a measurement can touch — and captures the result under a
    :class:`TopologyEpoch` digest.  After that, :meth:`verdict` and
    :meth:`verdict_batch` answer queries from the caches, micro-batching
    whatever is genuinely uncached into single ``predict_fleet`` sweeps.

    The service is deliberately socket-free; wrap it in
    :class:`repro.service.frontend.ServiceFrontend` (or ``repro serve``)
    for network access.
    """

    def __init__(self, scenario: Scenario, seed: int = 0,
                 fault_profile: Optional[object] = None,
                 algorithm: Optional[GeolocationAlgorithm] = None,
                 cache_slots: Optional[int] = None,
                 batch_max: Optional[int] = None,
                 workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 quarantined: Iterable[str] = ()) -> None:
        self.scenario = scenario
        self.seed = seed
        # Keep the *unresolved* profile argument: TopologyEpoch.capture
        # and campaign_eta apply run_audit's exact resolution chain
        # (explicit argument, else the scenario's own), so handing them
        # the original argument keeps all three resolutions identical.
        self._fault_profile_arg = fault_profile
        self._profile = resolve_fault_profile(
            fault_profile if fault_profile is not None
            else scenario.fault_profile)
        self._injector: Optional[FaultInjector] = None
        if self._profile is not None:
            self._injector = FaultInjector(self._profile, seed=seed)
            self._injector.schedule_outages(
                [lm.host.host_id for lm in scenario.atlas.all_landmarks()])
        if algorithm is None:
            algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
        self.algorithm = algorithm
        self._driver = TwoPhaseDriver(
            TwoPhaseSelector(scenario.atlas, seed=seed), algorithm)
        self.cache_slots = _knob_or("REPRO_SERVICE_CACHE_SLOTS", cache_slots)
        self.batch_max = _knob_or("REPRO_SERVICE_BATCH_MAX", batch_max)
        self.workers = _knob_or("REPRO_SERVICE_WORKERS", workers)
        self._retry_policy = retry_policy
        servers = scenario.all_servers()
        self._by_host_id = {s.host.host_id: s for s in servers}
        self._by_hostname = {s.hostname: s for s in servers}
        # One batched Dijkstra warms every row a query can touch, before
        # any worker pool forks — children inherit the rows
        # copy-on-write.  This is the single warm-up the examples used
        # to duplicate per request.
        scenario.network.warm_paths(
            [scenario.client]
            + [lm.host for lm in scenario.atlas.all_landmarks()]
            + [s.host for s in servers])
        self.eta = campaign_eta(scenario, seed, self._fault_profile_arg)
        self._quarantined: FrozenSet[str] = frozenset(quarantined)
        self.epoch = TopologyEpoch.capture(
            scenario, seed, self._fault_profile_arg, self._quarantined)
        self.verdict_cache = VerdictCache(self.cache_slots)
        self._measurements: "LruCache[Tuple[int, str], _Measurement]" = \
            LruCache(maxsize=self.cache_slots)

    # -- query API ------------------------------------------------------------

    def verdict(self, target: Target,
                claim: Optional[str] = None) -> VerdictResponse:
        """One claim verdict (claim defaults to the server's own)."""
        return self.verdict_batch([(target, claim)])[0]

    def verdict_batch(self, queries: Sequence[Query]
                      ) -> List[VerdictResponse]:
        """Verdicts for many queries, coalescing uncached measurement.

        Each query is a target (server / fleet host id / hostname) or a
        ``(target, claim)`` pair; ``claim=None`` means the server's own
        claimed country.  Responses come back in query order and are
        byte-identical (per :meth:`VerdictResponse.canonical_json`) no
        matter how the queries are split across calls or workers.
        """
        normalized = [self._normalize(query) for query in queries]
        digest = self.epoch.digest
        responses: List[Optional[VerdictResponse]] = [None] * len(normalized)
        pending: List[int] = []
        for at, (server, claim) in enumerate(normalized):
            entry = self.verdict_cache.get(
                (server.host.host_id, digest, claim))
            if entry is not None:
                responses[at] = self._response(server, claim, entry,
                                               cached=True)
            else:
                pending.append(at)

        # Second chance: an already-measured host queried with a new
        # claim needs only a region/country intersection.
        unmeasured: Dict[int, ProxyServer] = {}
        missing: List[int] = []
        for at in pending:
            server, claim = normalized[at]
            host_id = server.host.host_id
            measurement = self._measurements.get((host_id, digest))
            if measurement is not None:
                responses[at] = self._resolve(server, claim, measurement)
            else:
                unmeasured.setdefault(host_id, server)
                missing.append(at)

        if missing:
            # Resolve from the batch's own results: a batch measuring more
            # hosts than the cache holds evicts its earliest entries.
            measured: Dict[int, _Measurement] = {}
            for host_id, payload in self._evaluate(unmeasured).items():
                measured[host_id] = _measurement_from(payload)
                self._measurements.put((host_id, digest), measured[host_id])
            for at in missing:
                server, claim = normalized[at]
                responses[at] = self._resolve(
                    server, claim, measured[server.host.host_id])
        return [response for response in responses if response is not None]

    def region_of(self, target: Target) -> Region:
        """The multilateration region for a target (measured if needed)."""
        server = self._resolve_target(target)
        self.verdict(server)
        measurement = self._measurements.peek(
            (server.host.host_id, self.epoch.digest))
        assert measurement is not None
        return Region.from_packbits(self.algorithm.grid,
                                    measurement.region_bytes)

    # -- epoch management -----------------------------------------------------

    def roll_epoch(self, quarantined: Optional[Iterable[str]] = None,
                   reaudit: bool = True,
                   sink: Optional[AuditSink] = None) -> EpochRollStats:
        """Move to a new epoch, invalidating only dependent entries.

        ``quarantined`` replaces the measure-time exclusion set (None
        keeps the current one — useful after external substrate churn).
        Cached measurements whose requested panel is disjoint from the
        quarantine delta carry forward byte-identically; the rest are
        flushed and — with ``reaudit`` — re-evaluated immediately in
        micro-batches, each re-audited fleet server streaming an
        :class:`AuditRecord` through ``sink`` (the PR-7 sink machinery)
        rather than rematerialising the fleet.  A substrate change
        (landmark churn, topology edits) flushes everything.
        """
        names = frozenset(self._quarantined if quarantined is None
                          else quarantined)
        new = TopologyEpoch.capture(self.scenario, self.seed,
                                    self._fault_profile_arg, names)
        old = self.epoch
        stats = EpochRollStats(old_digest=old.digest, new_digest=new.digest)
        if new.digest == old.digest:
            stats.unchanged = True
            return stats
        delta = old.quarantine_delta(new)
        stats.full_invalidation = delta is None
        stats.delta = () if delta is None else tuple(sorted(delta))

        flushed_hosts: Set[int] = set()
        for (host_id, digest), measurement in self._measurements.items():
            self._measurements.pop((host_id, digest))
            if digest != old.digest:
                continue  # a leftover from an even older epoch: dead
            if delta is not None and not (measurement.requested_landmarks
                                          & delta):
                self._measurements.put((host_id, new.digest), measurement)
                stats.carried_forward += 1
            else:
                flushed_hosts.add(host_id)
                stats.flushed += 1

        flushed_claims: List[Tuple[int, str]] = []
        for (host_id, digest, claim), entry in self.verdict_cache.items():
            self.verdict_cache.pop((host_id, digest, claim))
            if digest != old.digest:
                continue
            if delta is not None and not (
                    entry.measurement.requested_landmarks & delta):
                self.verdict_cache.put((host_id, new.digest, claim), entry)
            else:
                flushed_claims.append((host_id, claim))

        self.epoch = new
        self._quarantined = names

        if reaudit and flushed_hosts:
            # Only fleet servers can be re-audited eagerly; ad-hoc
            # targets (e.g. a web demo visitor) re-measure lazily on
            # their next query.
            targets = {host_id: self._by_host_id[host_id]
                       for host_id in sorted(flushed_hosts)
                       if host_id in self._by_host_id}
            payloads = self._evaluate(targets)
            for host_id in sorted(payloads):
                payload = payloads[host_id]
                self._measurements.put((host_id, new.digest),
                                       _measurement_from(payload))
                stats.reevaluated += 1
                stats.reevaluated_hosts.append(host_id)
                if sink is not None:
                    sink.accept(self._record_from_payload(payload))
            for host_id, claim in flushed_claims:
                measurement = self._measurements.peek((host_id, new.digest))
                server = self._by_host_id.get(host_id)
                if measurement is None or server is None:
                    continue
                self.verdict_cache.put(
                    (host_id, new.digest, claim),
                    self._assess(claim, measurement))
        return stats

    # -- introspection --------------------------------------------------------

    def cache_info(self) -> Dict[str, CacheInfo]:
        """Counters for both cache layers, benchmark-consumable."""
        return {"verdicts": self.verdict_cache.cache_info(),
                "measurements": self._measurements.cache_info()}

    def cache_clear(self) -> None:
        """Drop both cache layers (the epoch is unaffected)."""
        self.verdict_cache.cache_clear()
        self._measurements.cache_clear()

    @property
    def quarantined(self) -> FrozenSet[str]:
        return self._quarantined

    # -- evaluation back end --------------------------------------------------

    def _normalize(self, query: Query) -> Tuple[ProxyServer, str]:
        if isinstance(query, tuple):
            target, claim = query
        else:
            target, claim = query, None
        server = self._resolve_target(target)
        return server, claim if claim is not None else server.claimed_country

    def _resolve_target(self, target: Target) -> ProxyServer:
        if isinstance(target, ProxyServer):
            return target
        if isinstance(target, int):
            server = self._by_host_id.get(target)
            if server is None:
                raise KeyError(f"no fleet server with host id {target!r}")
            return server
        if isinstance(target, str):
            named = self._by_hostname.get(target)
            if named is None:
                raise KeyError(f"no fleet server named {target!r}")
            return named
        raise TypeError(f"cannot resolve query target {target!r}")

    def _resolve(self, server: ProxyServer, claim: str,
                 measurement: _Measurement) -> VerdictResponse:
        """Assess a cached measurement against a claim, filling caches."""
        key = (server.host.host_id, self.epoch.digest, claim)
        entry = self.verdict_cache.peek(key)
        if entry is None:
            entry = self._assess(claim, measurement)
            self.verdict_cache.put(key, entry)
        return self._response(server, claim, entry, cached=False)

    def _assess(self, claim: str,
                measurement: _Measurement) -> CachedVerdict:
        region = Region.from_packbits(self.algorithm.grid,
                                      measurement.region_bytes)
        assessment = assess_claim(region, claim, self.scenario.worldmap)
        return CachedVerdict(
            measurement=measurement,
            verdict=assessment.verdict.value,
            continent_verdict=assessment.continent_verdict.value,
            countries=tuple(assessment.countries_covered),
            area_km2=assessment.region_area_km2)

    def _response(self, server: ProxyServer, claim: str,
                  entry: CachedVerdict, cached: bool) -> VerdictResponse:
        measurement = entry.measurement
        return VerdictResponse(
            hostname=server.hostname,
            host_id=server.host.host_id,
            claim=claim,
            verdict=entry.verdict,
            continent_verdict=entry.continent_verdict,
            countries=entry.countries,
            area_km2=entry.area_km2,
            deduced_continent=measurement.deduced_continent,
            used_landmarks=measurement.used_landmarks,
            degraded=measurement.degraded,
            notes=measurement.notes,
            epoch_digest=self.epoch.digest,
            region_sha256=hashlib.sha256(
                measurement.region_bytes).hexdigest(),
            cached=cached)

    def _measure_one(self, server: ProxyServer
                     ) -> Tuple[Union[TwoPhaseMeasurement,
                                      MeasurementFailed], Set[str]]:
        """Collect one server's measurement under the quarantine filter.

        RNG keying, measurer construction, and measurement-epoch scoping
        mirror the audit pipeline's ``_collect_one`` exactly; the only
        addition is the recording wrapper, which (a) accumulates every
        landmark name the driver requests — the measurement's dependency
        set — and (b) drops quarantined names at probe time, *after*
        panel selection, so panels (and their RNG draws) are independent
        of the quarantine set.
        """
        rng = np.random.default_rng((self.seed, server.host.host_id))
        measurer = ProxyMeasurer(self.scenario.network, self.scenario.client,
                                 server, eta=self.eta.eta,
                                 seed=server.host.host_id,
                                 retry_policy=self._retry_policy)
        requested: Set[str] = set()
        quarantined = self._quarantined

        def measure(landmarks: Sequence[Landmark]) -> List[RttObservation]:
            requested.update(lm.name for lm in landmarks)
            kept = [lm for lm in landmarks if lm.name not in quarantined]
            return measurer.observe(kept)

        with self.scenario.network.measurement_epoch_for(server.host):
            try:
                return self._driver.collect(measure, rng), requested
            except MeasurementFailed as exc:
                return exc, requested

    def _evaluate_chunk(self, host_ids: List[int]) -> List[_Payload]:
        """Measure a chunk of hosts, one ``predict_fleet`` sweep.

        The structure mirrors the audit pipeline's ``_fleet_payloads``:
        measurement stays per-server, a dead tunnel yields the
        empty-region payload, an observation-starved measurement is
        finished scalar, and everything else shares one vectorized
        multilateration pass.
        """
        payloads: List[_Payload] = []
        fleet: List[tuple] = []
        with self.scenario.network.faults_installed(self._injector):
            for host_id in host_ids:
                server = self._by_host_id.get(host_id)
                assert server is not None
                collected, requested = self._measure_one(server)
                if isinstance(collected, MeasurementFailed):
                    region = Region.empty(self.algorithm.grid)
                    payloads.append((
                        host_id, region.packed_bytes(), "unknown", (),
                        tuple(sorted(requested)), True,
                        (f"tunnel unreachable: {collected}",), ()))
                elif (len(collected.observations)
                      < MIN_MULTILATERATION_OBSERVATIONS):
                    payloads.append(self._payload_from(
                        host_id, self._driver.finish(collected), requested))
                else:
                    fleet.append((host_id, collected, requested))
            if fleet:
                predictions = self.algorithm.predict_fleet(
                    [measurement.observations
                     for _, measurement, _ in fleet])
                for (host_id, measurement, requested), prediction in zip(
                        fleet, predictions):
                    payloads.append(self._payload_from(
                        host_id,
                        self._driver.finish(measurement, prediction),
                        requested))
        order = {host_id: at for at, host_id in enumerate(host_ids)}
        payloads.sort(key=lambda payload: order[payload[0]])
        return payloads

    def _payload_from(self, host_id: int, result: TwoPhaseResult,
                      requested: Set[str]) -> _Payload:
        observations = (tuple(result.phase2_observations)
                        + tuple(result.phase1_observations))
        return (host_id, result.prediction.region.packed_bytes(),
                result.deduced_continent, tuple(result.phase2_landmarks),
                tuple(sorted(requested)), result.degraded,
                tuple(result.notes), observations)

    def _evaluate(self, targets: Dict[int, ProxyServer]
                  ) -> Dict[int, _Payload]:
        """Measure every target, micro-batched, optionally forked.

        Ad-hoc targets (servers outside the fleet index) are registered
        before evaluation so chunks can address them by host id; the
        registration is permanent — the service now knows the host.
        """
        for host_id, server in targets.items():
            if host_id not in self._by_host_id:
                self._by_host_id[host_id] = server
                self._by_hostname[server.hostname] = server
        host_ids = list(targets)
        chunks = [host_ids[at:at + self.batch_max]
                  for at in range(0, len(host_ids), self.batch_max)]
        out: Dict[int, _Payload] = {}
        workers = min(self.workers, len(chunks))
        use_fork = (workers > 1
                    and "fork" in multiprocessing.get_all_start_methods())
        if use_fork:
            # Workers inherit the calibration plane instead of each
            # building its own.
            self.algorithm.calibrations.ensure_plane()
            global _SERVICE_FORK_STATE
            context = multiprocessing.get_context("fork")
            _SERVICE_FORK_STATE = self
            try:
                with ProcessPoolExecutor(max_workers=workers,
                                         mp_context=context) as pool:
                    futures = [pool.submit(_service_fork_worker, chunk)
                               for chunk in chunks]
                    for future in as_completed(futures):
                        for payload in future.result():
                            out[payload[0]] = payload
            finally:
                _SERVICE_FORK_STATE = None
        else:
            for chunk in chunks:
                for payload in self._evaluate_chunk(chunk):
                    out[payload[0]] = payload
        return out

    def _record_from_payload(self, payload: _Payload) -> AuditRecord:
        """An audit record for the sink, built the audit pipeline's way."""
        (host_id, packed, _continent, used, _requested, degraded, notes,
         observations) = payload
        server = self._by_host_id[host_id]
        region = Region.from_packbits(self.algorithm.grid, packed)
        assessment = assess_claim(region, server.claimed_country,
                                  self.scenario.worldmap)
        return AuditRecord(
            server=server,
            region=region,
            assessment=assessment,
            initial_verdict=assessment.verdict,
            observations=list(observations),
            landmark_names=list(used),
            degraded=degraded,
            failure_notes=list(notes))


def _measurement_from(payload: _Payload) -> _Measurement:
    (_host_id, packed, continent, used, requested, degraded, notes,
     _observations) = payload
    return _Measurement(
        region_bytes=packed,
        deduced_continent=continent,
        used_landmarks=used,
        requested_landmarks=frozenset(requested),
        degraded=degraded,
        notes=notes)
