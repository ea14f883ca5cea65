"""Scenario construction: one call builds the entire simulated study.

A :class:`Scenario` bundles every substrate instance an experiment needs —
world map, topology, network, Atlas constellation, calibrations, crowd
cohort, proxy fleet, IP-database panel, and the Frankfurt measurement
client the paper used.  Scenarios are deterministic in their seed.

Two standard sizes:

* :func:`default_scenario` — memoised, reduced proxy fleet (~a quarter of
  the paper's), used by the test suite and the benchmark harness so a full
  run stays in minutes.
* :func:`paper_scale_scenario` — the full ~2269-server fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..geo.countries import CountryRegistry
from ..geo.datacenters import DataCenterRegistry
from ..geo.grid import Grid
from ..geo.worldmap import WorldMap
from ..netsim.atlas import AtlasConstellation
from ..netsim.cities import build_cities
from ..netsim.faults import FaultProfile, resolve_fault_profile
from ..netsim.crowd import CrowdHost, build_crowd
from ..netsim.hosts import Host, HostFactory
from ..netsim.ipdb import IpdbPanel
from ..netsim.network import Network
from ..netsim.proxies import VpnProvider, build_proxy_fleet
from ..netsim.topology import build_topology
from ..core.calibrationset import CalibrationSet

#: Where the paper's measurement client lived.
FRANKFURT = (50.11, 8.68)

#: Reduced continental quotas for the default (fast) scenario.
SMALL_ANCHOR_QUOTAS: Dict[str, int] = {
    "EU": 40, "NA": 20, "AS": 12, "SA": 7, "AF": 6, "OC": 5, "AU": 4, "CA": 3,
}
SMALL_PROBE_QUOTAS: Dict[str, int] = {
    "EU": 60, "NA": 40, "AS": 25, "SA": 14, "AF": 12, "OC": 10, "AU": 7, "CA": 6,
}
SMALL_CROWD_QUOTAS: Dict[str, int] = {
    "EU": 16, "NA": 14, "AS": 7, "SA": 4, "AF": 3, "OC": 3, "CA": 2, "AU": 2,
}


@dataclass
class Scenario:
    """Every substrate instance one experiment run needs."""

    seed: int
    registry: CountryRegistry
    grid: Grid
    worldmap: WorldMap
    datacenters: DataCenterRegistry
    topology: object
    network: Network
    factory: HostFactory
    atlas: AtlasConstellation
    calibrations: CalibrationSet
    crowd: List[CrowdHost]
    providers: List[VpnProvider]
    ipdb: IpdbPanel
    client: Host
    #: Default fault profile for audits over this scenario (None = the
    #: perfect substrate).  ``run_audit``'s ``fault_profile`` argument
    #: overrides it per run.
    fault_profile: Optional[FaultProfile] = None

    def all_servers(self):
        """Every proxy server across all providers, in provider order."""
        return [server for provider in self.providers
                for server in provider.servers]

    def true_country_of(self, server) -> Optional[str]:
        """Ground-truth country for a proxy server, from the world map."""
        return self.worldmap.country_at(server.host.lat, server.host.lon)


def build_scenario(seed: int = 0,
                   grid_resolution: float = 1.0,
                   proxy_scale: float = 1.0,
                   anchor_quotas: Optional[Dict[str, int]] = None,
                   probe_quotas: Optional[Dict[str, int]] = None,
                   crowd_quotas: Optional[Dict[str, int]] = None,
                   fault_profile: Optional[object] = None,
                   path_engine: Optional[str] = None) -> Scenario:
    """Construct a fully wired scenario.

    Build order matters: the proxy fleet adds hosting ASes to the
    topology, so it is created before any latency caches warm up.

    ``fault_profile`` (a profile, a name from ``FAULT_PROFILES``, or
    None) becomes the scenario's default for audits; the substrate itself
    is built fault-free either way — faults afflict live measurements,
    never the calibration archive.
    """
    registry = CountryRegistry.default()
    grid = Grid(resolution_deg=grid_resolution)
    worldmap = WorldMap(registry=registry, grid=grid)
    datacenters = DataCenterRegistry.from_registry(registry)
    cities = build_cities(registry)
    topology = build_topology(cities, seed=seed)
    network = Network(topology, seed=seed + 1, path_engine=path_engine)
    factory = HostFactory(topology, seed=seed + 2)
    providers = build_proxy_fleet(network, factory, datacenters,
                                  registry=registry, seed=seed + 3,
                                  scale=proxy_scale)
    atlas = AtlasConstellation(network, factory, seed=seed + 4,
                               anchor_quotas=anchor_quotas,
                               probe_quotas=probe_quotas)
    calibrations = CalibrationSet(atlas, grid=grid)
    crowd = build_crowd(factory, worldmap, seed=seed + 5, quotas=crowd_quotas)
    ipdb = IpdbPanel(registry=registry, seed=seed + 6)
    client = factory.create(*FRANKFURT, name="client-frankfurt", os="linux")
    return Scenario(
        seed=seed,
        registry=registry,
        grid=grid,
        worldmap=worldmap,
        datacenters=datacenters,
        topology=topology,
        network=network,
        factory=factory,
        atlas=atlas,
        calibrations=calibrations,
        crowd=crowd,
        providers=providers,
        ipdb=ipdb,
        client=client,
        fault_profile=resolve_fault_profile(fault_profile),
    )


_SCENARIO_CACHE: Dict[Tuple, Scenario] = {}


def default_scenario(seed: int = 0,
                     path_engine: Optional[str] = None) -> Scenario:
    """The memoised fast scenario used by tests and benchmarks."""
    key = ("default", seed, path_engine)
    if key not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[key] = build_scenario(
            seed=seed,
            proxy_scale=0.35,
            anchor_quotas=SMALL_ANCHOR_QUOTAS,
            probe_quotas=SMALL_PROBE_QUOTAS,
            crowd_quotas=SMALL_CROWD_QUOTAS,
            path_engine=path_engine,
        )
    return _SCENARIO_CACHE[key]


def paper_scale_scenario(seed: int = 0) -> Scenario:
    """The full-size scenario (~250 anchors, ~2269 proxies)."""
    key = ("paper", seed)
    if key not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[key] = build_scenario(seed=seed, proxy_scale=1.0)
    return _SCENARIO_CACHE[key]
