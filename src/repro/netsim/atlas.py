"""A RIPE-Atlas-like measurement constellation.

Roughly 250 "anchors" and a larger population of "probes", placed with the
same continental skew as the real RIPE Atlas (Figure 3 of the paper:
most anchors in Europe, North America well represented, a handful in
Africa).  Anchors continuously ping each other; the resulting full-mesh
database is what the geolocation algorithms calibrate their per-landmark
delay–distance models from, exactly as the paper does with RIPE's public
measurement archive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geodesy.greatcircle import haversine_km_exact
from .cities import City
from .hosts import Host, HostFactory
from .meshdraw import mesh_one_way_ms
from .network import Network

#: Target anchor counts per continent, mirroring the paper's Figure 3 skew.
ANCHOR_QUOTAS: Dict[str, int] = {
    "EU": 118, "NA": 55, "AS": 28, "SA": 14, "AF": 12, "OC": 10, "AU": 8, "CA": 5,
}

#: Probe counts per continent (probes are also skewed, but less so).
PROBE_QUOTAS: Dict[str, int] = {
    "EU": 300, "NA": 180, "AS": 120, "SA": 60, "AF": 50, "OC": 40, "AU": 30, "CA": 25,
}


class MeshArchive:
    """The dense mesh-ping archive: one row per landmark, one column per
    anchor, holding the pair's minimum one-way delay in ms (NaN where a
    landmark is the anchor itself)."""

    def __init__(self, landmark_ids: np.ndarray, anchor_ids: np.ndarray,
                 one_way_ms: np.ndarray):
        if one_way_ms.shape != (len(landmark_ids), len(anchor_ids)):
            raise ValueError("archive shape disagrees with its host ids")
        self.landmark_ids = landmark_ids
        self.anchor_ids = anchor_ids
        self.one_way_ms = one_way_ms
        self._row = {host_id: at
                     for at, host_id in enumerate(landmark_ids.tolist())}
        self._col = {host_id: at
                     for at, host_id in enumerate(anchor_ids.tolist())}

    def row_of(self, host_id: int) -> Optional[int]:
        return self._row.get(host_id)

    def col_of(self, host_id: int) -> Optional[int]:
        return self._col.get(host_id)

    def lookup(self, a: int, b: int) -> Optional[float]:
        """The archived value of host pair ``(a, b)``, if it holds one."""
        if a == b:
            return None
        row, col = self._row.get(a), self._col.get(b)
        if row is None or col is None:
            row, col = self._row.get(b), self._col.get(a)
            if row is None or col is None:
                return None
        return float(self.one_way_ms[row, col])

    def lookup_row(self, a: int, peers: Sequence[int]) -> np.ndarray:
        """:meth:`lookup` of ``(a, b)`` for every ``b`` in ``peers``, read
        from slices of ``a``'s row and column; NaN where it holds none."""
        ids = np.asarray(peers, dtype=np.int64)
        values = np.full(len(ids), np.nan)
        row, col = self._row.get(a), self._col.get(a)
        found = np.zeros(len(ids), dtype=bool)
        if row is not None:
            cols = np.array([self._col.get(b, -1) for b in ids.tolist()],
                            dtype=np.intp)
            found = (ids != a) & (cols >= 0)
            values[found] = self.one_way_ms[row, cols[found]]
        if col is not None:
            rows = np.array([self._row.get(b, -1) for b in ids.tolist()],
                            dtype=np.intp)
            back = (ids != a) & ~found & (rows >= 0)
            values[back] = self.one_way_ms[rows[back], col]
        return values


def _peer_table(peers: Sequence["Landmark"]
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Host ids and reported positions of calibration peers, as arrays."""
    return (np.array([peer.host.host_id for peer in peers], dtype=np.int64),
            np.array([peer.lat for peer in peers], dtype=np.float64),
            np.array([peer.lon for peer in peers], dtype=np.float64))


def _calibration_points(landmark: "Landmark", lats: np.ndarray,
                        lons: np.ndarray, delays: "np.ndarray | Sequence[float]"
                        ) -> List[Tuple[float, float]]:
    """Pair each peer's delay with its distance from the landmark."""
    if len(lats) < 2:
        raise ValueError(f"not enough peers to calibrate {landmark.name!r}")
    # Distances are computed from *reported* coordinates — the pipeline
    # cannot know a probe's registration is wrong.
    distances = haversine_km_exact(landmark.lat, landmark.lon, lats, lons)
    return list(zip(distances.tolist(),
                    np.asarray(delays, dtype=np.float64).tolist()))


@dataclass(frozen=True)
class Landmark:
    """A constellation host usable as a geolocation landmark.

    ``reported_lat/lon`` model RIPE's user-supplied probe locations: for a
    small fraction of probes they are wrong, and the geolocation pipeline
    (which can only see the reported coordinates) inherits that error.
    Anchors' documented locations are accurate.
    """

    host: Host
    kind: str  # "anchor" or "probe"
    reported_lat: Optional[float] = None
    reported_lon: Optional[float] = None

    @property
    def lat(self) -> float:
        """The location the pipeline believes — reported, not true."""
        return self.reported_lat if self.reported_lat is not None else self.host.lat

    @property
    def lon(self) -> float:
        return self.reported_lon if self.reported_lon is not None else self.host.lon

    @property
    def location_is_wrong(self) -> bool:
        return (self.reported_lat is not None
                and (abs(self.reported_lat - self.host.lat) > 0.5
                     or abs(self.reported_lon - self.host.lon) > 0.5))

    @property
    def name(self) -> str:
        return self.host.name


class AtlasConstellation:
    """Anchors + probes + the mesh-ping database they continuously produce."""

    #: Ping samples per landmark pair in the "two-week" calibration window.
    CALIBRATION_SAMPLES = 8

    #: Fraction of probes whose user-reported location is wrong (shifted by
    #: hundreds of km).  Zero for anchors.
    PROBE_LOCATION_ERROR_RATE = 0.03

    def __init__(self, network: Network, factory: HostFactory, seed: int = 0,
                 anchor_quotas: Optional[Dict[str, int]] = None,
                 probe_quotas: Optional[Dict[str, int]] = None):
        self.network = network
        self._rng = np.random.default_rng(seed)
        self._factory = factory
        self.anchors: List[Landmark] = []
        self.probes: List[Landmark] = []
        self.decommissioned: List[Landmark] = []
        self._mesh: Optional[MeshArchive] = None
        self._mesh_version: Optional[Tuple[int, int]] = None
        self._churn_counter = 0
        self._membership_version = 0  # bumped by every churn
        self._anchor_peers_version: Optional[int] = None
        self._anchor_peers = _peer_table([])
        self._place(factory, anchor_quotas or ANCHOR_QUOTAS,
                    probe_quotas or PROBE_QUOTAS)

    # -- placement ----------------------------------------------------------

    def _eligible_cities(self, continent: str, for_anchors: bool) -> List[City]:
        cities = [c for c in self.network.topology.cities
                  if c.continent == continent and not c.satellite_only]
        if for_anchors:
            # Anchors live in well-connected facilities; prefer hubs but
            # fall back to any city on sparse continents.
            hubs = [c for c in cities if c.is_hub]
            return hubs if hubs else cities
        return cities

    def _place_cohort(self, factory: HostFactory, quotas: Dict[str, int],
                      kind: str) -> List[Landmark]:
        cohort: List[Landmark] = []
        for continent, quota in sorted(quotas.items()):
            cities = self._eligible_cities(continent, for_anchors=(kind == "anchor"))
            if not cities:
                continue
            for i in range(quota):
                city = cities[int(self._rng.integers(len(cities)))]
                # Jitter within ~30 km of the city centre.
                lat = city.lat + float(self._rng.normal(0.0, 0.15))
                lon = city.lon + float(self._rng.normal(0.0, 0.15))
                lat = max(-89.9, min(89.9, lat))
                lon = max(-179.9, min(179.9, lon))
                host = factory.create(
                    lat, lon, name=f"{kind}-{continent}-{i}",
                    os="linux",
                    responds_to_ping=True,
                    listens_on_port_80=bool(self._rng.random() < 0.5),
                    city_id=city.city_id)
                reported_lat = reported_lon = None
                if (kind == "probe"
                        and self._rng.random() < self.PROBE_LOCATION_ERROR_RATE):
                    # User typo / stale registration: off by 200-1500 km.
                    reported_lat = max(-89.9, min(89.9, lat + float(
                        self._rng.uniform(-8.0, 8.0))))
                    reported_lon = max(-179.9, min(179.9, lon + float(
                        self._rng.uniform(-12.0, 12.0))))
                cohort.append(Landmark(host=host, kind=kind,
                                       reported_lat=reported_lat,
                                       reported_lon=reported_lon))
        return cohort

    def _place(self, factory: HostFactory, anchor_quotas: Dict[str, int],
               probe_quotas: Dict[str, int]) -> None:
        self.anchors = self._place_cohort(factory, anchor_quotas, "anchor")
        self.probes = self._place_cohort(factory, probe_quotas, "probe")

    # -- mesh database --------------------------------------------------------

    def all_landmarks(self) -> List[Landmark]:
        return self.anchors + self.probes

    def mesh_version(self) -> Tuple[int, int]:
        """Changes whenever the archive's inputs may have: the topology
        was mutated or the constellation churned."""
        return (self.network.topology.version, self._membership_version)

    def _draw(self, pairs: Sequence[Tuple[Landmark, Landmark]]
              ) -> np.ndarray:
        """Fresh archive values of landmark pairs, in either order given.

        Each pair is drawn in the canonical direction, higher host id
        first, whichever landmark the caller names first.
        """
        highs: List[Host] = []
        lows: List[Host] = []
        for a, b in pairs:
            high, low = (a.host, b.host) if a.host.host_id >= b.host.host_id \
                else (b.host, a.host)
            highs.append(high)
            lows.append(low)
        return mesh_one_way_ms(self.network, highs, lows,
                               self.CALIBRATION_SAMPLES)

    def ensure_mesh(self) -> MeshArchive:
        """The current constellation's mesh archive, built on first use.

        Models the paper's use of two weeks of archived mesh pings: each
        landmark row holds the landmark's minimum observed one-way delay
        to every anchor.  One batched draw
        (:func:`~repro.netsim.meshdraw.mesh_one_way_ms`) computes every
        unordered pair once, so the archive does not depend on which
        landmark was calibrated first.  A topology mutation or churn
        starts a new archive; a persisted one arrives through
        :meth:`adopt_mesh`.
        """
        if self._mesh is not None and self._mesh_version == self.mesh_version():
            return self._mesh
        landmarks = self.all_landmarks()
        archive = MeshArchive(
            np.array([lm.host.host_id for lm in landmarks], dtype=np.int64),
            np.array([lm.host.host_id for lm in self.anchors], dtype=np.int64),
            np.full((len(landmarks), len(self.anchors)), np.nan))
        ids, anchor_ids = archive.landmark_ids[:, None], archive.anchor_ids
        is_anchor = np.isin(archive.landmark_ids, anchor_ids)
        # Each unordered pair once: a probe row owns its pairs, and an
        # anchor–anchor pair belongs to the row of its higher id.
        owned = (ids != anchor_ids) & (~is_anchor[:, None] | (ids > anchor_ids))
        rows, cols = np.nonzero(owned)
        values = self._draw([(landmarks[row], self.anchors[col]) for row, col
                             in zip(rows.tolist(), cols.tolist())])
        archive.one_way_ms[rows, cols] = values
        # Mirror each anchor–anchor value into the other anchor's row.
        mirrored = is_anchor[rows]
        archive.one_way_ms[
            [archive.row_of(i) for i in anchor_ids[cols[mirrored]].tolist()],
            [archive.col_of(i) for i in ids[rows[mirrored], 0].tolist()],
        ] = values[mirrored]
        self.adopt_mesh(archive)
        return archive

    def adopt_mesh(self, archive: MeshArchive) -> None:
        """Install an archive built for the current constellation."""
        if (archive.landmark_ids.tolist()
                != [lm.host.host_id for lm in self.all_landmarks()]
                or archive.anchor_ids.tolist()
                != [lm.host.host_id for lm in self.anchors]):
            raise ValueError("mesh archive built for another constellation")
        self._mesh = archive
        self._mesh_version = self.mesh_version()

    def mesh_row(self, landmark: Landmark) -> np.ndarray:
        """A landmark's archive row drawn afresh, bypassing the archive
        (NaN where the anchor is the landmark itself)."""
        row = np.full(len(self.anchors), np.nan)
        cols = [at for at, anchor in enumerate(self.anchors)
                if anchor.host.host_id != landmark.host.host_id]
        row[cols] = self._draw([(landmark, self.anchors[at]) for at in cols])
        return row

    def min_one_way_ms(self, a: Landmark, b: Landmark) -> float:
        """Minimum archived one-way delay between two landmarks, ms.

        Half the minimum of several fault-free RTT samples, seeded per
        pair so the "database" is stable.  Pairs outside the current
        archive (a decommissioned anchor, two probes) are drawn on
        demand by the same batched draw, so they get the value an
        archive holding them would.
        """
        value = self.ensure_mesh().lookup(a.host.host_id, b.host.host_id)
        if value is None:
            value = float(self._draw([(a, b)])[0])
        return value

    def calibration_data(self, landmark: Landmark,
                         peers: Optional[Sequence[Landmark]] = None
                         ) -> List[Tuple[float, float]]:
        """(distance_km, min_one_way_ms) pairs for fitting a delay model.

        By default a landmark is calibrated against every *anchor* (probes
        do not ping the full mesh), excluding itself.
        """
        host_id = landmark.host.host_id
        if peers is None:
            peers = self.anchors
            ids, lats, lons = self._anchor_table()
        else:
            ids, lats, lons = _peer_table(peers)
        keep = np.flatnonzero(ids != host_id)
        delays = self.ensure_mesh().lookup_row(host_id, ids[keep])
        missing = np.flatnonzero(np.isnan(delays))
        if len(missing):
            delays[missing] = self._draw(
                [(landmark, peers[at]) for at in keep[missing].tolist()])
        return _calibration_points(landmark, lats[keep], lons[keep], delays)

    def _anchor_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_peer_table` of the anchors, rebuilt after churn."""
        if self._anchor_peers_version != self._membership_version:
            self._anchor_peers = _peer_table(self.anchors)
            self._anchor_peers_version = self._membership_version
        return self._anchor_peers

    @staticmethod
    def calibration_points(landmark: Landmark, peers: Sequence[Landmark],
                           delays: Sequence[float]
                           ) -> List[Tuple[float, float]]:
        """Pair each peer's delay with its distance from the landmark."""
        _, lats, lons = _peer_table(peers)
        return _calibration_points(landmark, lats, lons, delays)

    def apply_churn(self, n_decommission: int = 0, n_add: int = 0,
                    rng: Optional[np.random.Generator] = None) -> None:
        """Simulate constellation churn over a measurement campaign.

        The paper (section 4): "At the time we began our experiments ...
        there were 207 usable anchors; during the course of the
        experiment, 12 were decommissioned and another 61 were added."
        Decommissioned anchors stop being selectable as landmarks (their
        archived mesh pings stay queryable, as RIPE's archive does);
        added anchors appear at hub cities like the originals.

        Churn changes the calibration plane's key, so the next
        calibration rebuilds the plane over the new constellation;
        rebuild :class:`~repro.core.calibrationset.CalibrationSet` to
        look up the newcomers by name.
        """
        rng = rng if rng is not None else self._rng
        if n_decommission > len(self.anchors) - 8:
            raise ValueError("cannot decommission nearly the whole constellation")
        self._membership_version += 1
        for _ in range(n_decommission):
            index = int(rng.integers(len(self.anchors)))
            self.decommissioned.append(self.anchors.pop(index))
        for i in range(n_add):
            continent = ("EU", "NA", "AS")[int(rng.integers(3))]
            cities = self._eligible_cities(continent, for_anchors=True)
            city = cities[int(rng.integers(len(cities)))]
            self._churn_counter += 1
            host = self._factory.create(
                city.lat + float(rng.normal(0.0, 0.15)),
                city.lon + float(rng.normal(0.0, 0.15)),
                name=f"anchor-new-{self._churn_counter}",
                os="linux", responds_to_ping=True,
                listens_on_port_80=bool(rng.random() < 0.5),
                city_id=city.city_id)
            self.anchors.append(Landmark(host=host, kind="anchor"))

    def landmarks_on_continent(self, continent: str) -> List[Landmark]:
        """Anchors and stable probes located on a continent."""
        topology = self.network.topology
        return [lm for lm in self.all_landmarks()
                if topology.city(lm.host.city_id).continent == continent]

    def anchors_on_continent(self, continent: str) -> List[Landmark]:
        topology = self.network.topology
        return [lm for lm in self.anchors
                if topology.city(lm.host.city_id).continent == continent]
