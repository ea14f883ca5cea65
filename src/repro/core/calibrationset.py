"""Calibration management: per-landmark delay models over one plane.

The measurement server in the paper "updates a delay-distance model for
each landmark based on the most recent two weeks of ping measurements".
:class:`CalibrationSet` plays that role.  Its CBG++ models come from the
constellation's :class:`~repro.core.calibrationplane.CalibrationPlane`,
which the first CBG++ calibration loads from the artifact cache or
builds in one batched pass; the other model families are fitted on first
use from the plane's mesh archive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import artifacts
from ..geo.grid import Grid
from ..netsim.atlas import AtlasConstellation, Landmark
from .calibration import CbgCalibration, OctantCalibration, SpotterCalibration
from .calibrationplane import CalibrationPlane, load_or_build


class CalibrationSet:
    """Per-landmark CBG/Octant models plus the global Spotter model.

    ``grid`` is the analysis grid the plane's distance-bank rows are
    for; without one the plane holds no bank rows.  The plane persists
    in the artifact cache (``REPRO_PATHENGINE_CACHE``), read when the
    plane is first needed.
    """

    def __init__(self, atlas: AtlasConstellation, grid: Optional[Grid] = None):
        self.atlas = atlas
        self.grid = grid
        self._landmarks: Dict[str, Landmark] = {
            lm.name: lm for lm in atlas.all_landmarks()}
        self._plane: Optional[CalibrationPlane] = None
        self._version: Optional[Tuple[int, int]] = None
        self._cbg: Dict[Tuple[str, bool], CbgCalibration] = {}
        self._octant: Dict[str, OctantCalibration] = {}
        self._spotter: Optional[SpotterCalibration] = None

    def landmark(self, name: str) -> Landmark:
        try:
            return self._landmarks[name]
        except KeyError:
            raise KeyError(f"unknown landmark {name!r}") from None

    def has_landmark(self, name: str) -> bool:
        return name in self._landmarks

    def _sync(self) -> None:
        """Forget every model when the constellation or topology changed."""
        version = self.atlas.mesh_version()
        if version != self._version:
            self._version = version
            self._plane = None
            self._cbg.clear()
            self._octant.clear()
            self._spotter = None

    def _calibration_points(self, name: str):
        return self.atlas.calibration_data(self.landmark(name))

    def plane(self) -> CalibrationPlane:
        """The current constellation's plane, loaded or built on first use."""
        self._sync()
        if self._plane is None:
            self._plane = load_or_build(self.atlas, self.grid,
                                        artifacts.cache_dir())
        return self._plane

    def ensure_plane(self) -> CalibrationPlane:
        """Load or build the plane now, e.g. before an audit forks.

        Goes through :meth:`cbg`, where a lazy caller's first CBG++
        calibration would load or build it, so per-layer traces report a
        cold build under calibration either way.
        """
        self.cbg(next(iter(self._landmarks)), apply_slowline=True)
        return self.plane()

    def cbg(self, name: str, apply_slowline: bool = False) -> CbgCalibration:
        """The landmark's bestline model (slowline-constrained for CBG++)."""
        if apply_slowline:
            model = self.plane().cbg(self.landmark(name))
            if model is not None:
                return model
        self._sync()
        key = (name, apply_slowline)
        model = self._cbg.get(key)
        if model is None:
            # Plain CBG, or a landmark the plane lacks (churned away).
            model = CbgCalibration(self._calibration_points(name),
                                   apply_slowline=apply_slowline)
            self._cbg[key] = model
        return model

    def octant(self, name: str) -> OctantCalibration:
        """The landmark's Quasi-Octant hull model."""
        self._sync()
        model = self._octant.get(name)
        if model is None:
            model = OctantCalibration(self._calibration_points(name))
            self._octant[name] = model
        return model

    def spotter(self) -> SpotterCalibration:
        """The global Spotter model, fitted over the full anchor mesh."""
        self._sync()
        if self._spotter is None:
            anchors = self.atlas.anchors
            points: List = []
            for i, a in enumerate(anchors):
                for b in anchors[i + 1:]:
                    distance = a.host.distance_to(b.host)
                    delay = self.atlas.min_one_way_ms(a, b)
                    points.append((distance, delay))
            self._spotter = SpotterCalibration(points)
        return self._spotter

    def landmarks_named(self, names: Sequence[str]) -> List[Landmark]:
        return [self.landmark(name) for name in names]
