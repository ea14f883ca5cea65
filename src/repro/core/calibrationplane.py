"""The landmark calibration plane: built once per substrate, then reused.

The paper's measurement server fits each landmark's delay–distance model
from an archive of mesh pings (§4), so calibration is a product of the
substrate, not a cost of any one audit.  A :class:`CalibrationPlane`
holds that product for one constellation, as arrays:

* the mesh archive, every landmark's minimum one-way delay to every
  anchor (:class:`~repro.netsim.atlas.MeshArchive`);
* every landmark's CBG++ bestline (slope, intercept, point count), the
  model every audit and verdict multilaterates with;
* with a grid, the distance-bank field of every landmark position and
  its block aggregates.  They live in the grid's bank; the plane keeps
  their keys.

:func:`load_or_build` keys a plane by :func:`plane_key`, a sha256 over
every input of those values, and keeps it in the artifact cache
(:mod:`repro.artifacts`) when one is configured.  A fresh process over
the same substrate then loads the arrays instead of drawing, fitting and
sweeping again.  The same functions produce every value either way, so
a loaded plane is bit-identical to a built one.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import BinaryIO, Dict, List, Optional, Tuple

import numpy as np

from .. import artifacts, sanitize
from ..geo.bank import DistanceBank
from ..geo.grid import Grid
from ..netsim.atlas import AtlasConstellation, Landmark, MeshArchive
from .calibration import CbgCalibration, Line

#: Bumped whenever the layout or the meaning of a stored value changes.
FORMAT_VERSION = 1

#: Field rows per read or write block when persisting bank rows.
_ROWS_PER_BLOCK = 64

#: Stored per landmark in the fits array: bestline slope, intercept and
#: the number of calibration points.
_FIT_COLUMNS = 3


class CalibrationPlane:
    """One constellation's calibration products (see module docstring)."""

    def __init__(self, key: str, archive: MeshArchive, fits: np.ndarray,
                 bank_keys: Optional[List[Tuple[float, float]]]):
        self.key = key
        self.archive = archive
        self.fits = fits
        self.bank_keys = bank_keys
        self._models: Dict[int, CbgCalibration] = {}

    def cbg(self, landmark: Landmark) -> Optional[CbgCalibration]:
        """The landmark's CBG++ model; None if the plane lacks it."""
        host_id = landmark.host.host_id
        model = self._models.get(host_id)
        if model is None:
            row = self.archive.row_of(host_id)
            if row is None:
                return None
            slope, intercept, n_points = self.fits[row].tolist()
            model = CbgCalibration.from_fit(
                Line(slope, intercept), int(n_points), apply_slowline=True)
            self._models[host_id] = model
        return model


def plane_key(atlas: AtlasConstellation, grid: Optional[Grid]) -> str:
    """sha256 over every input of a plane's values.

    The routed substrate (topology digest), each landmark's identity,
    access router, last mile, city congestion, reported position and
    kind, the anchor list, the archive's sample count, the grid shape
    and :data:`FORMAT_VERSION`.  No campaign seed or fault profile: the
    archive is fault-free, so every campaign over a substrate shares
    one plane.
    """
    network = atlas.network
    congestion = network.congestion_by_city()
    hasher = hashlib.sha256()
    hasher.update(f"calibration-plane/{FORMAT_VERSION}/".encode())
    hasher.update(network.topology_digest().encode())
    for landmark in atlas.all_landmarks():
        host = landmark.host
        hasher.update(repr((
            host.host_id, host.router, host.last_mile_ms,
            float(congestion[host.city_id]), landmark.lat, landmark.lon,
            landmark.kind)).encode())
    hasher.update(repr([lm.host.host_id for lm in atlas.anchors]).encode())
    hasher.update(repr(atlas.CALIBRATION_SAMPLES).encode())
    hasher.update(repr(None if grid is None
                       else (grid.n_lat, grid.n_lon)).encode())
    return hasher.hexdigest()


def _bank_points(atlas: AtlasConstellation, grid: Optional[Grid]
                 ) -> Tuple[List[float], List[float]]:
    """The landmark positions whose fields the plane holds (may be none).

    A constellation larger than the grid's bank keeps its fields lazy:
    the bank would evict plane rows to make room for them.
    """
    if grid is None:
        return [], []
    landmarks = atlas.all_landmarks()
    lats = [lm.lat for lm in landmarks]
    lons = [lm.lon for lm in landmarks]
    if len(DistanceBank.point_keys(lats, lons)) >= grid.bank.max_points:
        return [], []
    return lats, lons


def build_plane(atlas: AtlasConstellation, grid: Optional[Grid],
                key: str) -> CalibrationPlane:
    """Draw the archive, fit every landmark and fill its bank rows."""
    archive = atlas.ensure_mesh()
    landmarks = atlas.all_landmarks()
    fits = np.empty((len(landmarks), _FIT_COLUMNS))
    for row, landmark in enumerate(landmarks):
        model = CbgCalibration(atlas.calibration_data(landmark),
                               apply_slowline=True)
        fits[row] = (model.bestline.slope, model.bestline.intercept,
                     model.n_points)
    lats, lons = _bank_points(atlas, grid)
    bank_keys = None
    if grid is not None and lats:
        bank_keys = DistanceBank.point_keys(lats, lons)
        grid.bank.reserve(len(bank_keys))
        grid.bank.rows(lats, lons)
    return CalibrationPlane(key, archive, fits, bank_keys)


def _paths(directory: str, key: str) -> Dict[str, str]:
    stem = os.path.join(directory, f"plane-{key[:32]}")
    names = ("archive", "fits", "keys", "bounds", "fields")
    paths = {name: f"{stem}.{name}.npy" for name in names}
    paths["manifest"] = f"{stem}.json"
    return paths


def _manifest(key: str, landmarks: int, anchors: int, bank_rows: int,
              grid: Optional[Grid]) -> Dict[str, object]:
    """What a plane's manifest file records, and a loader expects."""
    return {"format": FORMAT_VERSION, "key": key, "landmarks": landmarks,
            "anchors": anchors, "bank_rows": bank_rows,
            "cells": grid.n_cells if grid is not None else 0}


def save_plane(plane: CalibrationPlane, grid: Optional[Grid],
               directory: str) -> bool:
    """Persist a plane; the manifest goes last, so a reader never finds
    a manifest without its arrays.  False when the directory refused."""
    paths = _paths(directory, plane.key)
    saved = (artifacts.save_npy(paths["archive"], plane.archive.one_way_ms)
             and artifacts.save_npy(paths["fits"], plane.fits))
    if saved and plane.bank_keys and grid is not None:
        bank = grid.bank
        rows = bank.rows([lat for lat, _ in plane.bank_keys],
                         [lon for _, lon in plane.bank_keys])
        saved = (artifacts.save_npy(paths["keys"],
                                    np.array(plane.bank_keys, dtype=np.float64))
                 and artifacts.save_npy(paths["bounds"], bank.block_bounds(rows))
                 and artifacts.save_npy_chunks(
                     paths["fields"], (len(rows), grid.n_cells),
                     np.dtype(np.float32),
                     bank.export_rows(rows, _ROWS_PER_BLOCK)))
    if not saved:
        return False
    n_landmarks, n_anchors = plane.archive.one_way_ms.shape
    text = json.dumps(_manifest(plane.key, n_landmarks, n_anchors,
                                len(plane.bank_keys or ()), grid),
                      sort_keys=True).encode()

    def write(stream: BinaryIO) -> None:
        stream.write(text)
    return artifacts.write_atomic(paths["manifest"], write)


def load_plane(atlas: AtlasConstellation, grid: Optional[Grid], key: str,
               directory: str) -> Optional[CalibrationPlane]:
    """The persisted plane for ``key``, or None when any part of it is
    missing, truncated or mismatched (the caller then builds it)."""
    paths = _paths(directory, key)
    try:
        with open(paths["manifest"], "rb") as stream:
            manifest = json.loads(stream.read().decode())
    except (OSError, ValueError):
        return None
    landmarks = atlas.all_landmarks()
    lats, lons = _bank_points(atlas, grid)
    bank_keys = DistanceBank.point_keys(lats, lons) if lats else None
    if manifest != _manifest(key, len(landmarks), len(atlas.anchors),
                             len(bank_keys or ()), grid):
        return None
    archive = artifacts.load_npy(paths["archive"],
                                 (len(landmarks), len(atlas.anchors)),
                                 np.dtype(np.float64))
    fits = artifacts.load_npy(paths["fits"], (len(landmarks), _FIT_COLUMNS),
                              np.dtype(np.float64))
    if archive is None or fits is None:
        return None
    if bank_keys is not None and grid is not None:
        n_rows = len(bank_keys)
        bank = grid.bank
        stored = artifacts.load_npy(paths["keys"], (n_rows, 2),
                                    np.dtype(np.float64))
        bounds = artifacts.load_npy(paths["bounds"],
                                    (2, n_rows, bank.n_blocks),
                                    np.dtype(np.float32))
        fields = artifacts.open_npy_chunks(
            paths["fields"], (n_rows, grid.n_cells), np.dtype(np.float32),
            _ROWS_PER_BLOCK)
        if (stored is None or bounds is None or fields is None
                or stored.tolist() != [list(k) for k in bank_keys]):
            if fields is not None:
                fields.close()
            return None
        try:
            bank.adopt_rows(bank_keys, fields, bounds)
        except OSError:
            return None
    mesh = MeshArchive(
        np.array([lm.host.host_id for lm in landmarks], dtype=np.int64),
        np.array([lm.host.host_id for lm in atlas.anchors], dtype=np.int64),
        archive)
    plane = CalibrationPlane(key, mesh, fits, bank_keys)
    if sanitize.enabled():
        spot_check(plane, atlas, grid)
    atlas.adopt_mesh(mesh)
    return plane


def spot_check(plane: CalibrationPlane, atlas: AtlasConstellation,
               grid: Optional[Grid]) -> None:
    """Recompute one digest-sampled landmark and compare it bit for bit.

    Its archive row is drawn afresh from the pairs' own streams, its
    CBG++ fit redone from that row, and its distance field swept anew.
    The sample comes from the plane key, and the draws use only the
    archive's per-pair streams, so the check consumes nothing from any
    audit stream.
    """
    landmarks = atlas.all_landmarks()
    at = int(plane.key[:8], 16) % len(landmarks)
    landmark = landmarks[at]
    context = f"calibration plane {plane.key[:12]}, landmark {landmark.name!r}"
    row = atlas.mesh_row(landmark)
    sanitize.check_identical(plane.archive.one_way_ms[at], row,
                             f"{context}, archive row")
    peers = [(anchor, delay) for anchor, delay in zip(atlas.anchors, row)
             if anchor.host.host_id != landmark.host.host_id]
    model = CbgCalibration(atlas.calibration_points(
        landmark, [peer for peer, _ in peers],
        [float(delay) for _, delay in peers]), apply_slowline=True)
    sanitize.check_identical(
        plane.fits[at], np.array([model.bestline.slope,
                                  model.bestline.intercept, model.n_points]),
        f"{context}, CBG++ fit")
    if plane.bank_keys and grid is not None:
        sanitize.check_identical(
            grid.bank.field(landmark.lat, landmark.lon),
            grid.bank.reference_field(landmark.lat, landmark.lon),
            f"{context}, distance field")


def load_or_build(atlas: AtlasConstellation, grid: Optional[Grid],
                  directory: Optional[str]) -> CalibrationPlane:
    """The plane of the current constellation: loaded from ``directory``
    when it holds a valid copy, else built (and persisted there)."""
    key = plane_key(atlas, grid)
    if directory is not None:
        plane = load_plane(atlas, grid, key, directory)
        if plane is not None:
            return plane
    plane = build_plane(atlas, grid, key)
    if directory is not None:
        save_plane(plane, grid, directory)
    return plane
