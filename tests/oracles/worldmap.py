"""The world raster by a per-cell scan of every country's claim.

Before the vectorised assignment, ``WorldMap._rasterize`` visited each
contested cell, looped over every country claiming it and kept the
nearest anchor by scalar :func:`haversine_km` with a strict ``<``.  The
runtime raster must equal this one byte for byte.
"""

import numpy as np

from repro.geo.worldmap import OCEAN
from repro.geodesy.greatcircle import haversine_km


def scanned_raster(countries, grid):
    """The country raster of ``countries`` (registry order) on ``grid``."""
    raster = np.full(grid.n_cells, OCEAN, dtype=np.int16)
    claim_count = np.zeros(grid.n_cells, dtype=np.int16)
    claims = []
    for idx, country in enumerate(countries):
        mask = np.zeros(grid.n_cells, dtype=bool)
        for lat_min, lat_max, lon_min, lon_max in country.boxes:
            mask |= ((grid.cell_lats >= lat_min) & (grid.cell_lats <= lat_max)
                     & (grid.cell_lons >= lon_min) & (grid.cell_lons <= lon_max))
        for anchor_lat, anchor_lon in country.anchors:
            mask[grid.cell_index(anchor_lat, anchor_lon)] = True
        claims.append((idx, mask))
        claim_count += mask
    for idx, mask in claims:
        raster[mask & (claim_count == 1)] = idx
    for cell in np.flatnonzero(claim_count > 1):
        lat = float(grid.cell_lats[cell])
        lon = float(grid.cell_lons[cell])
        best_idx, best_distance = OCEAN, float("inf")
        for idx, mask in claims:
            if not mask[cell]:
                continue
            for anchor_lat, anchor_lon in countries[idx].anchors:
                d = haversine_km(lat, lon, anchor_lat, anchor_lon)
                if d < best_distance:
                    best_distance = d
                    best_idx = idx
        raster[cell] = best_idx
    anchor_cell_of = {}
    for i, c in enumerate(countries):
        anchor_cell_of.setdefault(grid.cell_index(*c.anchors[0]), i)
    forced_cells = {}
    for idx, country in enumerate(countries):
        if (raster == idx).any():
            continue
        anchor_lat, anchor_lon = country.anchors[0]
        distances = grid.distances_from(anchor_lat, anchor_lon)
        for cell in np.argsort(distances)[:64]:
            cell = int(cell)
            owner = anchor_cell_of.get(cell)
            if cell in forced_cells:
                continue
            if owner is None or owner == idx:
                raster[cell] = idx
                forced_cells[cell] = idx
                break
        else:
            raster[grid.cell_index(anchor_lat, anchor_lon)] = idx
    return raster
