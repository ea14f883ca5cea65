"""Unit and property tests for great-circle math."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import (
    EARTH_RADIUS_KM,
    MAX_SURFACE_DISTANCE_KM,
    destination_point,
    geodesic_path,
    haversine_km,
    haversine_km_vec,
    initial_bearing_deg,
    interpolate,
    midpoint,
    normalize_lon,
    validate_latlon,
)
from repro.geodesy.greatcircle import haversine_km_exact

LONDON = (51.507, -0.128)
PARIS = (48.857, 2.352)
NYC = (40.713, -74.006)
SYDNEY = (-33.87, 151.21)

lat_strategy = st.floats(min_value=-89.0, max_value=89.0)
lon_strategy = st.floats(min_value=-179.99, max_value=179.99)


class TestHaversine:
    def test_zero_distance_to_self(self):
        assert haversine_km(*LONDON, *LONDON) == 0.0

    def test_london_paris_known_distance(self):
        # ~344 km; allow 2% for the spherical model.
        assert haversine_km(*LONDON, *PARIS) == pytest.approx(344, rel=0.02)

    def test_london_nyc_known_distance(self):
        assert haversine_km(*LONDON, *NYC) == pytest.approx(5570, rel=0.02)

    def test_london_sydney_known_distance(self):
        assert haversine_km(*LONDON, *SYDNEY) == pytest.approx(16994, rel=0.02)

    def test_antipodal_distance_is_half_circumference(self):
        d = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-9)

    def test_antimeridian_crossing_is_short(self):
        # 179.9E to 179.9W is ~22 km at the equator, not ~40000 km.
        assert haversine_km(0.0, 179.9, 0.0, -179.9) < 30.0

    @given(lat1=lat_strategy, lon1=lon_strategy,
           lat2=lat_strategy, lon2=lon_strategy)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        forward = haversine_km(lat1, lon1, lat2, lon2)
        backward = haversine_km(lat2, lon2, lat1, lon1)
        assert forward == pytest.approx(backward, abs=1e-6)

    @given(lat1=lat_strategy, lon1=lon_strategy,
           lat2=lat_strategy, lon2=lon_strategy)
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_half_circumference(self, lat1, lon1, lat2, lon2):
        d = haversine_km(lat1, lon1, lat2, lon2)
        assert 0.0 <= d <= MAX_SURFACE_DISTANCE_KM * 1.001

    @given(lat1=lat_strategy, lon1=lon_strategy, lat2=lat_strategy,
           lon2=lon_strategy, lat3=lat_strategy, lon3=lon_strategy)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        ab = haversine_km(lat1, lon1, lat2, lon2)
        bc = haversine_km(lat2, lon2, lat3, lon3)
        ac = haversine_km(lat1, lon1, lat3, lon3)
        assert ac <= ab + bc + 1e-6

    def test_vectorised_matches_scalar(self):
        lats = np.array([48.857, 40.713, -33.87])
        lons = np.array([2.352, -74.006, 151.21])
        vec = haversine_km_vec(LONDON[0], LONDON[1], lats, lons)
        for i, (lat, lon) in enumerate(zip(lats, lons)):
            assert vec[i] == pytest.approx(
                haversine_km(*LONDON, lat, lon), rel=1e-9)

    def test_vectorised_broadcasting_shapes(self):
        lats = np.zeros((3, 4))
        lons = np.linspace(-10, 10, 12).reshape(3, 4)
        out = haversine_km_vec(0.0, 0.0, lats, lons)
        assert out.shape == (3, 4)


class TestHaversineExact:
    """The array form the raster and calibration use must return the
    scalar function's values exactly, not merely to a tolerance."""

    @given(lat1=lat_strategy, lon1=lon_strategy,
           lat2=lat_strategy, lon2=lon_strategy)
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar(self, lat1, lon1, lat2, lon2):
        exact = haversine_km_exact(lat1, lon1, lat2, lon2)
        assert exact.shape == ()
        assert float(exact) == haversine_km(lat1, lon1, lat2, lon2)

    def test_edge_values_equal_scalar(self):
        points = [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 180.0),
                  (90.0, 0.0, -90.0, 0.0), (0.0, 179.9, 0.0, -179.9),
                  (*LONDON, *LONDON), (*LONDON, *SYDNEY),
                  (-89.9, 360.0, 89.9, -180.0)]
        lat1, lon1, lat2, lon2 = (np.array(column) for column in zip(*points))
        assert (haversine_km_exact(lat1, lon1, lat2, lon2).tolist()
                == [haversine_km(*point) for point in points])

    def test_broadcasts_one_point_to_many(self):
        rng = np.random.default_rng(7)
        lats = rng.uniform(-90.0, 90.0, (40, 25))
        lons = rng.uniform(-180.0, 180.0, (40, 25))
        out = haversine_km_exact(*NYC, lats, lons)
        assert out.shape == (40, 25)
        assert out.ravel().tolist() == [
            haversine_km(*NYC, lat, lon)
            for lat, lon in zip(lats.ravel().tolist(), lons.ravel().tolist())]


class TestDestinationPoint:
    def test_north_from_equator(self):
        lat, lon = destination_point(0.0, 0.0, 0.0, 111.195)  # ~1 degree
        assert lat == pytest.approx(1.0, abs=0.01)
        assert lon == pytest.approx(0.0, abs=0.01)

    def test_east_from_equator(self):
        lat, lon = destination_point(0.0, 0.0, 90.0, 111.195)
        assert lat == pytest.approx(0.0, abs=0.01)
        assert lon == pytest.approx(1.0, abs=0.01)

    @given(lat=lat_strategy, lon=lon_strategy,
           bearing=st.floats(min_value=0, max_value=360),
           distance=st.floats(min_value=1.0, max_value=15000.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_distance(self, lat, lon, bearing, distance):
        lat2, lon2 = destination_point(lat, lon, bearing, distance)
        assert haversine_km(lat, lon, lat2, lon2) == pytest.approx(
            distance, rel=1e-6, abs=1e-6)

    def test_longitude_normalised(self):
        _, lon = destination_point(0.0, 179.0, 90.0, 500.0)
        assert -180.0 <= lon < 180.0


class TestBearingAndMidpoint:
    def test_bearing_due_north(self):
        assert initial_bearing_deg(0.0, 0.0, 10.0, 0.0) == pytest.approx(0.0)

    def test_bearing_due_east(self):
        assert initial_bearing_deg(0.0, 0.0, 0.0, 10.0) == pytest.approx(90.0)

    def test_bearing_range(self):
        bearing = initial_bearing_deg(*NYC, *SYDNEY)
        assert 0.0 <= bearing < 360.0

    def test_midpoint_is_equidistant(self):
        mid = midpoint(*LONDON, *NYC)
        to_london = haversine_km(*mid, *LONDON)
        to_nyc = haversine_km(*mid, *NYC)
        assert to_london == pytest.approx(to_nyc, rel=1e-6)

    def test_midpoint_equals_interpolate_half(self):
        mid = midpoint(*LONDON, *SYDNEY)
        half = interpolate(*LONDON, *SYDNEY, 0.5)
        assert mid[0] == pytest.approx(half[0], abs=1e-6)
        assert mid[1] == pytest.approx(half[1], abs=1e-6)


class TestInterpolate:
    def test_endpoints(self):
        assert interpolate(*LONDON, *NYC, 0.0) == pytest.approx(
            (LONDON[0], LONDON[1]), abs=1e-9)
        assert interpolate(*LONDON, *NYC, 1.0)[0] == pytest.approx(
            NYC[0], abs=1e-6)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            interpolate(*LONDON, *NYC, 1.5)

    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_point_on_arc_splits_distance(self, fraction):
        point = interpolate(*LONDON, *SYDNEY, fraction)
        total = haversine_km(*LONDON, *SYDNEY)
        first = haversine_km(*LONDON, *point)
        assert first == pytest.approx(fraction * total, abs=1.0)

    def test_identical_points(self):
        assert interpolate(10.0, 20.0, 10.0, 20.0, 0.7) == (10.0, 20.0)


class TestGeodesicPath:
    def test_point_count(self):
        path = geodesic_path(*LONDON, *NYC, 11)
        assert len(path) == 11

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            geodesic_path(*LONDON, *NYC, 1)

    def test_monotone_progress(self):
        path = geodesic_path(*LONDON, *SYDNEY, 20)
        cumulative = [haversine_km(*LONDON, *p) for p in path]
        assert cumulative == sorted(cumulative)


class TestValidation:
    def test_normalize_lon(self):
        assert normalize_lon(190.0) == pytest.approx(-170.0)
        assert normalize_lon(-190.0) == pytest.approx(170.0)
        assert normalize_lon(0.0) == 0.0
        assert normalize_lon(360.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0),
                                         (0.0, -181.0), (0.0, 400.0)])
    def test_validate_rejects_out_of_range(self, lat, lon):
        with pytest.raises(ValueError):
            validate_latlon(lat, lon)

    def test_validate_accepts_in_range(self):
        validate_latlon(89.9, 179.9)
        validate_latlon(-60.0, -180.0)
