"""Tests for the Atlas-like constellation and its mesh database."""

import numpy as np
import pytest

from repro.experiments.scenario import build_scenario
from repro.geodesy import BASELINE_SPEED_KM_PER_MS, haversine_km
from repro.geodesy.greatcircle import haversine_km_exact


class TestPlacement:
    def test_quota_counts(self, scenario):
        atlas = scenario.atlas
        assert len(atlas.anchors) > 50
        assert len(atlas.probes) > len(atlas.anchors)

    def test_europe_heaviest(self, scenario):
        atlas = scenario.atlas
        per_continent = {}
        for lm in atlas.anchors:
            continent = scenario.topology.city(lm.host.city_id).continent
            per_continent[continent] = per_continent.get(continent, 0) + 1
        assert per_continent["EU"] == max(per_continent.values())

    def test_no_anchors_on_satellite_cities(self, scenario):
        for lm in scenario.atlas.all_landmarks():
            assert not scenario.topology.city(lm.host.city_id).satellite_only

    def test_landmark_names_unique(self, scenario):
        names = [lm.name for lm in scenario.atlas.all_landmarks()]
        assert len(names) == len(set(names))

    def test_some_probes_have_wrong_locations(self, scenario):
        wrong = [lm for lm in scenario.atlas.probes if lm.location_is_wrong]
        assert wrong, "probe location-error model should fire sometimes"
        # But only a small fraction (rate 0.03).
        assert len(wrong) < 0.15 * len(scenario.atlas.probes)

    def test_anchors_never_have_wrong_locations(self, scenario):
        assert all(not lm.location_is_wrong for lm in scenario.atlas.anchors)

    def test_reported_location_used_as_lat_lon(self, scenario):
        for lm in scenario.atlas.probes:
            if lm.reported_lat is not None:
                assert lm.lat == lm.reported_lat
                assert lm.lon == lm.reported_lon


class TestMeshDatabase:
    def test_symmetric_and_deterministic(self, scenario):
        atlas = scenario.atlas
        a, b = atlas.anchors[0], atlas.anchors[1]
        forward = atlas.min_one_way_ms(a, b)
        assert atlas.min_one_way_ms(b, a) == forward
        assert atlas.min_one_way_ms(a, b) == forward  # cached

    def test_respects_physical_floor(self, scenario):
        atlas = scenario.atlas
        anchors = atlas.anchors[:20]
        for i, a in enumerate(anchors):
            for b in anchors[i + 1:]:
                true_distance = a.host.distance_to(b.host)
                delay = atlas.min_one_way_ms(a, b)
                assert delay >= true_distance / BASELINE_SPEED_KM_PER_MS - 1e-9

    def test_calibration_data_shape(self, scenario):
        atlas = scenario.atlas
        data = atlas.calibration_data(atlas.anchors[0])
        assert len(data) == len(atlas.anchors) - 1
        for distance, delay in data:
            assert distance >= 0
            assert delay > 0

    def test_calibration_uses_reported_distance(self, scenario):
        atlas = scenario.atlas
        wrong = next((lm for lm in atlas.probes if lm.location_is_wrong), None)
        if wrong is None:
            pytest.skip("no misplaced probe in this seed")
        data = atlas.calibration_data(wrong)
        peer = atlas.anchors[0]
        reported = haversine_km(wrong.lat, wrong.lon, peer.lat, peer.lon)
        assert any(abs(d - reported) < 1e-6 for d, _ in data)

    def test_continent_queries(self, scenario):
        atlas = scenario.atlas
        eu_landmarks = atlas.landmarks_on_continent("EU")
        eu_anchors = atlas.anchors_on_continent("EU")
        assert eu_anchors
        assert len(eu_landmarks) >= len(eu_anchors)
        for lm in eu_anchors:
            assert scenario.topology.city(lm.host.city_id).continent == "EU"


@pytest.fixture(scope="module")
def paper_atlas():
    # Built, not memoised: the paper-scale substrate is dropped after.
    return build_scenario(seed=0, proxy_scale=1.0).atlas


class TestCalibrationDistances:
    """Calibration reads archive rows and computes distances as arrays;
    every point must equal the per-pair lookup and scalar haversine."""

    @pytest.mark.parametrize("which", ["default", "paper"])
    def test_exact_helper_equals_scalar_over_matrix(
            self, which, scenario, paper_atlas):
        atlas = scenario.atlas if which == "default" else paper_atlas
        lats = np.array([anchor.lat for anchor in atlas.anchors])
        lons = np.array([anchor.lon for anchor in atlas.anchors])
        landmarks = atlas.all_landmarks()
        matrix = haversine_km_exact(
            np.array([lm.lat for lm in landmarks])[:, None],
            np.array([lm.lon for lm in landmarks])[:, None], lats, lons)
        assert matrix.shape == (len(landmarks), len(atlas.anchors))
        assert matrix.tolist() == [
            [haversine_km(lm.lat, lm.lon, anchor.lat, anchor.lon)
             for anchor in atlas.anchors] for lm in landmarks]

    def test_calibration_data_equals_per_pair_reference(self, scenario):
        atlas = scenario.atlas
        archive = atlas.ensure_mesh()
        for landmark in atlas.all_landmarks():
            host_id = landmark.host.host_id
            expected = [
                (haversine_km(landmark.lat, landmark.lon, peer.lat, peer.lon),
                 archive.lookup(host_id, peer.host.host_id))
                for peer in atlas.anchors if peer.host.host_id != host_id]
            assert atlas.calibration_data(landmark) == expected, landmark.name

    def test_custom_peers_draw_what_the_archive_lacks(self, scenario):
        atlas = scenario.atlas
        landmark = atlas.probes[0]
        peers = atlas.probes[1:6] + atlas.anchors[:5] + [landmark]
        data = atlas.calibration_data(landmark, peers=peers)
        assert [delay for _, delay in data] == [
            atlas.min_one_way_ms(landmark, peer) for peer in peers[:-1]]
        assert [distance for distance, _ in data] == [
            haversine_km(landmark.lat, landmark.lon, peer.lat, peer.lon)
            for peer in peers[:-1]]

    def test_lookup_row_equals_lookup(self, scenario):
        atlas = scenario.atlas
        archive = atlas.ensure_mesh()
        ids = [lm.host.host_id for lm in atlas.all_landmarks()] + [-5, 10**9]
        for landmark in atlas.anchors[:3] + atlas.probes[:3]:
            host_id = landmark.host.host_id
            expected = [archive.lookup(host_id, other) for other in ids]
            row = archive.lookup_row(host_id, ids)
            assert [None if np.isnan(value) else value
                    for value in row.tolist()] == expected
        assert np.isnan(archive.lookup_row(-5, ids)).all()
