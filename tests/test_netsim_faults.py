"""Tests for the seeded fault-injection layer."""

import math

import numpy as np
import pytest

from repro.netsim import (
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
    MeasurementFailed,
    resolve_fault_profile,
)


class TestFaultProfiles:
    def test_registry_names_match(self):
        for name, profile in FAULT_PROFILES.items():
            assert profile.name == name

    def test_none_profile_is_null(self):
        assert FAULT_PROFILES["none"].is_null
        assert not FAULT_PROFILES["lossy-wan"].is_null
        assert not FAULT_PROFILES["blackout"].is_null

    def test_resolve_accepts_name_profile_and_none(self):
        assert resolve_fault_profile(None) is None
        assert resolve_fault_profile("lossy-wan") is FAULT_PROFILES["lossy-wan"]
        profile = FaultProfile(name="custom", loss_rate=0.2)
        assert resolve_fault_profile(profile) is profile

    def test_resolve_normalises_null_to_none(self):
        assert resolve_fault_profile("none") is None
        assert resolve_fault_profile(FaultProfile(name="quiet")) is None

    def test_resolve_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown fault profile"):
            resolve_fault_profile("lossy-lan")
        with pytest.raises(TypeError):
            resolve_fault_profile(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(name="bad", loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(name="bad", timeout_ms=0.0)
        with pytest.raises(ValueError):
            FaultProfile(name="bad", outage_fraction=1.0)


class TestFaultInjectorDeterminism:
    def test_outage_schedule_deterministic_and_order_free(self):
        profile = FAULT_PROFILES["flaky-vpn"]
        hosts = list(range(100, 160))
        a = FaultInjector(profile, seed=7)
        a.schedule_outages(hosts)
        b = FaultInjector(profile, seed=7)
        b.schedule_outages(list(reversed(hosts)))
        assert a.outage_schedule == b.outage_schedule
        assert len(a.outage_schedule) == profile.n_landmark_outages
        for start, end in a.outage_schedule.values():
            assert 0.0 <= start < end <= 1.0
            assert end - start == pytest.approx(profile.outage_fraction)

    def test_outage_schedule_changes_with_seed(self):
        profile = FAULT_PROFILES["flaky-vpn"]
        hosts = list(range(100, 160))
        a = FaultInjector(profile, seed=7)
        a.schedule_outages(hosts)
        b = FaultInjector(profile, seed=8)
        b.schedule_outages(hosts)
        assert a.outage_schedule != b.outage_schedule

    def test_campaign_time_pure(self):
        injector = FaultInjector(FAULT_PROFILES["lossy-wan"], seed=3)
        times = [injector.campaign_time(h) for h in range(50)]
        assert times == [injector.campaign_time(h) for h in range(50)]
        assert all(0.0 <= t < 1.0 for t in times)
        assert len(set(times)) == 50

    def test_tunnel_drop_point_pure_and_rate_bound(self):
        injector = FaultInjector(FAULT_PROFILES["flaky-vpn"], seed=3)
        points = [injector.tunnel_drop_point(h) for h in range(2000)]
        assert points == [injector.tunnel_drop_point(h) for h in range(2000)]
        dropped = [p for p in points if p is not None]
        assert all(0.1 <= p <= 0.9 for p in dropped)
        rate = len(dropped) / len(points)
        assert rate == pytest.approx(
            FAULT_PROFILES["flaky-vpn"].tunnel_drop_rate, abs=0.03)

    def test_no_drops_when_rate_zero(self):
        injector = FaultInjector(FAULT_PROFILES["blackout"], seed=3)
        assert all(injector.tunnel_drop_point(h) is None for h in range(50))


class TestAfflict:
    def test_down_burst_entirely_lost(self):
        injector = FaultInjector(FAULT_PROFILES["lossy-wan"], seed=0)
        samples = np.full(5, 30.0)
        out = injector.afflict_burst(samples, True, np.random.default_rng(0))
        assert np.isnan(out).all()

    def test_loss_rate_observed(self):
        injector = FaultInjector(FaultProfile(name="t", loss_rate=0.25), seed=0)
        samples = np.full(20000, 30.0)
        out = injector.afflict_burst(samples, False, np.random.default_rng(0))
        assert np.isnan(out).mean() == pytest.approx(0.25, abs=0.02)

    def test_timeout_converts_slow_probes(self):
        injector = FaultInjector(
            FaultProfile(name="t", timeout_ms=100.0), seed=0)
        samples = np.array([50.0, 99.9, 100.1, 500.0])
        out = injector.afflict_burst(samples, False, np.random.default_rng(0))
        assert np.isfinite(out[:2]).all()
        assert np.isnan(out[2:]).all()

    def test_matrix_down_rows_lost(self):
        injector = FaultInjector(FAULT_PROFILES["lossy-wan"], seed=0)
        samples = np.full((4, 3), 30.0)
        down = np.array([False, True, False, True])
        out = injector.afflict_matrix(samples, down,
                                      np.random.default_rng(0))
        assert np.isnan(out[1]).all() and np.isnan(out[3]).all()

    def test_congestion_inflates_whole_rows(self):
        injector = FaultInjector(
            FaultProfile(name="t", congestion_rate=1.0,
                         congestion_extra_ms=40.0), seed=0)
        samples = np.full((6, 3), 30.0)
        out = injector.afflict_matrix(samples, np.zeros(6, dtype=bool),
                                      np.random.default_rng(0))
        assert (out > 30.0).all()
        # Every probe of one burst shares the same episode inflation.
        assert all(len(set(np.round(row, 9))) == 1 for row in out)


class TestNetworkIntegration:
    def test_no_faults_outside_epoch(self, scenario):
        """An installed injector must not touch samples taken outside a
        measurement epoch (calibration and diagnostic paths)."""
        injector = FaultInjector(FAULT_PROFILES["blackout"], seed=0)
        network = scenario.network
        a, b = scenario.client, scenario.atlas.anchors[0].host
        clean = network.rtt_samples_ms(a, b, 8, np.random.default_rng(5))
        with network.faults_installed(injector):
            outside = network.rtt_samples_ms(a, b, 8, np.random.default_rng(5))
        assert np.array_equal(clean, outside)

    def test_min_rtt_raises_when_all_lost(self, scenario):
        injector = FaultInjector(FAULT_PROFILES["blackout"], seed=0)
        network = scenario.network
        a, b = scenario.client, scenario.atlas.anchors[0].host
        with network.faults_installed(injector):
            with network.measurement_epoch_for(b):
                with pytest.raises(MeasurementFailed, match="lost or timed"):
                    network.min_rtt_ms(a, b, n=4,
                                       rng=np.random.default_rng(5))

    def test_mesh_archive_immune_to_faults(self, scenario):
        """The archived mesh database must yield the pristine value even
        when lazily computed inside an afflicted measurement epoch."""
        atlas = scenario.atlas
        lm_a, lm_b = atlas.anchors[0], atlas.anchors[1]
        pristine = atlas.min_one_way_ms(lm_a, lm_b)
        injector = FaultInjector(FAULT_PROFILES["blackout"], seed=0)
        with scenario.network.faults_installed(injector):
            with scenario.network.measurement_epoch_for(lm_a.host):
                # Drawn afresh, bypassing the archive.
                afflicted_epoch = float(atlas.mesh_row(lm_a)[1])
        assert afflicted_epoch == pristine

    def test_zero_extra_draws_without_injector(self, scenario):
        """The fault layer consumes no RNG draws when inactive, so the
        healthy measurement stream is byte-identical to the seed
        pipeline's."""
        network = scenario.network
        a, b = scenario.client, scenario.atlas.anchors[0].host
        rng1 = np.random.default_rng(9)
        samples1 = network.rtt_samples_ms(a, b, 6, rng1)
        rng2 = np.random.default_rng(9)
        with network.faults_installed(None):
            samples2 = network.rtt_samples_ms(a, b, 6, rng2)
        assert np.array_equal(samples1, samples2)
        # Both generators sit at the same stream position afterwards.
        assert rng1.random() == rng2.random()

    def test_epoch_restores_time(self, scenario):
        network = scenario.network
        injector = FaultInjector(FAULT_PROFILES["lossy-wan"], seed=0)
        with network.faults_installed(injector):
            assert network.active_faults() is None
            with network.measurement_epoch_for(scenario.client):
                assert network.active_faults() is injector
                with network.fault_free():
                    assert network.active_faults() is None
                assert network.active_faults() is injector
            assert network.active_faults() is None
        assert network.faults is None
