"""The landmark calibration plane: batched draw, canonical order, persistence."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import sanitize
from repro.core import CalibrationSet
from repro.core.calibrationplane import (
    FORMAT_VERSION,
    load_or_build,
    load_plane,
    plane_key,
)
from repro.experiments import run_audit
from repro.experiments.scenario import (
    SMALL_ANCHOR_QUOTAS,
    SMALL_CROWD_QUOTAS,
    SMALL_PROBE_QUOTAS,
    build_scenario,
)
from repro.geodesy.greatcircle import haversine_km_vec
from repro.netsim.meshdraw import (
    MeshStreamError,
    mesh_one_way_ms,
    pair_stream_states,
)
from repro.sanitize import SanitizerError

from .oracles.mesh import lazy_archive_row, lazy_one_way_ms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A constellation small enough that a plane builds in a blink.
TINY_ANCHORS = {"EU": 12, "NA": 8, "AS": 5}
TINY_PROBES = {"EU": 14, "NA": 9, "AS": 6}


def tiny_scenario(seed=11):
    """A fresh scenario: planes attach to its atlas and its grid's bank."""
    return build_scenario(seed=seed, proxy_scale=0.05, grid_resolution=4.0,
                          anchor_quotas=TINY_ANCHORS,
                          probe_quotas=TINY_PROBES, crowd_quotas={})


def plane_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("plane-"))


def bank_rows_of(scenario):
    landmarks = scenario.atlas.all_landmarks()
    bank = scenario.grid.bank
    rows = bank.rows([lm.lat for lm in landmarks], [lm.lon for lm in landmarks])
    return bank._fields[rows].copy(), bank.block_bounds(rows)


def assert_planes_equal(ours, theirs, ours_scenario, theirs_scenario):
    assert ours.key == theirs.key
    assert np.array_equal(ours.archive.one_way_ms, theirs.archive.one_way_ms,
                          equal_nan=True)
    assert np.array_equal(ours.fits, theirs.fits)
    assert ours.bank_keys == theirs.bank_keys
    for mine, other in zip(bank_rows_of(ours_scenario),
                           bank_rows_of(theirs_scenario)):
        assert np.array_equal(mine, other)


# -- the batched draw ----------------------------------------------------------

class TestPairStreams:
    EDGE_KEYS = [(0, 1), (0, 2 ** 32 - 1), (2 ** 32 - 2, 2 ** 32 - 1),
                 (7, 7), (123456, 7654321)]

    def test_states_equal_default_rng(self):
        rng = np.random.default_rng(3)
        keys = self.EDGE_KEYS + [
            tuple(sorted(pair)) for pair in
            rng.integers(0, 2 ** 32, size=(300, 2)).tolist()]
        states = pair_stream_states(np.array([lo for lo, _ in keys]),
                                    np.array([hi for _, hi in keys]))
        for key, (state, inc) in zip(keys, states):
            expected = np.random.default_rng(key).bit_generator.state["state"]
            assert (state, inc) == (expected["state"], expected["inc"]), key

    @pytest.mark.parametrize("bad", [2 ** 32, 2 ** 40, -1])
    def test_ids_outside_the_seed_domain_are_rejected(self, bad):
        with pytest.raises(MeshStreamError):
            pair_stream_states(np.array([0]), np.array([bad]))
        with pytest.raises(MeshStreamError):
            pair_stream_states(np.array([bad]), np.array([bad]))


class TestBatchedDraw:
    def test_archive_equals_oracle_over_default_scenario(self, scenario):
        atlas = scenario.atlas
        archive = atlas.ensure_mesh()
        for row, landmark in enumerate(atlas.all_landmarks()):
            assert np.array_equal(archive.one_way_ms[row],
                                  lazy_archive_row(atlas, landmark),
                                  equal_nan=True), landmark.name

    def test_paper_scale_sampled_pairs_equal_oracle(self):
        # Built, not memoised: the paper-scale substrate is dropped after.
        scenario = build_scenario(seed=0, proxy_scale=1.0)
        hosts = scenario.factory.hosts
        by_id = sorted(hosts, key=lambda host: host.host_id)
        lowest, highest = by_id[0], by_id[-1]
        assert lowest.host_id == 0
        # Digest-sampled pairs, plus the edge keys: host 0 and the
        # largest id, against each other and against sampled hosts.
        picks = [int(hashlib.sha256(f"mesh-{at}".encode()).hexdigest()[:8],
                     16) % len(by_id) for at in range(120)]
        pairs = [(highest, lowest)]
        for first, second in zip(picks[::2], picks[1::2]):
            pairs.append((by_id[first], by_id[second]))
            pairs.append((by_id[first], lowest))
            pairs.append((highest, by_id[second]))
        pairs = [(a, b) if a.host_id >= b.host_id else (b, a)
                 for a, b in pairs if a.host_id != b.host_id]
        samples = scenario.atlas.CALIBRATION_SAMPLES
        drawn = mesh_one_way_ms(scenario.network, [a for a, _ in pairs],
                                [b for _, b in pairs], samples)
        expected = [lazy_one_way_ms(scenario.network, a, b, samples)
                    for a, b in pairs]
        assert drawn.tolist() == expected

    def test_rejects_reversed_pairs(self, scenario):
        a, b = scenario.atlas.anchors[:2]
        low, high = sorted((a.host, b.host), key=lambda host: host.host_id)
        with pytest.raises(ValueError):
            mesh_one_way_ms(scenario.network, [low], [high], 8)

    def test_off_archive_pairs_use_the_same_draw(self, scenario):
        atlas = scenario.atlas
        a, b = atlas.probes[0], atlas.probes[1]     # probes: not archived
        assert atlas.ensure_mesh().lookup(a.host.host_id, b.host.host_id) \
            is None
        high, low = (a.host, b.host) if a.host.host_id > b.host.host_id \
            else (b.host, a.host)
        assert atlas.min_one_way_ms(a, b) == lazy_one_way_ms(
            scenario.network, high, low, atlas.CALIBRATION_SAMPLES)
        assert atlas.min_one_way_ms(b, a) == atlas.min_one_way_ms(a, b)


# -- canonical direction -----------------------------------------------------

class TestCalibrationOrder:
    def fits_in_order(self, reverse):
        scenario = build_scenario(seed=0, proxy_scale=0.35,
                                  anchor_quotas=SMALL_ANCHOR_QUOTAS,
                                  probe_quotas=SMALL_PROBE_QUOTAS,
                                  crowd_quotas=SMALL_CROWD_QUOTAS)
        calibrations = CalibrationSet(scenario.atlas)
        names = [lm.name for lm in scenario.atlas.all_landmarks()]
        fits = {}
        for name in (reversed(names) if reverse else names):
            line = calibrations.cbg(name, apply_slowline=True).bestline
            fits[name] = (line.slope, line.intercept)
        return fits

    def test_forward_and_reverse_calibration_agree(self):
        """Every anchor–anchor floor is drawn from the higher host id,
        so no landmark's fit depends on which one was calibrated first."""
        assert self.fits_in_order(False) == self.fits_in_order(True)


# -- distance-bank rows --------------------------------------------------------

class TestBankFill:
    def test_chunked_fill_equals_one_broadcast(self, coarse_grid):
        from repro.geo.bank import DistanceBank

        rng = np.random.default_rng(8)
        lats = rng.uniform(-89.0, 89.0, 37)
        lons = rng.uniform(-180.0, 360.0, 37)
        bank = DistanceBank(coarse_grid, max_points=64)
        rows = bank.rows(list(lats), list(lons))
        expected = haversine_km_vec(
            lats[:, None], lons[:, None], coarse_grid.cell_lats[None, :],
            coarse_grid.cell_lons[None, :]).astype(np.float32)
        assert np.array_equal(bank._fields[rows], expected)

    def test_plane_rows_leave_room_for_later_points(self):
        scenario = tiny_scenario()
        scenario.calibrations.ensure_plane()
        bank = scenario.grid.bank
        capacity = bank._fields.shape[0]
        bank.rows([1.5, 2.5, 3.5], [4.5, 5.5, 6.5])
        assert bank._fields.shape[0] == capacity


# -- persistence ---------------------------------------------------------------

class TestPersistence:
    def test_loaded_plane_equals_built_plane(self, tmp_path):
        built_scenario = tiny_scenario()
        built = load_or_build(built_scenario.atlas, built_scenario.grid,
                              str(tmp_path))
        assert plane_files(tmp_path)
        loaded_scenario = tiny_scenario()
        loaded = load_plane(loaded_scenario.atlas, loaded_scenario.grid,
                            built.key, str(tmp_path))
        assert loaded is not None
        assert_planes_equal(loaded, built, loaded_scenario, built_scenario)
        # Calibration reads the adopted archive; nothing is drawn again.
        assert loaded_scenario.atlas.ensure_mesh() is loaded.archive

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PATHENGINE_CACHE", str(tmp_path))
        tiny_scenario().calibrations.ensure_plane()
        calls = []
        monkeypatch.setattr("repro.netsim.atlas.mesh_one_way_ms",
                            lambda *args: calls.append(args))
        tiny_scenario().calibrations.ensure_plane()
        assert calls == []

    def corrupt_and_reload(self, tmp_path, corrupt):
        reference_scenario = tiny_scenario()
        reference = load_or_build(reference_scenario.atlas,
                                  reference_scenario.grid, str(tmp_path))
        stem = os.path.join(str(tmp_path), f"plane-{reference.key[:32]}")
        corrupt(stem)
        scenario = tiny_scenario()
        assert load_plane(scenario.atlas, scenario.grid, reference.key,
                          str(tmp_path)) is None
        rebuilt = load_or_build(scenario.atlas, scenario.grid, str(tmp_path))
        assert_planes_equal(rebuilt, reference, scenario, reference_scenario)
        # The rebuild rewrote a good copy.
        again = tiny_scenario()
        assert load_plane(again.atlas, again.grid, reference.key,
                          str(tmp_path)) is not None

    def test_truncated_file_is_rebuilt(self, tmp_path):
        def truncate(stem):
            path = stem + ".fields.npy"
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) - 4)
        self.corrupt_and_reload(tmp_path, truncate)

    def test_wrong_header_is_rebuilt(self, tmp_path):
        def clobber(stem):
            with open(stem + ".archive.npy", "r+b") as handle:
                handle.write(b"\x00NOTNPY")
        self.corrupt_and_reload(tmp_path, clobber)

    def test_wrong_format_version_is_rebuilt(self, tmp_path):
        def bump(stem):
            with open(stem + ".json", encoding="utf-8") as handle:
                manifest = json.load(handle)
            manifest["format"] = FORMAT_VERSION + 1
            with open(stem + ".json", "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)
        self.corrupt_and_reload(tmp_path, bump)

    def test_wrong_shape_is_rebuilt(self, tmp_path):
        def reshape(stem):
            fits = np.load(stem + ".fits.npy")
            np.save(stem + ".fits.npy", fits[:-1])
        self.corrupt_and_reload(tmp_path, reshape)

    def test_missing_manifest_is_rebuilt(self, tmp_path):
        self.corrupt_and_reload(tmp_path,
                                lambda stem: os.unlink(stem + ".json"))

    def test_unwritable_cache_dir_does_not_fail_the_audit(self, tmp_path,
                                                          monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        monkeypatch.setenv("REPRO_PATHENGINE_CACHE", str(blocker / "cache"))
        reference = run_audit(tiny_scenario(), max_servers=6, seed=0)
        monkeypatch.delenv("REPRO_PATHENGINE_CACHE")
        plain = run_audit(tiny_scenario(), max_servers=6, seed=0)
        assert [r.region.packed_bytes() for r in reference.records] == \
            [r.region.packed_bytes() for r in plain.records]

    def test_churn_changes_the_key(self):
        scenario = tiny_scenario()
        before = plane_key(scenario.atlas, scenario.grid)
        first = scenario.calibrations.ensure_plane()
        scenario.atlas.apply_churn(n_decommission=1, n_add=2,
                                   rng=np.random.default_rng(0))
        after = plane_key(scenario.atlas, scenario.grid)
        assert after != before
        rebuilt = scenario.calibrations.ensure_plane()
        assert rebuilt.key == after and rebuilt is not first
        assert len(rebuilt.fits) == len(scenario.atlas.all_landmarks())

    def test_seed_free_key(self):
        """The key covers the substrate only: the grid shape matters,
        campaign seeds and fault profiles never reach it."""
        scenario = tiny_scenario()
        assert plane_key(scenario.atlas, scenario.grid) != \
            plane_key(scenario.atlas, None)


# -- sanitizer -----------------------------------------------------------------

class TestSanitizedLoad:
    def test_loaded_plane_passes_and_audit_is_unchanged(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_PATHENGINE_CACHE", str(tmp_path))
        built = run_audit(tiny_scenario(), max_servers=6, seed=3)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        loaded = run_audit(tiny_scenario(), max_servers=6, seed=3)
        for ours, theirs in zip(built.records, loaded.records):
            assert ours.region.packed_bytes() == theirs.region.packed_bytes()
            assert ours.observations == theirs.observations
            assert ours.assessment == theirs.assessment

    @pytest.mark.parametrize("part", ["archive", "fits", "fields"])
    def test_tampered_value_is_reported(self, tmp_path, monkeypatch, part):
        reference_scenario = tiny_scenario()
        plane = load_or_build(reference_scenario.atlas,
                              reference_scenario.grid, str(tmp_path))
        landmarks = reference_scenario.atlas.all_landmarks()
        sampled = int(plane.key[:8], 16) % len(landmarks)
        path = os.path.join(str(tmp_path),
                            f"plane-{plane.key[:32]}.{part}.npy")
        values = np.load(path)
        if part == "fields":
            row = plane.bank_keys.index(
                reference_scenario.grid.bank.point_keys(
                    [landmarks[sampled].lat], [landmarks[sampled].lon])[0])
            values[row, 0] += 1.0
        else:
            column = 1 if part == "fits" else np.flatnonzero(
                np.isfinite(values[sampled]))[0]
            values[sampled, column] = np.nextafter(values[sampled, column],
                                                   np.inf)
        np.save(path, values)
        scenario = tiny_scenario()
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        assert load_plane(scenario.atlas, scenario.grid, plane.key,
                          str(tmp_path)) is not None
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        fresh = tiny_scenario()
        with pytest.raises(SanitizerError, match="calibration plane"):
            load_plane(fresh.atlas, fresh.grid, plane.key, str(tmp_path))


# -- a fresh shard process ----------------------------------------------------

_SHARD_SCRIPT = textwrap.dedent("""
    import json, sys
    from repro.experiments.campaign import DeploymentPlan, run_campaign_shard
    from repro.experiments.scenario import build_scenario
    from repro.netsim import atlas

    draws = []
    draw = atlas.mesh_one_way_ms
    atlas.mesh_one_way_ms = lambda *args: draws.append(len(args[1])) or draw(*args)
    scenario = build_scenario(seed=11, proxy_scale=0.05,
                              anchor_quotas={anchors}, probe_quotas={probes},
                              crowd_quotas={{}})
    run_campaign_shard(scenario, DeploymentPlan(max_servers=16), shards=2,
                       shard_index=1, journal_dir=sys.argv[1], seed=4)
    print(json.dumps({{"pairs_drawn": sum(draws)}}))
""").format(anchors=TINY_ANCHORS, probes=TINY_PROBES)


def _run_shard(journal_dir, cache_dir):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    if cache_dir is not None:
        env["REPRO_PATHENGINE_CACHE"] = cache_dir
    os.makedirs(journal_dir)
    completed = subprocess.run(
        [sys.executable, "-c", _SHARD_SCRIPT, journal_dir], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    journals = sorted(os.listdir(journal_dir))
    contents = {}
    for name in journals:
        with open(os.path.join(journal_dir, name), "rb") as handle:
            contents[name] = handle.read()
    return contents, json.loads(completed.stdout.splitlines()[-1])


class TestFreshShardProcess:
    def test_journals_identical_with_full_empty_and_no_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        empty, cold = _run_shard(str(tmp_path / "empty"), cache)
        assert plane_files(cache)
        full, warm = _run_shard(str(tmp_path / "full"), cache)
        none, _ = _run_shard(str(tmp_path / "none"), None)
        assert empty and empty == full == none
        assert cold["pairs_drawn"] > 0
        assert warm["pairs_drawn"] == 0
