"""Tests of the benchmark's own arithmetic, tracing and output checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
import threading
import types

import numpy as np
import pytest

from perfbench import loadgen
from perfbench.spans import (NO_PARENT, SpanRecorder, coverage, self_times,
                             wrap_function, wrap_method)
from perfbench.stats import percentile, summary
from perfbench.workloads import (_campaign_e2e, _latency_metrics, _Phase,
                                 campaign_failures)


# -- percentiles and summaries ------------------------------------------------

class TestPercentile:
    def test_p99_needs_a_thousand_samples(self):
        assert percentile(list(range(999)), 0.99) is None
        assert percentile(list(range(1000)), 0.99) == 989.0

    def test_exactly_ten_beyond_the_rank(self):
        samples = list(range(1, 1001))
        value = percentile(samples, 0.99)
        assert sum(1 for s in samples if s > value) == 10

    def test_median_of_small_samples(self):
        assert percentile(list(range(20)), 0.5) == 9.0  # ten beyond
        assert percentile(list(range(19)), 0.5) is None  # nine beyond

    def test_unsorted_input_and_empty(self):
        assert percentile([5.0, 1.0, 3.0] * 10, 0.5, min_beyond=0) == 3.0
        assert percentile([], 0.5) is None

    def test_summary_quartiles(self):
        out = summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert out["n"] == 5 and out["median"] == 3.0
        assert out["q1"] <= out["median"] <= out["q3"]
        assert summary([7.0]) == {"n": 1, "median": 7.0, "q1": 7.0,
                                  "q3": 7.0}


# -- self time ----------------------------------------------------------------

def _arrays(spans, names):
    """spans: (id, name, start, end, parent)."""
    table = np.array(spans, dtype=float)
    return dict(span_id=table[:, 0].astype(np.int64),
                name=table[:, 1].astype(np.int64),
                start=table[:, 2], end=table[:, 3],
                parent=table[:, 4].astype(np.int64), names=names)


class TestSelfTime:
    def test_nested_tree(self):
        # root [0,10] > a [1,4] > b [2,3];  root > c [5,6]
        spans = [(3, 1, 2.0, 3.0, 1), (1, 0, 1.0, 4.0, 0),
                 (2, 2, 5.0, 6.0, 0), (0, 3, 0.0, 10.0, NO_PARENT)]
        out = self_times(**_arrays(spans, ["a", "b", "c", "root"]))
        assert out == {"a": 2.0, "b": 1.0, "c": 1.0, "root": 6.0}

    def test_same_name_sums_and_missing_parent_is_top_level(self):
        spans = [(0, 0, 0.0, 1.0, NO_PARENT), (1, 0, 2.0, 2.5, 99)]
        assert self_times(**_arrays(spans, ["x"])) == {"x": 1.5}

    def test_self_times_sum_to_covered_wall(self):
        spans = [(0, 0, 0.0, 8.0, NO_PARENT), (1, 1, 1.0, 3.0, 0),
                 (2, 1, 4.0, 7.0, 0)]
        out = self_times(**_arrays(spans, ["root", "leaf"]))
        assert sum(out.values()) == pytest.approx(8.0)

    def test_coverage_excludes_glue(self):
        out = {"root": 1.0, "layer": 8.0, "other": 0.5}
        assert coverage(out, 10.0, ["root"]) == pytest.approx(0.85)
        assert coverage(out, 0.0, ["root"]) == 0.0

    def test_recorder_parents_spans_per_thread(self):
        recorder = SpanRecorder()
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for _ in range(200):
                outer, parent = recorder.begin()
                inner, inner_parent = recorder.begin()
                assert inner_parent == outer
                recorder.end("inner", inner, inner_parent, 1.0, 2.0)
                recorder.end("outer", outer, parent, 0.0, 3.0)
                assert parent == NO_PARENT

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        arrays = recorder.arrays()
        assert len(set(arrays["span_id"].tolist())) == 3200
        out = self_times(**arrays)
        assert out["outer"] == pytest.approx(1600 * 2.0)
        assert out["inner"] == pytest.approx(1600 * 1.0)

    def test_dump_round_trip(self, tmp_path):
        from perfbench.spans import load_dump
        recorder = SpanRecorder()
        recorder.add_span("x", 0.0, 2.0)
        recorder.count("calls", 3)
        path = str(tmp_path / "spans.npz")
        recorder.dump(path, extra=1.5)
        arrays, values = load_dump(path)
        assert self_times(**arrays) == {"x": 2.0}
        assert values == {"calls": 3.0, "extra": 1.5}


# -- wrappers -----------------------------------------------------------------

class TestWrappers:
    @pytest.fixture
    def modules(self, monkeypatch):
        source = types.ModuleType("fakepkg.source")

        def double(x):
            return 2 * x

        def numbers(n):
            yield from range(n)

        class Thing:
            def size(self, items):
                return len(items)

        source.double, source.numbers, source.Thing = double, numbers, Thing
        consumer = types.ModuleType("fakepkg.consumer")
        consumer.double = double  # as ``from fakepkg.source import double``
        monkeypatch.setitem(sys.modules, "fakepkg.source", source)
        monkeypatch.setitem(sys.modules, "fakepkg.consumer", consumer)
        return source, consumer

    def test_consumer_site_is_wrapped(self, modules):
        source, consumer = modules
        recorder = SpanRecorder()
        replaced = wrap_function(recorder, "fakepkg.source", "double",
                                 "layer.double", prefix="fakepkg")
        assert replaced == 2
        assert consumer.double(3) == 6 and source.double(1) == 2
        arrays = recorder.arrays()
        assert len(arrays["span_id"]) == 2

    def test_generator_resumptions_are_spans(self, modules):
        recorder = SpanRecorder()
        wrap_function(recorder, "fakepkg.source", "numbers", "gen",
                      prefix="fakepkg")
        assert list(sys.modules["fakepkg.source"].numbers(3)) == [0, 1, 2]
        # three items plus the final StopIteration resumption
        assert len(recorder.arrays()["span_id"]) == 4

    def test_method_hook_counts(self, modules):
        recorder = SpanRecorder()

        def hook(args, kwargs, result, start, stop):
            recorder.count("items", len(args[1]))
        wrap_method(recorder, "fakepkg.source", "Thing.size", "size", hook)
        thing = sys.modules["fakepkg.source"].Thing()
        assert thing.size([1, 2, 3]) == 3
        assert recorder.counters == {"items": 3}


# -- closed-loop latency metrics --------------------------------------------

class TestLatencyMetrics:
    def _phase(self, latencies, ok, elapsed=2.0, cpu=1.6):
        # ``latencies`` on the server's CPU clock; the wall clock, which
        # the metrics must not use, reads three times as long.
        phase = _Phase(queries=[(i, None) for i in range(len(latencies))])
        phase.cpu_latencies_ms, phase.ok = latencies, ok
        phase.latencies_ms = [3 * ms for ms in latencies]
        phase.elapsed_s, phase.cpu_s = elapsed, cpu
        return phase

    def test_p99_and_goodput(self):
        latencies = [1.0] * 990 + [30.0] * 10
        out = _latency_metrics(self._phase(latencies, [True] * 1000))
        assert out["p50_ms"] == 1.0
        assert out["p99_ms"] == 1.0  # ten samples beyond rank 990
        # Per second of server CPU time, not of the wall clock.
        assert out["goodput_rps"] == pytest.approx(1000 / 1.6)

    def test_failed_replies_are_not_goodput(self):
        latencies = [1.0] * 1000
        ok = [True] * 900 + [False] * 100
        out = _latency_metrics(self._phase(latencies, ok))
        assert out["goodput_rps"] == pytest.approx(900 / 1.6)

    def test_unsupported_p99_falls_back_to_the_maximum(self):
        out = _latency_metrics(self._phase([1.0, 2.0, 9.0] * 10,
                                           [True] * 30))
        assert out["p99_ms"] == 9.0


# -- output checks ------------------------------------------------------------

def _verdict(**changes):
    from repro.service.verdict import VerdictResponse
    fields = dict(hostname="h.example", host_id=7, claim="DE",
                  verdict="credible", continent_verdict="credible",
                  countries=("DE",), area_km2=1234.5,
                  deduced_continent="EU", used_landmarks=("a", "b"),
                  degraded=False, notes=(), epoch_digest="abc",
                  region_sha256="f00")
    fields.update(changes)
    return VerdictResponse(**fields)


def _wire(response, latency=1.25):
    payload = json.loads(response.to_json())
    payload["latency_ms"] = latency
    return (json.dumps(payload, sort_keys=True)).encode()


class TestReplyChecks:
    def test_matching_reply(self):
        reference = _verdict()
        assert loadgen.reply_matches(_wire(_verdict(cached=True)),
                                     reference.canonical_json())

    def test_wrong_reference_counts_as_failure(self):
        queries = [("h.example", None), ("h.example", "FR")]
        replies = [_wire(_verdict()), _wire(_verdict(claim="FR"))]
        right = {queries[0]: _verdict().canonical_json(),
                 queries[1]: _verdict(claim="FR").canonical_json()}
        assert loadgen.check_replies(queries, replies, right) == [True, True]
        wrong = dict(right)
        wrong[queries[1]] = _verdict(claim="FR",
                                     verdict="false").canonical_json()
        assert loadgen.check_replies(queries, replies, wrong) == [True, False]

    def test_shed_error_and_missing_replies_fail(self):
        expected = _verdict().canonical_json()
        shed = _verdict(shed=True)
        assert not loadgen.reply_matches(_wire(shed), expected)
        assert not loadgen.reply_matches(b'{"error": "KeyError"}', expected)
        assert not loadgen.reply_matches(None, expected)
        assert not loadgen.reply_matches(b"not json", expected)


class TestCampaignChecks:
    def _campaign(self, report, records=10, n=10):
        return {"n_servers": n, "merged_records": records,
                "report": json.dumps(report)}

    def test_matching_report_has_no_failures(self):
        report = {"n_servers": 10, "ground_truth": {"false_precision": 0.95}}
        campaign = self._campaign(report)
        assert campaign_failures(campaign, campaign["report"]) == 0

    def test_wrong_report_fails_every_server(self):
        report = {"n_servers": 10, "ground_truth": {"false_precision": 0.95}}
        campaign = self._campaign(report)
        assert campaign_failures(campaign, "{}") == 10

    def test_low_false_precision_and_missing_records(self):
        low = {"n_servers": 10, "ground_truth": {"false_precision": 0.5}}
        campaign = self._campaign(low)
        assert campaign_failures(campaign, campaign["report"]) == 10
        ok = {"n_servers": 10, "ground_truth": {"false_precision": 0.95}}
        short = self._campaign(ok, records=8)
        assert campaign_failures(short, short["report"]) == 2


class TestCampaignClock:
    def test_metrics_leave_out_time_the_host_took(self):
        # Two shards whose host lost 10 s of wall each to other guests.
        processes = [{"phase": f"shard{i}", "spawned": 100.0 + 30 * i,
                      "exited": 130.0 + 30 * i, "built": 102.0 + 30 * i,
                      "built_cpu": 2.0, "cpu_s": 20.0, "rss_mib": 100.0}
                     for i in range(2)]
        campaign = {"processes": processes, "n_servers": 72,
                    "fleet_size": 100, "journal_bytes": 0,
                    "wall_s": 60.0, "setup_s": 4.0,
                    "record_ms": [25000.0, 25000.0],
                    "cpu_s": 40.0, "setup_cpu_s": 4.0,
                    "record_cpu_ms": [15000.0, 15000.0]}
        metrics, details = _campaign_e2e([campaign], [0])
        assert metrics["servers_per_s"] == pytest.approx(72 / 36.0)
        assert metrics["setup_s"] == 4.0
        assert details["cpu_clock"]["time_to_record_ms"]["median"] == 15000.0
        assert details["wall_clock"]["time_to_record_ms"]["median"] == 25000.0
        assert details["wall_clock"]["servers_per_s"]["median"] == \
            pytest.approx(72 / 56.0)


class TestQueries:
    def test_same_seed_same_queries(self):
        make = lambda: loadgen.make_queries(  # noqa: E731
            list(range(50)), ["DE", "FR"], 500, np.random.default_rng(3))
        assert make() == make()

    def test_claim_mix(self):
        queries = loadgen.make_queries(list(range(50)), ["DE", "FR"], 20000,
                                       np.random.default_rng(1))
        novel = sum(1 for _, claim in queries if claim is not None)
        assert novel / len(queries) == pytest.approx(0.1, abs=0.01)

    def test_queries_cycle_over_the_fleet(self):
        queries = loadgen.make_queries(list(range(40)), ["DE"], 120,
                                       np.random.default_rng(4))
        counts = np.bincount([host for host, _ in queries], minlength=40)
        assert counts.tolist() == [3] * 40
        assert [h for h, _ in queries[:40]] != list(range(40))
