"""One process of the ``campaign-cold`` workload.

Makes the same public calls ``repro campaign --paper-scale`` makes for
one step of the documented sharded deployment::

    python -m perfbench.campaign_child --phase shard --shard-index 0 ...
    python -m perfbench.campaign_child --phase shard --shard-index 1 ...
    python -m perfbench.campaign_child --phase merge ...

``--scenario-seed`` picks the paper-scale scenario and ``--seed`` the
campaign's own random streams (``repro campaign`` takes both from its
one ``--seed``).  ``--phase reference`` computes the unsharded
``single_shot_report`` the merged report must equal.  The process writes a small JSON result (the
monotonic time its scenario was built and the time each shard record
was tallied) to ``--out``; with ``--spans`` it also installs the layer
wrappers and dumps its spans there on exit.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True,
                        choices=("shard", "merge", "reference"))
    parser.add_argument("--shard-index", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-servers", type=int, required=True)
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro.experiments.campaign import (DeploymentPlan, ShardTally,
                                            merge_campaign,
                                            run_campaign_shard,
                                            single_shot_report)
    from repro.experiments import scenario as scenario_module
    imported = time.perf_counter()

    recorder = probe = None
    if args.spans:
        from perfbench import layers
        from perfbench.spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.add_span("startup.import", STARTED, imported)
        probe = layers.install(recorder)
        tracing_s = time.perf_counter() - imported

    # Time each shard record as it is tallied (one clock read per
    # record): the time-to-record latencies of the campaign.
    tallied, tallied_cpu = [], []
    accept = ShardTally.accept

    def timed_accept(tally, record):
        accept(tally, record)
        tallied.append(time.monotonic())
        tallied_cpu.append(time.process_time())
    ShardTally.accept = timed_accept

    scenario = scenario_module.paper_scale_scenario(seed=args.scenario_seed)
    built, built_cpu = time.monotonic(), time.process_time()
    plan = DeploymentPlan(max_servers=args.max_servers)
    result = {"built": built, "built_cpu": built_cpu, "tallied": tallied,
              "tallied_cpu": tallied_cpu,
              "n_servers": len(plan.expand(scenario)),
              "fleet_size": len(scenario.all_servers())}

    def root(name, call):
        if recorder is None:
            return call()
        span_id, parent = recorder.begin()
        start = time.perf_counter()
        try:
            return call()
        finally:
            recorder.end(name, span_id, parent, start, time.perf_counter())

    if args.phase == "shard":
        root("campaign.shard", lambda: run_campaign_shard(
            scenario, plan, shards=args.shards,
            shard_index=args.shard_index, journal_dir=args.journal_dir,
            seed=args.seed, workers=1))
    else:
        def report():
            if args.phase == "merge":
                made = merge_campaign(scenario, plan, shards=args.shards,
                                      journal_dir=args.journal_dir,
                                      seed=args.seed)
            else:
                made = single_shot_report(scenario, plan, seed=args.seed)
            result["report"] = made.to_json()
        root(f"campaign.{args.phase}", report)

    if recorder is not None:
        dumping = time.perf_counter()
        recorder.dump(args.spans, **probe.values())
        # Installing wrappers and dumping spans happen only when traced.
        result["tracing_s"] = tracing_s + time.perf_counter() - dumping
    # What follows is writing this file and interpreter shutdown.
    result["finished"] = time.monotonic()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
