"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the workflows a downstream user of the paper's system
would run:

* ``audit``     — audit a slice of the simulated VPN fleet end to end;
* ``locate``    — geolocate an arbitrary coordinate (a host is attached
  there and measured, as a volunteer running the CLI tool would be);
* ``figure``    — regenerate one paper figure's table;
* ``channels``  — the §4.2 measurement-channel survey;
* ``eta``       — fit the direct/indirect RTT factor (Figure 13).

Everything runs against the deterministic default scenario; ``--seed``
rebuilds the world from a different seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _scenario(args):
    from .experiments import build_scenario, default_scenario
    if args.seed == 0:
        return default_scenario()
    from .experiments.scenario import (
        SMALL_ANCHOR_QUOTAS,
        SMALL_CROWD_QUOTAS,
        SMALL_PROBE_QUOTAS,
    )
    return build_scenario(seed=args.seed, proxy_scale=0.35,
                          anchor_quotas=SMALL_ANCHOR_QUOTAS,
                          probe_quotas=SMALL_PROBE_QUOTAS,
                          crowd_quotas=SMALL_CROWD_QUOTAS)


def _cmd_audit(args) -> int:
    from .experiments import run_audit
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    scenario = _scenario(args)
    result = run_audit(scenario, max_servers=args.servers, seed=args.seed,
                       workers=args.workers,
                       fault_profile=args.fault_profile,
                       checkpoint_path=args.checkpoint,
                       resume=args.resume)
    print(f"audited {len(result.records)} servers "
          f"(eta={result.eta.eta:.3f}, R^2={result.eta.r_squared:.3f})")
    if result.fault_profile:
        print(f"fault profile: {result.fault_profile} "
              f"({result.degraded_count} degraded records)")
    print(f"verdicts (before disambiguation): {result.verdict_counts(initial=True)}")
    print(f"verdicts (after):                 {result.verdict_counts()}")
    print(f"reclassified: {result.reclassified}")
    for category, count in sorted(result.category_counts().items(),
                                  key=lambda kv: -kv[1]):
        print(f"  {category:<40} {count:5d}")
    if args.ground_truth:
        print(f"ground truth: {result.ground_truth_accuracy()}")
    return 0


def _cmd_campaign(args) -> int:
    from . import config
    from .experiments.campaign import (
        DeploymentPlan,
        merge_campaign,
        run_campaign,
        run_campaign_shard,
    )
    from .experiments.scenario import paper_scale_scenario
    from .report import campaign_table
    if args.shard_index is not None and args.merge:
        print("--shard-index and --merge are mutually exclusive",
              file=sys.stderr)
        return 2
    journal_dir = args.journal_dir or config.env_value("REPRO_CAMPAIGN_DIR")
    if (args.shard_index is not None or args.merge) and not journal_dir:
        print("--shard-index/--merge need --journal-dir (or "
              "REPRO_CAMPAIGN_DIR): the journals must outlive this "
              "invocation", file=sys.stderr)
        return 2
    shards = args.shards
    if shards is None:
        shards = int(config.env_value("REPRO_CAMPAIGN_SHARDS"))
    plan = (DeploymentPlan.from_file(args.plan) if args.plan
            else DeploymentPlan())
    scenario = (paper_scale_scenario(seed=args.seed) if args.paper_scale
                else _scenario(args))
    if args.shard_index is not None:
        summary = run_campaign_shard(
            scenario, plan, shards=shards, shard_index=args.shard_index,
            journal_dir=str(journal_dir), seed=args.seed,
            workers=args.workers, fault_profile=args.fault_profile,
            resume=args.resume)
        state = "skipped (already finalized)" if summary.skipped else "done"
        print(f"shard {summary.shard_index + 1}/{summary.shards}: "
              f"{summary.n_servers} servers {state} -> {summary.journal_path}")
        print(f"  verdicts (pre-disambiguation): {summary.verdicts} "
              f"({summary.degraded} degraded)")
        return 0
    if args.merge:
        report = merge_campaign(scenario, plan, shards=shards,
                                journal_dir=str(journal_dir),
                                seed=args.seed,
                                fault_profile=args.fault_profile)
    else:
        run = run_campaign(scenario, plan, shards=shards,
                           workers=args.workers, seed=args.seed,
                           fault_profile=args.fault_profile,
                           journal_dir=(str(journal_dir) if journal_dir
                                        else None),
                           resume=args.resume)
        for summary in run.shards:
            state = "skipped" if summary.skipped else "done"
            print(f"shard {summary.shard_index + 1}/{summary.shards}: "
                  f"{summary.n_servers} servers {state}")
        report = run.report
    print(campaign_table(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"report written to {args.report}")
    return 0


def _cmd_locate(args) -> int:
    from .core import CBG, CBGPlusPlus, QuasiOctant, RttObservation, Spotter
    from .geodesy.greatcircle import validate_latlon
    from .netsim import CliTool
    try:
        validate_latlon(args.lat, args.lon)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    algorithms = {"cbg": CBG, "cbg++": CBGPlusPlus,
                  "quasi-octant": QuasiOctant, "spotter": Spotter}
    scenario = _scenario(args)
    host = scenario.factory.create(args.lat, args.lon, name="cli-target")
    tool = CliTool(scenario.network, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    observations = [
        RttObservation(lm.name, lm.lat, lm.lon,
                       tool.measure(host, lm, rng).rtt_ms / 2.0)
        for lm in scenario.atlas.anchors]
    algorithm = algorithms[args.algorithm](scenario.calibrations,
                                           scenario.worldmap)
    prediction = algorithm.predict(observations)
    if prediction.failed:
        print("prediction failed (empty region)")
        return 1
    covered = scenario.worldmap.countries_covered(prediction.region)
    centroid = prediction.region.centroid()
    print(f"algorithm: {algorithm.name}")
    print(f"region: {prediction.region.n_cells} cells, "
          f"{prediction.area_km2():,.0f} km^2")
    print(f"centroid: ({centroid[0]:.2f}, {centroid[1]:.2f})")
    print(f"countries: {', '.join(covered)}")
    if args.map:
        from .report import region_map
        print(region_map(scenario.worldmap, prediction.region,
                         markers=[(args.lat, args.lon)]))
    return 0


def _cmd_figure(args) -> int:
    from .experiments import (
        ext_adversary,
        ext_testbench,
        fig02_calibration,
        fig04_tools,
        fig09_algorithms,
        fig10_underestimation,
        fig11_effectiveness,
        fig13_eta,
        fig14_claims,
        fig16_disambiguation,
        fig17_assessment,
        fig18_honesty,
        fig22_confusion,
    )
    scenario = _scenario(args)
    simple = {
        "fig02": fig02_calibration,
        "fig10": fig10_underestimation,
        "fig13": fig13_eta,
        "fig14": fig14_claims,
        "fig16": fig16_disambiguation,
        "fig17": fig17_assessment,
        "fig22": fig22_confusion,
        "adversary": ext_adversary,
        "testbench": ext_testbench,
    }
    name = args.name
    if name in simple:
        module = simple[name]
        print(module.format_table(module.run(scenario)))
    elif name == "fig04":
        print(fig04_tools.format_table(fig04_tools.run(scenario, os="linux")))
    elif name in ("fig05", "fig06"):
        print(fig04_tools.format_table(fig04_tools.run(scenario, os="windows")))
    elif name == "fig09":
        comparison = fig09_algorithms.run(scenario, include_cbgpp=True)
        print(fig09_algorithms.format_table(comparison))
    elif name == "fig11":
        result = fig11_effectiveness.run(scenario,
                                         hosts=scenario.crowd[:10])
        print(fig11_effectiveness.format_table(result))
    elif name == "fig18":
        print(fig18_honesty.format_table(fig18_honesty.run(scenario)))
    elif name == "fig21":
        from .experiments import fig21_databases
        print(fig21_databases.format_table(fig21_databases.run(scenario)))
    elif name == "fig23":
        figures = fig22_confusion.run(scenario)
        pairs = figures.most_confused_countries(15)
        print("Figure 23 — most confusable country pairs:")
        for a, b, count in pairs:
            print(f"  {a} <-> {b}: {count}")
    else:
        print(f"unknown figure {name!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_channels(args) -> int:
    from .netsim import survey_measurement_channels
    scenario = _scenario(args)
    stats = survey_measurement_channels(
        scenario.network, scenario.all_servers(), scenario.client)
    print("measurement channels over the proxy fleet (paper section 4.2):")
    print(f"  answers ICMP ping            {stats['icmp_ping']:.0%} "
          f"(paper: ~10%)")
    print(f"  default gateway visible      {stats['gateway_visible']:.0%} "
          f"(paper: ~10%)")
    print(f"  traceroute through tunnel    {stats['traceroute_through']:.0%} "
          f"(paper: ~2/3)")
    print(f"  accepts TCP on port 80       {stats['tcp_port_80']:.0%} "
          f"(the channel the tools use)")
    return 0


def _cmd_eta(args) -> int:
    from .experiments import fig13_eta
    scenario = _scenario(args)
    print(fig13_eta.format_table(fig13_eta.run(scenario, seed=args.seed)))
    return 0


def _cmd_serve(args) -> int:
    from .service import VerdictService
    from .service.frontend import serve_blocking
    scenario = _scenario(args)
    service = VerdictService(scenario, seed=args.seed,
                             fault_profile=args.fault_profile,
                             cache_slots=args.cache_slots,
                             batch_max=args.batch_max,
                             workers=args.workers)
    print(f"verdict service ready: epoch {service.epoch.digest[:16]}, "
          f"{len(scenario.all_servers())} fleet servers, "
          f"eta={service.eta.eta:.3f}")
    if args.warm:
        warmed = service.verdict_batch(
            [(server, None) for server in scenario.all_servers()])
        print(f"warmed {len(warmed)} verdicts into the cache")
    stats = serve_blocking(service, host=args.host, port=args.port,
                           queue_max=args.queue_max,
                           batch_max=args.batch_max,
                           max_requests=args.max_requests)
    info = service.cache_info()
    print(f"served {stats.responses} verdicts "
          f"({stats.shed} shed, {stats.errors} errors, "
          f"{stats.batches} batches, largest {stats.max_batch}); "
          f"verdict cache {info['verdicts'].hits} hits / "
          f"{info['verdicts'].misses} misses")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Active geolocation of network proxies (IMC 2018 reproduction)")
    parser.add_argument("--seed", type=int, default=0,
                        help="world seed (0 = the memoised default scenario)")
    commands = parser.add_subparsers(dest="command", required=True)

    audit = commands.add_parser("audit", help="audit the simulated VPN fleet")
    audit.add_argument("--servers", type=int, default=None,
                       help="limit the number of servers (default: all)")
    audit.add_argument("--ground-truth", action="store_true",
                       help="also report accuracy vs simulator ground truth")
    audit.add_argument("--workers", type=int, default=1,
                       help="audit servers in N parallel processes")
    from .netsim.faults import FAULT_PROFILES
    audit.add_argument("--fault-profile", default=None,
                       choices=sorted(FAULT_PROFILES),
                       help="inject deterministic network faults "
                            "(loss, outages, tunnel drops)")
    audit.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="journal completed servers to PATH "
                            "(JSON lines, crash-safe)")
    audit.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint instead of starting over")
    audit.set_defaults(func=_cmd_audit)

    campaign = commands.add_parser(
        "campaign",
        help="sharded streaming fleet audit (paper scale in bounded memory)")
    campaign.add_argument("--plan", default=None, metavar="PATH",
                          help="JSON DeploymentPlan (default: whole fleet)")
    campaign.add_argument("--paper-scale", action="store_true",
                          help="audit the full paper-scale (~2,269+) fleet")
    campaign.add_argument("--shards", type=int, default=None,
                          help="shard count (default: REPRO_CAMPAIGN_SHARDS)")
    campaign.add_argument("--shard-index", type=int, default=None,
                          metavar="I",
                          help="run only shard I (needs --journal-dir; "
                               "merge later with --merge)")
    campaign.add_argument("--merge", action="store_true",
                          help="merge finalized shard journals into the "
                               "campaign report without auditing")
    campaign.add_argument("--journal-dir", default=None, metavar="DIR",
                          help="directory for shard + merged journals "
                               "(default: REPRO_CAMPAIGN_DIR or a "
                               "temporary directory)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="audit processes per shard")
    campaign.add_argument("--fault-profile", default=None,
                          choices=sorted(FAULT_PROFILES),
                          help="inject deterministic network faults")
    campaign.add_argument("--resume", action="store_true",
                          help="resume partial shard journals; skip "
                               "finalized ones")
    campaign.add_argument("--report", default=None, metavar="PATH",
                          help="also write the merged report JSON to PATH")
    campaign.set_defaults(func=_cmd_campaign)

    locate = commands.add_parser("locate", help="geolocate a coordinate")
    locate.add_argument("lat", type=float)
    locate.add_argument("lon", type=float)
    locate.add_argument("--algorithm", default="cbg++",
                        choices=["cbg", "cbg++", "quasi-octant", "spotter"])
    locate.add_argument("--map", action="store_true",
                        help="render the prediction region as an ASCII map")
    locate.set_defaults(func=_cmd_locate)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", help="fig02, fig04..fig22, adversary, testbench")
    figure.set_defaults(func=_cmd_figure)

    channels = commands.add_parser(
        "channels", help="survey usable measurement channels (section 4.2)")
    channels.set_defaults(func=_cmd_channels)

    eta = commands.add_parser("eta", help="fit the direct/indirect factor")
    eta.set_defaults(func=_cmd_eta)

    serve = commands.add_parser(
        "serve",
        help="run the always-on verdict service (claim queries over TCP)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: loopback)")
    serve.add_argument("--port", type=int, default=8737,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=None,
                       help="fork-pool workers for uncached micro-batches "
                            "(default: REPRO_SERVICE_WORKERS)")
    serve.add_argument("--batch-max", type=int, default=None,
                       help="largest coalesced micro-batch "
                            "(default: REPRO_SERVICE_BATCH_MAX)")
    serve.add_argument("--queue-max", type=int, default=None,
                       help="pending-request bound before shedding "
                            "(default: REPRO_SERVICE_QUEUE_MAX)")
    serve.add_argument("--cache-slots", type=int, default=None,
                       help="verdict-cache capacity "
                            "(default: REPRO_SERVICE_CACHE_SLOTS)")
    serve.add_argument("--fault-profile", default=None,
                       choices=sorted(FAULT_PROFILES),
                       help="serve under a deterministic fault profile")
    serve.add_argument("--warm", action="store_true",
                       help="pre-audit the whole fleet into the cache "
                            "before accepting connections")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="exit after N requests (for scripted runs)")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
