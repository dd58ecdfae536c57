"""Command-line interface.

Subcommands mirror the system's workflow::

    xomatiq init --db wh.sqlite                      # create a warehouse
    xomatiq load --db wh.sqlite --source hlx_enzyme enzyme.dat
    xomatiq harvest --db wh.sqlite --repo mirror/ --retries 4
    xomatiq synth --out corpus/ --enzyme 200 --embl 300 --sprot 200
    xomatiq query --db wh.sqlite --file query.xq [--xml]
    xomatiq query --db wh.sqlite 'FOR $a IN ... RETURN ...'
    xomatiq translate --db wh.sqlite 'FOR ...'        # show generated SQL
    xomatiq profile --db wh.sqlite 'FOR ...'          # stage timings + plans
    xomatiq profile --synth --backend minidb 'FOR ...'
    xomatiq dtd --source hlx_enzyme                   # DTD tree (GUI panel)
    xomatiq sources                                   # registered sources
    xomatiq stats --db wh.sqlite [--json]             # table/row counts
    xomatiq metrics --db wh.sqlite 'FOR ...'          # always-on metrics
    xomatiq metrics --synth --format prometheus       # exposition text
    xomatiq health --db wh.sqlite [--json]            # warehouse health
    xomatiq serve --db wh.sqlite --port 8014          # HTTP query service
    xomatiq serve --synth --rate-limit 50             # demo service
    xomatiq serve --synth --shards 3                  # federated demo node
    xomatiq trace list --url http://127.0.0.1:8014    # retained traces
    xomatiq trace show [trace-id]                     # span-tree waterfall
    xomatiq trace export [trace-id] --out trace.json  # Chrome trace_event

``health`` exits 0/2/1 for ok/warn/fail so monitoring can tell a
degraded-but-serving warehouse from a broken one. The ``trace`` verbs
talk HTTP to a running ``serve`` node: ``list`` summarizes the trace
store's ring, ``show`` renders one request's span tree as a waterfall
(per-shard rows shipped, cache hits, semi-join mode, SQL timings), and
``export`` writes Chrome ``trace_event`` JSON for about:tracing /
ui.perfetto.dev. ``show``/``export`` default to the newest trace.

Federation (sharded warehouses behind one query surface)::

    xomatiq shard add --map shards.json s0 --path s0.sqlite
    xomatiq shard assign --map shards.json hlx_enzyme s0
    xomatiq shard assign --map shards.json hlx_embl s1 s2   # partitioned
    xomatiq shard init --map shards.json      # create shard databases
    xomatiq shard list --map shards.json [--json]
    xomatiq load --shard-map shards.json --source hlx_embl embl.dat
    xomatiq query --shard-map shards.json 'FOR ...'   # scatter-gather
    xomatiq analyze --shard-map shards.json           # optimizer stats
    xomatiq stats --shard-map shards.json             # aggregated
    xomatiq health --shard-map shards.json            # per-shard roll-up
    xomatiq metrics --shard-map shards.json 'FOR ...' # federation.*

``analyze`` samples per-shard cardinalities, keyword and value
histograms into ``shards.stats.json``; subsequent federated queries
plan cost-based (shard pruning, join ordering, semi-join pushdown).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.datahounds.registry import SourceRegistry
from repro.engine import Warehouse
from repro.errors import ReproError
from repro.relational.sqlite_backend import SqliteBackend


def build_parser() -> argparse.ArgumentParser:
    """The xomatiq argument parser (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="xomatiq",
        description="XomatiQ/Data Hounds: warehouse and query biological "
                    "data as XML over a relational engine")
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="create an empty warehouse database")
    init.add_argument("--db", required=True, help="sqlite database path")

    load = sub.add_parser("load", help="transform and load a flat file")
    load.add_argument("--db", help="sqlite database path")
    load.add_argument("--shard-map",
                      help="load into a sharded federation instead of "
                           "--db (partitioned sources split into "
                           "contiguous slices across their shards)")
    load.add_argument("--source", required=True,
                      help="source name (hlx_enzyme, hlx_embl, hlx_sprot)")
    load.add_argument("flatfile", help="path to the flat-file release")
    load.add_argument("--batch-size", type=int, default=None,
                      help="documents per bulk-load flush; the load "
                           "still commits once (default: warehouse "
                           "bulk_batch_size, 512)")

    harvest = sub.add_parser(
        "harvest", help="hound-harvest every source from a mirror "
                        "directory, with retries and per-source fault "
                        "isolation")
    harvest.add_argument("--db", required=True, help="sqlite database path")
    harvest.add_argument("--repo", required=True,
                         help="mirror directory "
                              "(<repo>/<source>/<release>.dat layout)")
    harvest.add_argument("--source", action="append", dest="sources",
                         help="harvest only this source (repeatable; "
                              "default: every registered source the "
                              "mirror publishes)")
    harvest.add_argument("--retries", type=int, default=None,
                         help="max fetch attempts per source (enables "
                              "the resilient transport wrapper: "
                              "backoff, integrity verification, "
                              "circuit breakers)")
    harvest.add_argument("--fail-fast", action="store_true",
                         help="abort on the first failing source "
                              "instead of isolating it")
    harvest.add_argument("--quarantine", action="store_true",
                         help="skip and report malformed entries "
                              "instead of aborting the release")

    synth = sub.add_parser("synth",
                           help="generate a cross-linked synthetic corpus")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--enzyme", type=int, default=100)
    synth.add_argument("--embl", type=int, default=150)
    synth.add_argument("--sprot", type=int, default=100)

    query = sub.add_parser("query", help="run a XomatiQ query")
    query.add_argument("--db", help="sqlite database path")
    query.add_argument("--shard-map",
                       help="run federated over the shard-map registry "
                            "file instead of --db")
    query.add_argument("--file", help="read the query from a file")
    query.add_argument("--xml", action="store_true",
                       help="XML output instead of a table")
    query.add_argument("text", nargs="?", help="query text")

    translate = sub.add_parser(
        "translate", help="show the SQL a query translates to")
    translate.add_argument("--db", required=True)
    translate.add_argument("--file")
    translate.add_argument("text", nargs="?")

    profile = sub.add_parser(
        "profile", help="profile a query: per-stage timings, "
                        "per-statement counters, EXPLAIN plans")
    profile.add_argument("--db", help="sqlite database path")
    profile.add_argument("--synth", action="store_true",
                         help="profile against an in-memory synthetic "
                              "corpus instead of --db")
    profile.add_argument("--backend", choices=("sqlite", "minidb"),
                         default="sqlite",
                         help="relational engine for --synth runs")
    profile.add_argument("--seed", type=int, default=7,
                         help="corpus seed for --synth runs")
    profile.add_argument("--no-explain", action="store_true",
                         help="skip EXPLAIN plan capture")
    profile.add_argument("--json", dest="json_out",
                         help="also write the profile JSON to this path")
    profile.add_argument("--file", help="read the query from a file")
    profile.add_argument("text", nargs="?", help="query text")

    dtd = sub.add_parser("dtd", help="print a source's DTD tree")
    dtd.add_argument("--source", required=True)

    sub.add_parser("sources", help="list registered source transformers")

    stats = sub.add_parser("stats", help="warehouse table/row counts")
    stats.add_argument("--db", help="sqlite database path")
    stats.add_argument("--shard-map",
                       help="aggregate stats across a federation's "
                            "shards instead of --db")
    stats.add_argument("--per-shard", action="store_true",
                       help="with --shard-map: per-shard breakdown "
                            "instead of the aggregate")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of a table")

    analyze = sub.add_parser(
        "analyze", help="collect federation optimizer statistics from "
                        "every reachable shard (persisted next to the "
                        "shard map; enables cost-based planning)")
    analyze.add_argument("--shard-map", required=True,
                         help="shard-map registry file (JSON)")
    analyze.add_argument("--stats",
                         help="statistics catalog path (default: the "
                              "shard map's sibling .stats.json)")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable summary instead of a "
                              "table")

    metrics = sub.add_parser(
        "metrics", help="dump the always-on metrics registry (optionally "
                        "after running a query to exercise the pipeline)")
    metrics.add_argument("--db", help="sqlite database path")
    metrics.add_argument("--shard-map",
                         help="run federated over a shard map; the dump "
                              "includes the federation.* metrics")
    metrics.add_argument("--synth", action="store_true",
                         help="run against an in-memory synthetic corpus "
                              "instead of --db")
    metrics.add_argument("--seed", type=int, default=7,
                         help="corpus seed for --synth runs")
    metrics.add_argument("--format", choices=("json", "prometheus"),
                         default="json",
                         help="snapshot JSON or Prometheus text exposition")
    metrics.add_argument("--file", help="read a query from a file")
    metrics.add_argument("text", nargs="?",
                         help="optional query to run before dumping")

    health = sub.add_parser(
        "health", help="warehouse health: row-count and keyword-index "
                       "sanity checks plus per-source harvest freshness")
    health.add_argument("--db", help="sqlite database path")
    health.add_argument("--shard-map",
                        help="roll up health across a federation's "
                             "shards instead of --db")
    health.add_argument("--synth", action="store_true",
                        help="check an in-memory synthetic corpus")
    health.add_argument("--seed", type=int, default=7,
                        help="corpus seed for --synth runs")
    health.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of a report")

    serve = sub.add_parser(
        "serve", help="run the always-on HTTP query service over a "
                      "warehouse (--db), a federation (--shard-map) or "
                      "an in-memory synthetic corpus (--synth)")
    serve.add_argument("--db", help="sqlite database path")
    serve.add_argument("--shard-map",
                       help="serve a sharded federation instead of --db")
    serve.add_argument("--synth", action="store_true",
                       help="serve an in-memory synthetic corpus "
                            "(demos, benchmarks)")
    serve.add_argument("--seed", type=int, default=7,
                       help="corpus seed for --synth")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8014,
                       help="bind port (default 8014; 0 = ephemeral)")
    serve.add_argument("--max-in-flight", type=int, default=64,
                       help="concurrent work requests before 503 "
                            "load-shedding (default 64)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="sustained requests/second allowed per "
                            "client before 429 (default 0: unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       help="per-client burst allowance "
                            "(default: 2 x rate limit)")
    serve.add_argument("--shards", type=int, default=0,
                       help="with --synth: serve the corpus as an "
                            "in-memory federation of this many shards "
                            "(EMBL horizontally partitioned across all "
                            "of them) instead of one warehouse")
    serve.add_argument("--replicas", type=int, default=0,
                       help="with --shards: in-memory replicas per "
                            "shard, enabling failover and hedging "
                            "(default 0)")
    serve.add_argument("--trace-capacity", type=int, default=256,
                       help="retained request traces (0 disables "
                            "tracing; default 256)")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       help="head-sampling rate for routine traces; "
                            "slow and error traces are always kept "
                            "(default 1.0)")
    serve.add_argument("--trace-slow-ms", type=float, default=500.0,
                       help="requests at or over this duration are "
                            "always kept (default 500)")

    trace = sub.add_parser(
        "trace", help="inspect a running service's request traces "
                      "(talks HTTP to a serve node's /traces API)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _trace_common(command):
        command.add_argument("--url", default="http://127.0.0.1:8014",
                             help="service base URL "
                                  "(default http://127.0.0.1:8014)")
        command.add_argument("--timeout", type=float, default=10.0,
                             help="HTTP timeout in seconds (default 10)")

    trace_list = trace_sub.add_parser(
        "list", help="summaries of retained traces, newest first")
    _trace_common(trace_list)
    trace_list.add_argument("--limit", type=int, default=0,
                            help="show at most this many (default: all)")
    trace_list.add_argument("--json", action="store_true",
                            help="raw /traces JSON instead of a table")

    trace_show = trace_sub.add_parser(
        "show", help="render one trace as a span-tree waterfall")
    _trace_common(trace_show)
    trace_show.add_argument("trace_id", nargs="?",
                            help="trace id (default: the newest trace)")
    trace_show.add_argument("--json", action="store_true",
                            help="raw xomatiq-trace/1 JSON instead of "
                                 "the waterfall")

    trace_export = trace_sub.add_parser(
        "export", help="write one trace as Chrome trace_event JSON "
                       "(about:tracing / ui.perfetto.dev)")
    _trace_common(trace_export)
    trace_export.add_argument("trace_id", nargs="?",
                              help="trace id (default: the newest trace)")
    trace_export.add_argument("--out",
                              help="output path "
                                   "(default: trace-<id>.json)")

    subscribe = sub.add_parser(
        "subscribe", help="register a standing query on a serve node "
                          "and tail its deltas (talks HTTP to "
                          "/subscriptions)")
    subscribe.add_argument("query", nargs="?",
                           help="FLWR query text (or use --file)")
    subscribe.add_argument("--file", help="read the query from a file")
    subscribe.add_argument("--url", default="http://127.0.0.1:8014",
                           help="service base URL "
                                "(default http://127.0.0.1:8014)")
    subscribe.add_argument("--policy", default="coalesce",
                           choices=("block", "drop_oldest", "coalesce"),
                           help="backpressure policy for this "
                                "subscriber's queue (default coalesce)")
    subscribe.add_argument("--max-events", type=int, default=0,
                           help="stop after this many deltas "
                                "(default: tail until interrupted)")
    subscribe.add_argument("--timeout", type=float, default=10.0,
                           help="long-poll wait per request in seconds "
                                "(default 10; the server clamps it)")
    subscribe.add_argument("--keep", action="store_true",
                           help="leave the subscription registered on "
                                "exit instead of deleting it")
    subscribe.add_argument("--json", action="store_true",
                           help="print raw delta JSON, one per line")

    shard = sub.add_parser(
        "shard", help="manage a federation's shard-map registry file")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_add = shard_sub.add_parser(
        "add", help="register a shard (creates the map file if absent)")
    shard_add.add_argument("--map", required=True,
                           help="shard-map registry file (JSON)")
    shard_add.add_argument("name", help="shard name")
    shard_add.add_argument("--path", default=None,
                           help="shard database path "
                                "(default: <name>.sqlite)")
    shard_add.add_argument("--latency-s", type=float, default=0.0,
                           help="simulated access round-trip in seconds "
                                "(models a remote shard; E13 latency "
                                "experiments)")
    shard_add.add_argument("--backend", choices=("sqlite", "minidb"),
                           default="sqlite")

    shard_replica = shard_sub.add_parser(
        "add-replica", help="register a replica backend for a shard "
                            "(query path fails over / hedges onto it)")
    shard_replica.add_argument("--map", required=True,
                               help="shard-map registry file (JSON)")
    shard_replica.add_argument("shard", help="shard to replicate")
    shard_replica.add_argument("--path", default=None,
                               help="replica database path "
                                    "(default: <shard>-r<n>.sqlite)")
    shard_replica.add_argument("--latency-s", type=float, default=0.0,
                               help="simulated access round-trip in "
                                    "seconds")
    shard_replica.add_argument("--backend", choices=("sqlite", "minidb"),
                               default="sqlite")

    shard_assign = shard_sub.add_parser(
        "assign", help="route a source to one shard (whole) or several "
                       "(horizontally partitioned, in order)")
    shard_assign.add_argument("--map", required=True)
    shard_assign.add_argument("source", help="source name (hlx_enzyme, ...)")
    shard_assign.add_argument("shards", nargs="+",
                              help="shard names, partition order")

    shard_init = shard_sub.add_parser(
        "init", help="create every shard database the map declares")
    shard_init.add_argument("--map", required=True)

    shard_list = shard_sub.add_parser(
        "list", help="show registered shards and source routing")
    shard_list.add_argument("--map", required=True)
    shard_list.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream pager/head closed early; not an error, but the
        # interpreter would complain at exit unless stdout is detached
        sys.stdout = open(os.devnull, "w")
        return 0


def _dispatch(args) -> int:
    if args.command == "init":
        warehouse = Warehouse(backend=SqliteBackend(args.db))
        warehouse.close()
        print(f"created warehouse {args.db}")
        return 0

    if args.command == "load":
        engine = _open_engine(args)
        if args.shard_map:
            # a federation slices the release across the source's shards
            counts = engine.load_text(
                args.source,
                Path(args.flatfile).read_text(encoding="utf-8"),
                batch_size=args.batch_size)
            per_shard = ", ".join(f"{shard}: {count}"
                                  for shard, count in counts.items())
            print(f"loaded {sum(counts.values())} documents into "
                  f"{args.source} ({per_shard})")
        else:
            count = engine.load_file(args.source, args.flatfile,
                                     batch_size=args.batch_size)
            print(f"loaded {count} documents into {args.source}")
        engine.close()
        return 0

    if args.command == "harvest":
        from repro.datahounds.transport import DirectoryRepository
        warehouse = _open_engine(args)
        report = warehouse.harvest(DirectoryRepository(args.repo),
                                   sources=args.sources,
                                   quarantine=args.quarantine,
                                   retries=args.retries,
                                   fail_fast=args.fail_fast)
        print(report)
        warehouse.close()
        return 0 if report.ok else 1

    if args.command == "synth":
        from repro.synth import build_corpus
        corpus = build_corpus(seed=args.seed, enzyme_count=args.enzyme,
                              embl_count=args.embl, sprot_count=args.sprot)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "enzyme.dat").write_text(corpus.enzyme_text, encoding="utf-8")
        (out / "embl.dat").write_text(corpus.embl_text, encoding="utf-8")
        (out / "sprot.dat").write_text(corpus.sprot_text, encoding="utf-8")
        print(f"wrote corpus to {out} ({corpus.sizes()})")
        return 0

    if args.command == "query":
        text = _query_text(args)
        engine = _open_engine(args)
        result = engine.query(text)
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(result.to_xml() if args.xml else result.to_table())
        engine.close()
        return 0

    if args.command == "translate":
        text = _query_text(args)
        warehouse = _open_engine(args)
        compiled = warehouse.translate(text)
        for index, statement in enumerate(compiled.statements(), 1):
            print(f"-- statement {index}")
            print(statement)
            print()
        warehouse.close()
        return 0

    if args.command == "profile":
        from repro.obs import export_profiles, format_profile
        text = _query_text(args)
        warehouse = _open_engine(args)
        report = warehouse.profile(text, explain=not args.no_explain)
        print(format_profile(report))
        if args.json_out:
            export_profiles([report], args.json_out)
            print(f"\nwrote profile JSON to {args.json_out}")
        warehouse.close()
        return 0

    if args.command == "dtd":
        registry = SourceRegistry()
        transformer = registry.create(args.source, validate=False)
        print(transformer.dtd_tree().render())
        return 0

    if args.command == "stats":
        import json
        engine = _open_engine(args)
        per_shard = args.per_shard and args.shard_map
        stats = engine.shard_stats() if per_shard else engine.stats()
        engine.close()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        elif per_shard:
            for shard, counts in stats.items():
                print(f"[{shard}]")
                for key, count in counts.items():
                    print(f"  {key:<22} {count}")
        else:
            for key, count in stats.items():
                print(f"{key:<24} {count}")
        return 0

    if args.command == "analyze":
        import json
        federation = _open_engine(args)
        try:
            summary = federation.analyze()
        finally:
            federation.close()
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"analyzed {summary['shards_analyzed']} shard(s) "
                  f"-> {federation.stats_path}")
            for name, record in summary["shards"].items():
                complete = "complete" if record["tokens_complete"] \
                    else "capped"
                print(f"  {name:<8} gen {record['generation']:<4} "
                      f"{record['documents']:>6} docs "
                      f"{record['elements']:>8} elements "
                      f"{record['tokens']:>6} tokens ({complete})")
            for name in summary.get("shards_skipped", []):
                print(f"  {name:<8} unreachable — skipped")
        return 0

    if args.command == "metrics":
        import json
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        engine = _open_engine(args, metrics=registry)
        if args.text or args.file:
            engine.query(_query_text(args))
        if args.format == "prometheus":
            sys.stdout.write(registry.render_prometheus())
        else:
            print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        engine.close()
        return 0

    if args.command == "health":
        import json
        from repro.obs import format_health
        engine = _open_engine(args)
        report = engine.health()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_health(report))
        engine.close()
        # Nagios-style tri-state so monitoring can tell degraded from
        # broken: 0 = ok, 2 = warn (degraded but serving), 1 = fail
        return {"ok": 0, "warn": 2}.get(report["status"], 1)

    if args.command == "serve":
        return _dispatch_serve(args)

    if args.command == "trace":
        return _dispatch_trace(args)

    if args.command == "sources":
        registry = SourceRegistry()
        for name in registry.names():
            transformer = registry.create(name, validate=False)
            codes = ", ".join(spec.code for spec in transformer.line_specs)
            print(f"{name:<12} root <{transformer.dtd.root}>  lines: {codes}")
        return 0

    if args.command == "subscribe":
        return _dispatch_subscribe(args)

    if args.command == "shard":
        return _dispatch_shard(args)

    raise AssertionError(f"unhandled command {args.command}")


def _dispatch_serve(args) -> int:
    """Run the HTTP service until SIGINT/SIGTERM, then drain."""
    import signal
    import threading
    from repro.service import ServiceConfig, serve
    engine = _open_engine(args)
    config = ServiceConfig(host=args.host, port=args.port,
                           max_in_flight=args.max_in_flight,
                           rate_limit=args.rate_limit,
                           rate_burst=args.rate_burst,
                           trace_capacity=args.trace_capacity,
                           trace_sample=args.trace_sample,
                           trace_slow_ms=args.trace_slow_ms)
    server = serve(engine, config)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *__: stop.set())
    # serve_forever must run off the main thread so the main thread
    # can wait on the signal event and call shutdown() (calling it
    # from the serving thread deadlocks by contract)
    thread = threading.Thread(target=server.serve_forever,
                              name="xomatiq-serve", daemon=True)
    thread.start()
    print(f"serving on {server.url} "
          f"(max in-flight {config.max_in_flight}"
          + (f", {config.rate_limit:g} req/s per client"
             if config.rate_limit > 0 else "")
          + "; SIGINT/SIGTERM to stop)", flush=True)
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("shutting down", flush=True)
    server.close()
    thread.join(timeout=10)
    return 0


def _dispatch_subscribe(args) -> int:
    """``subscribe`` — register a standing query on a serve node and
    tail its deltas over the long-poll API until interrupted."""
    import json
    if args.file:
        text = Path(args.file).read_text(encoding="utf-8")
    elif args.query:
        text = args.query
    else:
        raise _UsageError("give a query or --file")

    def call(method: str, path: str, body: dict | None = None) -> dict:
        # a long poll may hold the request for up to args.timeout
        return _http_json(args.url, path, args.timeout + 5,
                          method=method, body=body)

    record = call("POST", "/subscriptions",
                  {"query": text, "policy": args.policy,
                   "persist": args.keep})
    sub_id = record["id"]
    print(f"subscribed {sub_id} (policy {args.policy}, "
          f"sources {', '.join(record.get('sources', []) or ['?'])}); "
          f"waiting for deltas — Ctrl-C to stop", flush=True)
    cursor = 0
    seen = 0
    try:
        while not args.max_events or seen < args.max_events:
            page = call("GET", f"/subscriptions/{sub_id}/events"
                               f"?after={cursor}&timeout={args.timeout}")
            for event in page["events"]:
                cursor = event["id"]
                seen += 1
                delta = event["delta"]
                if args.json:
                    print(json.dumps(delta, sort_keys=True), flush=True)
                else:
                    print(f"#{event['id']} {delta['source']} "
                          f"{delta['release'] or '-'} "
                          f"[{delta['origin']}] "
                          f"+{len(delta['added'])} "
                          f"-{len(delta['removed'])} "
                          f"rows={delta['total_rows']}", flush=True)
                if args.max_events and seen >= args.max_events:
                    break
            if page.get("lost_events"):
                print(f"warning: channel overflowed, "
                      f"{page['lost_events']} event(s) lost",
                      file=sys.stderr, flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        if not args.keep:
            try:
                call("DELETE", f"/subscriptions/{sub_id}")
                print(f"unsubscribed {sub_id}", flush=True)
            except ReproError as exc:
                print(f"warning: could not unsubscribe: {exc}",
                      file=sys.stderr)
    return 0


def _dispatch_trace(args) -> int:
    """``trace list/show/export`` — read a serve node's /traces API."""
    import json

    def fetch(path: str) -> dict:
        return _http_json(args.url, path, args.timeout)

    def resolve_id() -> str:
        if getattr(args, "trace_id", None):
            return args.trace_id
        newest = fetch("/traces?limit=1")["traces"]
        if not newest:
            raise ReproError("the service has no retained traces yet "
                             "(send it a request first)")
        return newest[0]["trace_id"]

    if args.trace_command == "list":
        query = f"?limit={args.limit}" if args.limit else ""
        payload = fetch("/traces" + query)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"{payload['kept']}/{payload['offered']} traces kept "
              f"(ring capacity {payload['capacity']}), newest first:")
        for summary in payload["traces"]:
            print(f"  {summary['trace_id']:<20} "
                  f"{summary['endpoint'] or '-':<10} "
                  f"status={summary['status']} "
                  f"{summary['duration_ms']:>9.2f}ms "
                  f"{summary['spans']:>3} spans  "
                  f"kept={summary['kept']}")
        return 0

    if args.trace_command == "show":
        from repro.obs import format_trace
        trace = fetch(f"/traces/{resolve_id()}")
        if args.json:
            print(json.dumps(trace, indent=2, sort_keys=True))
        else:
            print(format_trace(trace))
        return 0

    if args.trace_command == "export":
        trace_id = resolve_id()
        payload = fetch(f"/traces/{trace_id}?format=chrome")
        out = args.out or f"trace-{trace_id}.json"
        Path(out).write_text(json.dumps(payload, indent=2) + "\n",
                             encoding="utf-8")
        print(f"wrote Chrome trace_event JSON for {trace_id} to {out} "
              f"(open in about:tracing or ui.perfetto.dev)")
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command}")


def _dispatch_shard(args) -> int:
    import json
    from repro.federation import ShardCatalog
    path = Path(args.map)

    if args.shard_command == "add":
        catalog = (ShardCatalog.load(path) if path.exists()
                   else ShardCatalog())
        db_path = args.path if args.path is not None \
            else f"{args.name}.sqlite"
        catalog.add_shard(args.name, path=db_path, backend=args.backend,
                          latency_s=args.latency_s)
        catalog.save(path)
        print(f"added shard {args.name} -> {db_path} ({args.backend})")
        return 0

    catalog = ShardCatalog.load(path)
    if args.shard_command == "add-replica":
        ordinal = len(catalog.replicas(args.shard))
        db_path = args.path if args.path is not None \
            else f"{args.shard}-r{ordinal}.sqlite"
        spec = catalog.add_replica(args.shard, path=db_path,
                                   backend=args.backend,
                                   latency_s=args.latency_s)
        catalog.save(path)
        print(f"added replica {spec.name} -> {db_path} ({args.backend})")
        return 0
    if args.shard_command == "assign":
        catalog.assign(args.source, *args.shards)
        catalog.save(path)
        print(f"routed {args.source} -> {', '.join(args.shards)}")
        return 0
    if args.shard_command == "init":
        catalog.create_shards()
        catalog.close()
        print(f"initialized {len(catalog.shard_names())} shard "
              f"database(s)")
        return 0
    if args.shard_command == "list":
        if args.json:
            print(json.dumps(catalog.to_dict(), indent=2, sort_keys=True))
            return 0
        print("shards:")
        for name in catalog.shard_names():
            spec = catalog.spec(name)
            print(f"  {name:<12} {spec.backend:<8} {spec.path}")
            for replica in catalog.replicas(name):
                print(f"  {replica.name:<12} {replica.backend:<8} "
                      f"{replica.path} (replica)")
        print("sources:")
        sources = catalog.sources()
        if not sources:
            print("  (none routed)")
        for source, shards in sources.items():
            print(f"  {source:<12} -> {', '.join(shards)}")
        return 0
    raise AssertionError(f"unhandled shard command {args.shard_command}")


class _UsageError(Exception):
    """A command given no engine or no query: ``error: ...``, exit 2."""


def _open_engine(args, metrics=None):
    """The engine a command runs on: a federation over ``--shard-map``
    (or ``--synth --shards N``), else a warehouse over ``--db`` (its
    schema reused when the file exists) or an in-memory ``--synth``
    corpus. Both answer the same calls (:class:`repro.engine.Engine`);
    ``metrics`` is the registry they record into."""
    if getattr(args, "shards", 0):
        if not args.synth:
            raise _UsageError("--shards requires --synth")
        return _build_synth_federation(args.seed, args.shards,
                                       replicas=args.replicas)
    if getattr(args, "shard_map", None):
        from repro.federation import FederatedXomatiQ
        return FederatedXomatiQ.from_shard_map(
            args.shard_map, metrics=metrics,
            stats_path=getattr(args, "stats", None))
    if getattr(args, "synth", False):
        from repro.relational import MiniDbBackend
        from repro.synth import build_corpus
        backend = (MiniDbBackend()
                   if getattr(args, "backend", "sqlite") == "minidb"
                   else SqliteBackend())
        warehouse = Warehouse(backend=backend, metrics=metrics)
        warehouse.load_corpus(build_corpus(seed=args.seed))
        return warehouse
    if args.db:
        return Warehouse(backend=SqliteBackend(args.db),
                         create=not Path(args.db).exists(),
                         metrics=metrics)
    other = "--synth" if hasattr(args, "synth") else "--shard-map"
    raise _UsageError(f"provide --db or {other}")


def _build_synth_federation(seed: int, shards: int, replicas: int = 0):
    """An in-memory federation over the synthetic corpus: ENZYME and
    SPROT on single shards, EMBL horizontally partitioned across every
    shard — so a demo node exercises both routing modes (and a request
    trace shows real scatter-gather fan-out). ``replicas`` in-memory
    replicas per shard are loaded alongside their primaries, giving
    the executor failover/hedging targets."""
    from repro.federation import FederatedXomatiQ, ShardCatalog
    from repro.synth import build_corpus
    catalog = ShardCatalog()
    names = [f"s{index}" for index in range(max(1, shards))]
    for name in names:
        catalog.add_shard(name)
        for __ in range(max(0, replicas)):
            catalog.add_replica(name)
    catalog.assign("hlx_enzyme", names[0])
    catalog.assign("hlx_sprot", names[-1])
    catalog.assign("hlx_embl", *names)
    federation = FederatedXomatiQ(catalog)
    federation.load_corpus(build_corpus(seed=seed))
    return federation


def _http_json(url: str, path: str, timeout: float, method: str = "GET",
               body: dict | None = None) -> dict:
    """One JSON call to a serve node (the ``trace`` and ``subscribe``
    verbs): an HTTP error or an unreachable node is a
    :class:`ReproError` carrying the service's own error text."""
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import Request, urlopen
    base = url.rstrip("/")
    request = Request(
        base + path, method=method,
        data=json.dumps(body).encode("utf-8") if body is not None else None,
        headers={"Content-Type": "application/json"}
        if body is not None else {})
    try:
        with urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except HTTPError as exc:
        try:
            detail = json.loads(exc.read().decode("utf-8")).get("error", "")
        except Exception:
            detail = ""
        raise ReproError(f"{base}{path}: HTTP {exc.code}"
                         + (f" ({detail})" if detail else "")) from None
    except (URLError, OSError) as exc:
        raise ReproError(f"cannot reach service at {base}: {exc}") from None


def _query_text(args) -> str:
    if args.file:
        return Path(args.file).read_text(encoding="utf-8")
    if args.text:
        return args.text
    raise _UsageError("provide query text or --file")


if __name__ == "__main__":
    raise SystemExit(main())
