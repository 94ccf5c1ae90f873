"""Command-line interface: generate → build → query, file to file.

Usage::

    cn-probase generate --entities 2000 --seed 7 --out dump.jsonl
    cn-probase build --dump dump.jsonl --out taxonomy.jsonl
    cn-probase build --dump dump.jsonl --out taxonomy.jsonl --disable-stage ner
    cn-probase diff dump-old.jsonl dump-new.jsonl
    cn-probase build --dump dump-new.jsonl --out taxonomy2.jsonl \
        --incremental --previous taxonomy.jsonl --previous-dump dump-old.jsonl
    cn-probase delta-squash night1.delta.jsonl night2.delta.jsonl \
        -o squashed.delta.jsonl
    cn-probase stages
    cn-probase stages --trace taxonomy.jsonl.trace.json
    cn-probase stats --taxonomy taxonomy.jsonl
    cn-probase query --taxonomy taxonomy.jsonl men2ent 刘德华
    cn-probase query --taxonomy taxonomy.jsonl getConcept 刘德华#0
    cn-probase query --taxonomy taxonomy.jsonl getEntity 歌手
    cn-probase serve taxonomy.jsonl --shards 4 --replicas 2 --port 8321 \
        --admin-token s3cret
    cn-probase lint
    cn-probase lint --format json --select lock-discipline,determinism

``build`` runs the stages one after another in one process; the same
dump and flags always give the same bytes.  A CLI process runs one
build, so it derives the shared NLP resources (harvested lexicon,
segmented corpus, PMI counts) without consulting the in-process
resource cache, which could never hit.  Every build writes a
``<out>.trace.json`` sidecar with the per-stage seconds, counts and
cache hits; ``stages --trace`` pretty-prints the last one.

``diff`` reports the page-level difference between two dumps;
``build --incremental`` consumes it: the output taxonomy is
byte-identical to a full build and a ``<out>.delta.jsonl``
:class:`~repro.taxonomy.delta.TaxonomyDelta` is written alongside —
ready for ``POST /admin/apply-delta`` against a running ``serve``
cluster, which then republishes only the shards the delta touches.
``delta-squash`` composes N nightly deltas (oldest first) into one
equivalent delta — applying it is byte-identical to applying the chain
one by one, so a replica that missed N nights catches up with a single
publish.
The *speed* side of incrementality (per-page segment reuse, PMI
subtract/add, page-local generation replay) needs the warm in-process
caches of a long-lived nightly process — the
:meth:`~repro.core.pipeline.CNProbaseBuilder.build_incremental` Python
API — so a cold CLI invocation pays full-build cost and the verb's
value is the exact delta artifact (``resource_mode`` is printed so you
can tell which path ran).

``serve`` publishes the taxonomy over the :mod:`repro.serving` HTTP
cluster: ``--shards N`` key-hashes the read-optimized indexes into N
atomically-swappable shards, ``--replicas R`` spreads reads over R
replicas per shard with failover, ``--admin-token`` arms the
authenticated ``/admin/swap`` (hot-swap a rebuilt taxonomy file with
zero downtime) and ``/admin/shutdown`` endpoints, and ``--ready-file``
writes ``{"pid": ..., "host": ..., "port": ...}`` JSON once the socket
is accepting (``--port 0`` picks a free port) and removes it on clean
shutdown — readers validate the pid so a stale file from a crashed
server never passes for readiness.

``lint`` runs the three :mod:`repro.analysis` checkers (determinism,
lock-discipline, error-taxonomy) over every
module of the installed package and exits 1 on any finding that is
neither pragma-acknowledged in source nor grandfathered in the shipped
baseline; ``--bench-json`` lands the counts as the ``static_analysis``
section of the perf trajectory, which is how ``run_smoke.sh`` gates
on it.

Every subcommand is importable (:func:`main` takes an argv list), which
is how the test suite drives it.  A subcommand imports the build
pipeline, the encyclopedia or the serving stack inside its handler, so
``serve`` starts without numpy and the build stack.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import APIError, ReproError
from repro.files import write_atomic
from repro.taxonomy import Taxonomy, load_delta, save_delta
from repro.taxonomy.service import WIRE_API_METHODS


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.encyclopedia import SyntheticWorld, save_dump

    world = SyntheticWorld.generate(seed=args.seed, n_entities=args.entities)
    n_pages = save_dump(world.dump(), args.out)
    print(f"wrote {n_pages} pages to {args.out}")
    return 0


def _trace_path(out: str) -> Path:
    return Path(f"{out}.trace.json")


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.generation.neural_gen import NeuralGenConfig
    from repro.core.pipeline import (
        CNProbaseBuilder,
        PipelineConfig,
        PreviousBuild,
    )
    from repro.core.stages import default_registry
    from repro.encyclopedia import load_dump

    dump = load_dump(args.dump)
    config = PipelineConfig(
        enable_abstract=not args.no_abstract,
        enable_incompatible=not args.no_incompatible,
        enable_ner=not args.no_ner,
        enable_syntax=not args.no_syntax,
        neural=NeuralGenConfig(epochs=args.neural_epochs),
        max_generation_pages=args.max_generation_pages,
        # one build per process: a resource-cache entry could never hit
        resource_cache=False,
    )
    registry = default_registry()
    for name in args.disable_stage or ():
        registry.disable(name)
    builder = CNProbaseBuilder(config, registry=registry)
    if args.incremental:
        if not args.previous or not args.previous_dump:
            print("error: --incremental needs --previous <taxonomy> and "
                  "--previous-dump <dump>", file=sys.stderr)
            return 2
        previous = PreviousBuild(
            dump=load_dump(args.previous_dump),
            taxonomy=Taxonomy.load(args.previous),
        )
        result = builder.build_incremental(dump, previous)
        delta_path = Path(f"{args.out}.delta.jsonl")
        save_delta(result.delta, delta_path)
        diff = result.diff
        print(f"dump diff: {len(diff.added)} added, "
              f"{len(diff.changed)} changed, {len(diff.removed)} removed "
              f"(resources: {result.resource_mode})")
        summary = ", ".join(
            f"{k}={v}" for k, v in result.delta.summary().items() if v
        ) or "empty"
        print(f"delta: {summary}")
        print(f"wrote delta to {delta_path}")
    else:
        result = builder.build(dump)
    result.taxonomy.save(args.out)
    stats = result.taxonomy.stats()
    print(f"built {stats.n_isa_total} isA relations "
          f"({stats.n_entities} entities, {stats.n_concepts} concepts); "
          f"verification removed {result.n_removed} candidates")
    units = {"source": "candidates", "verifier": "removed", "driver": "items"}
    for record in result.stage_trace.ran():
        extras = ", cached" if record.cache_hit else ""
        print(f"stage {record.name} ({record.kind}): "
              f"{record.count} {units[record.kind]} "
              f"in {record.seconds:.2f}s{extras}")
    trace_path = _trace_path(args.out)
    write_atomic(trace_path, [json.dumps(
        {
            "total_seconds": result.stage_trace.total_seconds,
            "stages": result.stage_trace.as_dict(),
        },
        ensure_ascii=False,
        indent=2,
    )])
    print(f"wrote taxonomy to {args.out}")
    print(f"wrote stage trace to {trace_path}")
    return 0


def _cmd_stages(args: argparse.Namespace) -> int:
    if args.trace is not None:
        return _print_trace(args.trace)
    from repro.core.stages import default_registry

    registry = default_registry()
    print(f"{'name':<14} {'kind':<10} {'enabled':<8} origin")
    for entry in registry.entries():
        enabled = "yes" if entry.enabled else "no"
        print(f"{entry.name:<14} {entry.kind:<10} {enabled:<8} {entry.origin}")
    return 0


def _print_trace(path: str) -> int:
    """Render a build's ``<out>.trace.json`` sidecar as a stage table."""
    source = Path(path)
    if not source.exists():
        print(f"error: trace file not found: {source}", file=sys.stderr)
        return 2
    try:
        trace = json.loads(source.read_text(encoding="utf-8"))
        stages = trace.get("stages", {}) if isinstance(trace, dict) else None
        if not isinstance(stages, dict):
            raise ValueError("no 'stages' table")
        # Format eagerly so wrong-typed fields fail here, not mid-print.
        rows = [
            f"{name:<14} {record['kind']:<10} "
            f"{float(record['seconds']):>8.3f} {int(record['count']):>8} "
            f"{'hit' if record.get('cache_hit') else '-':>6} "
            f"{'yes' if record.get('ran', True) else 'no'}"
            for name, record in stages.items()
        ]
        total = trace.get("total_seconds")
        footer = None
        if total is not None:
            footer = f"total: {float(total):.3f}s"
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {source} is not a build trace sidecar "
              f"(expected the <out>.trace.json a build writes): {exc}",
              file=sys.stderr)
        return 2
    print(f"{'name':<14} {'kind':<10} {'seconds':>8} {'count':>8} "
          f"{'cache':>6} ran")
    for row in rows:
        print(row)
    if footer is not None:
        print(footer)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.encyclopedia import diff_dumps, load_dump

    old = load_dump(args.old_dump)
    new = load_dump(args.new_dump)
    diff = diff_dumps(old, new)
    if diff.is_empty:
        print("dumps are identical (page-level)")
    for label, ids in (
        ("added", diff.added),
        ("changed", diff.changed),
        ("removed", diff.removed),
    ):
        if not ids:
            continue
        preview = ", ".join(ids[:8]) + (", ..." if len(ids) > 8 else "")
        print(f"{label}: {len(ids)} ({preview})")
    if args.json:
        write_atomic(
            args.json,
            [json.dumps(diff.as_dict(), ensure_ascii=False, indent=2)],
        )
        print(f"wrote diff to {args.json}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    taxonomy = Taxonomy.load(args.taxonomy)
    for key, value in taxonomy.stats().as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if not args.argument:
        raise APIError(f"{args.api} requires a non-empty argument")
    taxonomy = Taxonomy.load(args.taxonomy)
    results = getattr(taxonomy, WIRE_API_METHODS[args.api][0])(args.argument)
    if not results:
        print("(no results)")
        return 1
    for item in results:
        print(item)
    return 0


def _cmd_delta_squash(args: argparse.Namespace) -> int:
    from repro.taxonomy.delta import compose

    deltas = [load_delta(path) for path in args.deltas]
    composed = compose(deltas)
    save_delta(composed, args.out)
    chained_records = sum(delta.n_records for delta in deltas)
    summary = ", ".join(
        f"{key}={value}" for key, value in composed.summary().items() if value
    ) or "empty"
    print(f"squashed {len(deltas)} deltas ({chained_records} records) "
          f"into {composed.n_records} records")
    print(f"composed delta: {summary}")
    print(f"wrote {args.out}")
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    from repro.serving import TaxonomyClient

    with TaxonomyClient(args.url, admin_token=args.admin_token) as client:
        if args.format == "text":
            print(client.server_metrics_text(), end="")
        else:
            print(json.dumps(
                client.server_metrics(), ensure_ascii=False, indent=2
            ))
        if args.traces:
            if not args.admin_token:
                print("error: --traces needs --admin-token", file=sys.stderr)
                return 2
            payload = client.fetch_traces(limit=args.traces)
            for span in payload["spans"]:
                print(json.dumps(span, ensure_ascii=False))
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    """Follow the server's structured event log (``--once`` for one poll)."""
    import time as _time

    from repro.serving import TaxonomyClient

    since = args.since
    with TaxonomyClient(args.url, admin_token=args.admin_token) as client:
        while True:
            payload = client.fetch_events(since=since)
            for event in payload["events"]:
                print(json.dumps(event, ensure_ascii=False), flush=True)
            since = max(since, payload["last_seq"])
            if args.once:
                return 0
            _time.sleep(args.interval)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        Baseline,
        ModuleIndex,
        all_checkers,
        default_baseline_path,
        run_analysis,
    )

    checkers = all_checkers()
    if args.select:
        wanted = {
            part.strip()
            for selector in args.select
            for part in selector.split(",")
            if part.strip()
        }
        known = {checker.id for checker in checkers}
        unknown = sorted(wanted - known)
        if unknown:
            print(f"error: unknown checker id(s): {', '.join(unknown)} "
                  f"(known: {', '.join(sorted(known))})", file=sys.stderr)
            return 2
        checkers = [checker for checker in checkers if checker.id in wanted]
    baseline = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline = Baseline.load(args.baseline)
        elif default_baseline_path().exists():
            baseline = Baseline.load(default_baseline_path())
    report = run_analysis(
        ModuleIndex.scan(args.path), checkers, baseline=baseline
    )
    if args.write_baseline:
        Baseline.from_findings(report.findings).save(args.write_baseline)
        print(f"wrote {len(report.findings)} finding(s) as "
              f"{args.write_baseline}")
    if args.bench_json:
        from repro.eval.report import merge_bench_entry

        payload = report.as_dict()
        payload.pop("findings")  # the trajectory tracks counts, not sites
        merge_bench_entry(args.bench_json, "static_analysis", payload)
    if args.format == "json":
        print(json.dumps(report.as_dict(), ensure_ascii=False, indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.serving import build_cluster
    from repro.serving.server import start_server

    taxonomy = Taxonomy.load(args.taxonomy)
    service = build_cluster(
        taxonomy, shards=args.shards, replicas=args.replicas
    )
    server = start_server(
        service,
        host=args.host,
        port=args.port,
        admin_token=args.admin_token,
    )
    ready_path = Path(args.ready_file) if args.ready_file else None

    def handle_signal(signum, frame) -> None:
        # exit through the normal path: wait() returns, the finally
        # block closes the server and unlinks the ready-file — so a
        # supervisor's SIGTERM never leaves a stale readiness marker
        # for the next process to trip over
        print(f"received {signal.Signals(signum).name}, shutting down")
        server.shutdown_soon()

    restored = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            restored[signum] = signal.signal(signum, handle_signal)
        except (ValueError, OSError):  # non-main thread or unsupported
            pass
    wrote_ready = False
    try:
        stats = taxonomy.stats()
        print(f"serving {args.taxonomy} "
              f"({stats.n_isa_total} isA relations) at {server.url}")
        print(f"shards={args.shards} replicas={args.replicas} "
              f"version={service.version_id}")
        if args.admin_token:
            print("admin API armed: POST /admin/swap, /admin/apply-delta, "
                  "/admin/shutdown")
        if ready_path is not None:
            # written only now — the socket is bound and the serve loop
            # is accepting, so a reader acting on this file cannot race
            # the server coming up.  pid + port as JSON lets the reader
            # reject a stale file left by a crashed predecessor (the
            # pid is dead, or alive but a different process).  It
            # appears whole (temp file + rename): a poller that sees it
            # non-empty never reads half of it.
            host, port = server.server_address[:2]
            write_atomic(ready_path, [json.dumps(
                {"pid": os.getpid(), "host": host, "port": port}
            ) + "\n"])
            wrote_ready = True
        server.wait()
        print("server stopped")
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
        if wrote_ready:
            try:  # clean shutdown removes the readiness marker
                ready_path.unlink()
            except OSError:
                pass
        for signum, handler in restored.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cn-probase",
        description="CN-Probase taxonomy construction (ICDE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="synthesize an encyclopedia dump"
    )
    generate.add_argument("--entities", type=int, default=2000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="build a taxonomy from a dump")
    build.add_argument("--dump", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--no-abstract", action="store_true",
                       help="skip the (slow) neural generation source")
    build.add_argument("--no-incompatible", action="store_true")
    build.add_argument("--no-ner", action="store_true")
    build.add_argument("--no-syntax", action="store_true")
    build.add_argument("--neural-epochs", type=int, default=6)
    build.add_argument("--max-generation-pages", type=int, default=None)
    build.add_argument("--disable-stage", action="append", metavar="NAME",
                       help="disable a registered stage by name (repeatable); "
                            "see `cn-probase stages` for the names")
    build.add_argument("--incremental", action="store_true",
                       help="diff the dump against --previous-dump, rebuild "
                            "and write a <out>.delta.jsonl taxonomy delta "
                            "for /admin/apply-delta; output is byte-"
                            "identical to a full build (a cold CLI process "
                            "pays full-build cost — the resource/replay "
                            "fast paths need the warm in-process caches a "
                            "nightly service keeps)")
    build.add_argument("--previous", metavar="TAXONOMY", default=None,
                       help="the previously built taxonomy JSONL "
                            "(required with --incremental)")
    build.add_argument("--previous-dump", metavar="DUMP", default=None,
                       help="the dump the previous taxonomy was built from "
                            "(required with --incremental)")
    build.set_defaults(func=_cmd_build)

    diff = sub.add_parser(
        "diff", help="page-level diff between two encyclopedia dumps"
    )
    diff.add_argument("old_dump", help="the older dump JSONL")
    diff.add_argument("new_dump", help="the newer dump JSONL")
    diff.add_argument("--json", metavar="PATH", default=None,
                      help="also write the full diff as JSON to PATH")
    diff.set_defaults(func=_cmd_diff)

    stages = sub.add_parser(
        "stages", help="list the registered pipeline stages"
    )
    stages.add_argument("--trace", metavar="PATH", default=None,
                        help="print the per-stage seconds/count/cache "
                             "columns from a build's .trace.json sidecar")
    stages.set_defaults(func=_cmd_stages)

    stats = sub.add_parser("stats", help="print taxonomy statistics")
    stats.add_argument("--taxonomy", required=True)
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="serve a taxonomy over HTTP (sharded, hot-swappable)"
    )
    serve.add_argument("taxonomy", help="taxonomy JSONL file to publish")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="key-hashed shards for the read indexes; "
                            "answers are identical at any shard count "
                            "(default: 1)")
    serve.add_argument("--replicas", type=int, default=1, metavar="R",
                       help="read replicas per shard with failover "
                            "routing (default: 1)")
    serve.add_argument("--port", type=int, default=8321, metavar="P",
                       help="listen port; 0 picks a free one "
                            "(default: 8321)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--admin-token", default=None, metavar="TOKEN",
                       help="bearer token arming POST /admin/swap and "
                            "/admin/shutdown (disabled when omitted)")
    serve.add_argument("--ready-file", default=None, metavar="PATH",
                       help="write {\"pid\", \"host\", \"port\"} JSON here "
                            "once the socket is accepting, and remove it on "
                            "clean shutdown; readers should validate the pid "
                            "so a stale file from a crashed server is not "
                            "mistaken for readiness")
    serve.set_defaults(func=_cmd_serve)

    squash = sub.add_parser(
        "delta-squash",
        help="compose an ordered chain of taxonomy deltas into one",
        description="Squash N nightly .delta.jsonl files (oldest first) "
                    "into one equivalent delta: add-then-remove cancels, "
                    "change-of-change collapses to (first old, last new). "
                    "Applying the composed delta is byte-identical to "
                    "applying the chain one by one — one "
                    "/admin/apply-delta instead of N.",
    )
    squash.add_argument("deltas", nargs="+", metavar="DELTA",
                        help="delta JSONL files, in chain order "
                             "(oldest first)")
    squash.add_argument("-o", "--out", required=True,
                        help="where to write the composed delta JSONL")
    squash.set_defaults(func=_cmd_delta_squash)

    lint = sub.add_parser(
        "lint",
        help="run the repro.analysis invariant checkers over the package",
        description="Static analysis of the installed repro package: "
                    "determinism (no ambient entropy), lock-discipline "
                    "(guarded state stays guarded) and error-taxonomy "
                    "(public paths raise ReproError). "
                    "Exit 0 when clean, 1 on new findings, 2 on driver "
                    "errors (bad baseline, unknown checker).",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="text = one finding per line + summary; json = the full "
             "AnalysisReport (default: text)")
    lint.add_argument(
        "--select", action="append", default=None, metavar="IDS",
        help="run only these checker ids (repeatable or comma-"
             "separated, e.g. lock-discipline,determinism)")
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON of grandfathered finding keys (default: "
             "the shipped src/repro/analysis/baseline.json)")
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore every baseline, report grandfathered debt too")
    lint.add_argument(
        "--path", default=None, metavar="DIR",
        help="analyze this source tree instead of the installed repro "
             "package (fixture trees, synthetic-violation checks)")
    lint.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write the new findings' keys as a baseline file "
             "(grandfathering them for future runs)")
    lint.add_argument(
        "--bench-json", default=None, metavar="PATH",
        help="merge the counts into this perf-trajectory JSON as the "
             "'static_analysis' section")
    lint.set_defaults(func=_cmd_lint)

    obs = sub.add_parser(
        "obs",
        help="telemetry for a live server: metrics dump, event tail",
        description="Read the unified telemetry of a running "
                    "`cn-probase serve` instance.",
    )
    obs_sub = obs.add_subparsers(dest="obs_cmd", required=True)

    obs_dump = obs_sub.add_parser(
        "dump", help="print /metrics (and optionally recent trace spans)"
    )
    obs_dump.add_argument("--url", required=True,
                          help="server base URL, e.g. http://127.0.0.1:8080")
    obs_dump.add_argument("--admin-token", default=None,
                          help="bearer token for the /admin endpoints")
    obs_dump.add_argument(
        "--format", choices=["json", "text"], default="json",
        help="json = the /metrics payload; text = Prometheus exposition "
             "(default: json)")
    obs_dump.add_argument(
        "--traces", type=int, default=0, metavar="N",
        help="also print the N most recent trace spans "
             "(needs --admin-token)")
    obs_dump.set_defaults(func=_cmd_obs_dump)

    obs_tail = obs_sub.add_parser(
        "tail", help="follow the structured event log as JSON lines"
    )
    obs_tail.add_argument("--url", required=True,
                          help="server base URL, e.g. http://127.0.0.1:8080")
    obs_tail.add_argument("--admin-token", required=True,
                          help="bearer token for /admin/events")
    obs_tail.add_argument(
        "--since", type=int, default=0, metavar="SEQ",
        help="start after this event sequence number (default: 0)")
    obs_tail.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="poll interval in seconds (default: 1.0)")
    obs_tail.add_argument("--once", action="store_true",
                          help="poll once and exit instead of following")
    obs_tail.set_defaults(func=_cmd_obs_tail)

    query = sub.add_parser("query", help="call one of the three APIs")
    query.add_argument("--taxonomy", required=True)
    query.add_argument(
        "api", choices=["men2ent", "getConcept", "getEntity"]
    )
    query.add_argument("argument")
    query.set_defaults(func=_cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
