"""Command-line front-end for the toolsuite.

Mirrors how the original DIPBench toolsuite was operated: one command to
execute the benchmark autonomously, plus inspection helpers.

Usage (also available as ``python -m repro``)::

    python -m repro run --engine federated --datasize 0.05 --periods 5
    python -m repro sweep --workers 4 --grid d=0.02,0.05 --grid f=0,1 \\
        --engines interpreter,federated --periods 2 --out sweep.json
    python -m repro run --plot plot.svg --report report.txt
    python -m repro run --trace-out trace.json --metrics-out metrics.prom
    python -m repro run --faults examples/faults_basic.json
    python -m repro run --durability snapshot+wal --checkpoint-every 50 \\
        --faults examples/faults_crash.json
    python -m repro recover --engine federated --crash-at 300
    python -m repro cluster run --hosts 3 --replicas 1 --crashes 2
    python -m repro cluster topology --hosts 3 --replicas 1
    python -m repro trace --engine interpreter --periods 2 --out trace.json
    python -m repro profile --engine interpreter --periods 2 --out prof.json
    python -m repro serve --port 8321 --tenant acme:rate=20:active=4
    python -m repro storm --clients 1000 --tenants acme,globex --rate 500
    python -m repro storm --clients 200 --model closed --identity-check
    python -m repro schedule --period 0 --datasize 0.05
    python -m repro faults examples/faults_basic.json
    python -m repro processes
    python -m repro validate

Exit status is non-zero when the post-phase verification fails, so the
command composes with CI pipelines.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Sequence

from repro.db import vector
from repro.engine import ENGINES
from repro.errors import FaultSpecError, ReproError, ServeError
from repro.ioutil import write_json_atomic, write_text_atomic
from repro.mtm.process import validate_definition
from repro.observability import Observability
from repro.observability.export import export_prometheus
from repro.parallel import (
    RunSpec,
    SweepError,
    SweepExecutor,
    grid_from_axes,
    parse_grid_axes,
)
from repro.resilience import FaultEvent, FaultSpec, RetryPolicy
from repro.scenario import PROCESS_TABLE, build_processes, build_scenario
from repro.storage import DURABILITY_MODES, landscape_digest
from repro.toolsuite import BenchmarkClient, ScaleFactors, sweep_table
from repro.toolsuite.schedule import build_schedule


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIPBench: benchmark data-intensive integration processes",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute the benchmark")
    run.add_argument("--engine", choices=sorted(ENGINES), default="interpreter")
    run.add_argument("--datasize", type=float, default=0.05,
                     help="scale factor d (default 0.05)")
    run.add_argument("--time", type=float, default=1.0,
                     help="scale factor t (default 1.0)")
    run.add_argument("--distribution", type=int, default=0,
                     choices=(0, 1, 2, 3),
                     help="scale factor f: 0 uniform, 1 zipf, 2 normal, "
                          "3 exponential")
    run.add_argument("--periods", type=int, default=5,
                     help="benchmark periods to execute (1-100, default 5)")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--jitter", type=float, default=0.0,
                     help="network jitter fraction in [0, 1)")
    run.add_argument("--workers", type=int, default=4,
                     help="engine worker count")
    run.add_argument("--plot", metavar="FILE.svg",
                     help="write the performance plot as SVG")
    run.add_argument("--report", metavar="FILE.txt",
                     help="write the metric table to a file")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the ASCII plot")
    run.add_argument("--trace-out", metavar="FILE.json",
                     help="write a Chrome trace_event JSON of the run "
                          "(open in chrome://tracing or ui.perfetto.dev)")
    run.add_argument("--metrics-out", metavar="FILE.prom",
                     help="write the run's metrics registry as "
                          "Prometheus text")
    run.add_argument("--faults", metavar="SPEC.json",
                     help="inject the deterministic fault schedule from "
                          "this spec file and run with resilience "
                          "policies (retry/backoff, circuit breakers, "
                          "dead-letter queue) enabled")
    run.add_argument("--max-attempts", type=int, default=4,
                     help="retry budget per process instance when "
                          "--faults is given (default 4)")
    run.add_argument("--durability", choices=("off",) + DURABILITY_MODES,
                     default="off",
                     help="durability mode: off (default), wal "
                          "(period-baseline checkpoint + redo log) or "
                          "snapshot+wal (plus periodic checkpoints)")
    run.add_argument("--checkpoint-every", type=float, metavar="TU",
                     help="checkpoint cadence in tu for "
                          "--durability snapshot+wal")

    sweep = commands.add_parser(
        "sweep",
        help="fan a scale-factor grid out across worker processes and "
             "merge the results in deterministic grid order",
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (1 = serial; the "
                            "merged output is byte-identical either way)")
    sweep.add_argument("--grid", action="append", default=[],
                       metavar="AXIS=V1,V2,...",
                       help="grid axis values: d=... (datasize), t=... "
                            "(time), f=... (distribution); repeat per "
                            "axis (defaults: d=0.05 t=1 f=0)")
    sweep.add_argument("--engines", default="interpreter",
                       help="comma-separated engine variants to sweep "
                            f"(choose from {','.join(sorted(ENGINES))})")
    sweep.add_argument("--seeds", default="42",
                       help="comma-separated seed replicas (default 42)")
    sweep.add_argument("--periods", type=int, default=1,
                       help="benchmark periods per grid point (default 1)")
    sweep.add_argument("--jitter", type=float, default=0.0)
    sweep.add_argument("--engine-workers", type=int, default=4,
                       help="engine worker-pool size inside each run "
                            "(default 4; this is the engine's virtual "
                            "concurrency, not the sweep's)")
    sweep.add_argument("--faults", metavar="SPEC.json",
                       help="fault spec injected into every grid point")
    sweep.add_argument("--max-attempts", type=int, default=4)
    sweep.add_argument("--durability", choices=("off",) + DURABILITY_MODES,
                       default="off")
    sweep.add_argument("--checkpoint-every", type=float, metavar="TU")
    sweep.add_argument("--no-verify", action="store_true",
                       help="skip phase-post verification per grid point")
    sweep.add_argument("--out", metavar="FILE.json",
                       help="write the merged sweep (digests, NAVG+, "
                            "fingerprints; no wall-clock fields) as JSON")
    sweep.add_argument("--metrics-out", metavar="FILE.prom",
                       help="collect per-worker metrics shards, merge "
                            "them in grid order and write Prometheus "
                            "text")
    sweep.add_argument("--synth", action="append", default=[],
                       metavar="KNOBS",
                       help="synthesized-workload knob string (e.g. "
                            "sources=3,depth=2,families=cdc+scd); "
                            "repeatable — sweeps as one more grid axis "
                            "(also spellable as --grid synth=K1/K2)")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the per-point table")

    recover = commands.add_parser(
        "recover",
        help="crash the engine mid-period, recover from snapshot+WAL and "
             "verify byte-identical convergence against a fault-free run",
    )
    recover.add_argument("--engine", choices=sorted(ENGINES),
                         default="interpreter")
    recover.add_argument("--datasize", type=float, default=0.05)
    recover.add_argument("--time", type=float, default=1.0)
    recover.add_argument("--periods", type=int, default=1)
    recover.add_argument("--seed", type=int, default=42)
    recover.add_argument("--workers", type=int, default=4)
    recover.add_argument("--durability", choices=DURABILITY_MODES,
                         default="snapshot+wal")
    recover.add_argument("--checkpoint-every", type=float, default=50.0,
                         metavar="TU",
                         help="checkpoint cadence in tu (default 50)")
    recover.add_argument("--crash-at", type=float, default=300.0,
                         metavar="T",
                         help="engine time of the crash in period 0 "
                              "(default 300)")
    recover.add_argument("--crash-point", choices=("arrival", "commit"),
                         default="commit",
                         help="kill before admission or right after the "
                              "instance commits (default commit)")
    recover.add_argument("--faults", metavar="SPEC.json",
                         help="use this fault spec instead of the "
                              "synthesized single crash")
    recover.add_argument("--metrics-out", metavar="FILE.prom",
                         help="write the crash run's metrics registry "
                              "as Prometheus text")
    recover.add_argument("--jobs", type=int, default=1,
                         help="run the fault-free baseline and the "
                              "crash run in parallel worker processes "
                              "(default 1 = serial)")

    trace = commands.add_parser(
        "trace",
        help="run the benchmark with tracing on and export the span tree",
    )
    trace.add_argument("--engine", choices=sorted(ENGINES),
                       default="interpreter")
    trace.add_argument("--datasize", type=float, default=0.05)
    trace.add_argument("--time", type=float, default=1.0)
    trace.add_argument("--distribution", type=int, default=0,
                       choices=(0, 1, 2, 3))
    trace.add_argument("--periods", type=int, default=2)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--workers", type=int, default=4)
    trace.add_argument("--jitter", type=float, default=0.0)
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="trace output path (default trace.json)")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome",
                       help="chrome trace_event JSON (default) or one "
                            "span per line as JSONL")
    trace.add_argument("--metrics-out", metavar="FILE.prom",
                       help="also write the metrics registry as "
                            "Prometheus text")

    profile = commands.add_parser(
        "profile",
        help="run the benchmark and print a per-operator cost breakdown",
    )
    profile.add_argument("--engine", choices=sorted(ENGINES),
                         default="interpreter")
    profile.add_argument("--datasize", type=float, default=0.05)
    profile.add_argument("--time", type=float, default=1.0)
    profile.add_argument("--distribution", type=int, default=0,
                         choices=(0, 1, 2, 3))
    profile.add_argument("--periods", type=int, default=2)
    profile.add_argument("--seed", type=int, default=42)
    profile.add_argument("--workers", type=int, default=4)
    profile.add_argument("--naive", action="store_true",
                         help="disable the relational fast path for this "
                              "run (baseline comparison)")
    profile.add_argument("--synth", default="", metavar="KNOBS",
                         help="profile a synthesized workload instead of "
                              "the classic scenario; adds a per-family "
                              "cost breakdown to the report")
    profile.add_argument("--out", metavar="FILE.json",
                         help="also write the breakdown as JSON")

    schedule = commands.add_parser(
        "schedule", help="print the Table II event series for one period"
    )
    schedule.add_argument("--period", type=int, default=0)
    schedule.add_argument("--datasize", type=float, default=0.05)
    schedule.add_argument("--time", type=float, default=1.0)

    serve = commands.add_parser(
        "serve",
        help="run the benchmark-as-a-service HTTP API "
             "(POST /sessions, GET /sessions/{id}[/report], /healthz)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (default 8321; 0 picks a free one)")
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrent engine executions (default 2)")
    serve.add_argument("--queue", type=int, default=64,
                       help="request queue bound; past it sessions are "
                            "rejected with 429 queue-full (default 64)")
    serve.add_argument("--dispatcher", choices=("pool", "inline"),
                       default="pool",
                       help="pool = worker processes (default), "
                            "inline = threads in the server process")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NAME[:rate=R][:burst=B][:active=N]",
                       help="declare a tenant with its admission policy; "
                            "repeatable (e.g. acme:rate=20:burst=5:active=4)")
    serve.add_argument("--closed", action="store_true",
                       help="closed enrollment: reject tenants not "
                            "declared via --tenant (default: open, any "
                            "tenant gets the default policy)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the deterministic result cache")

    storm = commands.add_parser(
        "storm",
        help="drive seeded virtual clients against a serve endpoint and "
             "report per-tenant throughput, latency percentiles and "
             "backpressure accounting",
    )
    storm.add_argument("--clients", type=int, default=1000,
                       help="virtual clients to launch (default 1000)")
    storm.add_argument("--tenants", default="acme,globex",
                       help="comma-separated tenant names (default "
                            "acme,globex)")
    storm.add_argument("--model", choices=("open", "closed"),
                       default="open",
                       help="arrival model: open = seeded Poisson "
                            "arrivals at --rate (default), closed = "
                            "fixed population of --concurrency clients")
    storm.add_argument("--rate", type=float, default=500.0,
                       help="open-loop arrivals per second (default 500)")
    storm.add_argument("--concurrency", type=int, default=16,
                       help="closed-loop client population (default 16)")
    storm.add_argument("--seed", type=int, default=7,
                       help="storm seed: tenants, specs, arrival times "
                            "and think times all derive from it")
    storm.add_argument("--distinct", type=int, default=4,
                       help="distinct specs in the client pool "
                            "(default 4; repeats are cache hits)")
    storm.add_argument("--engine", choices=sorted(ENGINES),
                       default="interpreter")
    storm.add_argument("--datasize", type=float, default=0.02)
    storm.add_argument("--time", type=float, default=1.0)
    storm.add_argument("--synth", default="", metavar="KNOBS",
                       help="storm synthesized workloads: every pooled "
                            "spec carries this knob string (pool seeds "
                            "keep the scenarios distinct)")
    storm.add_argument("--host",
                       help="target a running server instead of "
                            "self-hosting one in-process")
    storm.add_argument("--port", type=int)
    storm.add_argument("--slots", type=int, default=2,
                       help="self-hosted server engine slots (default 2)")
    storm.add_argument("--queue", type=int, default=64,
                       help="self-hosted server queue bound (default 64)")
    storm.add_argument("--tenant-policy", action="append", default=[],
                       metavar="NAME[:rate=R][:burst=B][:active=N]",
                       dest="tenant_policies",
                       help="self-hosted per-tenant admission policy "
                            "(same syntax as serve --tenant)")
    storm.add_argument("--identity-check", action="store_true",
                       help="after the storm, run every pooled spec "
                            "directly through BenchmarkClient and fail "
                            "unless the served reports are byte-identical")
    storm.add_argument("--out", metavar="FILE.json",
                       help="write the storm report as JSON (atomic, "
                            "parents created)")
    storm.add_argument("--quiet", action="store_true",
                       help="suppress the per-tenant table")

    faults = commands.add_parser(
        "faults",
        help="validate and describe a fault-injection spec file",
    )
    faults.add_argument("spec", metavar="SPEC.json",
                        help="fault spec file to check")

    cluster = commands.add_parser(
        "cluster",
        help="multi-host cluster: failover runs with measured RTO/RPO, "
             "and topology inspection",
    )
    cluster_cmds = cluster.add_subparsers(dest="cluster_command",
                                          required=True)
    crun = cluster_cmds.add_parser(
        "run",
        help="run a sharded cluster through primary crashes, fail over "
             "to log-shipped replicas and verify byte-identical "
             "convergence against a fault-free single-host run",
    )
    crun.add_argument("--engine", choices=sorted(ENGINES),
                      default="federated")
    crun.add_argument("--datasize", type=float, default=0.05)
    crun.add_argument("--time", type=float, default=1.0)
    crun.add_argument("--periods", type=int, default=1)
    crun.add_argument("--seed", type=int, default=42)
    crun.add_argument("--workers", type=int, default=4)
    crun.add_argument("--hosts", type=int, default=3,
                      help="virtual cluster hosts (default 3)")
    crun.add_argument("--replicas", type=int, default=1,
                      help="follower replicas per database (default 1)")
    crun.add_argument("--mode", choices=("sync", "async"), default="sync",
                      help="log-shipping mode (default sync; RPO=0)")
    crun.add_argument("--repl-lag", type=float, default=0.0, metavar="TU",
                      help="async replication lag window in tu (default 0)")
    crun.add_argument("--repl-batch", type=int, default=1,
                      help="async shipping batch size in records "
                           "(default 1)")
    crun.add_argument("--durability", choices=DURABILITY_MODES,
                      default="snapshot+wal")
    crun.add_argument("--checkpoint-every", type=float, default=200.0,
                      metavar="TU",
                      help="checkpoint cadence in tu (default 200)")
    crun.add_argument("--crashes", type=int, default=2,
                      help="primary crashes to schedule in period 0 "
                           "(default 2)")
    crun.add_argument("--crash-at", type=float, default=40.0, metavar="T",
                      help="time of the first crash in tu (default 40)")
    crun.add_argument("--crash-spacing", type=float, default=80.0,
                      metavar="TU",
                      help="tu between scheduled crashes (default 80)")
    crun.add_argument("--faults", metavar="SPEC.json",
                      help="use this fault spec instead of the "
                           "synthesized crash series")
    crun.add_argument("--metrics-out", metavar="FILE.prom",
                      help="write the cluster run's metrics registry as "
                           "Prometheus text")
    crun.add_argument("--out", metavar="FILE.json",
                      help="write the failover summary (RTO/RPO, "
                           "replication stats, fingerprints) as JSON")
    crun.add_argument("--jobs", type=int, default=1,
                      help="run baseline and cluster run in parallel "
                           "worker processes (default 1 = serial)")
    ctopo = cluster_cmds.add_parser(
        "topology",
        help="print the consistent-hash ring placement and shard map "
             "of the initialized landscape",
    )
    ctopo.add_argument("--hosts", type=int, default=3)
    ctopo.add_argument("--replicas", type=int, default=1)
    ctopo.add_argument("--seed", type=int, default=42)
    ctopo.add_argument("--vnodes", type=int, default=8)
    ctopo.add_argument("--datasize", type=float, default=0.05)

    synth = commands.add_parser(
        "synth",
        help="parameterized workload synthesis: generate, describe or "
             "run seeded integration scenarios (CDC/SCD/dirty-data "
             "process families)",
    )
    synth.add_argument("action", choices=("generate", "describe", "run"),
                       help="generate = print the scenario manifest and "
                            "its content digest; describe = human "
                            "summary; run = execute the workload")
    synth.add_argument("--knobs", default="", metavar="KNOBS",
                       help="knob string, e.g. sources=3,depth=2,"
                            "noise=0.3,families=cdc+scd+dirty "
                            "(empty = all defaults)")
    synth.add_argument("--engine", choices=sorted(ENGINES),
                       default="interpreter")
    synth.add_argument("--distribution", type=int, default=0,
                       choices=(0, 1, 2, 3),
                       help="scale factor f driving the generator's "
                            "value skew (0 uniform, 1 zipf, 2 normal, "
                            "3 exponential)")
    synth.add_argument("--time", type=float, default=1.0,
                       help="scale factor t (default 1.0)")
    synth.add_argument("--periods", type=int, default=1,
                       help="benchmark periods for run (default 1)")
    synth.add_argument("--seed", type=int, default=42,
                       help="generator seed unless the knob string "
                            "pins one (default 42)")
    synth.add_argument("--workers", type=int, default=4,
                       help="engine worker count for run")
    synth.add_argument("--conformance", action="store_true",
                       help="run differentially on every engine and "
                            "assert digest/status/verification equality")
    synth.add_argument("--out", metavar="FILE.json",
                       help="write the manifest (generate) or the run/"
                            "conformance report as JSON")
    synth.add_argument("--quiet", action="store_true",
                       help="suppress the per-family cost table")

    commands.add_parser("processes", help="list the benchmark process types")
    commands.add_parser(
        "validate", help="statically validate all process definitions"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    factors = ScaleFactors(
        datasize=args.datasize, time=args.time, distribution=args.distribution
    )
    scenario = build_scenario(jitter=args.jitter, seed=args.seed)
    engine = ENGINES[args.engine](scenario.registry, worker_count=args.workers)
    observability = (
        Observability() if (args.trace_out or args.metrics_out) else None
    )
    faults = None
    resilience = None
    if args.faults:
        try:
            faults = FaultSpec.load(args.faults)
        except (OSError, FaultSpecError) as exc:
            print(f"error: cannot load fault spec {args.faults}: {exc}",
                  file=sys.stderr)
            return 2
        resilience = RetryPolicy(max_attempts=args.max_attempts)
    try:
        client = BenchmarkClient(
            scenario, engine, factors, periods=args.periods, seed=args.seed,
            observability=observability,
            faults=faults, resilience=resilience,
            durability=args.durability,
            checkpoint_every=args.checkpoint_every,
        )
    except FaultSpecError as exc:
        print(f"error: invalid fault spec {args.faults}: {exc}",
              file=sys.stderr)
        return 2
    result = client.run()

    table = result.metrics.as_table()
    print(
        f"engine={result.engine_name} d={args.datasize} t={args.time} "
        f"f={args.distribution} periods={result.periods} "
        f"instances={result.total_instances} errors={result.error_instances}"
    )
    print(result.verification.summary())
    if faults is not None:
        print(client.monitor.resilience_summary().describe())
        if result.dead_letters:
            print("  dead letters:")
            for letter in result.dead_letters:
                print(
                    f"    {letter.process_id} period={letter.period} "
                    f"t={letter.time:.1f} attempts={letter.attempts} "
                    f"{letter.error}"
                )
    if client.storage is not None:
        stats = client.storage.stats()
        print(
            f"durability: mode={stats['mode']} commits={stats['commits']} "
            f"flushes={stats['flushes']} wal_records={stats['wal_records']} "
            f"checkpoints={stats['checkpoints']} crashes={stats['crashes']}"
        )
        print(client.monitor.recovery_summary().describe())
        for report in result.recovery_reports:
            print(f"  {report.describe()}")
    print()
    print(table)
    if not args.quiet:
        print()
        print(client.monitor.performance_plot(
            title=f"DIPBench Performance Plot [sfTime={args.time}, "
                  f"sfDatasize={args.datasize}] ({result.engine_name})"
        ))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(result.verification.summary() + "\n\n" + table + "\n")
        print(f"\nreport written to {args.report}")
    if args.plot:
        client.monitor.save_plot(args.plot)
        print(f"plot written to {args.plot}")
    if args.trace_out:
        observability.write_chrome_trace(args.trace_out)
        print(f"trace written to {args.trace_out} "
              f"({len(observability.tracer.spans)} spans; open in "
              "chrome://tracing or ui.perfetto.dev)")
    if args.metrics_out:
        observability.write_prometheus(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0 if result.verification.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Parallel scale-grid sweep with deterministic merged output."""
    faults = None
    if args.faults:
        try:
            faults = FaultSpec.load(args.faults)
        except (OSError, FaultSpecError) as exc:
            print(f"error: cannot load fault spec {args.faults}: {exc}",
                  file=sys.stderr)
            return 2
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        print(f"error: unknown engines {unknown}; choose from "
              f"{sorted(ENGINES)}", file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        axes = parse_grid_axes(args.grid)
        if args.synth:
            from repro.synth.spec import knob_problems

            for knobs in args.synth:
                problems = knob_problems(knobs)
                if problems:
                    raise SweepError(
                        f"bad --synth {knobs!r}: " + "; ".join(problems)
                    )
            axes["synth"] = axes.get("synth", []) + list(args.synth)
        specs = grid_from_axes(
            axes,
            engines=engines,
            seeds=seeds,
            periods=args.periods,
            jitter=args.jitter,
            engine_workers=args.engine_workers,
            faults=faults,
            max_attempts=args.max_attempts,
            durability=args.durability,
            checkpoint_every=args.checkpoint_every,
            verify=not args.no_verify,
            collect_metrics=bool(args.metrics_out),
        )
        executor = SweepExecutor(workers=args.workers)
    except (SweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = executor.run(specs)

    print(
        f"sweep: {len(result)} grid points, workers={result.workers} "
        f"[{result.start_method}], {result.total_instances} instances, "
        f"{result.wall_seconds:.2f}s wall"
    )
    if not args.quiet:
        print()
        print(sweep_table(result.outcomes))
        print()
    for outcome in result.failed:
        print(f"FAILED {outcome.label}: [{outcome.error_type}] "
              f"{outcome.error}")
    print(f"sweep fingerprint: {result.fingerprint()}")
    if args.out:
        write_json_atomic(args.out, result.to_json())
        print(f"sweep written to {args.out}")
    if args.metrics_out:
        write_text_atomic(
            args.metrics_out, export_prometheus(result.merged_metrics())
        )
        print(f"merged metrics written to {args.metrics_out}")
    return 0 if result.ok else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    """Crash + recover, then prove convergence against a clean run.

    Two runs at the same seed and scale: a fault-free baseline and a run
    that hard-kills the engine at ``--crash-at`` and recovers from the
    durability logs.  Convergence is byte-identity of the final landscape
    digest and of every per-instance record (hence identical NAVG+).
    Both runs are expressed as picklable RunSpecs, so ``--jobs 2``
    executes them concurrently through the sweep executor.
    """
    if args.faults:
        try:
            faults = FaultSpec.load(args.faults)
        except (OSError, FaultSpecError) as exc:
            print(f"error: cannot load fault spec {args.faults}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        faults = FaultSpec(
            name="recover-cli",
            seed=args.seed,
            events=(FaultEvent(at=args.crash_at, kind="crash",
                               point=args.crash_point, period=0),),
        )

    baseline_spec = RunSpec(
        engine=args.engine,
        datasize=args.datasize,
        time=args.time,
        periods=args.periods,
        seed=args.seed,
        engine_workers=args.workers,
    )
    crash_spec = RunSpec(
        engine=args.engine,
        datasize=args.datasize,
        time=args.time,
        periods=args.periods,
        seed=args.seed,
        engine_workers=args.workers,
        faults=faults,
        durability=args.durability,
        checkpoint_every=args.checkpoint_every,
        collect_metrics=bool(args.metrics_out),
    )
    print(f"baseline: engine={args.engine} seed={args.seed} "
          f"d={args.datasize} t={args.time} periods={args.periods}")
    print(f"crash run: kind=crash point={args.crash_point} "
          f"at={args.crash_at} durability={args.durability} "
          f"checkpoint_every={args.checkpoint_every} jobs={args.jobs}")
    sweep = SweepExecutor(workers=args.jobs).run(
        [baseline_spec, crash_spec]
    )
    base_outcome, crash_outcome = sweep.outcomes
    for outcome in sweep.outcomes:
        if outcome.result is None:
            print(f"error: {outcome.label} did not complete: "
                  f"[{outcome.error_type}] {outcome.error}",
                  file=sys.stderr)
            return 2
    base, base_digest = base_outcome.result, base_outcome.landscape_digest
    crashed, digest = crash_outcome.result, crash_outcome.landscape_digest
    print(f"  baseline: instances={base.total_instances} "
          f"verification={'ok' if base.verification.ok else 'FAILED'}")
    print(f"  crash run: instances={crashed.total_instances} "
          f"recoveries={crashed.recoveries} "
          f"verification={'ok' if crashed.verification.ok else 'FAILED'}")
    for report in crashed.recovery_reports:
        print(f"  {report.describe()}")
    if args.metrics_out and crash_outcome.metrics_shard is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(export_prometheus(crash_outcome.metrics_shard))
        print(f"  metrics written to {args.metrics_out}")

    records_equal = crashed.records == base.records
    digests_equal = digest == base_digest
    print(f"records byte-identical: {'yes' if records_equal else 'NO'}")
    print(f"landscape digest equal: {'yes' if digests_equal else 'NO'}")
    if crashed.recoveries == 0:
        print("DIVERGED: the fault schedule produced no recovery "
              "(crash time outside the period?)")
        return 1
    if records_equal and digests_equal and crashed.verification.ok:
        print("CONVERGED: crash recovery reproduced the fault-free run "
              "byte-identically")
        return 0
    print("DIVERGED: recovery did not reproduce the fault-free run")
    return 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.cluster_command == "topology":
        return _cmd_cluster_topology(args)
    return _cmd_cluster_run(args)


def _cmd_cluster_topology(args: argparse.Namespace) -> int:
    """Print ring placement and shard map of an initialized landscape."""
    from repro.cluster import ClusterConfig, HashRing, ShardMap
    from repro.toolsuite.initializer import Initializer

    try:
        config = ClusterConfig(hosts=args.hosts, replicas=args.replicas,
                               vnodes=args.vnodes)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenario = build_scenario(seed=args.seed)
    Initializer(scenario, d=args.datasize, seed=args.seed).initialize_sources(0)
    ring = HashRing(config.host_names, seed=args.seed, vnodes=args.vnodes)
    shard_map = ShardMap.build(scenario.all_databases.values(), ring)
    print(f"cluster topology: {args.hosts} host(s) x {args.replicas} "
          f"replica(s), {args.vnodes} vnode(s)/host, seed {args.seed}")
    for name in sorted(scenario.all_databases):
        placement = ring.preference(name, 1 + args.replicas)
        print(f"  {name}: primary {placement[0]}, "
              f"followers {', '.join(placement[1:]) or 'none'}")
    print(shard_map.describe())
    return 0


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    """Crash primaries, fail over, then prove byte-identical convergence.

    Two runs at the same seed and scale: a fault-free single-host
    baseline and a clustered run that loses ``--crashes`` primary hosts
    to crash faults and fails over to the log-shipped replicas each
    time.  Convergence is byte-identity of the landscape digest, every
    per-instance record, and the full run fingerprint; the cluster run
    additionally reports RTO per failover and asserts RPO=0 under
    synchronous shipping.
    """
    if args.faults:
        try:
            faults = FaultSpec.load(args.faults)
        except (OSError, FaultSpecError) as exc:
            print(f"error: cannot load fault spec {args.faults}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        if args.crashes < 1:
            print("error: --crashes must be >= 1", file=sys.stderr)
            return 2
        points = ("arrival", "commit")
        faults = FaultSpec(
            name="cluster-cli",
            seed=args.seed,
            events=tuple(
                FaultEvent(
                    at=args.crash_at + index * args.crash_spacing,
                    kind="crash",
                    point=points[index % 2],
                    period=0,
                )
                for index in range(args.crashes)
            ),
        )

    baseline_spec = RunSpec(
        engine=args.engine,
        datasize=args.datasize,
        time=args.time,
        periods=args.periods,
        seed=args.seed,
        engine_workers=args.workers,
    )
    cluster_spec = RunSpec(
        engine=args.engine,
        datasize=args.datasize,
        time=args.time,
        periods=args.periods,
        seed=args.seed,
        engine_workers=args.workers,
        faults=faults,
        durability=args.durability,
        checkpoint_every=args.checkpoint_every,
        cluster_hosts=args.hosts,
        cluster_replicas=args.replicas,
        repl_mode=args.mode,
        repl_lag=args.repl_lag,
        repl_batch=args.repl_batch,
        collect_metrics=bool(args.metrics_out),
    )
    print(f"baseline: engine={args.engine} seed={args.seed} "
          f"d={args.datasize} t={args.time} periods={args.periods} "
          f"(single host, fault-free)")
    print(f"cluster run: hosts={args.hosts} replicas={args.replicas} "
          f"mode={args.mode} repl_lag={args.repl_lag} "
          f"crashes={len([e for e in faults.events if e.kind == 'crash'])} "
          f"durability={args.durability} jobs={args.jobs}")
    sweep = SweepExecutor(workers=args.jobs).run(
        [baseline_spec, cluster_spec]
    )
    base_outcome, cluster_outcome = sweep.outcomes
    for outcome in sweep.outcomes:
        if outcome.result is None:
            print(f"error: {outcome.label} did not complete: "
                  f"[{outcome.error_type}] {outcome.error}",
                  file=sys.stderr)
            return 2
    base = base_outcome.result
    clustered = cluster_outcome.result
    print(f"  baseline: instances={base.total_instances} "
          f"verification={'ok' if base.verification.ok else 'FAILED'}")
    print(f"  cluster run: instances={clustered.total_instances} "
          f"failovers={clustered.failovers} "
          f"verification={'ok' if clustered.verification.ok else 'FAILED'}")
    for report in clustered.failover_reports:
        print(f"  {report.describe()}")
    if clustered.replication is not None:
        print(f"  {clustered.replication.describe()}")
    if args.metrics_out and cluster_outcome.metrics_shard is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(export_prometheus(cluster_outcome.metrics_shard))
        print(f"  metrics written to {args.metrics_out}")

    records_equal = clustered.records == base.records
    digests_equal = (
        cluster_outcome.landscape_digest == base_outcome.landscape_digest
    )
    fingerprints_equal = (
        cluster_outcome.fingerprint() == base_outcome.fingerprint()
    )
    rpo_total = sum(r.rpo_records for r in clustered.failover_reports)
    rtos = [r.rto_eu for r in clustered.failover_reports
            if r.rto_eu is not None]
    print(f"records byte-identical: {'yes' if records_equal else 'NO'}")
    print(f"landscape digest equal: {'yes' if digests_equal else 'NO'}")
    print(f"fingerprints equal: {'yes' if fingerprints_equal else 'NO'}")
    print(f"RPO total: {rpo_total} record(s); "
          f"RTO: {', '.join(f'{r * args.time:.2f}tu' for r in rtos) or 'n/a'}")
    if args.out:
        write_json_atomic(args.out, {
            "hosts": args.hosts,
            "replicas": args.replicas,
            "mode": args.mode,
            "repl_lag": args.repl_lag,
            "failovers": [
                {
                    "dead_host": r.dead_host,
                    "crash_at": r.crash_at,
                    "detection_eu": r.detection_eu,
                    "promoted": len(r.promoted),
                    "rpo_records": r.rpo_records,
                    "rto_tu": (r.rto_eu * args.time
                               if r.rto_eu is not None else None),
                }
                for r in clustered.failover_reports
            ],
            "rpo_total": rpo_total,
            "records_equal": records_equal,
            "digests_equal": digests_equal,
            "fingerprints_equal": fingerprints_equal,
            "baseline_fingerprint": base_outcome.fingerprint(),
            "cluster_fingerprint": cluster_outcome.fingerprint(),
        })
        print(f"  summary written to {args.out}")
    if clustered.failovers == 0:
        print("DIVERGED: the fault schedule produced no failover "
              "(crash time outside the period?)")
        return 1
    if args.mode == "sync" and rpo_total != 0:
        print(f"DIVERGED: synchronous shipping must have RPO=0, "
              f"measured {rpo_total}")
        return 1
    if (records_equal and digests_equal and fingerprints_equal
            and clustered.verification.ok):
        print("CONVERGED: cluster failover reproduced the fault-free "
              "single-host run byte-identically")
        return 0
    print("DIVERGED: failover did not reproduce the fault-free run")
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    factors = ScaleFactors(
        datasize=args.datasize, time=args.time, distribution=args.distribution
    )
    scenario = build_scenario(jitter=args.jitter, seed=args.seed)
    engine = ENGINES[args.engine](scenario.registry, worker_count=args.workers)
    observability = Observability()
    client = BenchmarkClient(
        scenario, engine, factors, periods=args.periods, seed=args.seed,
        observability=observability,
    )
    result = client.run()

    if args.format == "chrome":
        observability.write_chrome_trace(args.out)
    else:
        observability.write_spans_jsonl(args.out)
    tracer = observability.tracer
    instance_spans = tracer.spans_of_kind("instance")
    print(
        f"engine={result.engine_name} periods={result.periods} "
        f"instances={result.total_instances} errors={result.error_instances}"
    )
    print(
        f"{len(tracer.spans)} spans "
        f"({len(instance_spans)} instances, "
        f"{len(tracer.spans_of_kind('operator'))} operators, "
        f"{len(tracer.spans_of_kind('network'))} network) "
        f"written to {args.out} [{args.format}]"
    )
    if args.format == "chrome":
        print("open in chrome://tracing or https://ui.perfetto.dev")
    if args.metrics_out:
        observability.write_prometheus(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0 if result.verification.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run once with observability on; aggregate cost per operator kind.

    The engines already log one OperatorObservation per leaf operator
    and emit them as kind="operator" spans whose duration is the
    operator's priced share of the instance; the profile sums those per
    operator kind and pairs them with the relational kernel's fast-path
    operation counters for the same run.
    """
    from repro.db import fastpath

    factors = ScaleFactors(
        datasize=args.datasize, time=args.time, distribution=args.distribution
    )
    observability = Observability()
    if args.synth:
        from repro.synth import SynthSpec, SynthSpecError, synthesize
        from repro.synth.runner import SynthClient

        try:
            synth_spec = SynthSpec.parse(args.synth).resolve(args.seed)
        except SynthSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        workload = synthesize(synth_spec, f=args.distribution)
        engine = ENGINES[args.engine](
            workload.scenario.registry, worker_count=args.workers,
        )
        client = SynthClient(
            workload, engine, factors, periods=args.periods,
            observability=observability,
        )
    else:
        scenario = build_scenario(seed=args.seed)
        engine = ENGINES[args.engine](
            scenario.registry, worker_count=args.workers,
        )
        client = BenchmarkClient(
            scenario, engine, factors, periods=args.periods, seed=args.seed,
            observability=observability,
        )
    stats_base = fastpath.STATS.copy()
    if args.naive:
        with fastpath.disabled():
            result = client.run()
    else:
        result = client.run()
    stats = (fastpath.STATS - stats_base).snapshot()

    breakdown: dict[str, dict[str, float]] = {}
    for span in observability.tracer.spans_of_kind("operator"):
        op_kind = span.name.split(":", 1)[0]
        entry = breakdown.setdefault(
            op_kind,
            {"count": 0, "cost": 0.0, "work": 0.0, "communication": 0.0,
             "vectorized": 0, "fallbacks": 0},
        )
        entry["count"] += 1
        entry["cost"] += span.duration
        entry["communication"] += float(
            span.attributes.get("communication", 0.0)
        )
        entry["work"] += sum(
            float(value)
            for key, value in span.attributes.items()
            if key.startswith("work_")
        )
        # Per-operator columnar activity (db_* attributes are the
        # fast-path counter deltas the operator charged).
        entry["vectorized"] += sum(
            int(span.attributes.get(f"db_{counter}", 0))
            for counter in (
                "vector_filters", "vector_joins", "vector_group_bys"
            )
        )
        entry["fallbacks"] += int(
            span.attributes.get("db_vector_fallbacks", 0)
        )

    if args.naive:
        mode = "naive"
    elif not vector.is_enabled():
        mode = "fast-scalar"
    else:
        mode = "fast"
    print(
        f"engine={result.engine_name} d={args.datasize} t={args.time} "
        f"periods={result.periods} path={mode}"
        + (f" workload={args.synth}" if args.synth else "")
    )
    if args.synth:
        # Generated workloads report in family terms, not raw SY-ids.
        print()
        print(client.monitor.family_table())
        print()
    print(
        f"{'operator':<16}{'count':>8}{'cost':>12}{'work':>12}{'comm':>10}"
        f"{'vect':>8}{'fallb':>8}"
    )
    for op_kind in sorted(
        breakdown, key=lambda k: breakdown[k]["cost"], reverse=True
    ):
        entry = breakdown[op_kind]
        print(
            f"{op_kind:<16}{int(entry['count']):>8}{entry['cost']:>12.2f}"
            f"{entry['work']:>12.1f}{entry['communication']:>10.1f}"
            f"{int(entry['vectorized']):>8}{int(entry['fallbacks']):>8}"
        )
    print("fast-path counters:")
    for key, value in stats.items():
        print(f"  {key:<20}{value:>10}")
    if args.out:
        payload = {
            "engine": result.engine_name,
            "factors": {
                "datasize": args.datasize,
                "time": args.time,
                "distribution": args.distribution,
            },
            "periods": result.periods,
            "path": mode,
            "batch_threshold": vector.batch_threshold(),
            "operators": breakdown,
            "fastpath": stats,
        }
        if args.synth:
            payload["workload"] = args.synth
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"breakdown written to {args.out}")
    return 0 if result.verification.ok else 1


def _parse_tenant_policies(items: Sequence[str]) -> dict:
    """``NAME[:rate=R][:burst=B][:active=N]`` → {name: TenantPolicy}."""
    from repro.serve import TenantPolicy

    keys = {"rate": float, "burst": float, "active": int}
    policies = {}
    for item in items:
        name, _, rest = item.partition(":")
        if not name:
            raise ServeError(f"tenant policy needs a name: {item!r}")
        kwargs = {}
        for part in rest.split(":") if rest else ():
            key, _, value = part.partition("=")
            if key not in keys:
                raise ServeError(
                    f"unknown tenant policy knob {key!r} in {item!r} "
                    f"(choose from {sorted(keys)})"
                )
            try:
                kwargs["max_active" if key == "active" else key] = (
                    keys[key](value)
                )
            except ValueError:
                raise ServeError(f"bad value for {key} in {item!r}: {value!r}")
        policies[name] = TenantPolicy(name=name, **kwargs)
    return policies


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the benchmark-as-a-service HTTP front end until interrupted."""
    from repro.serve import (
        HttpServer,
        ServeConfig,
        SessionManager,
        TenantPolicy,
    )

    try:
        config = ServeConfig(
            queue_capacity=args.queue,
            engine_slots=args.slots,
            dispatcher=args.dispatcher,
            cache=not args.no_cache,
            tenants=_parse_tenant_policies(args.tenant),
            default_policy=(
                None if args.closed else TenantPolicy(name="default")
            ),
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        server = HttpServer(SessionManager(config))
        await server.start(host=args.host, port=args.port)
        tenants = ", ".join(sorted(config.tenants)) or (
            "closed enrollment" if args.closed else "open enrollment"
        )
        print(
            f"serving DIPBench sessions on http://{server.host}:"
            f"{server.port} ({config.dispatcher} dispatcher, "
            f"{config.engine_slots} slot(s), queue {config.queue_capacity}, "
            f"tenants: {tenants})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop(drain=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserver stopped")
    return 0


async def _storm_identity_check(config, client) -> list[str]:
    """Prove served reports equal direct BenchmarkClient execution.

    For every spec in the storm's pool: submit it as a session, fetch the
    served report, run the identical spec directly through ``run_spec``,
    and byte-compare the shared report core (landscape digest, run
    fingerprint, NAVG+ table, latency percentiles).
    """
    from repro.parallel.spec import run_spec
    from repro.serve import CONTRACT_V1, parse_session_request
    from repro.toolsuite.monitor import Monitor

    core_fields = (
        "landscape_digest", "fingerprint", "instances", "errors",
        "verification_ok", "navg_plus", "navg_plus_total", "latency_tu",
    )
    loop = asyncio.get_running_loop()
    problems: list[str] = []
    for spec_doc in config.spec_pool():
        doc = {"contract": CONTRACT_V1, "tenant": "identity",
               "spec": spec_doc}
        posted = await client.post_session(doc)
        if posted.status != 202 or posted.doc is None:
            problems.append(
                f"identity session rejected ({posted.status}): {spec_doc}"
            )
            continue
        served = await client.get_report(
            posted.doc["id"], "identity", wait=60.0
        )
        if served.status != 200 or served.doc is None:
            problems.append(
                f"no served report ({served.status}): {spec_doc}"
            )
            continue
        spec = parse_session_request(doc).spec
        outcome = await loop.run_in_executor(None, run_spec, spec)
        monitor = Monitor.merged([outcome])
        direct = {
            "landscape_digest": outcome.landscape_digest,
            "fingerprint": outcome.fingerprint(),
            "instances": outcome.result.total_instances,
            "errors": outcome.result.error_instances,
            "verification_ok": outcome.result.verification.ok,
            "navg_plus": {
                m.process_id: round(m.navg_plus, 6)
                for m in monitor.metrics().rows()
            },
            "navg_plus_total": round(outcome.navg_plus_total(), 6),
            "latency_tu": monitor.latency_percentiles(),
        }
        served_core = {k: served.doc.get(k) for k in core_fields}
        if (json.dumps(served_core, sort_keys=True)
                != json.dumps(direct, sort_keys=True)):
            problems.append(
                f"served report diverges from direct run for {spec.label}: "
                f"served={json.dumps(served_core, sort_keys=True)} "
                f"direct={json.dumps(direct, sort_keys=True)}"
            )
    return problems


def _cmd_storm(args: argparse.Namespace) -> int:
    """Seeded virtual-client storm; self-hosts a server unless --host."""
    from repro.serve import (
        HttpServer,
        ServeClient,
        ServeConfig,
        SessionManager,
        Storm,
        StormConfig,
        TenantPolicy,
    )

    try:
        config = StormConfig(
            clients=args.clients,
            tenants=tuple(
                t.strip() for t in args.tenants.split(",") if t.strip()
            ),
            model=args.model,
            rate=args.rate,
            concurrency=args.concurrency,
            seed=args.seed,
            distinct=args.distinct,
            engine=args.engine,
            datasize=args.datasize,
            time=args.time,
            synth=args.synth,
        )
        serve_config = ServeConfig(
            queue_capacity=args.queue,
            engine_slots=args.slots,
            tenants=_parse_tenant_policies(args.tenant_policies),
            default_policy=TenantPolicy(name="default"),
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.host is not None and args.port is None:
        print("error: --host needs --port", file=sys.stderr)
        return 2

    async def _run():
        server = None
        host, port = args.host, args.port
        if host is None:
            server = HttpServer(SessionManager(serve_config))
            await server.start(host="127.0.0.1", port=0)
            host, port = server.host, server.port
        try:
            storm = Storm(config, ServeClient(host, port))
            report = await storm.run()
            mismatches = []
            if args.identity_check:
                mismatches = await _storm_identity_check(
                    config, ServeClient(host, port)
                )
            return report, mismatches
        finally:
            if server is not None:
                await server.stop(drain=True)

    report, mismatches = asyncio.run(_run())
    if not args.quiet:
        print(report.format())
    try:
        report.check()
    except ServeError as exc:
        print(f"ACCOUNTING BROKEN: {exc}", file=sys.stderr)
        return 1
    print(
        f"accounting: {report.submitted} submitted = {report.accepted} "
        f"accepted + {report.rejected} rejected + {report.errors} errors"
    )
    if args.identity_check:
        for problem in mismatches:
            print(f"IDENTITY MISMATCH: {problem}", file=sys.stderr)
        if not mismatches:
            print(
                f"identity check: {len(config.spec_pool())} spec(s) served "
                f"byte-identical to direct execution"
            )
    if args.out:
        write_json_atomic(args.out, report.to_json())
        print(f"storm report written to {args.out}")
    return 1 if mismatches else 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    factors = ScaleFactors(datasize=args.datasize, time=args.time)
    schedule = build_schedule(args.period, factors)
    print(
        f"period k={args.period}, d={args.datasize}, t={args.time} "
        f"(deadlines in engine units; 1 tu = 1/t units)"
    )
    for pid in ("P01", "P02", "P04", "P08", "P10"):
        series = [factors.tu_to_engine(x) for x in schedule.series(pid)]
        preview = ", ".join(f"{x:.1f}" for x in series[:5])
        if len(series) > 5:
            preview += f", ... {series[-1]:.1f}"
        print(f"  {pid}: n={len(series):>4}  [{preview}]")
    print("  P03/P05-P07/P09/P11-P15: resolved from completions (T1 terms)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    try:
        spec = FaultSpec.load(args.spec)
    except (OSError, FaultSpecError) as exc:
        print(f"error: cannot load fault spec {args.spec}: {exc}",
              file=sys.stderr)
        return 1
    scenario = build_scenario()
    problems = spec.validate(
        hosts=scenario.network.hosts,
        services=scenario.registry.service_names,
        processes=set(build_processes()),
    )
    print(spec.describe())
    if problems:
        print()
        print(f"INVALID: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print()
    print("spec is valid for the benchmark scenario")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    """Generate, describe or run one synthesized integration workload."""
    from repro.synth import (
        SynthSpec,
        SynthSpecError,
        build_manifest,
        manifest_digest,
        manifest_to_json,
        run_differential,
        synthesize,
    )
    from repro.synth.families import label_process
    from repro.synth.runner import SynthClient

    try:
        spec = SynthSpec.parse(args.knobs).resolve(args.seed)
    except SynthSpecError as exc:
        print(
            f"invalid --knobs: {len(exc.problems)} problem(s)",
            file=sys.stderr,
        )
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2

    if args.action == "run" and args.conformance:
        report = run_differential(
            spec, f=args.distribution, periods=args.periods, time=args.time
        )
        print(report.summary())
        for outcome in report.outcomes:
            status = "ok" if outcome.verification_ok else "FAILED"
            print(
                f"  {outcome.engine:<14} digest={outcome.digest[:12]} "
                f"verification={status}"
            )
        if args.out:
            write_json_atomic(
                args.out,
                {
                    "spec": spec.canonical(),
                    "spec_digest": spec.digest(),
                    "distribution": args.distribution,
                    "ok": report.ok,
                    "problems": report.problems,
                    "engines": {
                        o.engine: {
                            "digest": o.digest,
                            "verification_ok": o.verification_ok,
                        }
                        for o in report.outcomes
                    },
                },
            )
            print(f"conformance report written to {args.out}")
        return 0 if report.ok else 1

    workload = synthesize(spec, f=args.distribution)
    manifest = build_manifest(workload, periods=args.periods)
    digest_of_manifest = manifest_digest(manifest)

    if args.action == "generate":
        if args.out:
            write_text_atomic(args.out, manifest_to_json(manifest) + "\n")
            print(f"spec: {spec.to_string() or '<defaults>'}")
            print(f"manifest digest: {digest_of_manifest}")
            print(f"manifest written to {args.out}")
        else:
            # Bare generate keeps stdout pipe-clean JSON; the digest
            # goes to stderr so `repro synth generate > m.json` works.
            print(manifest_to_json(manifest))
            print(f"manifest digest: {digest_of_manifest}", file=sys.stderr)
        return 0

    if args.action == "describe":
        print(f"spec:       {spec.to_string() or '<defaults>'}")
        print(f"canonical:  {json.dumps(spec.canonical(), sort_keys=True)}")
        print(f"spec digest:     {spec.digest()}")
        print(f"manifest digest: {digest_of_manifest}")
        print(f"distribution f={args.distribution}  seed={spec.seed}")
        print(f"families: {', '.join(spec.families)}")
        print(f"source groups: {workload.groups}")
        print("databases:")
        for name, doc in sorted(manifest["databases"].items()):
            tables = ", ".join(sorted(doc["tables"]))
            print(f"  {name:<16} {tables}")
        print("processes:")
        for pid, doc in sorted(manifest["processes"].items()):
            ops = len(doc["operators"])
            print(
                f"  {label_process(pid):<14} {doc['event_type']:<4} "
                f"{ops:>2} operators"
            )
        print("plans:")
        for period, doc in sorted(manifest["plans"].items()):
            truth = doc["ground_truth"]
            print(
                f"  period {period}: {doc['messages']} messages, "
                f"{truth['duplicate_pairs']} duplicate pairs, "
                f"{truth['corrupted_rows']} corrupted rows"
            )
        return 0

    # action == "run"
    factors = ScaleFactors(time=args.time, distribution=args.distribution)
    engine = ENGINES[args.engine](
        workload.scenario.registry, worker_count=args.workers
    )
    client = SynthClient(
        workload, engine, factors, periods=args.periods
    )
    result = client.run()
    digest = landscape_digest(workload.scenario.all_databases.values())
    print(
        f"engine={result.engine_name} spec={spec.to_string() or '<defaults>'} "
        f"f={args.distribution} periods={result.periods}"
    )
    print(
        f"instances={result.total_instances} "
        f"errors={result.error_instances} landscape={digest[:12]}"
    )
    if not args.quiet:
        print()
        print(client.monitor.family_table())
        print()
    print(result.verification.summary())
    if args.out:
        write_json_atomic(
            args.out,
            {
                "spec": spec.canonical(),
                "spec_digest": spec.digest(),
                "manifest_digest": digest_of_manifest,
                "engine": result.engine_name,
                "distribution": args.distribution,
                "periods": result.periods,
                "instances": result.total_instances,
                "errors": result.error_instances,
                "landscape_digest": digest,
                "verification_ok": result.verification.ok,
                "failures": list(result.verification.failures),
            },
        )
        print(f"run report written to {args.out}")
    return 0 if result.verification.ok else 1


def _cmd_processes(_args: argparse.Namespace) -> int:
    processes = build_processes()
    print(f"{'Group':<7}{'ID':<8}{'Event':<7}{'Ops':>5}  Name")
    for group, pid, name in PROCESS_TABLE:
        process = processes[pid]
        print(
            f"{group:<7}{pid:<8}{process.event_type.value:<7}"
            f"{process.operator_count():>5}  {name}"
        )
    subs = sorted(p for p in processes if processes[p].subprocess_only)
    print(f"subprocesses: {', '.join(subs)}")
    return 0


def _cmd_validate(_args: argparse.Namespace) -> int:
    processes = build_processes()
    known = set(processes)
    failures = 0
    for pid in sorted(processes):
        errors = validate_definition(processes[pid], known_processes=known)
        status = "ok" if not errors else "INVALID"
        print(f"{pid:<8}{status}")
        for error in errors:
            print(f"    {error}")
            failures += 1
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "recover": _cmd_recover,
        "cluster": _cmd_cluster,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "storm": _cmd_storm,
        "schedule": _cmd_schedule,
        "faults": _cmd_faults,
        "synth": _cmd_synth,
        "processes": _cmd_processes,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        # Domain errors (bad scale factors, out-of-range periods, ...)
        # exit like argparse errors do, without a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
