"""The benchmark's three workloads and the measurements taken on them.

Every workload is driven from one process and one thread at the shipped
defaults: no ``REPRO_*`` variable and no physical knob (vector, batch
threshold, memory budget, workers) is set, and runs go only through the
public entry points ``RunSpec``, ``BenchmarkClient.from_spec`` /
``SynthClient.from_spec`` (which resolve engines through ``ENGINES``)
and ``run_storm``.

A workload runs *repetitions* until the timed phases add up to the
requested seconds.  Each repetition sets up from scratch (that is what
``setup_s`` medians over) and then runs its timed phase.  A traced
repetition installs a :class:`~tracing.LayerTracer` for its timed phase
only; untraced and traced repetitions alternate in a traced run.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

from speed import SAMPLE_EVERY_S, Speedometer
from tracing import LayerTracer, Patches, operator_classes

from repro.db import fastpath
from repro.db.database import Database
from repro.db.table import Table
from repro.engine.base import IntegrationEngine
from repro.mtm.operators import Operator
from repro.parallel import RunOutcome, RunSpec, run_spec
from repro.scenario.messages import MessageFactory
from repro.scenario.processes import build_processes
from repro.serve import (
    CONTRACT_V1,
    HttpServer,
    PoolDispatcher,
    ServeClient,
    ServeConfig,
    SessionManager,
    StormConfig,
    TenantPolicy,
    parse_session_request,
    run_storm,
)
from repro.services.registry import ServiceRegistry
from repro.storage import landscape_digest
from repro.synth import runner as synth_runner
from repro.synth import verify as synth_verify
from repro.synth.generator import SynthWorkload
from repro.synth.runner import SynthClient
from repro.toolsuite import client as toolsuite_client
from repro.toolsuite.client import BenchmarkClient
from repro.toolsuite.initializer import Initializer
from repro.toolsuite.monitor import Monitor, percentile
from repro.xmlkit.stx import Stylesheet
from repro.xmlkit.xsd import XsdSchema

#: The seed the expected fingerprints in ``expected.json`` belong to.
DEFAULT_SEED = 42

#: Classic landscape (Fig. 1, P01-P15) at the paper's largest datasize.
CLASSIC = dict(
    engine="interpreter", datasize=1.0, time=1.0, distribution=0,
    jitter=0.2, periods=1,
)
#: Many tiny synthesized E1 instances on the federated engine.
SYNTH = dict(
    engine="federated",
    synth=(
        "sources=4,depth=3,fan_out=2,scale=10,rounds=4,messages=32,"
        "update_ratio=0.9,transform_mix=relational"
    ),
    periods=1,
)
#: A closed loop of one client over 2 tenants against one engine slot.
#: 128 sessions drawn from 32 distinct specs make about three quarters
#: of the sessions cache hits.  At four sessions per spec nearly every
#: seed draws 31 or 32 of the specs, so the number of engine runs,
#: which sets the storm's run time, hardly depends on the seed (96
#: sessions drew from 28 to 32).  One client keeps the server and the
#: busy pool worker to one processor each: two clients on two slots put
#: three busy processes on a two-processor machine, and the spread of
#: the storm's times across runs was twice as wide.
STORM = dict(
    clients=128, distinct=32, model="closed", concurrency=1,
    tenants=("acme", "globex"), engine="interpreter", datasize=0.02,
)
STORM_SLOTS = 1
#: Admission sized so the closed loop is never refused: the default
#: token bucket (50/s, burst 10) refuses cache hits as the server gets
#: faster, which would score a faster cache as more failures.
STORM_POLICY = dict(rate=10_000.0, burst=1_000.0, max_active=8)
REJECTION_REASONS = ("queue-full", "rate-limited", "tenant-quota",
                     "circuit-open")

#: Layers whose self time adds up, with ``client.unattributed_s``, to
#: the traced ``run_s`` of a batch workload.
BATCH_LAYERS = (
    "toolsuite.initializer", "scenario.messages", "toolsuite.verification",
    "synth.populate", "synth.verify", "engine.handle_event", "mtm.execute",
    "services.call", "db.insert", "db.upsert", "db.update", "db.delete",
    "db.call_procedure", "db.query", "xmlkit.transform", "xmlkit.validate",
)
STORM_LAYERS = ("serve.submit",)
#: Per-layer numbers only the storm has, and only the batch runs have.
STORM_ONLY = (
    "serve.overhead_ms", "serve.engine_wall_ms", "parallel.queue_wait_ms",
    "parallel.dispatch_ms", "serve.cache_hit_ratio", "serve.misses",
    "serve.hit_p50_ms", "serve.miss_p50_ms", "serve.miss_p90_ms",
    "serve.rejected",
) + tuple(f"serve.rejected.{reason}" for reason in REJECTION_REASONS)
BATCH_ONLY = ("engine.deploy_s", "synth.synthesize_s")
#: Relational-kernel operation counters reported as per-run deltas.
KERNEL_COUNTERS = (
    "rows_copied", "rows_shared", "expr_compiled", "index_joins",
    "hash_joins", "pushdowns", "vector_filters", "vector_joins",
    "vector_fallbacks", "mv_incremental", "mv_full_recompute",
)


def batch_targets() -> list[tuple[str, object, str]]:
    """Public entry points of each layer a batch run passes through."""
    targets = [
        ("toolsuite.initializer", Initializer, "uninitialize_all"),
        ("toolsuite.initializer", Initializer, "initialize_sources"),
        ("toolsuite.verification", toolsuite_client, "verify_period"),
        ("synth.populate", SynthWorkload, "populate"),
        ("synth.verify", synth_verify, "verify_workload"),
        ("engine.handle_event", IntegrationEngine, "handle_event"),
        ("services.call", ServiceRegistry, "call"),
        ("db.insert", Table, "insert"),
        ("db.upsert", Table, "upsert"),
        ("db.update", Table, "update"),
        ("db.delete", Table, "delete"),
        ("db.call_procedure", Database, "call_procedure"),
        ("db.query", Database, "query"),
        ("xmlkit.transform", Stylesheet, "transform"),
        ("xmlkit.validate", XsdSchema, "validate"),
    ]
    targets += [
        ("scenario.messages", MessageFactory, name)
        for name in ("vienna_order", "mdm_customer_update",
                     "beijing_master_data", "hongkong_order",
                     "sandiego_order")
    ]
    targets += [
        ("mtm.execute", cls, "execute") for cls in operator_classes(Operator)
    ]
    return targets


@dataclass
class Tally:
    """Operations attempted and failed, with what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what} failed")


@dataclass
class Rep:
    """One repetition: its set-up, its timed phase, what it produced."""

    setup_s: float
    run_s: float
    ops: int
    #: Latencies of the operations timed one by one (instances; the
    #: storm's engine-run sessions), already at the reference speed.
    latencies_s: list[float]
    fingerprint: str
    #: The timed phase in seconds at the reference speed (``speed.py``).
    run_ref_s: float = 0.0
    #: Mean slowdown sampled over the repetition.
    slowdown: float = 1.0
    tracer: LayerTracer | None = None
    layer: dict[str, float] = field(default_factory=dict)


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition.

    Self times of every layer plus ``client.unattributed_s`` add up to
    the repetition's ``run_s`` by construction.
    """
    tracer = rep.tracer
    out = dict(rep.layer)
    attributed = 0.0
    for layer in BATCH_LAYERS + STORM_LAYERS:
        out[f"{layer}.calls"] = float(tracer.calls[layer])
        out[f"{layer}.self_s"] = tracer.self_s[layer]
        attributed += tracer.self_s[layer]
    out["client.unattributed_s"] = rep.run_s - attributed
    durations = tracer.durations["engine.handle_event"]
    out["engine.handle_event.p50_us"] = percentile(durations, 50) * 1e6
    out["engine.handle_event.p99_us"] = percentile(durations, 99) * 1e6
    return out


def kernel_counters(before) -> dict[str, float]:
    """Relational-kernel counter deltas; a removed counter is absent."""
    delta = (fastpath.STATS - before).snapshot()
    return {
        f"db.{counter}": float(delta[counter])
        for counter in KERNEL_COUNTERS
        if counter in delta
    }


def median(values) -> float:
    return statistics.median(values)


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def repeat(rep, seconds: float, trace: bool) -> tuple[list[Rep], list[Rep]]:
    """Run ``rep(traced, index)`` until the timed phases add up to ``seconds``.

    A traced run alternates untraced and traced repetitions and makes at
    least one of each; the untraced ones give ``trace.overhead_s`` and
    the fingerprint the traced ones must reproduce.
    """
    plain: list[Rep] = []
    traced: list[Rep] = []
    while True:
        timed = sum(r.run_s for r in plain + traced)
        if timed >= seconds and plain and (traced or not trace):
            return plain, traced
        use_tracer = trace and len(traced) < len(plain)
        index = len(plain) + len(traced)
        (traced if use_tracer else plain).append(rep(use_tracer, index))


# -- batch workloads ---------------------------------------------------------------


class BatchWorkload:
    """A classic or synthesized DIPBench run, repeated from scratch."""

    def __init__(self, name: str, params: dict, synth: bool):
        self.name = name
        self.params = params
        self.synth = synth

    def rep(self, spec: RunSpec, tally: Tally, traced: bool) -> Rep:
        gc.collect()
        speed = Speedometer()
        speed.sample()
        started = time.perf_counter()
        layer = {"synth.synthesize_s": 0.0}
        if self.synth:
            synthesize = LayerTracer(
                [("synth.synthesize", synth_runner, "synthesize")]
            )
            with synthesize:
                client = SynthClient.from_spec(spec)
            layer["synth.synthesize_s"] = synthesize.self_s["synth.synthesize"]
            processes = client.workload.processes.values()
        else:
            client = BenchmarkClient.from_spec(spec)
            processes = build_processes().values()
        deploy_started = time.perf_counter()
        client.engine.deploy_all(processes)
        layer["engine.deploy_s"] = time.perf_counter() - deploy_started
        setup_s = time.perf_counter() - started

        latencies: list[float] = []
        tracer = None
        if traced:
            tracer = LayerTracer(
                batch_targets(), keep_durations=("engine.handle_event",)
            )
        else:
            client.engine.handle_event = _latency_probe(
                client.engine.handle_event, latencies, speed
            )
        counters = fastpath.STATS.copy()
        if tracer is not None:
            with tracer:
                timed = time.perf_counter()
                result = client.run(verify=True)
                run_s = time.perf_counter() - timed
        else:
            speed.start()
            timed = time.perf_counter()
            result = client.run(verify=True)
            run_s = time.perf_counter() - timed - speed.inside_s
            speed.stop()
        speed.sample()
        layer.update(kernel_counters(counters))
        layer.update(dict.fromkeys(STORM_ONLY, 0.0))

        tally.ops(result.total_instances, result.error_instances,
                  f"{self.name} instances")
        failures = "; ".join(result.verification.failures[:3])
        tally.check(result.verification.ok,
                    f"{self.name}: verification failed: {failures}")
        outcome = RunOutcome(
            spec=spec,
            result=result,
            landscape_digest=landscape_digest(
                client.scenario.all_databases.values()
            ),
        )
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            ops=result.total_instances,
            latencies_s=latencies,
            fingerprint=outcome.fingerprint(),
            run_ref_s=speed.reference_s,
            slowdown=speed.slowdown(),
            tracer=tracer,
            layer=layer,
        )

    def run(self, seed: int, seconds: float, trace: bool, tally: Tally):
        spec = RunSpec(seed=seed, **self.params)
        return repeat(
            lambda traced, _index: self.rep(spec, tally, traced),
            seconds, trace,
        )

    def pooled_layer(self) -> dict[str, float]:
        return {}

    def peak_rss_mb(self) -> float:
        return rss_mb(resource.RUSAGE_SELF)


def _latency_probe(handle_event, latencies: list[float], speed: Speedometer):
    """Time each instance at the client's call into the engine.

    The processor's speed is sampled between instances, and each
    latency is stated at the reference speed using the speed sampled
    just before it: tail percentiles come mostly from the stretches when
    the machine ran slow, so one slowdown for the whole repetition would
    not correct them.
    """
    clock = time.perf_counter
    due = [clock() + SAMPLE_EVERY_S]

    def timed(event):
        if clock() >= due[0]:
            speed.checkpoint()
            due[0] = clock() + SAMPLE_EVERY_S
        start = clock()
        try:
            return handle_event(event)
        finally:
            latencies.append((clock() - start) / speed.local)

    return timed


# -- the serve storm -----------------------------------------------------------------


async def _sample_while_idle(speed: Speedometer) -> None:
    """Sample the processor's speed from the server's event loop."""
    while True:
        await asyncio.sleep(SAMPLE_EVERY_S)
        speed.checkpoint()


class RoundTrips:
    """Session round trips, split into cache hits and engine runs.

    A round trip runs from the client's submission to its reading the
    finished session, the span the storm times itself; the ``cached``
    flag of the finished session tells a hit from an engine run.  Given
    a :class:`Speedometer` that samples while the storm runs, each round
    trip is stated at the reference speed using the speed sampled just
    before it ended, as the batch workloads state each instance.
    """

    def __init__(self, speed: Speedometer | None = None) -> None:
        self.speed = speed
        self.hit_s: list[float] = []
        self.miss_s: list[float] = []
        self._posted: dict[str, float] = {}
        self._patches = Patches()

    def __enter__(self):
        self._patches.replace(ServeClient, "post_session", self._post)
        self._patches.replace(ServeClient, "get_session", self._get)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _post(self, post_session):
        posted = self._posted

        async def timed(client, doc, *args, **kwargs):
            start = time.perf_counter()
            reply = await post_session(client, doc, *args, **kwargs)
            if reply.status == 202 and reply.doc is not None:
                posted[reply.doc["id"]] = start
            return reply

        return timed

    def _get(self, get_session):
        trips = self

        async def timed(client, session_id, *args, **kwargs):
            reply = await get_session(client, session_id, *args, **kwargs)
            start = trips._posted.pop(session_id, None)
            doc = reply.doc or {}
            if start is not None and doc.get("state") == "done":
                elapsed = time.perf_counter() - start
                if trips.speed is not None:
                    elapsed /= trips.speed.local
                (trips.hit_s if doc.get("cached") else trips.miss_s).append(
                    elapsed
                )
            return reply

        return timed


class StormProbe(RoundTrips):
    """Server-side and round-trip timings of the traced storm repetitions.

    Adds to the round trips the server's own accounting of each session
    and times each dispatch to the worker pool against the wall time the
    worker reports for it.  Numbers are pooled over every traced
    repetition, so that the 90th percentile of engine runs rests on
    enough of them.
    """

    def __init__(self) -> None:
        super().__init__()
        self.dispatch_s: list[float] = []
        #: (serve overhead, engine wall, queue wait, cached) per session.
        self.sessions: list[tuple[float, float, float, bool]] = []
        self.rejected: dict[str, int] = {}

    def absorb(self, manager: SessionManager, sessions) -> None:
        """Keep a finished repetition's server-side accounting."""
        self.sessions += [
            (s.serve_overhead_s, s.engine_wall_s, s.queue_wait_s, s.cached)
            for s in sessions if s.outcome is not None
        ]
        for per_tenant in manager.rejections.values():
            for reason, count in per_tenant.items():
                self.rejected[reason] = self.rejected.get(reason, 0) + count

    def layer(self) -> dict[str, float]:
        overhead, engine, queue_wait, cached = zip(*self.sessions)
        misses = [e for e, hit in zip(engine, cached) if not hit]
        out = {
            "serve.overhead_ms": percentile(overhead, 50) * 1e3,
            "serve.engine_wall_ms": percentile(misses, 50) * 1e3,
            "parallel.queue_wait_ms": percentile(queue_wait, 50) * 1e3,
            "parallel.dispatch_ms": percentile(self.dispatch_s, 50) * 1e3,
            "serve.cache_hit_ratio": sum(cached) / len(cached),
            "serve.misses": float(len(self.miss_s)),
            "serve.hit_p50_ms": percentile(self.hit_s, 50) * 1e3,
            "serve.miss_p50_ms": percentile(self.miss_s, 50) * 1e3,
            "serve.miss_p90_ms": percentile(self.miss_s, 90) * 1e3,
            "serve.rejected": float(sum(self.rejected.values())),
        }
        for reason in REJECTION_REASONS:
            out[f"serve.rejected.{reason}"] = float(
                self.rejected.get(reason, 0)
            )
        return out

    def __enter__(self) -> "StormProbe":
        super().__enter__()
        self._patches.replace(PoolDispatcher, "run", self._dispatch)
        return self

    def _dispatch(self, run):
        dispatch_s = self.dispatch_s

        async def timed(dispatcher, spec):
            start = time.perf_counter()
            outcome = await run(dispatcher, spec)
            dispatch_s.append(
                time.perf_counter() - start - outcome.wall_seconds
            )
            return outcome

        return timed


class StormWorkload:
    """A self-hosted server under a closed-loop storm, set up per rep."""

    name = "serve_storm"

    def __init__(self, params: dict):
        self.params = params

    def config(self, seed: int) -> StormConfig:
        return StormConfig(seed=seed, **self.params)

    def serve_config(self, config: StormConfig) -> ServeConfig:
        return ServeConfig(
            engine_slots=STORM_SLOTS,
            dispatcher="pool",
            tenants={
                tenant: TenantPolicy(name=tenant, **STORM_POLICY)
                for tenant in config.tenants
            },
            default_policy=None,
        )

    def run(self, seed: int, seconds: float, trace: bool, tally: Tally):
        config = self.config(seed)
        self.rss_mb = 0.0
        self.probe = StormProbe()
        return repeat(
            lambda traced, index: asyncio.run(
                self.rep(config, tally, traced, identity=index == 0)
            ),
            seconds, trace,
        )

    def pooled_layer(self) -> dict[str, float]:
        return self.probe.layer()

    def peak_rss_mb(self) -> float:
        """The larger of the server's and its pool workers' peaks.

        Workers are reaped when each server stops, so their peak is
        known once the repetitions are done.
        """
        return max(self.rss_mb, rss_mb(resource.RUSAGE_CHILDREN))

    async def rep(self, config: StormConfig, tally: Tally, traced: bool,
                  identity: bool) -> Rep:
        speed = Speedometer()
        speed.sample()
        started = time.perf_counter()
        manager = SessionManager(self.serve_config(config))
        server = HttpServer(manager)
        try:
            await server.start(host="127.0.0.1", port=0)
            setup_s = time.perf_counter() - started
            tracer = None
            trips = RoundTrips(speed)
            if traced:
                tracer = LayerTracer(
                    [("serve.submit", SessionManager, "submit")]
                )
                counters = fastpath.STATS.copy()
                with tracer, self.probe:
                    timed = time.perf_counter()
                    report = await run_storm(config, server.host, server.port)
                    run_s = time.perf_counter() - timed
            else:
                speed.start()
                sampler = asyncio.create_task(_sample_while_idle(speed))
                try:
                    with trips:
                        timed = time.perf_counter()
                        report = await run_storm(
                            config, server.host, server.port
                        )
                        run_s = time.perf_counter() - timed
                finally:
                    sampler.cancel()
                    await asyncio.gather(sampler, return_exceptions=True)
                speed.stop()
            speed.sample()
            self.rss_mb = max(self.rss_mb, rss_mb(resource.RUSAGE_SELF))
            failed = sum(t.failed for t in report.tenants.values())
            tally.ops(report.submitted,
                      report.rejected + report.errors + failed,
                      "storm sessions")
            served = self._served_fingerprints(manager, config)
            fingerprint = _digest(served)
            if identity:
                await self._identity_check(config, server, served, tally)
            slowdown = speed.slowdown()
            latencies = trips.miss_s
            completed = sum(t.completed for t in report.tenants.values())
            rep = Rep(
                setup_s=setup_s,
                run_s=run_s,
                ops=completed,
                latencies_s=latencies,
                fingerprint=fingerprint,
                run_ref_s=speed.reference_s,
                slowdown=slowdown,
                tracer=tracer,
            )
            if traced:
                self.probe.absorb(manager, self._sessions(manager, config))
                rep.layer.update(kernel_counters(counters))
                rep.layer.update(dict.fromkeys(BATCH_ONLY, 0.0))
            return rep
        finally:
            await server.stop(drain=True)

    @staticmethod
    def _sessions(manager: SessionManager, config: StormConfig):
        return [
            session
            for tenant in config.tenants
            for session in manager.store.for_tenant(tenant)
        ]

    def _served_fingerprints(self, manager, config) -> dict[str, str]:
        """Run fingerprint per distinct spec, as the server served it."""
        served: dict[str, str] = {}
        for session in self._sessions(manager, config):
            if session.outcome is not None:
                served.setdefault(
                    session.spec.label, session.outcome.fingerprint()
                )
        return served

    async def _identity_check(self, config, server, served, tally) -> None:
        """Each pooled spec's served report equals a direct ``run_spec``."""
        client = ServeClient(server.host, server.port)
        tenant = config.tenants[0]
        for spec_doc in config.spec_pool():
            doc = {"contract": CONTRACT_V1, "tenant": tenant,
                   "spec": spec_doc}
            spec = parse_session_request(doc).spec
            posted = await client.post_session(doc)
            if posted.status != 202 or posted.doc is None:
                tally.check(False, f"identity session refused: {spec.label}")
                continue
            reply = await client.get_report(
                posted.doc["id"], tenant, wait=60.0
            )
            outcome = run_spec(spec)
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
            got = {key: (reply.doc or {}).get(key) for key in direct}
            tally.check(
                reply.status == 200
                and json.dumps(got, sort_keys=True)
                == json.dumps(direct, sort_keys=True),
                f"served report differs from direct run_spec: {spec.label}",
            )
            tally.check(
                served.get(spec.label, direct["fingerprint"])
                == direct["fingerprint"],
                f"storm served another fingerprint for {spec.label}",
            )
            tally.check(outcome.result.verification.ok,
                        f"verification failed: {spec.label}")


def _digest(fingerprints: dict[str, str]) -> str:
    hasher = hashlib.sha256()
    for label, fingerprint in sorted(fingerprints.items()):
        hasher.update(f"{label}\x00{fingerprint}\x01".encode())
    return hasher.hexdigest()


WORKLOADS = {
    "classic_bulk": BatchWorkload("classic_bulk", CLASSIC, synth=False),
    "synth_many_small": BatchWorkload("synth_many_small", SYNTH, synth=True),
    "serve_storm": StormWorkload(STORM),
}
