"""Picklable run specifications and the single-run entrypoint.

A :class:`RunSpec` is the pure-data description of one benchmark run —
one point of the paper's (datasize, time, distribution) scale grid, at
one seed, on one engine, with the run's resilience fault timeline and
durability settings carried along.  It contains no live objects: a
worker process receives nothing but the spec and builds its own
landscape, engine and clocks from it, which is what makes sweeping the
grid across ``multiprocessing`` workers byte-identical to running it
serially.

:func:`client_from_spec` is the one place a spec becomes a wired
client: the CLI commands, sweep workers, served sessions and the synth
conformance bridge all build through it.  :func:`run_spec` is that path
plus error containment: it executes one spec end to end and returns a
:class:`RunOutcome` — itself picklable, carrying the full
:class:`BenchmarkResult`, the landscape digest, and (when requested) the
worker's metrics/trace shards for the parent to merge.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.engine.base import InstanceRecord, IntegrationEngine
from repro.errors import BenchmarkError, ReproError
from repro.observability import Observability
from repro.observability.metrics import MetricsRegistry, NullMetricsRegistry
from repro.observability.tracer import NullTracer, Tracer
from repro.resilience import FaultSpec
from repro.toolsuite.client import BenchmarkClient, BenchmarkResult
from repro.toolsuite.schedule import ScaleFactors

if TYPE_CHECKING:  # pragma: no cover
    from repro.synth.runner import SynthClient


class SweepError(ReproError):
    """Sweep misconfiguration: bad grid axes, bad worker counts."""


class SweepSabotage(ReproError):
    """Deterministic self-inflicted failure (the ``sabotage`` test hook)."""


@dataclass(frozen=True)
class RunSpec:
    """One benchmark configuration, as plain picklable data.

    ``sabotage`` is a test hook for the sweep executor's containment
    paths: ``"raise"`` makes :func:`run_spec` fail deterministically
    before building anything, ``"hard-exit"`` makes a pool worker die
    without a Python traceback (simulating an OOM kill / segfault).
    """

    engine: str = "interpreter"
    datasize: float = 0.05
    time: float = 1.0
    distribution: int = 0
    periods: int = 1
    seed: int = 42
    jitter: float = 0.0
    engine_workers: int = 4
    sandiego_error_rate: float = 0.15
    faults: FaultSpec | None = None
    max_attempts: int = 4
    durability: str = "off"
    checkpoint_every: float | None = None
    #: Cluster overlay: 0 hosts = single-host classic run; >= 2 builds a
    #: consistent-hash cluster with ``cluster_replicas`` log-shipped
    #: followers per database (``repl_lag`` in tu, async mode only).
    cluster_hosts: int = 0
    cluster_replicas: int = 1
    repl_mode: str = "sync"
    repl_lag: float = 0.0
    repl_batch: int = 1
    verify: bool = True
    collect_metrics: bool = False
    collect_trace: bool = False
    sabotage: str = ""
    #: Synthesized-workload knob string (``repro.synth``); empty runs the
    #: classic DIPBench scenario.  The spec's own ``seed`` is inherited
    #: by the synthesizer unless the knob string pins one.
    synth: str = ""

    @property
    def factors(self) -> ScaleFactors:
        return ScaleFactors(
            datasize=self.datasize,
            time=self.time,
            distribution=self.distribution,
        )

    @property
    def label(self) -> str:
        """Stable human-readable grid-point identity.

        Classic runs keep the historical four-factor label byte for
        byte; a synthesized run appends its knob string, which is part
        of the grid point's identity (and so of the fingerprint).
        """
        base = (
            f"{self.engine} d={self.datasize:g} t={self.time:g} "
            f"f={self.distribution} seed={self.seed}"
        )
        if self.synth:
            return f"{base} synth={self.synth}"
        return base

    def grid_key(self) -> tuple:
        """Deterministic sort key over the sweep dimensions."""
        return (
            self.engine, self.datasize, self.time,
            self.distribution, self.seed, self.synth,
        )

    def with_engine(self, engine: str) -> "RunSpec":
        """The same grid point on another engine (conformance pairs)."""
        return replace(self, engine=engine)

    def build_engine(self, registry) -> IntegrationEngine:
        """This spec's engine over a landscape's service ``registry``."""
        from repro.engine import ENGINES

        if self.engine not in ENGINES:
            raise BenchmarkError(
                f"unknown engine {self.engine!r}; "
                f"choose from {sorted(ENGINES)}"
            )
        return ENGINES[self.engine](
            registry, worker_count=self.engine_workers
        )

    def build_observability(self) -> Observability | None:
        """The run's tracer/metrics bundle, or None when nothing is collected."""
        if not (self.collect_metrics or self.collect_trace):
            return None
        return Observability(
            tracer=Tracer() if self.collect_trace else NullTracer(),
            metrics=(
                MetricsRegistry()
                if self.collect_metrics
                else NullMetricsRegistry()
            ),
        )


@dataclass
class RunOutcome:
    """Everything one executed :class:`RunSpec` produced.

    ``status`` is ``"ok"`` for a completed run, ``"error"`` when
    :func:`run_spec` contained an exception, and ``"crashed"`` when the
    worker process executing the spec died outright.  ``wall_seconds``
    is a real measurement and is deliberately excluded from
    :meth:`fingerprint`.
    """

    spec: RunSpec
    status: str = "ok"
    error_type: str = ""
    error: str = ""
    result: BenchmarkResult | None = None
    landscape_digest: str = ""
    metrics_shard: MetricsRegistry | None = None
    spans: list[dict] | None = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def crashed(cls, spec: RunSpec) -> "RunOutcome":
        """The deterministic record of a dead worker's grid point."""
        return cls(
            spec=spec,
            status="crashed",
            error_type="WorkerCrashed",
            error=f"worker process died while executing {spec.label}",
        )

    @classmethod
    def failed(cls, spec: RunSpec, exc: BaseException) -> "RunOutcome":
        return cls(
            spec=spec,
            status="error",
            error_type=type(exc).__name__,
            error=str(exc),
        )

    def _record_identity(self, record: InstanceRecord) -> str:
        return repr(record)

    def fingerprint(self) -> str:
        """Content hash of everything the determinism contract covers.

        Byte-identity of a parallel sweep with the serial one means: the
        landscape digest, every per-instance record, the NAVG+ table and
        the verification outcome of each grid point match — this digest
        is over exactly those, never over wall-clock measurements.
        """
        hasher = hashlib.sha256()
        hasher.update(self.label.encode())
        hasher.update(f"\x00{self.status}\x00{self.error_type}\x00".encode())
        hasher.update(self.landscape_digest.encode())
        if self.result is not None:
            for record in self.result.records:
                hasher.update(self._record_identity(record).encode())
                hasher.update(b"\x01")
            hasher.update(self.result.metrics.as_table().encode())
            hasher.update(b"\x02")
            hasher.update(
                "\n".join(self.result.verification.checks).encode()
            )
            hasher.update(
                "\n".join(self.result.verification.failures).encode()
            )
        return hasher.hexdigest()

    @property
    def label(self) -> str:
        return self.spec.label

    def navg_plus_total(self) -> float:
        """Sum of NAVG+ over the process types (one scalar per point)."""
        if self.result is None:
            return 0.0
        return sum(m.navg_plus for m in self.result.metrics.rows())

    def to_json(self) -> dict:
        """Deterministic JSON row (no wall-clock fields)."""
        row: dict = {
            "engine": self.spec.engine,
            "datasize": self.spec.datasize,
            "time": self.spec.time,
            "distribution": self.spec.distribution,
            "seed": self.spec.seed,
            "periods": self.spec.periods,
            "status": self.status,
            "error_type": self.error_type,
            "landscape_digest": self.landscape_digest,
            "fingerprint": self.fingerprint(),
        }
        if self.spec.synth:
            row["synth"] = self.spec.synth
        if self.result is not None:
            row["instances"] = self.result.total_instances
            row["errors"] = self.result.error_instances
            row["verification_ok"] = self.result.verification.ok
            row["navg_plus"] = {
                m.process_id: round(m.navg_plus, 6)
                for m in self.result.metrics.rows()
            }
        return row


def client_from_spec(spec: RunSpec) -> "BenchmarkClient | SynthClient":
    """The wired client for ``spec``: synthesized workload or classic."""
    if spec.synth:
        from repro.synth.runner import SynthClient

        return SynthClient.from_spec(spec)
    return BenchmarkClient.from_spec(spec)


def run_spec(spec: RunSpec) -> RunOutcome:
    """Execute one :class:`RunSpec` in-process and contain its failures.

    Any exception (bad spec, engine failure the client could not absorb)
    becomes an ``"error"`` outcome with a structured ``error_type``
    instead of propagating — one broken grid point must never take the
    sweep down.
    """
    from repro.storage import landscape_digest

    started = time.perf_counter()
    try:
        if spec.sabotage == "raise":
            raise SweepSabotage(f"sabotaged grid point: {spec.label}")
        client = client_from_spec(spec)
        result = client.run(verify=spec.verify)
        digest = landscape_digest(client.scenario.all_databases.values())
        metrics_shard = None
        if spec.collect_metrics:
            metrics_shard = client.observability.metrics
        spans = None
        if spec.collect_trace:
            spans = [
                span.to_dict()
                for span in client.observability.tracer.finished_spans()
            ]
        return RunOutcome(
            spec=spec,
            status="ok",
            result=result,
            landscape_digest=digest,
            metrics_shard=metrics_shard,
            spans=spans,
            wall_seconds=time.perf_counter() - started,
        )
    except Exception as exc:
        outcome = RunOutcome.failed(spec, exc)
        outcome.wall_seconds = time.perf_counter() - started
        return outcome
