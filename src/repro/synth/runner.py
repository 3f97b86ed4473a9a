"""SynthClient: drives an engine through a synthesized workload.

The client mirrors :class:`~repro.toolsuite.client.BenchmarkClient`'s
contract exactly — ``from_spec(RunSpec)``, ``run(verify) →
BenchmarkResult``, ``.scenario`` / ``.observability`` / ``.monitor``
attributes — so ``repro.parallel.run_spec`` only has to pick the client
class when ``RunSpec.synth`` is set; containment, landscape digesting,
metric shard collection and fingerprints are shared code paths.

Each period uninitializes the landscape (change feeds rebase with their
tables), replants the plan's initial populations, then executes
``spec.rounds`` rounds: the round's E1 message streams drain through one
deadline-ordered scheduler, after which the dependent E2 processes run
serialized at the running completion frontier — consolidations, CDC
pulls, the SCD apply, the dedup — "serialized in order to ensure the
correct results", exactly like streams C and D of the classic schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.base import InstanceRecord, IntegrationEngine, ProcessEvent
from repro.errors import BenchmarkError
from repro.observability import Observability
from repro.simtime.clock import VirtualClock
from repro.simtime.scheduler import EventScheduler
from repro.synth.generator import SynthWorkload, synthesize
from repro.synth.spec import SynthSpec
from repro.toolsuite.client import BenchmarkResult
from repro.toolsuite.monitor import Monitor
from repro.toolsuite.schedule import ScaleFactors
from repro.toolsuite.verification import VerificationReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.spec import RunSpec

#: Virtual-time layout of one period, in tu: rounds are spaced far
#: enough apart that a round's E1 arrivals never collide with the
#: previous round's, and messages within a stream stay ordered.
_ROUND_SPACING_TU = 200.0
_MESSAGE_SPACING_TU = 2.0
_STREAM_OFFSET_TU = 0.13


class SynthClient:
    """Benchmark client for synthesized workloads."""

    def __init__(
        self,
        workload: SynthWorkload,
        engine: IntegrationEngine,
        factors: ScaleFactors | None = None,
        periods: int = 1,
        observability: Observability | None = None,
    ):
        if periods < 1 or periods > 100:
            raise BenchmarkError(f"periods must be in [1, 100]: {periods}")
        self.workload = workload
        self.scenario = workload.scenario
        self.engine = engine
        self.factors = factors or ScaleFactors()
        self.periods = periods
        self.observability = observability or Observability.disabled()
        if self.observability.enabled:
            self.engine.observability = self.observability
            self.scenario.registry.network.bind_metrics(
                self.observability.metrics
            )
        self.monitor = Monitor(
            time_scale=self.factors.time, observability=self.observability
        )

    @classmethod
    def from_spec(cls, spec: "RunSpec") -> "SynthClient":
        """Build a fully wired synth client from one picklable RunSpec.

        Symmetric to ``BenchmarkClient.from_spec``: a sweep worker
        receives nothing but the spec and synthesizes its own landscape,
        engine and observability, so parallel grid points share no state
        and reproduce the serial run byte-identically.
        """
        from repro.engine import ENGINES
        from repro.observability.metrics import (
            MetricsRegistry,
            NullMetricsRegistry,
        )
        from repro.observability.tracer import NullTracer, Tracer

        if spec.engine not in ENGINES:
            raise BenchmarkError(
                f"unknown engine {spec.engine!r}; "
                f"choose from {sorted(ENGINES)}"
            )
        synth_spec = SynthSpec.parse(spec.synth).resolve(spec.seed)
        workload = synthesize(
            synth_spec, f=spec.distribution, jitter=spec.jitter
        )
        engine = ENGINES[spec.engine](
            workload.scenario.registry,
            worker_count=spec.engine_workers,
        )
        observability = None
        if spec.collect_metrics or spec.collect_trace:
            observability = Observability(
                tracer=Tracer() if spec.collect_trace else NullTracer(),
                metrics=(
                    MetricsRegistry()
                    if spec.collect_metrics
                    else NullMetricsRegistry()
                ),
            )
        return cls(
            workload,
            engine,
            spec.factors,
            periods=spec.periods,
            observability=observability,
        )

    # -- execution --------------------------------------------------------------

    def run(self, verify: bool = True) -> BenchmarkResult:
        """Execute all periods; verify the last one against the plan."""
        self._deploy()
        last_period = 0
        for period in range(self.periods):
            self.run_period(period)
            last_period = period
        if verify:
            from repro.synth.verify import verify_workload

            verification = verify_workload(self.workload, last_period)
        else:
            verification = VerificationReport(checks=[], failures=[])
        return BenchmarkResult(
            factors=self.factors,
            periods=self.periods,
            records=list(self.monitor.records),
            metrics=self.monitor.metrics(),
            verification=verification,
            engine_name=self.engine.engine_name,
        )

    def _deploy(self) -> None:
        if not self.engine.deployed_ids:
            self.engine.deploy_all(self.workload.processes.values())

    def run_period(self, period: int) -> list[InstanceRecord]:
        """Uninitialize, replant, then run every round's E1 → E2 wave."""
        self._deploy()
        workload = self.workload
        plan = workload.plan(period)
        self.scenario.uninitialize()  # change feeds rebase with the truncate
        workload.populate(period)
        self.engine.reset_workers()
        records_before = len(self.engine.records)

        streams = workload.e1_streams()
        builders = {
            "orders": workload.order_message,
            "txns": workload.txn_message,
            "cust_updates": workload.customer_message,
        }
        for r, rnd in enumerate(plan.rounds):
            round_base = r * _ROUND_SPACING_TU
            scheduler = EventScheduler(VirtualClock())
            payloads = {
                "orders": rnd.orders,
                "txns": rnd.txns,
                "cust_updates": rnd.cust_updates,
            }
            for s, (process_id, source, kind) in enumerate(streams):
                rows = payloads[kind].get(source, ())
                for k, row in enumerate(rows):
                    deadline_tu = (
                        round_base
                        + _MESSAGE_SPACING_TU * k
                        + _STREAM_OFFSET_TU * s
                    )
                    scheduler.push(
                        self.factors.tu_to_engine(deadline_tu),
                        (process_id, kind, row),
                    )
            frontier = self.factors.tu_to_engine(round_base)
            for event in scheduler.drain():
                process_id, kind, row = event.payload
                record = self._handle(
                    ProcessEvent(
                        process_id,
                        deadline=event.deadline,
                        message=builders[kind](row),
                        period=period,
                        stream="E1",
                    )
                )
                frontier = max(frontier, record.completion)
            # The dependent wave, serialized at the completion frontier.
            for process_id in workload.e2_processes():
                record = self._handle(
                    ProcessEvent(
                        process_id,
                        deadline=frontier,
                        message=None,
                        period=period,
                        stream="E2",
                    )
                )
                frontier = max(frontier, record.completion)

        new_records = self.engine.records[records_before:]
        self.monitor.absorb(new_records)
        metrics = self.observability.metrics
        if metrics.enabled:
            metrics.counter(
                "client_periods_total", help="Benchmark periods executed"
            ).inc()
        return new_records

    def _handle(self, event: ProcessEvent) -> InstanceRecord:
        """Dispatch one event; failures become error records, like the
        classic client's boundary."""
        try:
            return self.engine.handle_event(event)
        except Exception as exc:
            return self.engine.record_failure(event, exc)
