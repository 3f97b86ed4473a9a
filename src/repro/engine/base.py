"""Engine base: events, instance records, the worker queue model.

An engine receives *process-initiating events* (the serialized streams of
Section V): for event type E1 an inbound message with a deadline, for E2 a
bare timer.  Execution happens in virtual time against a bounded worker
pool — arrivals that outpace service build a queue, instances wait, and
the management cost of later arrivals grows, which is how the benchmark's
time scale factor t translates into measurable pressure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import (
    AttemptTimeout,
    DeploymentError,
    EngineCrashed,
    EngineError,
    TransientEngineFault,
)
from repro.db import fastpath, vector
from repro.db.expressions import Expression
from repro.engine.costs import CostBreakdown, CostParameters
from repro.mtm.context import ExecutionContext
from repro.mtm.message import Message
from repro.mtm.process import EventType, ProcessType, assert_valid_definition
from repro.observability import (
    ExecutionProfile,
    Observability,
    OperatorObservation,
    QUEUE_WAIT_BUCKETS,
)
from repro.services.registry import ServiceRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database
    from repro.resilience.policy import ResilienceContext
    from repro.storage.manager import StorageManager


@dataclass(frozen=True)
class ProcessEvent:
    """One process-initiating event from a benchmark stream.

    ``deadline`` is the scheduled execution timestamp in tu (Table II);
    ``message`` is present exactly for event type E1.
    """

    process_id: str
    deadline: float
    message: Message | None = None
    period: int = 0
    stream: str = ""

    @property
    def event_type(self) -> EventType:
        return EventType.E1_MESSAGE if self.message is not None else EventType.E2_SCHEDULE


@dataclass
class InstanceRecord:
    """Execution record of one process instance.

    ``arrival`` is the schedule deadline, ``start`` when a worker picked
    the instance up, ``completion`` when it finished.  ``costs`` holds the
    modeled C_c/C_m/C_p; ``costs.total`` is the normalized cost NC(p) the
    metric consumes (independent of queue wait, hence comparable across
    concurrency levels — the normalization Section V calls for).
    """

    instance_id: int
    process_id: str
    period: int
    stream: str
    arrival: float
    start: float
    completion: float
    costs: CostBreakdown
    status: str = "ok"
    error: str = ""
    queue_length_at_arrival: int = 0
    operators_executed: int = 0
    validation_failures: int = 0
    #: Structured failure class (exception type name) so dead-letter
    #: routing and tests can match without parsing ``error`` strings.
    error_type: str = ""
    #: XSD/validation violations carried by the failing exception
    #: (P10-style failures keep their detail through dead-lettering).
    error_violations: tuple[str, ...] = ()
    #: Execution attempts made (1 = no retries).
    attempts: int = 1
    #: Exception class names seen across failed attempts, in order.
    fault_types: tuple[str, ...] = ()

    @property
    def elapsed(self) -> float:
        return self.completion - self.arrival

    @property
    def wait(self) -> float:
        return self.start - self.arrival

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def recovered(self) -> bool:
        """Completed successfully but only after at least one retry."""
        return self.status == "ok" and self.attempts > 1

    @property
    def normalized_cost(self) -> float:
        return self.costs.total


class IntegrationEngine:
    """Base engine: deployment, the worker queue, instance bookkeeping.

    Subclasses implement :meth:`_execute_instance` which runs the process
    logic and returns (costs, operators_executed, validation_failures).
    """

    #: Human-readable engine kind for plots/reports.
    engine_name = "abstract"

    def __init__(
        self,
        registry: ServiceRegistry,
        host: str = "IS",
        costs: CostParameters | None = None,
        worker_count: int = 4,
        parallel_efficiency: float = 1.0,
        observability: Observability | None = None,
        resilience: "ResilienceContext | None" = None,
    ):
        if worker_count < 1:
            raise EngineError(f"worker count must be >= 1, got {worker_count}")
        if not 0.0 <= parallel_efficiency <= 1.0:
            raise EngineError(
                f"parallel efficiency must be in [0, 1]: {parallel_efficiency}"
            )
        self.registry = registry
        self.host = host
        #: Where E1 messages physically come from: the applications
        #: (Vienna, San Diego, MDM, Hongkong) all live on the external
        #: systems host, so inbound delivery is a network transfer too.
        self.message_source_host = "ES"
        self.cost_parameters = costs or CostParameters()
        self.worker_count = worker_count
        self.parallel_efficiency = parallel_efficiency
        self._processes: dict[str, ProcessType] = {}
        self._next_instance_id = 1
        #: Completion times of busy workers (virtual-time worker pool).
        self._worker_free: list[float] = []
        #: Completion times of every admitted instance still in the
        #: system (in service *or* queued) — the load signal feeding the
        #: management-cost model.
        self._in_system: list[float] = []
        #: Load beyond this many queued instances no longer increases
        #: per-instance management cost (admission control keeps the
        #: self-management effect bounded).
        self.management_queue_cap = 16
        self.records: list[InstanceRecord] = []
        #: Execution profile of the most recent ``_execute_instance``,
        #: captured by subclasses via :meth:`_capture_profile`.
        self._last_profile: ExecutionProfile | None = None
        #: Fast-path counter snapshot taken when profiling was armed,
        #: so _capture_profile can attribute kernel work per instance.
        self._profile_fastpath_base = fastpath.STATS.copy()
        #: Retry/backoff + fault-injection context (attached by the
        #: BenchmarkClient, like observability); None = fail-fast, the
        #: exact pre-resilience behavior.
        self.resilience = resilience
        #: 1-based attempt number of the execution currently in flight,
        #: exposed to operators through the execution context.
        self._current_attempt = 1
        #: Durability layer (attached by the BenchmarkClient via
        #: StorageManager.attach_engine); None = no durability, the
        #: exact pre-storage behavior.
        self.storage: "StorageManager | None" = None
        self.observability = observability

    # -- observability ---------------------------------------------------------

    @property
    def observability(self) -> Observability:
        return self._observability

    @observability.setter
    def observability(self, obs: Observability | None) -> None:
        """Attach (or detach with None) the run's observability bundle.

        The BenchmarkClient assigns this after construction, so metric
        handles are re-bound here rather than in ``__init__``.
        """
        self._observability = obs if obs is not None else Observability.disabled()
        metrics = self._observability.metrics
        self._m_queue_wait = metrics.histogram(
            "engine_queue_wait",
            buckets=QUEUE_WAIT_BUCKETS,
            help="Instance queue wait (start - arrival) in engine units",
        )
        self._m_operator_cost = metrics.histogram(
            "engine_operator_cost",
            help="Priced cost of one leaf operator in engine units",
        )
        self._m_operators = metrics.counter(
            "engine_operators_total", help="Leaf operators executed"
        )

    def _enable_profiling(self, context: ExecutionContext) -> None:
        """Arm the context's operator/network logs when observing."""
        if self._observability.enabled:
            context.operator_log = []
            context.network_log = []
            self._profile_fastpath_base = fastpath.STATS.copy()

    def _capture_profile(self, context: ExecutionContext) -> None:
        """Stash the context's logs for the span emission in handle_event."""
        if context.operator_log is not None:
            delta = fastpath.STATS - self._profile_fastpath_base
            counters = {
                key: value
                for key, value in delta.snapshot().items()
                if value
            }
            self._last_profile = ExecutionProfile(
                operators=context.operator_log,
                network_calls=context.network_log or [],
                fastpath=counters,
            )

    # -- deployment -----------------------------------------------------------

    def deploy(self, process: ProcessType) -> None:
        """Validate and install one process type."""
        if process.process_id in self._processes:
            raise DeploymentError(
                f"{self.engine_name}: {process.process_id} already deployed"
            )
        self._processes[process.process_id] = process
        # Subprocess references may point at processes deployed later, so
        # re-validate the whole set.
        known = set(self._processes)
        for deployed in self._processes.values():
            unknown = [s for s in deployed.subprocess_ids() if s not in known]
            if not unknown:
                assert_valid_definition(deployed)

    def _warm_plan_cache(self, process: ProcessType) -> None:
        """Compile every expression of a process tree at deploy time.

        Both engines call this from deploy so the compiled-closure cache
        (see ``repro.db.expressions.compile_expression``) is warmed once
        per plan — the interpreter's "plan cache", and the federated
        engine's analogue of preparing trigger/procedure bodies —
        instead of the first instance of each type paying compilation.
        Predicates are additionally lowered to columnar mask kernels
        (``repro.db.vector.warm_mask``) so the batch path never compiles
        mid-run either.  A no-op on the naive path.
        """
        if not fastpath.is_enabled():
            return

        def warm(expression: Expression) -> None:
            expression.compile()
            vector.warm_mask(expression)

        for node in process.root.iter_tree():
            for value in vars(node).values():
                if isinstance(value, Expression):
                    warm(value)
                elif isinstance(value, Mapping):
                    for item in value.values():
                        if isinstance(item, Expression):
                            warm(item)
                elif isinstance(value, (list, tuple)):
                    for item in value:
                        if isinstance(item, Expression):
                            warm(item)
                        else:  # e.g. SwitchCase guards
                            guard = getattr(item, "guard", None)
                            if isinstance(guard, Expression):
                                warm(guard)
                else:  # e.g. Invoke request builders carrying a predicate
                    embedded = getattr(value, "predicate", None)
                    if isinstance(embedded, Expression):
                        warm(embedded)

    def deploy_all(self, processes: Iterable[ProcessType]) -> None:
        for process in processes:
            self.deploy(process)
        missing: list[str] = []
        for process in self._processes.values():
            missing.extend(
                s for s in process.subprocess_ids() if s not in self._processes
            )
        if missing:
            raise DeploymentError(
                f"{self.engine_name}: unresolved subprocesses {sorted(set(missing))}"
            )

    def process_type(self, process_id: str) -> ProcessType:
        try:
            return self._processes[process_id]
        except KeyError:
            raise DeploymentError(
                f"{self.engine_name}: process {process_id!r} not deployed"
            ) from None

    @property
    def deployed_ids(self) -> list[str]:
        return sorted(self._processes)

    # -- worker-pool model ---------------------------------------------------------

    def _queue_length(self, at_time: float) -> int:
        """Instances still in the system (in service or queued) at
        ``at_time``, capped at :attr:`management_queue_cap`.

        This is the load signal for the management-cost model: arrivals
        that outpace service pile up here, which is how "a shorter
        interval … reduces the time for self-management and thus reduces
        the performance of the system" becomes measurable.
        """
        while self._in_system and self._in_system[0] <= at_time:
            heapq.heappop(self._in_system)
        return min(len(self._in_system), self.management_queue_cap)

    def _admit(self, arrival: float, service_time: float) -> tuple[float, float]:
        """Admit one instance; returns (start, completion) in tu."""
        while self._worker_free and self._worker_free[0] <= arrival:
            heapq.heappop(self._worker_free)
        if len(self._worker_free) < self.worker_count:
            start = arrival
        else:
            start = heapq.heappop(self._worker_free)
        completion = start + service_time
        heapq.heappush(self._worker_free, completion)
        heapq.heappush(self._in_system, completion)
        return start, completion

    def reset_workers(self) -> None:
        """Clear the worker pool between benchmark periods."""
        self._worker_free.clear()
        self._in_system.clear()

    def _new_instance_id(self) -> int:
        instance_id = self._next_instance_id
        self._next_instance_id += 1
        return instance_id

    # -- durability hooks ----------------------------------------------------------

    def durable_databases(self) -> "list[Database]":
        """Engine-internal databases the durability layer must protect
        (the federated engine's catalog; empty for stateless engines)."""
        return []

    def note_catalog_reroute(self, routes: "dict[str, str]") -> None:
        """Cluster hook: the failover protocol repointed database routes
        (``db name -> new primary host``).  Routing metadata is volatile
        engine state — stateless engines ignore it; the federated engine
        records it in its catalog view."""

    def runtime_state(self) -> dict:
        """Volatile scheduling state, captured at each durable commit.

        Copies are plain lists (the heaps are already heap-ordered), so
        a stored state is immune to later engine mutation.
        """
        return {
            "worker_free": list(self._worker_free),
            "in_system": list(self._in_system),
            "next_instance_id": self._next_instance_id,
        }

    def restore_runtime_state(self, state: dict) -> None:
        """Adopt a previously captured :meth:`runtime_state`."""
        self._worker_free = list(state["worker_free"])
        heapq.heapify(self._worker_free)
        self._in_system = list(state["in_system"])
        heapq.heapify(self._in_system)
        self._next_instance_id = state["next_instance_id"]

    def crash(self) -> None:
        """Hard-kill: every volatile structure is lost.

        Deployments, instance records, the worker pool and id counters
        all vanish — exactly what :class:`RecoveryManager` must rebuild.
        The durability layer (if attached) drops its uncommitted buffers;
        durable logs and checkpoints survive by definition.
        """
        self._processes.clear()
        self.records = []
        self.reset_workers()
        self._next_instance_id = 1
        self._last_profile = None
        self._current_attempt = 1
        if self.storage is not None:
            self.storage.on_crash(self)

    # -- event handling ----------------------------------------------------------

    def handle_event(self, event: ProcessEvent) -> InstanceRecord:
        """Execute one process-initiating event; returns its record.

        With a resilience context attached, transient failures retry
        with exponential backoff in virtual time and non-retryable or
        exhausted failures are dead-lettered instead of ending the
        instance as a bare error; without one, behavior is the classic
        single-attempt fail-fast path.
        """
        process = self.process_type(event.process_id)
        if process.event_type is not event.event_type:
            raise EngineError(
                f"{event.process_id} is {process.event_type.value}-initiated "
                f"but received a {event.event_type.value} event"
            )
        res = self.resilience
        attempt = 0
        attempt_time = event.deadline
        first_failure: float | None = None
        fault_types: list[str] = []
        while True:
            attempt += 1
            self._current_attempt = attempt
            if res is not None:
                # Apply due fault events (partitions heal, endpoints come
                # back ...) and move the breaker clock before each attempt.
                res.at(attempt_time)
                if res.injector is not None and res.injector.take_crash(
                    "arrival"
                ):
                    self.crash()
                    raise EngineCrashed(
                        f"{self.engine_name} crashed before admitting "
                        f"{event.process_id}",
                        at=attempt_time,
                    )
            # An armed commit-point crash is consumed *before* execution:
            # the instance runs, then dies with its effects uncommitted.
            # The pristine message copy lets the client re-dispatch the
            # instance with exactly the original input after recovery.
            crash_at_commit = (
                res is not None
                and res.injector is not None
                and res.injector.take_crash("commit")
            )
            pristine = (
                event.message.copy()
                if crash_at_commit and event.message is not None
                else None
            )
            queue_length = self._queue_length(attempt_time)
            status, error, error_type = "ok", "", ""
            violations: tuple[str, ...] = ()
            inbound_cost = 0.0
            self._last_profile = None
            try:
                self._raise_injected_faults(event, res)
                costs, operators, failures = self._execute_instance(
                    process, event, queue_length
                )
                if crash_at_commit:
                    self.crash()
                    raise EngineCrashed(
                        f"{self.engine_name} lost an in-flight "
                        f"{event.process_id} instance at commit",
                        pristine_message=pristine,
                        at=attempt_time,
                    )
                if (
                    res is not None
                    and res.policy.timeout is not None
                    and costs.total > res.policy.timeout
                ):
                    raise AttemptTimeout(
                        f"{event.process_id}: attempt cost {costs.total:.2f} "
                        f"exceeded the {res.policy.timeout:.2f} budget"
                    )
                # Inbound message delivery is itself a network transfer
                # (C_c includes waiting for external systems, Section V).
                if event.message is not None and self.registry.network.has_host(
                    self.message_source_host
                ):
                    inbound_cost = self.registry.network.transfer_cost(
                        self.message_source_host, self.host,
                        event.message.size_units,
                    )
                    costs.communication += inbound_cost
                break
            except EngineCrashed:
                # Not an instance failure: the engine itself is gone.
                # Propagate past retry/dead-letter handling to the
                # benchmark client, which owns durable recovery.
                raise
            except Exception as exc:  # instance failure, not engine crash
                costs = CostBreakdown(
                    management=self.cost_parameters.management_cost(queue_length)
                )
                operators, failures = 0, 0
                error_type = type(exc).__name__
                error = f"{error_type}: {exc}"
                violations = tuple(getattr(exc, "violations", ()) or ())
                inbound_cost = 0.0
                self._last_profile = None
                if res is None:
                    status = "error"
                    break
                fault_types.append(error_type)
                if first_failure is None:
                    first_failure = attempt_time
                if res.retryable(exc) and attempt < res.policy.max_attempts:
                    delay = res.next_delay(attempt)
                    res.observe_retry(event.process_id, delay)
                    attempt_time += delay
                    continue
                status = "dead-letter"
                break
        self._current_attempt = 1
        start, completion = self._admit(
            attempt_time, costs.management + costs.processing + costs.communication
        )
        record = InstanceRecord(
            instance_id=self._new_instance_id(),
            process_id=event.process_id,
            period=event.period,
            stream=event.stream,
            arrival=event.deadline,
            start=start,
            completion=completion,
            costs=costs,
            status=status,
            error=error,
            queue_length_at_arrival=queue_length,
            operators_executed=operators,
            validation_failures=failures,
            error_type=error_type,
            error_violations=violations,
            attempts=attempt,
            fault_types=tuple(fault_types),
        )
        self.records.append(record)
        if self.storage is not None:
            self.storage.commit_instance(self, record)
        if res is not None:
            mttr = (
                attempt_time - first_failure
                if record.recovered and first_failure is not None
                else None
            )
            res.account(record, mttr)
        if self._observability.enabled:
            self._observe_instance(record, self._last_profile, inbound_cost)
        return record

    def _raise_injected_faults(
        self, event: ProcessEvent, res: "ResilienceContext | None"
    ) -> None:
        """Surface injected faults targeting this instance, if any.

        Transient engine faults raise :class:`TransientEngineFault`
        (retryable); a corrupted inbound message is validated against
        its declared XSD and raises a real ``XsdValidationError``
        (poison, dead-lettered).
        """
        if res is None or res.injector is None:
            return
        if res.injector.take_engine_fault(event.process_id):
            raise TransientEngineFault(
                f"injected transient engine fault for {event.process_id}"
            )
        if event.message is not None:
            schema = res.injector.corruption_schema(event.message)
            if schema is not None:
                schema.assert_valid(event.message.xml())

    def record_failure(self, event: ProcessEvent, exc: BaseException) -> InstanceRecord:
        """Record an event the engine could not execute at all.

        The client boundary uses this when :meth:`handle_event` itself
        raises (deployment/config errors): the period continues with an
        error record instead of aborting the whole run.
        """
        record = InstanceRecord(
            instance_id=self._new_instance_id(),
            process_id=event.process_id,
            period=event.period,
            stream=event.stream,
            arrival=event.deadline,
            start=event.deadline,
            completion=event.deadline,
            costs=CostBreakdown(),
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            error_violations=tuple(getattr(exc, "violations", ()) or ()),
        )
        self.records.append(record)
        if self.storage is not None:
            self.storage.commit_instance(self, record)
        if self._observability.enabled:
            self._observability.metrics.counter(
                "engine_instances_total",
                help="Process instances executed",
                labels={
                    "engine": self.engine_name,
                    "process": record.process_id,
                    "status": "error",
                },
            ).inc()
        return record

    def _execute_instance(
        self, process: ProcessType, event: ProcessEvent, queue_length: int
    ) -> tuple[CostBreakdown, int, int]:
        raise NotImplementedError

    # -- span/metric emission ------------------------------------------------------

    def _operator_weight(self, observation: OperatorObservation) -> float:
        """Priced cost of one leaf operator (processing + communication)."""
        try:
            priced = self.cost_parameters.processing_cost(observation.work)
        except EngineError:  # unknown work kinds from custom operators
            priced = 0.0
        return priced + observation.communication

    def _observe_instance(
        self,
        record: InstanceRecord,
        profile: ExecutionProfile | None,
        inbound_cost: float,
    ) -> None:
        """Emit the instance span tree plus run-wide metrics.

        Child spans are laid out inside the instance's service window
        proportionally to each leaf operator's priced cost, so the
        virtual-time layout is deterministic and internally consistent
        (children nest inside parents, durations sum to the window).
        """
        obs = self._observability
        operators = profile.operators if profile is not None else []
        weights = [self._operator_weight(op) for op in operators]

        metrics = obs.metrics
        if metrics.enabled:
            metrics.counter(
                "engine_instances_total",
                help="Process instances executed",
                labels={
                    "engine": self.engine_name,
                    "process": record.process_id,
                    "status": record.status,
                },
            ).inc()
            self._m_queue_wait.observe(record.wait)
            if record.operators_executed:
                self._m_operators.inc(record.operators_executed)
            for weight in weights:
                self._m_operator_cost.observe(weight)

        tracer = obs.tracer
        if not tracer.enabled:
            return
        span = tracer.begin(
            f"{record.process_id}#{record.instance_id}",
            start=record.arrival,
            kind="instance",
            attributes={
                "process": record.process_id,
                "period": record.period,
                "stream": record.stream,
                "engine": self.engine_name,
                "queue_length": record.queue_length_at_arrival,
                "operators": record.operators_executed,
                "cost": record.normalized_cost,
            },
        )
        # Only annotate degraded instances: fault-free runs keep
        # byte-identical exports with or without the resilience layer.
        if record.attempts > 1:
            span.set_attribute("attempts", record.attempts)
        if record.error_type:
            span.set_attribute("error_type", record.error_type)
        if profile is not None:
            for key, value in profile.fastpath.items():
                span.set_attribute(f"db_{key}", value)
        if record.start > record.arrival:
            tracer.record(
                "queue-wait", record.arrival, record.start,
                kind="queue", parent=span,
            )
        cursor = record.start
        if record.costs.management > 0:
            tracer.record(
                "management", cursor, cursor + record.costs.management,
                kind="management", parent=span,
            )
            cursor += record.costs.management
        if inbound_cost > 0:
            tracer.record(
                f"deliver:{self.message_source_host}->{self.host}",
                cursor, cursor + inbound_cost,
                kind="network", parent=span,
                attributes={"cost": inbound_cost},
            )
            cursor += inbound_cost
        window = record.completion - cursor
        if operators and window > 0:
            total = sum(weights)
            if total <= 0:
                weights = [1.0] * len(operators)
                total = float(len(operators))
            for observation, weight in zip(operators, weights):
                share = window * (weight / total)
                op_span = tracer.record(
                    f"{observation.kind}:{observation.name}",
                    cursor, cursor + share,
                    kind="operator", parent=span,
                    attributes={
                        "communication": observation.communication,
                        **{f"work_{k}": v for k, v in observation.work.items()},
                        **{f"db_{k}": v for k, v in observation.fastpath.items()},
                    },
                )
                calls = observation.network_calls
                if calls and share > 0:
                    call_total = sum(c.cost for c in calls)
                    call_cursor = cursor
                    for call in calls:
                        call_share = (
                            share * (call.cost / call_total)
                            if call_total > 0
                            else share / len(calls)
                        )
                        tracer.record(
                            f"call:{call.service}",
                            call_cursor, call_cursor + call_share,
                            kind="network", parent=op_span,
                            attributes={
                                "operation": call.operation,
                                "cost": call.cost,
                                "payload_units": call.payload_units,
                            },
                        )
                        call_cursor += call_share
                cursor += share
        span.end(record.completion, status=record.status, error=record.error)

    # -- statistics ---------------------------------------------------------------

    def records_for(self, process_id: str) -> list[InstanceRecord]:
        return [r for r in self.records if r.process_id == process_id]

    def clear_records(self) -> None:
        self.records.clear()

    def error_records(self) -> list[InstanceRecord]:
        return [r for r in self.records if r.status != "ok"]

    def recovered_records(self) -> list[InstanceRecord]:
        """Instances that completed only after at least one retry."""
        return [r for r in self.records if r.recovered]

    def dead_letter_records(self) -> list[InstanceRecord]:
        return [r for r in self.records if r.status == "dead-letter"]
