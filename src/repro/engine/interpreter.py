"""The MTM interpreter engine: a dedicated integration system.

Executes operator trees directly against the service registry.  This is
the "integration system" flavour of the system under test — structurally
an EAI/ETL engine with a worker pool, a plan cache and native operators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.base import IntegrationEngine, ProcessEvent
from repro.engine.costs import CostBreakdown, INTERPRETER_COSTS, CostParameters
from repro.mtm.context import ExecutionContext
from repro.mtm.message import Message
from repro.mtm.process import ProcessType
from repro.observability import Observability
from repro.services.registry import ServiceRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.policy import ResilienceContext


class MtmInterpreterEngine(IntegrationEngine):
    """Directly interprets MTM process definitions.

    >>> # see examples/quickstart.py for an end-to-end run
    """

    engine_name = "mtm-interpreter"

    def __init__(
        self,
        registry: ServiceRegistry,
        host: str = "IS",
        costs: CostParameters | None = None,
        worker_count: int = 4,
        parallel_efficiency: float = 1.0,
        trace: bool = False,
        observability: Observability | None = None,
        resilience: "ResilienceContext | None" = None,
    ):
        super().__init__(
            registry,
            host,
            costs or INTERPRETER_COSTS,
            worker_count,
            parallel_efficiency,
            observability=observability,
            resilience=resilience,
        )
        self.trace = trace
        #: Trace logs of completed instances, when tracing is on.
        self.traces: list[tuple[str, list[str]]] = []

    def deploy(self, process: ProcessType) -> None:
        """Install one process and warm its plan cache.

        Compiling every expression of the plan at deploy time is the
        interpreter's plan cache: instances then run entirely on
        compiled closures (the relational kernel's fast path).
        """
        super().deploy(process)
        self._warm_plan_cache(process)

    def _new_context(self) -> ExecutionContext:
        context = ExecutionContext(
            self.registry,
            self.host,
            subprocess_runner=self._run_subprocess,
            trace=self.trace,
        )
        context.parallel_efficiency = self.parallel_efficiency
        context.attempt = self._current_attempt
        return context

    def _run_subprocess(
        self, process_id: str, message: Message | None, parent: ExecutionContext
    ) -> Message | None:
        """Run a child process inline; costs accumulate into the parent.

        Children execute with a fresh variable scope (their own ``__in``)
        but share the parent's cost accounting, so a P14 instance carries
        the full cost of its four subprocesses.
        """
        child_type = self.process_type(process_id)
        saved_variables = parent.variables
        parent.variables = {}
        if message is not None:
            parent.variables["__in"] = message
        try:
            child_type.root._run(parent)
            result = parent.variables.get("__out")
        finally:
            parent.variables = saved_variables
        return result

    def _execute_instance(
        self, process: ProcessType, event: ProcessEvent, queue_length: int
    ) -> tuple[CostBreakdown, int, int]:
        context = self._new_context()
        self._enable_profiling(context)
        if event.message is not None:
            context.set("__in", event.message)
        process.root._run(context)
        self._capture_profile(context)
        if self.trace:
            self.traces.append((process.process_id, context.trace_log))
        costs = CostBreakdown(
            communication=context.communication_cost,
            management=self.cost_parameters.management_cost(queue_length),
            processing=self.cost_parameters.processing_cost(context.work_units),
        )
        return costs, context.operators_executed, len(context.validation_failures)
