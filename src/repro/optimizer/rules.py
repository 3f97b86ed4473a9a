"""The rewrite rules.

Rules operate on Sequence step lists and rebuild the tree bottom-up;
the original process object is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.db.expressions import Expression
from repro.mtm.blocks import Fork, Sequence, Subprocess, Switch, SwitchCase
from repro.mtm.operators import Invoke, Join, Operator, Projection, Selection, Validate
from repro.mtm.process import ProcessType
from repro.scenario.processes import helpers

#: Index catalog for route_joins_through_indexes: table -> {index: columns}.
#: Build it from ``Database.list_indexes()`` plus the primary keys.
IndexCatalog = Mapping[str, Mapping[str, tuple[str, ...]]]


@dataclass
class OptimizationReport:
    """What the optimizer changed, for logging and the ablation bench."""

    selections_pushed: int = 0
    projections_merged: int = 0
    forks_introduced: int = 0
    joins_routed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def total_rewrites(self) -> int:
        return (
            self.selections_pushed
            + self.projections_merged
            + self.forks_introduced
            + self.joins_routed
        )


def _is_plain_query(op: Operator) -> bool:
    return (
        isinstance(op, Invoke)
        and getattr(op.request_builder, "kind", "") == "query"
        and getattr(op.request_builder, "predicate", None) is None
    )


# ------------------------------------------------------------ selection pushdown

def _push_down_in_steps(steps: list[Operator], report: OptimizationReport) -> list[Operator]:
    out: list[Operator] = []
    index = 0
    while index < len(steps):
        op = steps[index]
        nxt = steps[index + 1] if index + 1 < len(steps) else None
        if (
            _is_plain_query(op)
            and isinstance(nxt, Selection)
            and op.output == nxt.input
        ):
            builder = helpers.query_request(
                op.request_builder.table,
                predicate=nxt.predicate,
                columns=op.request_builder.columns,
            )
            fused = Invoke(
                op.service,
                builder,
                output=nxt.output,
                work_kind=op.work_kind,
                name=f"{op.name}_pushed",
            )
            out.append(fused)
            report.selections_pushed += 1
            report.notes.append(
                f"pushed {nxt.name} into extract {op.name} on {op.service}"
            )
            index += 2
            continue
        out.append(op)
        index += 1
    return out


# ------------------------------------------------------------- projection merge

def _merge_projections_in_steps(
    steps: list[Operator], report: OptimizationReport
) -> list[Operator]:
    out: list[Operator] = []
    index = 0
    while index < len(steps):
        op = steps[index]
        nxt = steps[index + 1] if index + 1 < len(steps) else None
        if (
            isinstance(op, Projection)
            and isinstance(nxt, Projection)
            and op.output == nxt.input
            # Composition through expressions would need substitution;
            # merge only pure-rename outer projections.
            and all(not isinstance(src, Expression) for src in nxt.mapping.values())
        ):
            composed = {
                out_name: op.mapping[in_name]
                for out_name, in_name in nxt.mapping.items()
            }
            out.append(
                Projection(
                    op.input,
                    nxt.output,
                    composed,
                    name=f"{op.name}+{nxt.name}",
                )
            )
            report.projections_merged += 1
            index += 2
            continue
        out.append(op)
        index += 1
    return out


# ----------------------------------------------------------- index join routing

def _route_joins_in_steps(
    steps: list[Operator], report: OptimizationReport, catalog: IndexCatalog
) -> list[Operator]:
    """Annotate Joins whose right input is an index-covered table extract.

    A plain-query Invoke materializes the table as a table-backed
    relation; when the table has a pk or secondary index over exactly
    the join-key columns, ``Relation.join`` answers the probe from that
    index.  The rewrite records the routing decision on the Join
    (``index_hint``) so plans can be compared in ablations and
    ``repro profile`` output — the kernel behaves the same either way.
    """
    extracts: dict[str, str] = {}
    out: list[Operator] = []
    for op in steps:
        if _is_plain_query(op):
            extracts[op.output] = op.request_builder.table
        elif isinstance(op, Join) and op.right in extracts:
            table = extracts[op.right]
            right_cols = frozenset(right for _, right in op.on)
            for index_name, index_cols in catalog.get(table, {}).items():
                if frozenset(index_cols) == right_cols:
                    routed = Join(
                        op.left,
                        op.right,
                        op.output,
                        op.on,
                        how=op.how,
                        name=op.name,
                    )
                    routed.index_hint = f"{table}.{index_name}"
                    op = routed
                    report.joins_routed += 1
                    report.notes.append(
                        f"routed join {op.name or op.output} through "
                        f"{routed.index_hint}"
                    )
                    break
        out.append(op)
    return out


# -------------------------------------------------------- extract parallelization

def _op_reads_writes(op: Operator) -> tuple[set[str], set[str]]:
    from repro.mtm.process import _reads_of, _writes_of

    reads: set[str] = set()
    writes: set[str] = set()
    for node in op.iter_tree():
        reads.update(_reads_of(node))
        writes.update(_writes_of(node))
    return reads, writes


def _parallelize_in_steps(
    steps: list[Operator], report: OptimizationReport, min_group: int = 2
) -> list[Operator]:
    """Group maximal runs of pairwise-independent steps into Forks.

    Two steps are independent when neither reads or writes what the other
    writes.  Terminal Signals and control operators are left in place.
    """
    out: list[Operator] = []
    run: list[tuple[Operator, set[str], set[str]]] = []

    def flush() -> None:
        if len(run) >= min_group:
            out.append(
                Fork([op for op, _, _ in run], name="parallelized_extracts")
            )
            report.forks_introduced += 1
            report.notes.append(
                f"parallelized {len(run)} independent steps into a fork"
            )
        else:
            out.extend(op for op, _, _ in run)
        run.clear()

    for op in steps:
        if isinstance(op, (Fork, Switch, Subprocess, Validate)):
            flush()
            out.append(op)
            continue
        reads, writes = _op_reads_writes(op)
        independent = all(
            writes.isdisjoint(other_writes)
            and reads.isdisjoint(other_writes)
            and other_reads.isdisjoint(writes)
            for _, other_reads, other_writes in run
        )
        if independent:
            run.append((op, reads, writes))
        else:
            flush()
            run.append((op, reads, writes))
    flush()
    return out


# ------------------------------------------------------------------ tree walking

def _rewrite_tree(
    op: Operator,
    report: OptimizationReport,
    pushdown: bool,
    merge: bool,
    parallelize: bool,
    route_catalog: IndexCatalog | None = None,
) -> Operator:
    if isinstance(op, Sequence):
        steps = [
            _rewrite_tree(step, report, pushdown, merge, parallelize, route_catalog)
            for step in op.steps
        ]
        if pushdown:
            steps = _push_down_in_steps(steps, report)
        if merge:
            steps = _merge_projections_in_steps(steps, report)
        if route_catalog is not None:
            steps = _route_joins_in_steps(steps, report, route_catalog)
        if parallelize:
            steps = _parallelize_in_steps(steps, report)
        return Sequence(steps, name=op.name)
    if isinstance(op, Switch):
        cases = [
            SwitchCase(
                case.guard,
                _rewrite_tree(
                    case.body, report, pushdown, merge, parallelize, route_catalog
                ),
                case.label,
            )
            for case in op.cases
        ]
        otherwise = (
            _rewrite_tree(
                op.otherwise, report, pushdown, merge, parallelize, route_catalog
            )
            if op.otherwise is not None
            else None
        )
        return Switch(cases, otherwise, name=op.name)
    if isinstance(op, Fork):
        return Fork(
            [
                _rewrite_tree(
                    branch, report, pushdown, merge, parallelize, route_catalog
                )
                for branch in op.branches
            ],
            name=op.name,
        )
    return op


def push_down_selections(process: ProcessType) -> tuple[ProcessType, OptimizationReport]:
    """Apply only the selection-pushdown rule."""
    return optimize_process(process, pushdown=True, merge=False, parallelize=False)


def merge_projections(process: ProcessType) -> tuple[ProcessType, OptimizationReport]:
    """Apply only the projection-merge rule."""
    return optimize_process(process, pushdown=False, merge=True, parallelize=False)


def parallelize_extracts(process: ProcessType) -> tuple[ProcessType, OptimizationReport]:
    """Apply only the extract-parallelization rule."""
    return optimize_process(process, pushdown=False, merge=False, parallelize=True)


def route_joins_through_indexes(
    process: ProcessType, catalog: IndexCatalog
) -> tuple[ProcessType, OptimizationReport]:
    """Apply only the index join-routing rule against ``catalog``."""
    return optimize_process(
        process,
        pushdown=False,
        merge=False,
        parallelize=False,
        route_catalog=catalog,
    )


def optimize_process(
    process: ProcessType,
    pushdown: bool = True,
    merge: bool = True,
    parallelize: bool = False,
    route_catalog: IndexCatalog | None = None,
) -> tuple[ProcessType, OptimizationReport]:
    """Rewrite one process; returns (new process, report).

    Parallelization is off by default: it changes the engine's pricing
    model (fork branches cost max instead of sum) and is meant for the
    dedicated ablation rather than blanket use.  Join routing runs only
    when an index catalog is supplied (see :data:`IndexCatalog`).
    """
    report = OptimizationReport()
    new_root = _rewrite_tree(
        process.root, report, pushdown, merge, parallelize, route_catalog
    )
    optimized = ProcessType(
        process.process_id,
        process.group,
        process.description,
        process.event_type,
        new_root,
        subprocess_only=process.subprocess_only,
    )
    return optimized, report
