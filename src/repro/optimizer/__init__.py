"""Rule-based optimization of MTM processes (the paper's outlook).

Section IV notes: "we explicitly point out that the modeled processes are
suboptimal.  This leaves enough space for optimizations as described in
[22]" (the authors' *Towards self-optimization of message transformation
processes*).  This package implements three of those rewrite classes so
the ablation benchmarks can quantify what an optimizing integration
system would gain on the very same workload:

* **selection pushdown** — an extract-then-filter pair (P05/P06's full
  table scan followed by the location Selection) becomes a filtered
  extract, shrinking both the transfer and the processed rows;
* **projection merge** — adjacent Projections compose into one pass;
* **extract parallelization** — independent extract+load pipelines in a
  Sequence (P03's three sources) are regrouped into a Fork, letting the
  engine price them as concurrent work;
* **index join routing** — Joins whose right input is a table extract
  covered by a pk/secondary index are annotated with the index the
  relational kernel's fast path will probe (``Join.index_hint``).

All rewrites are *semantics-preserving*: the optimized process produces
the same target-system state (pinned by tests that run both variants).
"""

from repro.optimizer.rules import (
    IndexCatalog,
    OptimizationReport,
    merge_projections,
    optimize_process,
    parallelize_extracts,
    push_down_selections,
    route_joins_through_indexes,
)

__all__ = [
    "IndexCatalog",
    "OptimizationReport",
    "optimize_process",
    "push_down_selections",
    "merge_projections",
    "parallelize_extracts",
    "route_joins_through_indexes",
]
