"""Self-tests of the benchmark.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS_DOC = json.loads((HERE / "layers.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
BATCH = ("classic_bulk", "synth_many_small")


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int) -> dict:
    """The result line of one short benchmark run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


class MetricNames(unittest.TestCase):
    def test_printed_names_are_the_declared_names(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            declared = [m["name"] for m in DECLARED[kind]]
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, 42, trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(declared))
                    for name, metric in result["metrics"].items():
                        unit = next(m["unit"] for m in DECLARED[kind]
                                    if m["name"] == name)
                        self.assertEqual(metric["unit"], unit)

    def test_layers_doc_covers_each_per_layer_metric_once(self):
        documented = [
            name for group in LAYERS_DOC["per_layer"]
            for name in group["metrics"]
        ]
        self.assertEqual(sorted(documented),
                         sorted(m["name"] for m in DECLARED["per_layer"]))
        self.assertEqual(sorted(LAYERS_DOC["workloads"]), sorted(WORKLOADS))
        end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
        for group in LAYERS_DOC["per_layer"]:
            self.assertLessEqual(set(group["moves"]), end_to_end)


class LayerSplit(unittest.TestCase):
    def test_self_times_and_unattributed_sum_to_traced_run_s(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                got = values(run(workload, 42, 1))
                parts = [v for name, v in got.items()
                         if name.endswith(".self_s")]
                total = sum(parts) + got["client.unattributed_s"]
                self.assertAlmostEqual(total, got["trace.run_s"], places=9)

    def test_predicted_contrast_between_batch_workloads(self):
        classic = values(run("classic_bulk", 42, 1))
        synth = values(run("synth_many_small", 42, 1))
        for layer in ("xmlkit.transform", "xmlkit.validate",
                      "toolsuite.initializer"):
            self.assertGreater(classic[f"{layer}.calls"], 0)
            self.assertEqual(synth[f"{layer}.calls"], 0)
        self.assertGreater(synth["db.update.self_s"],
                           classic["db.update.self_s"])

        def engine_share(m):
            return (m["engine.handle_event.self_s"]
                    + m["mtm.execute.self_s"]) / m["trace.run_s"]

        self.assertGreater(engine_share(synth), engine_share(classic))

    def test_storm_hit_ratio_and_no_refusals(self):
        got = values(run("serve_storm", 42, 1))
        self.assertGreater(got["serve.cache_hit_ratio"], 0.55)
        self.assertLess(got["serve.cache_hit_ratio"], 0.8)
        self.assertEqual(got["serve.rejected"], 0)


class Seeds(unittest.TestCase):
    def test_second_seed_passes_verification(self):
        for workload in BATCH:
            with self.subTest(workload=workload):
                result = run(workload, 43, 0)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)


class TracerRestores(unittest.TestCase):
    def test_wrappers_never_outlive_the_traced_block(self):
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        try:
            import workloads
            from tracing import LayerTracer
        finally:
            del sys.path[:2]
        targets = workloads.batch_targets()
        before = [vars(owner)[attr] for _, owner, attr in targets]
        tracer = LayerTracer(targets)
        with tracer:
            wrapped = [vars(owner)[attr] for _, owner, attr in targets]
        after = [vars(owner)[attr] for _, owner, attr in targets]
        self.assertTrue(all(a is not b for a, b in zip(wrapped, before)))
        self.assertTrue(all(a is b for a, b in zip(after, before)))


if __name__ == "__main__":
    unittest.main()
