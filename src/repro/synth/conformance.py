"""Differential engine conformance for synthesized workloads.

Every generated scenario must mean the same thing to every engine: the
bridge runs one resolved spec through all registered engines and asserts

* identical landscape digests (the integrated state, byte for byte);
* identical per-process instance counts and status multisets;
* exact verification passing everywhere.

Run fingerprints are *not* compared across engines — they embed the
engine name and per-engine cost profiles by design.  Fingerprint
identity is asserted per engine across repeated runs (determinism), by
the property tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.storage.digest import landscape_digest
from repro.synth.spec import SynthSpec


@dataclass
class EngineOutcome:
    """What one engine produced for the shared spec."""

    engine: str
    digest: str
    instance_statuses: dict[str, "Counter"]
    verification_ok: bool
    failures: list[str]


@dataclass
class ConformanceReport:
    """Cross-engine comparison of one synthesized scenario."""

    spec: SynthSpec
    outcomes: list[EngineOutcome] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"conformance {status}: spec {self.spec.to_string() or '<defaults>'} "
            f"across {len(self.outcomes)} engines"
        ]
        lines.extend(f"  FAIL {p}" for p in self.problems)
        return "\n".join(lines)


def run_differential(
    spec: SynthSpec,
    f: int = 0,
    periods: int = 1,
    time: float = 1.0,
    engines: list[str] | None = None,
) -> ConformanceReport:
    """Run ``spec`` on every engine and compare the outcomes."""
    from repro.engine import ENGINES
    from repro.parallel.spec import RunSpec, client_from_spec

    spec.assert_valid()
    if spec.seed is None:
        raise ValueError("run_differential needs a resolved spec")
    names = engines if engines is not None else sorted(ENGINES)
    run = RunSpec(
        synth=spec.to_string(),
        seed=spec.seed,
        distribution=f,
        periods=periods,
        time=time,
    )
    report = ConformanceReport(spec=spec)
    for name in names:
        client = client_from_spec(run.with_engine(name))
        result = client.run(verify=True)
        statuses: dict[str, Counter] = {}
        for record in result.records:
            statuses.setdefault(record.process_id, Counter())[
                record.status
            ] += 1
        report.outcomes.append(
            EngineOutcome(
                engine=name,
                digest=landscape_digest(
                    client.scenario.all_databases.values()
                ),
                instance_statuses=statuses,
                verification_ok=result.verification.ok,
                failures=list(result.verification.failures),
            )
        )

    baseline = report.outcomes[0]
    for outcome in report.outcomes:
        if not outcome.verification_ok:
            report.problems.append(
                f"{outcome.engine}: verification failed: "
                + "; ".join(outcome.failures[:3])
            )
        if outcome.digest != baseline.digest:
            report.problems.append(
                f"{outcome.engine}: landscape digest {outcome.digest[:12]} "
                f"!= {baseline.engine}'s {baseline.digest[:12]}"
            )
        if outcome.instance_statuses != baseline.instance_statuses:
            diff = {
                pid
                for pid in (
                    set(outcome.instance_statuses)
                    | set(baseline.instance_statuses)
                )
                if outcome.instance_statuses.get(pid)
                != baseline.instance_statuses.get(pid)
            }
            report.problems.append(
                f"{outcome.engine}: instance statuses diverge from "
                f"{baseline.engine} for {sorted(diff)}"
            )
    return report
