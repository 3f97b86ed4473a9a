"""The command-line front-end."""

import json

import pytest

from repro.cli import main
from repro.parallel import RunSpec, client_from_spec


class TestProcessesCommand:
    def test_lists_table_1(self, capsys):
        assert main(["processes"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 16):
            assert f"P{i:02d}" in out
        assert "P14_S1" in out

    def test_shows_event_types(self, capsys):
        main(["processes"])
        out = capsys.readouterr().out
        assert "E1" in out and "E2" in out


class TestValidateCommand:
    def test_all_valid(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "INVALID" not in out
        assert out.count("ok") >= 19


class TestScheduleCommand:
    def test_prints_series(self, capsys):
        assert main(["schedule", "--period", "0", "--datasize", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "P04: n=  56" in out
        assert "P10" in out

    def test_time_factor_compresses(self, capsys):
        main(["schedule", "--period", "0", "--time", "2"])
        out = capsys.readouterr().out
        assert "1000.0" in out  # P08's 2000 tu shift at t=2


class TestRunCommand:
    def test_run_one_period(self, capsys, tmp_path):
        plot = tmp_path / "plot.svg"
        report = tmp_path / "report.txt"
        status = main([
            "run", "--periods", "1", "--quiet", "--seed", "3",
            "--plot", str(plot), "--report", str(report),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "verification OK" in out
        assert "NAVG+" in out
        assert plot.read_text().startswith("<svg")
        assert "P04" in report.read_text()

    def test_run_federated(self, capsys):
        status = main([
            "run", "--periods", "1", "--engine", "federated", "--quiet",
        ])
        assert status == 0
        assert "federated" in capsys.readouterr().out

    def test_ascii_plot_by_default(self, capsys):
        main(["run", "--periods", "1"])
        out = capsys.readouterr().out
        assert "DIPBench Performance Plot" in out

    def test_bad_distribution_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--distribution", "9"])

    @pytest.mark.parametrize("argv, message", [
        (["--periods", "0"], "periods must be in [1, 100]: 0"),
        (["--periods", "1", "--datasize", "0"], "datasize must be > 0: 0.0"),
    ])
    def test_domain_error_exits_2_without_traceback(
        self, capsys, argv, message
    ):
        assert main(["run", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_run_trace_and_metrics_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        status = main([
            "run", "--periods", "1", "--datasize", "0.02", "--quiet",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert "engine_instances_total" in metrics.read_text()


class TestTraceCommand:
    def test_writes_chrome_trace(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        status = main([
            "trace", "--periods", "1", "--datasize", "0.02",
            "--out", str(out_file),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "spans" in out
        doc = json.loads(out_file.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "run" in names

    def test_writes_jsonl(self, tmp_path):
        out_file = tmp_path / "spans.jsonl"
        status = main([
            "trace", "--periods", "1", "--datasize", "0.02",
            "--out", str(out_file), "--format", "jsonl",
        ])
        assert status == 0
        rows = [json.loads(line)
                for line in out_file.read_text().splitlines()]
        assert any(r["kind"] == "instance" for r in rows)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fly"])


class TestFaultsCommand:
    def test_valid_spec_described(self, capsys):
        assert main(["faults", "examples/faults_basic.json"]) == 0
        out = capsys.readouterr().out
        assert "basic-degraded-run" in out
        assert "partition" in out and "heal" in out
        assert "spec is valid" in out

    def test_invalid_reference_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "name": "bad", "seed": 1,
            "events": [{"at": 1.0, "kind": "outage", "service": "ghost"}],
        }))
        assert main(["faults", str(spec)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "unknown service 'ghost'" in out

    def test_unreadable_spec_rejected(self, capsys, tmp_path):
        assert main(["faults", str(tmp_path / "missing.json")]) == 1
        assert "cannot load" in capsys.readouterr().err


class TestRunWithFaults:
    def test_degraded_run_reports_resilience(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        status = main([
            "run", "--periods", "2", "--quiet",
            "--faults", "examples/faults_basic.json",
            "--metrics-out", str(metrics),
        ])
        assert status == 0  # clean final period: verification passes
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "recovered=3" in out
        assert "dead letters:" in out
        assert "XsdValidationError" in out
        prom = metrics.read_text()
        assert "resilience_recovered_total" in prom
        assert "resilience_dead_letters_total" in prom

    def test_bad_spec_file_exits_2(self, capsys, tmp_path):
        assert main([
            "run", "--periods", "1", "--quiet",
            "--faults", str(tmp_path / "missing.json"),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_unknown_target_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "name": "bad", "seed": 1,
            "events": [{"at": 1.0, "kind": "partition",
                        "src": "XX", "dst": "IS"}],
        }))
        assert main([
            "run", "--periods", "1", "--quiet", "--faults", str(spec),
        ]) == 2
        assert "invalid fault spec" in capsys.readouterr().err


class TestRunDurability:
    def test_run_with_durability_prints_storage_line(self, capsys):
        status = main([
            "run", "--periods", "1", "--quiet",
            "--durability", "snapshot+wal", "--checkpoint-every", "50",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "durability: mode=snapshot+wal" in out
        assert "recovery: none" in out

    def test_crash_spec_without_durability_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "crash.json"
        spec.write_text(json.dumps({
            "name": "crash", "seed": 7,
            "events": [{"at": 300.0, "kind": "crash",
                        "point": "commit", "period": 0}],
        }))
        assert main([
            "run", "--periods", "1", "--quiet", "--faults", str(spec),
        ]) == 2
        assert "invalid fault spec" in capsys.readouterr().err


class TestSweepCommand:
    def test_parallel_sweep_matches_serial_byte_for_byte(
        self, capsys, tmp_path
    ):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        base = ["sweep", "--grid", "d=0.02", "--seeds", "11,12", "--quiet"]
        assert main(base + ["--workers", "1", "--out", str(serial_out)]) == 0
        assert main(
            base + ["--workers", "4", "--out", str(parallel_out)]
        ) == 0
        assert serial_out.read_bytes() == parallel_out.read_bytes()
        out = capsys.readouterr().out
        fingerprints = {
            line.split()[-1]
            for line in out.splitlines()
            if line.startswith("sweep fingerprint:")
        }
        assert len(fingerprints) == 1

    def test_table_lists_every_grid_point(self, capsys):
        status = main([
            "sweep", "--grid", "d=0.02", "--seeds", "11",
            "--engines", "interpreter,federated",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "interpreter" in out and "federated" in out
        assert "2 grid points" in out

    def test_merged_metrics_written(self, tmp_path):
        metrics = tmp_path / "sweep.prom"
        assert main([
            "sweep", "--grid", "d=0.02", "--seeds", "11,12",
            "--workers", "2", "--quiet", "--metrics-out", str(metrics),
        ]) == 0
        assert "engine_instances_total" in metrics.read_text()

    def test_json_document_shape(self, tmp_path):
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", "--grid", "d=0.02", "--seeds", "11", "--quiet",
            "--out", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["fingerprint"]
        (point,) = doc["points"]
        assert point["status"] == "ok"
        assert point["verification_ok"] is True
        assert point["navg_plus"]

    def test_bad_grid_axis_exits_2(self, capsys):
        assert main(["sweep", "--grid", "q=1"]) == 2
        assert "bad grid axis" in capsys.readouterr().err

    def test_unknown_engine_exits_2(self, capsys):
        assert main(["sweep", "--engines", "quantum"]) == 2
        assert "unknown engines" in capsys.readouterr().err

    def test_missing_fault_spec_exits_2(self, capsys, tmp_path):
        assert main([
            "sweep", "--faults", str(tmp_path / "missing.json"),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestRecoverCommand:
    def test_converges_and_exits_zero(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        status = main([
            "recover", "--engine", "interpreter",
            "--crash-at", "300", "--metrics-out", str(metrics),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "recoveries=1" in out
        assert "records byte-identical: yes" in out
        assert "landscape digest equal: yes" in out
        assert "CONVERGED" in out
        text = metrics.read_text()
        assert "storage_recoveries_total 1" in text

    def test_crash_outside_period_diverges(self, capsys):
        # Far beyond the period horizon: the fault never fires, no
        # recovery happens, and the command refuses to claim convergence.
        status = main(["recover", "--crash-at", "999999"])
        assert status == 1
        assert "no recovery" in capsys.readouterr().out

    def test_example_crash_spec_loads(self, capsys):
        status = main([
            "recover", "--faults", "examples/faults_crash.json",
        ])
        assert status == 0
        assert "CONVERGED" in capsys.readouterr().out

    def test_parallel_jobs_still_converge(self, capsys):
        status = main([
            "recover", "--crash-at", "300", "--jobs", "2",
            "--datasize", "0.02",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert "CONVERGED" in out


class TestParseTenantPolicies:
    def test_full_syntax(self):
        from repro.cli import _parse_tenant_policies

        policies = _parse_tenant_policies(
            ["acme:rate=20:burst=5:active=4", "globex"]
        )
        assert policies["acme"].rate == 20.0
        assert policies["acme"].burst == 5.0
        assert policies["acme"].max_active == 4
        assert policies["globex"].name == "globex"

    def test_unknown_knob_rejected(self):
        from repro.cli import _parse_tenant_policies
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="unknown tenant policy knob"):
            _parse_tenant_policies(["acme:speed=9"])

    def test_bad_value_rejected(self):
        from repro.cli import _parse_tenant_policies
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="bad value"):
            _parse_tenant_policies(["acme:rate=fast"])


class TestServeCommand:
    def test_bad_tenant_policy_exits_2(self, capsys):
        assert main(["serve", "--tenant", "acme:speed=9"]) == 2
        assert "unknown tenant policy knob" in capsys.readouterr().err


class TestStormCommand:
    def test_small_selfhosted_storm(self, capsys, tmp_path):
        out = tmp_path / "reports" / "storm.json"
        status = main([
            "storm", "--clients", "40", "--tenants", "acme,globex",
            "--rate", "2000", "--seed", "7", "--distinct", "1",
            "--datasize", "0.02", "--slots", "2", "--out", str(out),
        ])
        assert status == 0
        printed = capsys.readouterr().out
        assert "accounting: 40 submitted" in printed
        doc = json.loads(out.read_text())
        assert doc["submitted"] == 40
        assert doc["submitted"] == (
            doc["accepted"] + doc["rejected"] + doc["errors"]
        )
        assert set(doc["tenants"]) == {"acme", "globex"}

    def test_host_without_port_exits_2(self, capsys):
        assert main(["storm", "--host", "127.0.0.1"]) == 2
        assert "--host needs --port" in capsys.readouterr().err

    def test_bad_model_knob_exits_2(self, capsys):
        assert main(["storm", "--clients", "0"]) == 2
        assert "client" in capsys.readouterr().err


def _operator_rows(out: str) -> list[str]:
    """The per-operator rows of a ``repro profile`` report."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("operator"))
    end = lines.index("fast-path counters:")
    return lines[start + 1:end]


def _format_operator(op_kind: str, entry: dict) -> str:
    return (
        f"{op_kind:<16}{int(entry['count']):>8}{entry['cost']:>12.2f}"
        f"{entry['work']:>12.1f}{entry['communication']:>10.1f}"
        f"{int(entry['vectorized']):>8}{int(entry['fallbacks']):>8}"
    )


_CLASSIC_ROWS = [
    # operator, count, cost, work, comm
    ("invoke", 289, "756.69", "6153.0", "635.5"),
    ("translation", 73, "337.26", "6694.0", "0.0"),
    ("assign", 151, "69.71", "151.0", "0.0"),
    ("convert", 8, "63.80", "1276.0", "0.0"),
    ("signal", 78, "38.38", "78.0", "0.0"),
    ("receive", 68, "33.97", "68.0", "0.0"),
    ("join", 11, "23.42", "2172.0", "0.0"),
    ("validate_rows", 4, "18.16", "908.0", "0.0"),
    ("projection", 57, "16.85", "1177.0", "0.0"),
    ("validate", 22, "16.60", "276.0", "6.0"),
    ("union", 8, "16.56", "828.0", "0.0"),
    ("selection", 13, "8.72", "516.0", "0.0"),
    ("extract_field", 25, "1.31", "25.0", "0.0"),
]


def _rows(table, vectorized: dict[str, int]) -> list[str]:
    return [
        f"{op:<16}{count:>8}{cost:>12}{work:>12}{comm:>10}"
        f"{vectorized.get(op, 0):>8}{0:>8}"
        for op, count, cost, work, comm in table
    ]


class TestProfileCommand:
    """``repro profile``: header, operator rows and ``--out`` JSON pinned
    at d=0.02, one period, seed 42 on the interpreter."""

    def _profile(self, tmp_path, capsys, *extra):
        out_file = tmp_path / "profile.json"
        status = main([
            "profile", "--datasize", "0.02", "--periods", "1",
            *extra, "--out", str(out_file),
        ])
        assert status == 0
        out = capsys.readouterr().out
        return out, json.loads(out_file.read_text())

    def _check_json_matches_report(self, out, doc, path, rows):
        from repro.db import vector

        assert doc["engine"] == "mtm-interpreter"
        assert doc["factors"] == {
            "datasize": 0.02, "time": 1.0, "distribution": 0,
        }
        assert doc["periods"] == 1
        assert doc["path"] == path
        assert doc["batch_threshold"] == vector.batch_threshold()
        ordered = sorted(
            doc["operators"],
            key=lambda k: doc["operators"][k]["cost"],
            reverse=True,
        )
        assert [
            _format_operator(k, doc["operators"][k]) for k in ordered
        ] == rows
        counters = out.split("fast-path counters:\n", 1)[1].splitlines()
        printed = {
            line.split()[0]: int(line.split()[1])
            for line in counters
            if line.startswith("  ")
        }
        assert doc["fastpath"] == printed

    def test_classic(self, tmp_path, capsys):
        out, doc = self._profile(tmp_path, capsys)
        assert out.splitlines()[0] == (
            "engine=mtm-interpreter d=0.02 t=1.0 periods=1 path=fast"
        )
        rows = _rows(
            _CLASSIC_ROWS, {"invoke": 1, "join": 7, "selection": 2}
        )
        assert _operator_rows(out) == rows
        self._check_json_matches_report(out, doc, "fast", rows)
        assert "workload" not in doc
        fp = doc["fastpath"]
        assert (fp["rows_copied"], fp["rows_shared"]) == (3049, 8291)
        assert (fp["index_joins"], fp["hash_joins"], fp["pushdowns"]) == (
            5, 4, 23,
        )
        assert (fp["vector_filters"], fp["vector_joins"]) == (2, 8)

    def test_naive(self, tmp_path, capsys):
        out, doc = self._profile(tmp_path, capsys, "--naive")
        assert out.splitlines()[0] == (
            "engine=mtm-interpreter d=0.02 t=1.0 periods=1 path=naive"
        )
        rows = _rows(_CLASSIC_ROWS, {})
        assert _operator_rows(out) == rows
        self._check_json_matches_report(out, doc, "naive", rows)
        fp = doc["fastpath"]
        assert fp["rows_copied"] == 11767
        assert fp["rows_shared"] == fp["pushdowns"] == fp["expr_compiled"] == 0

    def test_synth(self, tmp_path, capsys):
        knobs = "sources=2,families=cdc+scd"
        out, doc = self._profile(tmp_path, capsys, "--synth", knobs)
        lines = out.splitlines()
        assert lines[0] == (
            "engine=mtm-interpreter d=0.02 t=1.0 periods=1 path=fast "
            f"workload={knobs}"
        )
        assert lines[3].split() == [
            "cdc", "4", "16", "0", "30.75", "3.81", "2.35", "0.71",
        ]
        assert lines[4].split() == [
            "scd", "3", "14", "0", "30.49", "3.95", "3.23", "1.09",
        ]
        rows = _rows(
            [
                ("invoke", 44, "94.66", "164.0", "91.4"),
                ("receive", 24, "12.00", "24.0", "0.0"),
                ("convert", 24, "7.80", "156.0", "0.0"),
                ("union", 2, "1.52", "76.0", "0.0"),
                ("projection", 32, "1.48", "74.0", "0.0"),
                ("selection", 2, "0.60", "30.0", "0.0"),
            ],
            {},
        )
        assert _operator_rows(out) == rows
        self._check_json_matches_report(out, doc, "fast", rows)
        assert doc["workload"] == knobs
        assert (doc["fastpath"]["rows_copied"],
                doc["fastpath"]["rows_shared"]) == (110, 248)


_SYNTH_DIGEST = (
    "893c28b550af31a0753fdcdbcc968e194aeb0bda798a151dc275149ce601cc5f"
)
_SYNTH_SPEC_DIGEST = (
    "91fdd944f65e39dd24f8d5255a46621f9fba6a4e6031cb6b29eb3b59cfc80282"
)


class TestSynthRunCommand:
    """``repro synth run``: the default spec at seed 42, pinned."""

    def test_run_out(self, tmp_path, capsys):
        out_file = tmp_path / "run.json"
        assert main(["synth", "run", "--out", str(out_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "engine=mtm-interpreter spec=seed=42 f=0 periods=1"
        assert lines[1] == "instances=46 errors=0 landscape=893c28b550af"
        assert "verification OK: 23 checks" in lines
        doc = json.loads(out_file.read_text())
        spec = doc.pop("spec")
        assert spec["seed"] == 42 and spec["sources"] == 2
        assert doc == {
            "distribution": 0,
            "engine": "mtm-interpreter",
            "errors": 0,
            "failures": [],
            "instances": 46,
            "landscape_digest": _SYNTH_DIGEST,
            "manifest_digest": (
                "f3f09c27a8368782fc6c83ed8b6be64f"
                "42d2cf78866963dc26769bdaf33cf844"
            ),
            "periods": 1,
            "spec_digest": _SYNTH_SPEC_DIGEST,
            "verification_ok": True,
        }

    def test_conformance_out(self, tmp_path, capsys):
        out_file = tmp_path / "conformance.json"
        status = main([
            "synth", "run", "--conformance", "--out", str(out_file),
        ])
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "conformance OK: spec seed=42 across 4 engines"
        engines = ("eai", "etl", "federated", "interpreter")
        assert lines[1:5] == [
            f"  {name:<14} digest=893c28b550af verification=ok"
            for name in engines
        ]
        doc = json.loads(out_file.read_text())
        assert doc["spec_digest"] == _SYNTH_SPEC_DIGEST
        assert (doc["ok"], doc["problems"], doc["distribution"]) == (
            True, [], 0,
        )
        assert doc["engines"] == {
            name: {"digest": _SYNTH_DIGEST, "verification_ok": True}
            for name in engines
        }


class TestCliSpecParity:
    """CLI runs and direct ``client_from_spec`` runs of the same spec
    share one construction path, so their exports are byte-equal."""

    SPEC = RunSpec(
        datasize=0.02, periods=1, collect_trace=True, collect_metrics=True,
    )

    def _direct(self):
        client = client_from_spec(self.SPEC)
        client.run()
        return client.observability

    def test_run_trace_and_metrics_out(self, tmp_path, capsys):
        trace, metrics = tmp_path / "t.json", tmp_path / "m.prom"
        assert main([
            "run", "--periods", "1", "--datasize", "0.02", "--quiet",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        direct = self._direct()
        assert trace.read_text() == direct.chrome_trace()
        assert metrics.read_text() == direct.prometheus()

    def test_trace_jsonl(self, tmp_path, capsys):
        spans, metrics = tmp_path / "t.jsonl", tmp_path / "m.prom"
        assert main([
            "trace", "--periods", "1", "--datasize", "0.02",
            "--format", "jsonl", "--out", str(spans),
            "--metrics-out", str(metrics),
        ]) == 0
        direct = self._direct()
        assert spans.read_text() == direct.spans_jsonl()
        assert metrics.read_text() == direct.prometheus()
