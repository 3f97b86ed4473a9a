"""Atomic report writing (repro.ioutil, satellite of PR 6).

The contract: ``--out reports/deep/file.json`` works without a manual
``mkdir -p``, a crash or serialization failure never leaves a torn or
partial file behind, and the previous report survives a failed rewrite.
"""

import json
import os
import stat
import threading

import pytest

from repro.cli import main
from repro.ioutil import write_json_atomic, write_text_atomic


class TestWriteTextAtomic:
    def test_creates_missing_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "c" / "report.txt"
        write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old")
        write_text_atomic(target, "new")
        assert target.read_text() == "new"

    def test_no_stray_tmp_files(self, tmp_path):
        target = tmp_path / "report.txt"
        write_text_atomic(target, "content")
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    def test_special_file_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(pipe.read_text()), daemon=True
        )
        reader.start()
        write_text_atomic(pipe, "streamed\n")
        reader.join(timeout=10)
        assert received == ["streamed\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)


class TestWriteJsonAtomic:
    def test_sorted_newline_terminated(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"b": 2, "a": 1})
        text = target.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_unserializable_doc_keeps_previous_file(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"ok": True})
        with pytest.raises(TypeError):
            write_json_atomic(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_unserializable_doc_creates_nothing(self, tmp_path):
        target = tmp_path / "deep" / "doc.json"
        with pytest.raises(TypeError):
            write_json_atomic(target, {"bad": object()})
        assert not target.exists()


class TestSweepOutIsAtomic:
    """The CLI satellite: `repro sweep --out` through the atomic path."""

    def test_out_creates_parent_dirs(self, tmp_path, capsys):
        out = tmp_path / "reports" / "nested" / "sweep.json"
        metrics = tmp_path / "metrics" / "sweep.prom"
        status = main([
            "sweep", "--grid", "d=0.02", "--seeds", "11", "--quiet",
            "--out", str(out), "--metrics-out", str(metrics),
        ])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["points"][0]["status"] == "ok"
        assert "engine_instances_total" in metrics.read_text()

    def test_out_leaves_no_tmp_droppings(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        main(["sweep", "--grid", "d=0.02", "--seeds", "11", "--quiet",
              "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


class TestCliArtifactsCreateParents:
    """Every artifact flag writes through the atomic path: a missing
    parent directory is created instead of losing the finished run."""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (
                ["run", "--periods", "1", "--datasize", "0.02", "--quiet"],
                ["--report", "--plot", "--trace-out", "--metrics-out"],
            ),
            (
                ["trace", "--periods", "1", "--datasize", "0.02"],
                ["--out", "--metrics-out"],
            ),
            (
                ["profile", "--periods", "1", "--datasize", "0.02"],
                ["--out"],
            ),
            (
                ["recover", "--datasize", "0.02", "--crash-at", "300"],
                ["--metrics-out"],
            ),
        ],
        ids=["run", "trace", "profile", "recover"],
    )
    def test_nested_paths(self, tmp_path, capsys, argv, flags):
        targets = [
            tmp_path / "deep" / flag.lstrip("-") / "artifact" for flag in flags
        ]
        paths = [arg for pair in zip(flags, map(str, targets)) for arg in pair]
        assert main([*argv, *paths]) == 0
        for target in targets:
            assert target.read_text()
