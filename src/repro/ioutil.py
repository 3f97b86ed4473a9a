"""Atomic report writing: missing parents created, no torn files.

Every artifact the toolsuite writes (sweep JSON, Prometheus text,
traces, plots, metric reports, storm reports) goes through here: the content is fully serialized
*before* the destination is touched, written to a temporary file in the
destination directory, then moved into place with :func:`os.replace` —
atomic on POSIX and Windows alike.  A crash, a full disk or a
serialization bug leaves either the previous file intact or no file,
never half a report; and ``--out reports/deep/sweep.json`` just works
without a manual ``mkdir -p``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


def write_text_atomic(path: str | Path, content: str) -> Path:
    """Atomically replace ``path`` with ``content``, creating parents.

    A device or pipe (``/dev/null``, ``/dev/stdout``) is written in
    place: replacing it would swap the special file for a regular one.
    """
    target = Path(path)
    if target.exists() and not target.is_file():
        target.write_text(content, encoding="utf-8")
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=target.parent,
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:  # pragma: no cover - already gone
            pass
        raise
    return target


def write_json_atomic(path: str | Path, doc: Any, indent: int = 2) -> Path:
    """Atomically write ``doc`` as sorted, newline-terminated JSON.

    Serialization happens *before* any filesystem mutation: an
    unserializable document raises ``TypeError`` with the previous file
    — if any — untouched.
    """
    content = json.dumps(doc, indent=indent, sort_keys=True) + "\n"
    return write_text_atomic(path, content)
