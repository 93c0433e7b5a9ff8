"""Atomic artifact writes: no reader ever sees a truncated file.

The campaign harness spends hours inside runs whose workers (and whose
parent) can be SIGKILLed mid-write — that is the paper's whole
methodology, stress-to-crash.  Every durable artifact this library
produces (trace CSVs, run manifests, event streams, dashboards,
campaign results) therefore goes through one shared
write-temp-then-rename helper:

* the payload is written to a temporary file **in the destination
  directory** (same filesystem, so the final rename cannot degrade to a
  copy),
* the handle is flushed and fsynced,
* :func:`os.replace` moves it over the destination in a single atomic
  step.

A crash before the rename leaves the previous version of the file (or
no file) plus at most one ``.tmp`` orphan — never a half-written
artifact.  A crash *with* an exception unlinks the temporary file on
the way out, so failed writes leave nothing behind at all.

:func:`atomic_write` is the primitive; :func:`atomic_write_text` and
:func:`atomic_write_json` cover the two common payload shapes.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import IO, Any, Iterator

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "atomic_write_json",
    "fsync_handle",
]


def fsync_handle(handle: IO) -> None:
    """Flush ``handle`` and fsync it to disk (best effort on odd FDs).

    Used by append-only writers (checkpoint journals) that need each
    record durable the moment it is written, not only at close.
    """
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except (OSError, ValueError):  # pragma: no cover - non-file handles
        pass


@contextlib.contextmanager
def atomic_write(
    path: str | os.PathLike,
    *,
    mode: str = "w",
    newline: str | None = None,
    fsync: bool = True,
) -> Iterator[IO]:
    """Context manager yielding a handle whose contents replace ``path``
    atomically on success.

    The temporary file lives next to the destination (``.<name>.<rand>.tmp``
    in the same directory) so :func:`os.replace` is a same-filesystem
    rename.  On any exception from the body the temporary file is
    removed and ``path`` is left untouched; on success the rename is the
    single visible step, so concurrent readers (and a SIGKILL at any
    instant) see either the old complete file or the new complete file.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=parent, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, newline=newline) as handle:
            yield handle
            if fsync:
                fsync_handle(handle)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> str:
    """Atomically replace ``path`` with ``text``; returns the path."""
    with atomic_write(path) as handle:
        handle.write(text)
    return os.fspath(path)


def atomic_write_json(
    path: str | os.PathLike,
    payload: Any,
    *,
    indent: int | None = 2,
    sort_keys: bool = False,
    default=None,
) -> str:
    """Atomically replace ``path`` with ``payload`` as JSON; returns the path.

    The file always ends with a newline, matching the artifact style
    used across the repo (diff-friendly, ``cat``-friendly).
    """
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=indent, sort_keys=sort_keys,
                  default=default)
        handle.write("\n")
    return os.fspath(path)
