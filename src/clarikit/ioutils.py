"""Small I/O helpers: atomic file writes so consumers never see partial output."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable


def atomic_write_text(
    path: str | Path, text: str | Iterable[str], *more: tuple[str | Path, str | Iterable[str]]
) -> None:
    """Write text to path, and each ``(path, text)`` of ``more`` after it,
    via a temp file + rename in each path's directory.

    A text is a ``str`` or an iterable of ``str`` pieces, written as they
    are drawn, so a caller can format a file while it is written.

    Every temp file is written and fsynced before the first rename, and the
    renames run in order, so a failure while writing, an exception raised
    by an iterable included, leaves every path as it was: the previous file
    (or nothing), never a truncated one, and never a new file beside an old
    one.  No temp file is left behind.
    """
    temps: list[tuple[str, Path]] = []
    try:
        for target, content in ((path, text), *more):
            target = Path(target)
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
            temps.append((tmp, target))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines((content,) if isinstance(content, str) else content)
                fh.flush()
                os.fsync(fh.fileno())
        for tmp, target in temps:
            os.replace(tmp, target)
    except BaseException:
        # A temp file already renamed is gone, and its unlink fails quietly.
        for tmp, _ in temps:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def atomic_write_json(path: str | Path, obj: object) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")
