"""Atomic file replacement for the CLI artifacts and the fixture cache."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8, line endings as given) through a
    uniquely named temp file in the same directory, created with mode
    ``0o666 & ~umask``. Readers never see a torn file, concurrent writers
    never share a temp file, and the temp file is removed if the write or the
    rename fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
