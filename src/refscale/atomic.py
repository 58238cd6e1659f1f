"""Atomic file replacement for the CLI artifacts and the fixture cache."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Union


def atomic_write(path, text: Union[str, Iterable[str]]) -> None:
    """Replace ``path`` with ``text``, a string or an iterable of string chunks
    written in turn (UTF-8, line endings as given), through a uniquely named
    temp file in the same directory, created with mode ``0o666 & ~umask``.
    Readers never see a torn file, concurrent writers never share a temp file,
    and the temp file is removed if the write, the iterable or the rename
    fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
