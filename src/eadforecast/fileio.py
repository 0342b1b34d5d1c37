"""Atomic file writes: temp file in the target directory, then rename; and
the one CSV table writer built on them."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def atomic_write_chunks(path, chunks) -> None:
    """Write the byte chunks of an iterable, in order, as the file path: into
    a new temp file beside it, renamed onto path once the last chunk is
    written. If anything raises, even the iterable, the temp file is removed
    and path is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}"
    # Mode 0o666 filtered by the umask, as a plain open() would create it
    # (tempfile.mkstemp would force 0o600). O_EXCL refuses an existing name.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, payload: bytes) -> None:
    atomic_write_chunks(path, (payload,))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _cell(value) -> str:
    # float() first: under numpy 2, repr(np.float64(x)) is "np.float64(x)".
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_table(path, columns, rows) -> None:
    """Write a CSV file of the header columns, then one line per row: a
    float cell as the repr of the float, which reads back bit for bit, any
    other cell as its str. Cells are not quoted, so none may hold a comma,
    a quote or a line break."""
    lines = [",".join(columns), *(",".join(map(_cell, row)) for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")
