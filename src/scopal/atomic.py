"""Atomic artifact writes: a reader sees the previous file or the complete new one."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path):
    """Open a text file for writing that replaces `path` only when the block completes.

    The data goes to a temporary file in the same directory, which
    ``os.replace`` renames over `path`; if the block raises, `path` is left
    as it was and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
