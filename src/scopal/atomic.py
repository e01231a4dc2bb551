"""Atomic artifact writes, and the one writer and reader of JSON-lines artifacts."""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator


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


def record_line(record: dict) -> str:
    """A record as its line of JSON, keys sorted."""
    return json.dumps(record, sort_keys=True) + "\n"


def write_lines(path, lines: Iterable[str]) -> None:
    """`lines`, each a `record_line`, written atomically."""
    with atomic_open(path) as fh:
        fh.writelines(lines)


def write_records(path, records: Iterable[dict]) -> None:
    """Each record as its `record_line`, written atomically."""
    write_lines(path, map(record_line, records))


def read_records(path, parse: Callable[[dict], object], kind: str) -> Iterator:
    """`parse` of each non-blank line's JSON object, lazily; a ValueError naming the
    path and line if a line does not hold a `kind` record."""
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                try:
                    record = parse(json.loads(line))
                except (AttributeError, KeyError, TypeError, ValueError) as err:
                    raise ValueError(f"{path}:{line_no}: corrupt {kind} record: {err}") from err
                yield record
