"""The one CSV writer: a header line, then one line per row, values by ``str``."""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .atomic import atomic_open


def write_csv(path, columns: Sequence[str], rows: Iterable[Mapping]) -> None:
    """Write `rows` (mappings keyed by column name) under the `columns` header."""
    lines = [",".join(columns)]
    lines.extend(",".join(str(row[c]) for c in columns) for row in rows)
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
