"""The pipeline's file format: atomic writes and self-describing CSV tables.

Every artifact the pipeline writes is reproducible byte for byte: no
timestamps, floats serialized with ``repr`` (shortest round trip), and
provenance (seed, config hash, version) carried in ``#``-prefixed comment
lines that readers skip. :func:`write_csv` writes every CSV table and
:func:`parse_rows` turns the data rows of :func:`read_table` into numbers.
"""

import os
import tempfile

import numpy as np

from .errors import DataError


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same dir."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def interval_columns(level: float) -> tuple:
    """Column names of a credible interval at ``level``: ("lo95", "hi95") at 0.95."""
    percent = f"{100 * level:g}"
    return f"lo{percent}", f"hi{percent}"


def write_csv(path: str, header, rows, meta: dict | None = None) -> None:
    """Write a CSV table atomically: ``meta`` comment lines, header, rows.

    Number cells are written with :func:`fmt`; string cells as given (so
    an integer count is passed as ``str(n)``). UTF-8, LF line endings.
    """
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_table(path: str) -> tuple[list[str], list[list[str]], dict]:
    """Read a comma-separated file, skipping blank and ``#`` comment lines.

    Returns (header fields, data rows as string fields, parsed meta dict).
    """
    header: list[str] | None = None
    rows: list[list[str]] = []
    meta: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            fields = [f.strip() for f in line.split(",")]
            if header is None:
                header = fields
            else:
                rows.append(fields)
    if header is None:
        header = []
    return header, rows, meta


def parse_rows(path: str, header, rows) -> np.ndarray:
    """Data rows of :func:`read_table` as a finite float array.

    A row whose length differs from the header's, a cell that is not a
    number, or a non-finite cell raises :class:`DataError` naming the
    row (0-based, after the header) and the header's column name.
    """
    width = len(header)
    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: row {i}, column {header[j]}: bad value {cell!r}"
                ) from exc
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"{path}: non-finite value at row {i}, column {header[j]}")
    return values


def fmt(value: float) -> str:
    """Shortest exact decimal representation of a float."""
    return repr(float(value))
