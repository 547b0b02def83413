"""Training-data sources: a toy wave simulator and file ingestion.

The toy simulator is a closed-form damped oscillation standing in for an
expensive wave-elevation code. It is built so that every downstream check
has an analytic answer: the maximum elevation grows linearly with the
speed input, grows as the start position moves landward (more negative),
and the oscillation period lengthens with the spread-ratio input. Extra
input dimensions beyond the first three are ignored, which gives
sensitivity tests a knowingly inert parameter.
"""

from dataclasses import dataclass

import numpy as np

from .design import Design, DesignSpace
from .emulator import TrainingSet
from .errors import DataError
from .ioutil import fmt, parse_rows, read_table, write_csv


@dataclass(frozen=True)
class ToyWaveParams:
    """Closed-form toy wave: amplitude, envelope, and period knobs."""

    damping: float = 0.05
    base_period: float = 3.0
    period_per_spread: float = 0.8
    position_gain: float = 0.3
    speed_gain: float = 1.0

    def __post_init__(self):
        if self.damping <= 0 or self.base_period <= 0:
            raise ValueError("damping and base_period must be strictly positive")


DEFAULT_TOY = ToyWaveParams()


def toy_simulate(r, times, params: ToyWaveParams = DEFAULT_TOY) -> np.ndarray:
    """Deterministic toy elevation series at input (position, speed, spread).

    zeta(t) = speed * (1 + 0.3 * (-position) / 2)
              * (1 - exp(-t)) * exp(-damping * t)
              * sin(2 pi t / (base_period + 0.8 * spread))

    Starts at exactly zero, stays bounded by the amplitude factor, and is
    bitwise reproducible. Coordinates beyond the third are ignored.
    """
    r = np.asarray(r, dtype=float).ravel()
    if r.size < 3:
        raise ValueError(f"toy simulator needs at least 3 inputs, got {r.size}")
    position, speed, spread = r[0], r[1], r[2]
    t = np.asarray(times, dtype=float).ravel()
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    amplitude = params.speed_gain * speed * (1.0 + params.position_gain * (-position) / 2.0)
    period = params.base_period + params.period_per_spread * spread
    envelope = (1.0 - np.exp(-t)) * np.exp(-params.damping * t)
    return amplitude * envelope * np.sin(2.0 * np.pi * t / period)


def toy_training_set(
    design: Design, time_grid, params: ToyWaveParams = DEFAULT_TOY
) -> TrainingSet:
    """Evaluate the toy simulator over a whole design."""
    grid = np.asarray(time_grid, dtype=float).ravel()
    outputs = np.vstack([toy_simulate(p, grid, params) for p in design.points])
    return TrainingSet(design=design, time_grid=grid, outputs=outputs)


# -- training-file round trip -------------------------------------------


def write_training_csv(train: TrainingSet, path: str, meta: dict | None = None) -> None:
    """Write a training set: input columns, then one ``t=<value>`` column per
    grid time; one row per design point. UTF-8, dot decimal, LF newlines."""
    header = list(train.design.space.names) + [f"t={fmt(t)}" for t in train.time_grid]
    write_csv(path, header, np.hstack([train.design.points, train.outputs]), meta)


def ingest_runs(path: str, space: DesignSpace) -> TrainingSet:
    """Read simulator runs from the training CSV format.

    The header's leading cells name the input dimensions (they must match
    ``space``); the remaining ``t=...`` cells define the time grid, which is
    taken as authoritative (no resampling). Every time and cell must be a
    finite number, and no two rows may share a design point (the input
    correlation matrix would be singular); errors carry the offending
    row/column location, rows 0-based after the header.
    """
    header, rows, _ = read_table(path)
    if not header:
        raise DataError(f"{path}: empty file")
    k = space.k
    if tuple(header[:k]) != space.names:
        raise DataError(
            f"{path}: header starts with {header[:k]!r}, expected input columns "
            f"{list(space.names)!r}"
        )
    time_labels = header[k:]
    if not time_labels:
        raise DataError(f"{path}: no time-grid columns (expected headers like t=0.0)")
    grid = np.empty(len(time_labels))
    for j, label in enumerate(time_labels):
        try:
            grid[j] = float(label[2:]) if label.startswith("t=") else np.nan
        except ValueError:
            grid[j] = np.nan
        if not np.isfinite(grid[j]):
            raise DataError(f"{path}: column {k + j} header {label!r} is not a time "
                            f"t=<finite number>")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DataError(f"{path}: time grid is not strictly increasing")
    if not rows:
        raise DataError(f"{path}: no data rows")

    values = parse_rows(path, header, rows)
    # contiguous copies: numpy reduces a strided view in another order
    points = np.ascontiguousarray(values[:, :k])
    outputs = np.ascontiguousarray(values[:, k:])
    first_row = {}
    for i, point in enumerate(map(tuple, points)):
        first = first_row.setdefault(point, i)
        if first != i:
            raise DataError(f"{path}: rows {first} and {i} repeat the design point "
                            f"({', '.join(map(fmt, point))})")
    design = Design(points=points, unit_points=space.to_unit(points), space=space)
    return TrainingSet(design=design, time_grid=grid, outputs=outputs)

