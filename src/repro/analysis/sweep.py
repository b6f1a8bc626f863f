"""Generic parameter-sweep containers.

Thin, dependency-free structures the benchmarks use to hold the data
series behind each figure: a 1-D sweep is a figure curve, a 2-D sweep
is a contour-plot grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

__all__ = ["Sweep1D", "Sweep2D", "sweep_1d", "sweep_2d"]


@dataclass(frozen=True)
class Sweep1D:
    """One curve: ``y = f(x)`` sampled over a grid."""

    x_name: str
    y_name: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise AnalysisError("xs and ys must have equal length")
        if not self.xs:
            raise AnalysisError("sweep is empty")

    def argmin(self) -> Tuple[float, float]:
        """(x, y) of the minimum sample."""
        index = min(range(len(self.ys)), key=self.ys.__getitem__)
        return self.xs[index], self.ys[index]

    def argmax(self) -> Tuple[float, float]:
        """(x, y) of the maximum sample."""
        index = max(range(len(self.ys)), key=self.ys.__getitem__)
        return self.xs[index], self.ys[index]

    def is_monotone(self, increasing: bool = True) -> bool:
        """Whether the samples are sorted along y."""
        ordered = sorted(self.ys, reverse=not increasing)
        return list(self.ys) == ordered

    def has_interior_minimum(self) -> bool:
        """True when the minimum is not at either end (a U-shape)."""
        index = min(range(len(self.ys)), key=self.ys.__getitem__)
        return 0 < index < len(self.ys) - 1

    def rows(self) -> List[Tuple[float, float]]:
        """(x, y) pairs for table rendering."""
        return list(zip(self.xs, self.ys))


@dataclass(frozen=True)
class Sweep2D:
    """A grid: ``z = f(x, y)``; ``None`` marks undefined cells."""

    x_name: str
    y_name: str
    z_name: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    zs: Tuple[Tuple[Optional[float], ...], ...]  # zs[i][j] = f(xs[i], ys[j])

    def __post_init__(self) -> None:
        if len(self.zs) != len(self.xs):
            raise AnalysisError("z grid rows must match xs")
        if any(len(row) != len(self.ys) for row in self.zs):
            raise AnalysisError("z grid columns must match ys")

    def at(self, i: int, j: int) -> Optional[float]:
        """Grid value at index (i, j)."""
        return self.zs[i][j]

    def defined_cells(self) -> int:
        """Number of non-None cells."""
        return sum(
            1 for row in self.zs for value in row if value is not None
        )


def sweep_1d(
    x_name: str,
    y_name: str,
    xs: Sequence[float],
    fn: Callable[[float], float],
) -> Sweep1D:
    """Sample ``fn`` over ``xs``."""
    if not xs:
        raise AnalysisError("empty sweep grid")
    values = tuple(float(fn(x)) for x in xs)
    return Sweep1D(
        x_name=x_name, y_name=y_name, xs=tuple(float(x) for x in xs),
        ys=values,
    )


def sweep_2d(
    x_name: str,
    y_name: str,
    z_name: str,
    xs: Sequence[float],
    ys: Sequence[float],
    fn: Callable[[float, float], Optional[float]],
) -> Sweep2D:
    """Sample ``fn`` over the cartesian grid; fn may return None."""
    if not xs or not ys:
        raise AnalysisError("empty sweep grid")
    rows = []
    for x in xs:
        row = []
        for y in ys:
            value = fn(x, y)
            row.append(None if value is None else float(value))
        rows.append(tuple(row))
    return Sweep2D(
        x_name=x_name,
        y_name=y_name,
        z_name=z_name,
        xs=tuple(float(x) for x in xs),
        ys=tuple(float(y) for y in ys),
        zs=tuple(rows),
    )
