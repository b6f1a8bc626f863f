"""The 2-D parameter-sweep grid.

A thin, dependency-free container for a contour-plot grid: the Fig. 10
energy-ratio plane and the Figs. 3/4 energy surface hold their values
in one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import AnalysisError

__all__ = ["Sweep2D", "sweep_2d"]


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
