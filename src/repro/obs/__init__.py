"""Lightweight observability: counters, timers, and trace spans.

The toolkit's hot paths (cell characterization, switch-level
simulation, bisection/golden-section optimization, the surface and
Monte-Carlo kernels, the ISA interpreter's ``machine.instructions`` /
``machine.decode`` / instructions-per-second metrics) are instrumented
against this module.  The design constraint
is **zero overhead when disabled**: every instrumentation site guards
on the module-level :data:`ENABLED` flag — a single attribute read —
before doing any work, so production sweeps with metrics off pay
nothing measurable.

Metric model
------------
* **Counters** — monotonically increasing integers
  (``obs.incr("characterizer.hits")``).  Dotted names form families:
  ``characterizer.hits.delay`` is the per-family breakdown of
  ``characterizer.hits``.
* **Timers / spans** — ``with obs.span("optimizer.sweep"): ...``
  records call count and total wall-clock seconds per name.  Spans do
  not nest semantically; a nested span is simply a second independent
  name.
* **Gauges** — last-write-wins values for sizes and ratios
  (``obs.gauge("ring.corners", 12)``).

All state is process-global: every evaluation runs in the calling
process, so one registry sees the whole run.

Usage::

    from repro import obs

    obs.enable()
    ...  # run a sweep
    print(obs.format_summary())
    obs.dump_json("metrics.json")
    obs.disable()
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ENABLED",
    "enable",
    "disable",
    "is_enabled",
    "enabled_scope",
    "incr",
    "gauge",
    "observe_seconds",
    "span",
    "counter_value",
    "counters_with_prefix",
    "timer_value",
    "snapshot",
    "reset",
    "summary_rows",
    "format_summary",
    "dump_json",
    "CacheInfo",
]

#: Global instrumentation switch.  Hot paths read this attribute
#: directly (``if obs.ENABLED: ...``) so the disabled cost is one
#: attribute lookup and a falsy test.
ENABLED = False

_counters: Dict[str, int] = {}
_gauges: Dict[str, float] = {}
#: name -> [count, total_seconds]
_timers: Dict[str, List[float]] = {}


@dataclass(frozen=True)
class CacheInfo:
    """``functools.lru_cache``-style cache statistics.

    ``maxsize`` is ``None`` for unbounded caches; ``hits``/``misses``
    count every lookup since construction (or the last ``clear``),
    independent of whether :mod:`repro.obs` is enabled.
    """

    hits: int
    misses: int
    currsize: int
    maxsize: Optional[int] = None

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def enable() -> None:
    """Turn instrumentation on (state accumulates until :func:`reset`)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn instrumentation off; accumulated state is kept."""
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return ENABLED


@contextmanager
def enabled_scope(fresh: bool = True) -> Iterator[None]:
    """Enable instrumentation for a block, restoring the previous state.

    ``fresh`` resets the registries on entry so the block's metrics are
    isolated — the pattern the tests and benchmarks use.
    """
    previous = ENABLED
    if fresh:
        reset()
    enable()
    try:
        yield
    finally:
        if not previous:
            disable()


def incr(name: str, amount: int = 1) -> None:
    """Add ``amount`` to a counter (no-op while disabled)."""
    if not ENABLED:
        return
    _counters[name] = _counters.get(name, 0) + amount


def gauge(name: str, value: float) -> None:
    """Record a last-write-wins gauge value (no-op while disabled)."""
    if not ENABLED:
        return
    _gauges[name] = value


def observe_seconds(name: str, seconds: float) -> None:
    """Fold one duration sample into a timer (no-op while disabled)."""
    if not ENABLED:
        return
    entry = _timers.get(name)
    if entry is None:
        _timers[name] = [1, seconds]
    else:
        entry[0] += 1
        entry[1] += seconds


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "_start")

    def __init__(self, name: str):
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        observe_seconds(self.name, time.perf_counter() - self._start)


def span(name: str):
    """Context manager timing a block into the ``name`` timer.

    Returns a shared no-op object while disabled, so
    ``with obs.span("x"):`` costs one call and no allocation on the
    disabled path.
    """
    if not ENABLED:
        return _NULL_SPAN
    return _Span(name)


def counter_value(name: str) -> int:
    """Current value of a counter (0 if never incremented)."""
    return _counters.get(name, 0)


def counters_with_prefix(prefix: str) -> Dict[str, int]:
    """Every counter whose dotted name starts with ``prefix``.

    ``counters_with_prefix("characterizer")`` collects the corner-memo
    family (``characterizer.hits``, ``characterizer.misses``,
    ``characterizer.hits.delay``, ...).  A bare prefix matches both the
    exact name and its sub-families.
    """
    dotted = prefix + "."
    return {
        name: value
        for name, value in sorted(_counters.items())
        if name == prefix or name.startswith(dotted)
    }


def timer_value(name: str) -> Tuple[int, float]:
    """(count, total_seconds) of a timer (zeros if never recorded)."""
    entry = _timers.get(name)
    if entry is None:
        return (0, 0.0)
    return (int(entry[0]), entry[1])


def snapshot() -> Dict[str, dict]:
    """Machine-readable copy of every metric.

    Shape::

        {
          "enabled": bool,
          "counters": {name: int, ...},
          "gauges": {name: float, ...},
          "timers": {name: {"count": int, "total_s": float}, ...},
        }
    """
    return {
        "enabled": ENABLED,
        "counters": dict(sorted(_counters.items())),
        "gauges": dict(sorted(_gauges.items())),
        "timers": {
            name: {"count": int(entry[0]), "total_s": entry[1]}
            for name, entry in sorted(_timers.items())
        },
    }


def reset() -> None:
    """Zero every counter, gauge, and timer (the flag is untouched)."""
    _counters.clear()
    _gauges.clear()
    _timers.clear()


def summary_rows() -> List[List[str]]:
    """``[kind, name, value]`` rows for table rendering."""
    rows: List[List[str]] = []
    for name, value in sorted(_counters.items()):
        rows.append(["counter", name, str(value)])
    for name, value in sorted(_gauges.items()):
        rows.append(["gauge", name, f"{value:g}"])
    for name, entry in sorted(_timers.items()):
        rows.append(
            ["timer", name, f"{entry[1]:.4f} s / {int(entry[0])} calls"]
        )
    return rows


def format_summary(title: str = "Metrics") -> str:
    """ASCII table of every recorded metric (empty-state message if none)."""
    rows = summary_rows()
    if not rows:
        return f"{title}: no metrics recorded"
    # Imported lazily: obs must stay import-light so every layer can
    # depend on it without cycles.
    from repro.analysis.tables import format_table

    return format_table(["kind", "metric", "value"], rows, title=title)


def dump_json(path: str, extra: Optional[Dict[str, object]] = None) -> None:
    """Write :func:`snapshot` (plus optional ``extra`` keys) as JSON."""
    payload = dict(snapshot())
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
