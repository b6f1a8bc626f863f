"""Cell characterization: the library's stand-in for SPICE.

Given a :class:`~repro.device.technology.Technology` and a
:class:`~repro.tech.cells.Cell`, the characterizer produces the four
numbers the circuit and power layers consume at any supply/threshold
corner:

* propagation delay under a load,
* switching energy per output charging event,
* state-averaged leakage current,
* input capacitance.

The delay model is the classic ``t = k * C * V / I_drive`` with the
alpha-power-law drive current, which is what makes the fixed-delay
V_DD-vs-V_T trade-off of the paper's Figs. 3-4 emerge.  Because the
drive current includes the subthreshold floor, delays stay finite even
for V_DD below V_T (sub-threshold operation), just exponentially slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro import obs as _obs
from repro.device.leakage import StackLeakageModel
from repro.device.mosfet import Mosfet
from repro.device.technology import Technology
from repro.errors import CharacterizationError
from repro.tech.cells import Cell
from repro.tech.opplan import CornerPlan

__all__ = ["CellTimings", "CellCharacterizer"]

#: Cache-miss sentinel (``None``/0.0 are legal cached values).
_MISS = object()


@dataclass(frozen=True)
class CellTimings:
    """Characterized numbers for one cell at one corner.

    All values are SI: seconds, joules, amperes, farads.
    """

    cell_name: str
    vdd: float
    vt_shift: float
    load_f: float
    delay_s: float
    energy_per_transition_j: float
    leakage_current_a: float
    input_capacitance_f: float
    output_capacitance_f: float

    @property
    def leakage_power_w(self) -> float:
        """Static power at this corner [W]."""
        return self.leakage_current_a * self.vdd


class CellCharacterizer:
    """Characterizes cells of one technology.

    Every corner query (drive currents, delay, switching and
    short-circuit energy, leakage) is memoized on the exact argument
    tuple ``(cell, vdd, vt_shift, load, ...)``: the model functions are
    pure, so a hit returns the very float the first call computed.  A
    miss in :meth:`propagation_delay`, :meth:`fanout_delay`,
    :meth:`energy_per_transition` or :meth:`leakage_current` is a
    one-element call of the cell's :class:`~repro.tech.opplan.
    CornerPlan`, decoded once per cell by :meth:`corner_plan`, so a
    scalar query and a batched one give the same float.  The
    stack-leakage solve (:class:`~repro.device.leakage.StackSolver`)
    keeps no memo of its own beyond one reference root per V_DD, so a
    leakage never depends on which corners were asked before it.  A
    fresh characterizer is the uncached reference.

    ``Cell`` is a frozen dataclass, so cells key the cache by *value*:
    equal cells from different ``standard_cells()`` catalogs share
    entries.
    """

    def __init__(self, technology: Technology):
        self.technology = technology
        self._memo: dict = {}
        # Frozen-dataclass hashing re-walks every Cell field on each
        # lookup; interning cells to small ints keeps keys cheap while
        # preserving value semantics (equal cells share a token).  The
        # id-keyed front map skips even the one Cell hash per query —
        # entries hold a strong reference to the cell so ids can never
        # be recycled.
        self._cell_tokens: dict = {}
        self._id_tokens: dict = {}
        self._hits = 0
        self._misses = 0
        self._nmos_stacks = StackLeakageModel(technology.transistors.nmos)
        self._pmos_stacks = StackLeakageModel(technology.transistors.pmos)
        # Cell token -> CornerPlan; plans share the stack models above,
        # so both are dropped together.
        self._plans: dict = {}

    def _note(self, family: str, hit: bool) -> None:
        """Per-family obs counters (called only while obs is enabled)."""
        kind = "hits" if hit else "misses"
        _obs.incr(f"characterizer.{kind}")
        _obs.incr(f"characterizer.{kind}.{family}")

    def _recall(self, key: tuple):
        """The memoized value of ``key`` (counting the hit), or a miss."""
        result = self._memo.get(key, _MISS)
        if result is not _MISS:
            self._hits += 1
            if _obs.ENABLED:
                self._note(key[0], True)
        return result

    def _remember(self, key: tuple, result):
        """Memoize a miss's freshly computed ``result`` and return it."""
        self._misses += 1
        if _obs.ENABLED:
            self._note(key[0], False)
        self._memo[key] = result
        return result

    def _token(self, cell: Cell) -> int:
        entry = self._id_tokens.get(id(cell))
        if entry is not None:
            return entry[1]
        token = self._cell_tokens.get(cell)
        if token is None:
            token = len(self._cell_tokens)
            self._cell_tokens[cell] = token
        self._id_tokens[id(cell)] = (cell, token)
        return token

    def clear_cache(self) -> None:
        """Drop every memoized corner result and decoded plan (stack
        solvers included) and zero the hit/miss statistics."""
        self._memo.clear()
        self._cell_tokens.clear()
        self._id_tokens.clear()
        self._hits = 0
        self._misses = 0
        self._nmos_stacks = StackLeakageModel(self.technology.transistors.nmos)
        self._pmos_stacks = StackLeakageModel(self.technology.transistors.pmos)
        # Plans hold references to the replaced stack solvers.
        self._plans.clear()

    @property
    def cache_size(self) -> int:
        """Number of memoized corner results."""
        return len(self._memo)

    def cache_info(self) -> "_obs.CacheInfo":
        """``lru_cache``-style statistics for the corner memo.

        The memo is unbounded — ``maxsize`` is ``None``.
        """
        return _obs.CacheInfo(
            hits=self._hits,
            misses=self._misses,
            currsize=len(self._memo),
            maxsize=None,
        )

    def family_sizes(self) -> Dict[str, int]:
        """Memo entries per family (``delay``, ``energy``, ``leak``...)."""
        sizes: Dict[str, int] = {}
        for key in self._memo:
            family = key[0]
            sizes[family] = sizes.get(family, 0) + 1
        return sizes

    def corner_plan(self, cell: Cell) -> CornerPlan:
        """The cell's :class:`~repro.tech.opplan.CornerPlan`.

        Decoded on first use and kept until :meth:`clear_cache`; it
        shares this characterizer's stack solvers with every scalar
        query.  Counted by ``optimizer.plan_builds``.
        """
        token = self._token(cell)
        plan = self._plans.get(token)
        if plan is None:
            plan = self._plans[token] = CornerPlan(self, cell)
            if _obs.ENABLED:
                _obs.incr("optimizer.plan_builds")
        return plan

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    def pull_down_current(
        self, cell: Cell, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """Worst-case pull-down drive current [A]."""
        key = ("pd", self._token(cell), vdd, vt_shift)
        result = self._recall(key)
        if result is _MISS:
            width = cell.series_equivalent_width(cell.nmos_path_widths_um)
            device = Mosfet(self.technology.transistors.nmos, width_um=width)
            result = self._remember(key, device.on_current(vdd, vt_shift))
        return result

    def pull_up_current(
        self, cell: Cell, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """Worst-case pull-up drive current [A]."""
        key = ("pu", self._token(cell), vdd, vt_shift)
        result = self._recall(key)
        if result is _MISS:
            width = cell.series_equivalent_width(cell.pmos_path_widths_um)
            device = Mosfet(self.technology.transistors.pmos, width_um=width)
            result = self._remember(key, device.on_current(vdd, vt_shift))
        return result

    # ------------------------------------------------------------------
    # Cached C(V) views
    # ------------------------------------------------------------------
    def _input_capacitance(self, cell: Cell, vdd: float) -> float:
        key = ("cin", self._token(cell), vdd)
        result = self._recall(key)
        if result is _MISS:
            result = self._remember(
                key, cell.input_capacitance(self.technology, vdd)
            )
        return result

    def _output_capacitance(self, cell: Cell, vdd: float) -> float:
        key = ("cout", self._token(cell), vdd)
        result = self._recall(key)
        if result is _MISS:
            result = self._remember(
                key, cell.output_capacitance(self.technology, vdd)
            )
        return result

    # ------------------------------------------------------------------
    # Timing / energy / leakage
    # ------------------------------------------------------------------
    def propagation_delay(
        self,
        cell: Cell,
        vdd: float,
        load_f: float,
        vt_shift: float = 0.0,
    ) -> float:
        """Worst-edge propagation delay driving ``load_f`` [s]."""
        key = ("delay", self._token(cell), vdd, load_f, vt_shift)
        result = self._recall(key)
        if result is _MISS:
            result = self._remember(
                key, self.corner_plan(cell).delay(vdd, vt_shift, load_f)
            )
        return result

    def energy_per_transition(
        self, cell: Cell, vdd: float, load_f: float
    ) -> float:
        """Supply energy drawn per output charging event [J].

        Charging a node to V_DD draws ``C V^2`` from the supply (half
        stored, half dissipated; the stored half is dissipated on the
        subsequent discharge).  Counting ``C V^2`` per 0->1 transition
        matches the paper's Eq. 1 convention with alpha_0->1.
        """
        key = ("energy", self._token(cell), vdd, load_f)
        result = self._recall(key)
        if result is _MISS:
            # A supply record's second field is load_f + C_out.
            total = self.corner_plan(cell).supplies((vdd,), load_f)[0][1]
            result = self._remember(key, total * vdd * vdd)
        return result

    def short_circuit_energy(
        self,
        cell: Cell,
        vdd: float,
        load_f: float,
        input_transition_time_s: float,
    ) -> float:
        """Short-circuit energy per input edge (Veendrick-style) [J].

        Zero when the supply cannot turn both networks on at once
        (V_DD < V_Tn + |V_Tp|) — the classic result that slow rails
        remove short-circuit power entirely.
        """
        if not 0.0 < vdd < math.inf:
            raise CharacterizationError(
                f"vdd must be positive and finite, got {vdd}"
            )
        key = ("sc", self._token(cell), vdd, load_f, input_transition_time_s)
        result = self._recall(key)
        if result is not _MISS:
            return result
        nmos = self.technology.transistors.nmos
        pmos = self.technology.transistors.pmos
        overlap = vdd - nmos.vt0 - pmos.vt0
        if overlap <= 0.0:
            result = 0.0
        else:
            # Veendrick: E_sc ~ (k/12) * (V_DD - V_Tn - V_Tp)^3 * tau / V_DD
            # with k the drive factor of the weaker device.
            k_eff = min(
                nmos.k_drive
                * cell.series_equivalent_width(cell.nmos_path_widths_um),
                pmos.k_drive
                * cell.series_equivalent_width(cell.pmos_path_widths_um),
            )
            result = (
                k_eff
                / 12.0
                * overlap**3
                * input_transition_time_s
                / vdd
            )
        return self._remember(key, result)

    def leakage_current(
        self,
        cell: Cell,
        vdd: float,
        vt_shift: float = 0.0,
        output_high_probability: float = 0.5,
    ) -> float:
        """State-averaged cell leakage with stack effect [A]."""
        key = (
            "leak", self._token(cell), vdd, vt_shift, output_high_probability
        )
        result = self._recall(key)
        if result is _MISS:
            result = self._remember(
                key,
                self.corner_plan(cell).leakages(
                    (vdd,), (vt_shift,), output_high_probability
                )[0],
            )
        return result

    # ------------------------------------------------------------------
    # One-call corner characterization
    # ------------------------------------------------------------------
    def characterize(
        self,
        cell: Cell,
        vdd: float,
        load_f: float = 0.0,
        vt_shift: float = 0.0,
    ) -> CellTimings:
        """Produce a full :class:`CellTimings` record for a corner."""
        return CellTimings(
            cell_name=cell.name,
            vdd=vdd,
            vt_shift=vt_shift,
            load_f=load_f,
            delay_s=self.propagation_delay(cell, vdd, load_f, vt_shift),
            energy_per_transition_j=self.energy_per_transition(
                cell, vdd, load_f
            ),
            leakage_current_a=self.leakage_current(cell, vdd, vt_shift),
            input_capacitance_f=self._input_capacitance(cell, vdd),
            output_capacitance_f=self._output_capacitance(cell, vdd),
        )

    def fanout_delay(
        self,
        cell: Cell,
        vdd: float,
        fanout: int = 1,
        vt_shift: float = 0.0,
    ) -> float:
        """Delay driving ``fanout`` copies of the cell's own input [s].

        Fanout-of-1 inverter delay is the ring-oscillator stage delay
        used throughout the Fig. 3-4 experiments.
        """
        key = ("fanout", self._token(cell), vdd, fanout, vt_shift)
        result = self._recall(key)
        if result is _MISS:
            result = self._remember(
                key,
                self.corner_plan(cell).delay(vdd, vt_shift, fanout=fanout),
            )
        return result
