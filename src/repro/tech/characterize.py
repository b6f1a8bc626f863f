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

__all__ = ["CellTimings", "CellCharacterizer"]

#: Effective-current delay constant: the switching transistor spends the
#: transition between its saturation and linear currents; 0.7 matches
#: the usual 50 %-swing convention.
_DELAY_CONSTANT = 0.7

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

    All corner queries (drive currents, delay, switching and
    short-circuit energy, leakage) are memoized on the exact argument
    tuple ``(cell, vdd, vt_shift, load, ...)``: the model functions are
    pure, so a cache hit returns the very same float the first call
    computed — results are bit-identical with caching on or off.  The
    stack-leakage solve (:class:`~repro.device.leakage.StackSolver`)
    keeps no memo of its own beyond one reference root per V_DD, so a
    leakage never depends on which corners were asked before it.  Pass
    ``cache=False`` to benchmark the uncached evaluation cost.

    ``Cell`` is a frozen dataclass, so cells key the cache by *value*:
    equal cells from different ``standard_cells()`` catalogs share
    entries.
    """

    def __init__(self, technology: Technology, cache: bool = True):
        self.technology = technology
        self.cache_enabled = bool(cache)
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
        # Decoded variation and operating plans (repro.tech.batch,
        # repro.tech.opplan); they share the stack models above, so
        # both caches are dropped together.
        self._plans: dict = {}

    def _note(self, family: str, hit: bool) -> None:
        """Per-family obs counters (called only while obs is enabled)."""
        kind = "hits" if hit else "misses"
        _obs.incr(f"characterizer.{kind}")
        _obs.incr(f"characterizer.{kind}.{family}")

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
        """Drop every memoized corner result (stack solvers included)
        and zero the hit/miss statistics."""
        self._memo.clear()
        self._cell_tokens.clear()
        self._id_tokens.clear()
        self._hits = 0
        self._misses = 0
        self._nmos_stacks = StackLeakageModel(self.technology.transistors.nmos)
        self._pmos_stacks = StackLeakageModel(self.technology.transistors.pmos)
        # Plans hold references to the replaced stack solvers; drop
        # them so stale reference roots cannot be revived.
        self._plans.clear()

    @property
    def cache_size(self) -> int:
        """Number of memoized corner results."""
        return len(self._memo)

    def cache_info(self) -> "_obs.CacheInfo":
        """``lru_cache``-style statistics for the corner memo.

        Hits/misses count cached-mode lookups only (``cache=False``
        instances never consult the memo, so they report zeros); the
        memo itself is unbounded — ``maxsize`` is ``None``.
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

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    def pull_down_current(
        self, cell: Cell, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """Worst-case pull-down drive current [A]."""
        if not self.cache_enabled:
            width = cell.series_equivalent_width(cell.nmos_path_widths_um)
            device = Mosfet(self.technology.transistors.nmos, width_um=width)
            return device.on_current(vdd, vt_shift)
        key = ("pd", self._token(cell), vdd, vt_shift)
        result = self._memo.get(key, _MISS)
        if result is _MISS:
            self._misses += 1
            if _obs.ENABLED:
                self._note("pd", False)
            width = cell.series_equivalent_width(cell.nmos_path_widths_um)
            device = Mosfet(self.technology.transistors.nmos, width_um=width)
            result = device.on_current(vdd, vt_shift)
            self._memo[key] = result
        else:
            self._hits += 1
            if _obs.ENABLED:
                self._note("pd", True)
        return result

    def pull_up_current(
        self, cell: Cell, vdd: float, vt_shift: float = 0.0
    ) -> float:
        """Worst-case pull-up drive current [A]."""
        if not self.cache_enabled:
            width = cell.series_equivalent_width(cell.pmos_path_widths_um)
            device = Mosfet(self.technology.transistors.pmos, width_um=width)
            return device.on_current(vdd, vt_shift)
        key = ("pu", self._token(cell), vdd, vt_shift)
        result = self._memo.get(key, _MISS)
        if result is _MISS:
            self._misses += 1
            if _obs.ENABLED:
                self._note("pu", False)
            width = cell.series_equivalent_width(cell.pmos_path_widths_um)
            device = Mosfet(self.technology.transistors.pmos, width_um=width)
            result = device.on_current(vdd, vt_shift)
            self._memo[key] = result
        else:
            self._hits += 1
            if _obs.ENABLED:
                self._note("pu", True)
        return result

    # ------------------------------------------------------------------
    # Cached C(V) views
    # ------------------------------------------------------------------
    def _input_capacitance(self, cell: Cell, vdd: float) -> float:
        if not self.cache_enabled:
            return cell.input_capacitance(self.technology, vdd)
        key = ("cin", self._token(cell), vdd)
        result = self._memo.get(key, _MISS)
        if result is _MISS:
            self._misses += 1
            if _obs.ENABLED:
                self._note("cin", False)
            result = cell.input_capacitance(self.technology, vdd)
            self._memo[key] = result
        else:
            self._hits += 1
            if _obs.ENABLED:
                self._note("cin", True)
        return result

    def _output_capacitance(self, cell: Cell, vdd: float) -> float:
        if not self.cache_enabled:
            return cell.output_capacitance(self.technology, vdd)
        key = ("cout", self._token(cell), vdd)
        result = self._memo.get(key, _MISS)
        if result is _MISS:
            self._misses += 1
            if _obs.ENABLED:
                self._note("cout", False)
            result = cell.output_capacitance(self.technology, vdd)
            self._memo[key] = result
        else:
            self._hits += 1
            if _obs.ENABLED:
                self._note("cout", True)
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
        self._check_vdd(vdd)
        self._check_load(load_f)
        if self.cache_enabled:
            key = ("delay", self._token(cell), vdd, load_f, vt_shift)
            result = self._memo.get(key, _MISS)
            if result is not _MISS:
                self._hits += 1
                if _obs.ENABLED:
                    self._note("delay", True)
                return result
            self._misses += 1
            if _obs.ENABLED:
                self._note("delay", False)
        total_load = load_f + self._output_capacitance(cell, vdd)
        weakest = min(
            self.pull_down_current(cell, vdd, vt_shift),
            self.pull_up_current(cell, vdd, vt_shift),
        )
        if weakest <= 0.0:
            raise CharacterizationError(
                f"cell {cell.name} has no drive at V_DD = {vdd} V"
            )
        result = _DELAY_CONSTANT * total_load * vdd / weakest
        if self.cache_enabled:
            self._memo[key] = result
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
        self._check_vdd(vdd)
        self._check_load(load_f)
        if self.cache_enabled:
            key = ("energy", self._token(cell), vdd, load_f)
            result = self._memo.get(key, _MISS)
            if result is not _MISS:
                self._hits += 1
                if _obs.ENABLED:
                    self._note("energy", True)
                return result
            self._misses += 1
            if _obs.ENABLED:
                self._note("energy", False)
        total = load_f + self._output_capacitance(cell, vdd)
        result = total * vdd * vdd
        if self.cache_enabled:
            self._memo[key] = result
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
        self._check_vdd(vdd)
        if self.cache_enabled:
            key = ("sc", self._token(cell), vdd, load_f, input_transition_time_s)
            cached = self._memo.get(key, _MISS)
            if cached is not _MISS:
                self._hits += 1
                if _obs.ENABLED:
                    self._note("sc", True)
                return cached
            self._misses += 1
            if _obs.ENABLED:
                self._note("sc", False)
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
        if self.cache_enabled:
            self._memo[key] = result
        return result

    def leakage_current(
        self,
        cell: Cell,
        vdd: float,
        vt_shift: float = 0.0,
        output_high_probability: float = 0.5,
    ) -> float:
        """State-averaged cell leakage with stack effect [A]."""
        self._check_vdd(vdd)
        if not 0.0 <= output_high_probability <= 1.0:
            raise CharacterizationError(
                "output_high_probability must be in [0, 1]"
            )
        if self.cache_enabled:
            key = ("leak", self._token(cell), vdd, vt_shift, output_high_probability)
            cached = self._memo.get(key, _MISS)
            if cached is not _MISS:
                self._hits += 1
                if _obs.ENABLED:
                    self._note("leak", True)
                return cached
            self._misses += 1
            if _obs.ENABLED:
                self._note("leak", False)
        nmos_leak = self._nmos_stacks.current(
            cell.nmos_path_widths_um, vdd, vt_shift
        )
        pmos_leak = self._pmos_stacks.current(
            cell.pmos_path_widths_um, vdd, vt_shift
        )
        p_high = output_high_probability
        result = p_high * nmos_leak + (1.0 - p_high) * pmos_leak
        if self.cache_enabled:
            self._memo[key] = result
        return result

    # ------------------------------------------------------------------
    # Batched variation evaluation
    # ------------------------------------------------------------------
    def plan_variation(
        self,
        cell: Cell,
        vdd: float,
        load_f: float = 0.0,
        output_high_probability: float = 0.5,
    ):
        """Decode a (cell, V_DD, load) corner for vectorized V_T sweeps.

        Returns a :class:`repro.tech.batch.VariationPlan` whose
        ``delays``/``leakages`` evaluate whole shift vectors
        bit-identically to :meth:`propagation_delay` /
        :meth:`leakage_current` called per sample.  Plans are memoized
        per corner (when caching is on) and share this characterizer's
        stack solvers with the per-sample path.
        """
        self._check_vdd(vdd)
        self._check_load(load_f)
        if not 0.0 <= output_high_probability <= 1.0:
            raise CharacterizationError(
                "output_high_probability must be in [0, 1]"
            )
        from repro.tech.batch import VariationPlan

        if not self.cache_enabled:
            if _obs.ENABLED:
                _obs.incr("variation.plan_builds")
            return VariationPlan.build(
                self, cell, vdd, load_f, output_high_probability
            )
        key = (
            "vplan",
            self._token(cell),
            vdd,
            load_f,
            output_high_probability,
        )
        plan = self._plans.get(key)
        if plan is None:
            plan = VariationPlan.build(
                self, cell, vdd, load_f, output_high_probability
            )
            self._plans[key] = plan
            if _obs.ENABLED:
                _obs.incr("variation.plan_builds")
        return plan

    # ------------------------------------------------------------------
    # Batched operating (V_DD) evaluation
    # ------------------------------------------------------------------
    def plan_operating(
        self,
        cell: Cell,
        load_f: float = 0.0,
        fanout=None,
        output_high_probability: float = 0.5,
    ):
        """Decode a (cell, load) pair for vectorized V_DD sweeps.

        Returns a :class:`repro.tech.opplan.OperatingPlan` whose
        ``delays``/``leakages``/``energies`` kernels evaluate whole
        supply vectors bit-identically to the per-point
        :meth:`propagation_delay` / :meth:`fanout_delay` /
        :meth:`leakage_current` / :meth:`energy_per_transition` chain.
        With ``fanout`` set (an integer >= 1), the plan drives
        ``fanout`` copies of the cell's own V_DD-dependent input
        capacitance, exactly as :meth:`fanout_delay` does; otherwise it
        drives the fixed external ``load_f``.  Plans are memoized per
        (cell, load) pair (when caching is on) and share this
        characterizer's stack solvers with the per-point path.
        """
        self._check_load(load_f)
        if fanout is not None and fanout < 1:
            raise CharacterizationError("fanout must be >= 1")
        if not 0.0 <= output_high_probability <= 1.0:
            raise CharacterizationError(
                "output_high_probability must be in [0, 1]"
            )
        from repro.tech.opplan import OperatingPlan

        if not self.cache_enabled:
            if _obs.ENABLED:
                _obs.incr("optimizer.plan_builds")
            return OperatingPlan.build(
                self, cell, load_f, fanout, output_high_probability
            )
        key = (
            "oplan",
            self._token(cell),
            load_f,
            fanout,
            output_high_probability,
        )
        plan = self._plans.get(key)
        if plan is None:
            plan = OperatingPlan.build(
                self, cell, load_f, fanout, output_high_probability
            )
            self._plans[key] = plan
            if _obs.ENABLED:
                _obs.incr("optimizer.plan_builds")
        return plan

    def planned_fanout_delay(
        self,
        cell: Cell,
        vdd: float,
        fanout: int = 1,
        vt_shift: float = 0.0,
    ) -> float:
        """:meth:`fanout_delay` evaluated through an operating plan.

        Same memo family, keys and hit/miss accounting as
        :meth:`fanout_delay` — the two entry points are interchangeable
        and bit-identical — but a miss is served by the decoded
        :class:`~repro.tech.opplan.OperatingPlan` kernel instead of the
        scalar capacitance/drive chain, which is what makes optimizer
        probe loops cheap.
        """
        if fanout < 1:
            raise CharacterizationError("fanout must be >= 1")
        if not self.cache_enabled:
            plan = self.plan_operating(cell, fanout=fanout)
            return plan.delays((vdd,), vt_shift)[0]
        key = ("fanout", self._token(cell), vdd, fanout, vt_shift)
        result = self._memo.get(key, _MISS)
        if result is not _MISS:
            self._hits += 1
            if _obs.ENABLED:
                self._note("fanout", True)
            return result
        self._misses += 1
        if _obs.ENABLED:
            self._note("fanout", False)
        plan = self.plan_operating(cell, fanout=fanout)
        result = plan.delays((vdd,), vt_shift)[0]
        self._memo[key] = result
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
        if fanout < 1:
            raise CharacterizationError("fanout must be >= 1")
        if self.cache_enabled:
            key = ("fanout", self._token(cell), vdd, fanout, vt_shift)
            result = self._memo.get(key, _MISS)
            if result is not _MISS:
                self._hits += 1
                if _obs.ENABLED:
                    self._note("fanout", True)
                return result
            self._misses += 1
            if _obs.ENABLED:
                self._note("fanout", False)
        load = fanout * self._input_capacitance(cell, vdd)
        result = self.propagation_delay(cell, vdd, load, vt_shift)
        if self.cache_enabled:
            self._memo[key] = result
        return result

    def _check_vdd(self, vdd: float) -> None:
        if not 0.0 < vdd < math.inf:
            raise CharacterizationError(
                f"vdd must be positive and finite, got {vdd}"
            )

    def _check_load(self, load_f: float) -> None:
        if not 0.0 <= load_f < math.inf:
            raise CharacterizationError(
                f"load must be >= 0 and finite, got {load_f}"
            )
