"""Netlist builders for the paper's experimental circuits.

Each builder returns a fully wired :class:`~repro.circuits.netlist.Netlist`
over the standard-cell catalog:

* :func:`ripple_carry_adder` / :func:`carry_select_adder` — the adder
  architectures compared in the Figs. 8-9 activity studies and the
  architecture-driven voltage-scaling ablations,
* :func:`barrel_shifter` and :func:`array_multiplier` — the functional
  units profiled in Tables 1-3 and placed on the Fig. 10 plane,
* :func:`ring_oscillator` — the measurement structure behind the
  fixed-delay (V_DD, V_T) experiments of Figs. 3-4,
* :func:`equality_comparator` — a wide-AND control-style circuit,
* :func:`pipelined_adder` — the pipelining lever of
  architecture-driven voltage scaling (registers via
  :meth:`Netlist.add_register`).
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".adder": ("ripple_carry_adder", "carry_select_adder"),
    ".shifter": ("barrel_shifter",),
    ".multiplier": ("array_multiplier",),
    ".ring": ("ring_oscillator",),
    ".comparator": ("equality_comparator",),
    ".pipeline": ("pipelined_adder",),
})
