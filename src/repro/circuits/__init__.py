"""Structural gate-level netlists and static timing.

The builders here create the circuits the paper's experiments run on:

* ripple-carry and carry-select adders (Figs. 8-9 activity histograms),
* a logarithmic barrel shifter and an array multiplier (the functional
  units profiled in Tables 1-3 and compared in Fig. 10),
* ring oscillators (the fixed-delay V_DD/V_T experiments, Figs. 3-4).
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".netlist": ("Instance", "Netlist"),
    ".plan": ("CriticalPath", "NetlistPlan"),
    ".dc": ("InverterDcAnalysis", "NoiseMargins"),
    ".io": ("write_netlist", "parse_netlist", "save_netlist", "load_netlist"),
    ".builders.adder": ("ripple_carry_adder", "carry_select_adder"),
    ".builders.shifter": ("barrel_shifter",),
    ".builders.multiplier": ("array_multiplier",),
    ".builders.ring": ("ring_oscillator",),
    ".builders.comparator": ("equality_comparator",),
    ".builders.pipeline": ("pipelined_adder",),
})
