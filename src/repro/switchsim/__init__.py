"""Event-driven switch-level logic simulation (the IRSIM substitute).

The paper measures node transition activity — including glitches — with
a switch-level simulator.  This package provides the same observable:

* :class:`~repro.switchsim.simulator.SwitchLevelSimulator` — an
  event-driven gate-level simulator with inertial delays derived from
  the cell characterizer, so late-arriving inputs re-evaluate gates and
  produce the glitch transitions visible in the paper's Figs. 8-9.  One
  indexed event kernel (integer nets, base-3 gate tables, time-bucketed
  inertial queue) runs every entry point.
* :mod:`~repro.switchsim.stimulus` — random, correlated and counting
  input-pattern generators.
* :class:`~repro.switchsim.activity.ActivityReport` — per-node
  transition counts, activity factors (the alpha of Eq. 1) and the
  histograms of Figs. 8-9.
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".simulator": ("SwitchLevelSimulator",),
    ".activity": ("ActivityReport",),
    ".stimulus": (
        "random_bus_vectors", "counting_bus_vectors", "gray_code_bus_vectors",
        "vectors_from_values",
    ),
})
