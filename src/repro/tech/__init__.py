"""Standard-cell layer: cell templates, characterization, libraries.

Sits between the device models and the circuit/netlist layer.  The
characterization engine here replaces SPICE in the paper's flow: it
turns a :class:`~repro.device.technology.Technology` plus a
:class:`~repro.tech.cells.Cell` into delay / energy / leakage numbers
at any (V_DD, V_T-shift) corner, and a whole catalog of cells into a
serializable :class:`~repro.tech.library.CellLibrary`.
"""

from repro import _lazy_namespace

_lazy_namespace(globals(), {
    ".cells": ("Cell", "RegisterStyle", "standard_cells", "register_styles"),
    ".characterize": ("CellCharacterizer", "CellTimings"),
    ".opplan": ("CornerPlan",),
    ".library": ("CellLibrary",),
})
