"""Ring-oscillator builder.

An odd-length inverter ring over nets ``ro[0] .. ro[stages-1]``.  This
is the measurement structure behind the paper's fixed-delay (V_DD, V_T)
experiments: the free-running period of the ring tracks gate delay, and
the switch-level simulator drives it without any primary inputs.
"""

from __future__ import annotations

from repro.circuits.netlist import Netlist
from repro.errors import NetlistError
from repro.tech.cells import check_ring_stages, standard_cells

__all__ = ["ring_oscillator"]

CELLS = standard_cells()


def ring_oscillator(stages: int) -> Netlist:
    """Ring of ``stages`` inverters (odd, >= 3); purely feedback, no PIs.

    The closed loop means :meth:`Netlist.levelize` rejects the circuit
    (it is not combinational); only event-driven simulation applies.
    """
    check_ring_stages(stages, NetlistError)
    netlist = Netlist(f"ring{stages}")
    nets = [f"ro[{i}]" for i in range(stages)]
    for i in range(stages):
        netlist.add_gate(CELLS["INV"], [nets[i]], nets[(i + 1) % stages])
    return netlist
