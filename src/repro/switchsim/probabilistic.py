"""Probabilistic (logic-level) activity estimation.

Section 5.3 of the paper lists three ways to get node activity:
SPICE, switch-level simulation, and logic-level estimation.  This
module is the third: propagate static signal probabilities through the
levelized netlist and derive transition activity under the
temporal-independence assumption

    alpha_0->1(net) = P1(net) * (1 - P1(net))

It is orders of magnitude faster than event-driven simulation but
ignores two effects the simulator captures exactly: spatial
correlation through reconvergent fanout, and glitching (it reports the
zero-delay lower bound on activity).  The tests quantify both gaps
against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import Technology
from repro.errors import ProfileError

__all__ = ["ProbabilisticActivity", "ProbabilisticActivityEstimator"]


@dataclass(frozen=True)
class ProbabilisticActivity:
    """Per-net signal and transition probabilities."""

    netlist_name: str
    p_one: Dict[str, float]
    primary_inputs: tuple
    constants: tuple

    def signal_probability(self, net: str) -> float:
        """P(net = 1) in steady state."""
        self._check(net)
        return self.p_one[net]

    def alpha(self, net: str) -> float:
        """0->1 transition probability per cycle (independence model)."""
        p = self.signal_probability(net)
        return p * (1.0 - p)

    def transition_probability(self, net: str) -> float:
        """Total-transition probability per cycle: ``2 p (1-p)``."""
        return 2.0 * self.alpha(net)

    def internal_nets(self) -> list:
        """Nets computed by gates (not inputs/constants)."""
        excluded = set(self.primary_inputs) | set(self.constants)
        return [net for net in self.p_one if net not in excluded]

    def mean_activity(self) -> float:
        """Average transition probability over internal nets."""
        nets = self.internal_nets()
        if not nets:
            raise ProfileError("no internal nets")
        return sum(self.transition_probability(n) for n in nets) / len(nets)

    def switched_capacitance(
        self,
        netlist: Netlist,
        technology: Technology,
        vdd: float,
        wire_length_per_fanout_um: float = 5.0,
    ) -> float:
        """Estimated ``sum alpha(net) * C(net)`` [F] (zero-delay)."""
        if netlist.name != self.netlist_name:
            raise ProfileError(
                f"activity is for {self.netlist_name!r}, not "
                f"{netlist.name!r}"
            )
        alphas = {net: self.alpha(net) for net in self.p_one}
        plan = NetlistPlan(netlist, technology, wire_length_per_fanout_um)
        return plan.switched_capacitance(alphas, vdd)

    def _check(self, net: str) -> None:
        if net not in self.p_one:
            raise ProfileError(
                f"no probability for net {net!r} in "
                f"{self.netlist_name!r}"
            )


class ProbabilisticActivityEstimator:
    """Propagates signal probabilities through an acyclic netlist."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._order = netlist.levelize()

    def estimate(
        self,
        input_probabilities: Union[float, Mapping[str, float]] = 0.5,
    ) -> ProbabilisticActivity:
        """Exact per-gate propagation under input independence.

        Parameters
        ----------
        input_probabilities:
            Either one P(1) applied to every primary input, or a
            mapping per input net (missing nets default to 0.5).
        """
        p_one: Dict[str, float] = {}
        if isinstance(input_probabilities, (int, float)):
            default = float(input_probabilities)
            per_input: Mapping[str, float] = {}
        else:
            default = 0.5
            per_input = input_probabilities
            unknown = set(per_input) - set(self.netlist.primary_inputs)
            if unknown:
                raise ProfileError(
                    f"probabilities given for non-input nets: "
                    f"{sorted(unknown)[:5]}"
                )
        for net in self.netlist.primary_inputs:
            p = float(per_input.get(net, default))
            if not 0.0 <= p <= 1.0:
                raise ProfileError(
                    f"probability for {net!r} must be in [0, 1], got {p}"
                )
            p_one[net] = p
        for net, value in self.netlist.constants.items():
            p_one[net] = float(value)

        for instance in self._order:
            inputs = instance.inputs
            table = instance.cell.truth_table
            probability = 0.0
            for combo in range(len(table)):
                if not table[combo]:
                    continue
                term = 1.0
                for bit, net in enumerate(inputs):
                    p = p_one[net]
                    term *= p if (combo >> bit) & 1 else (1.0 - p)
                probability += term
            p_one[instance.output] = min(max(probability, 0.0), 1.0)

        return ProbabilisticActivity(
            netlist_name=self.netlist.name,
            p_one=p_one,
            primary_inputs=tuple(self.netlist.primary_inputs),
            constants=tuple(self.netlist.constants),
        )
