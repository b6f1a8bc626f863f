"""Per-node transition activity statistics (paper Figs. 8-9, Eq. 1).

An :class:`ActivityReport` holds rising/falling transition counts per
net over a number of applied vectors.  From it come:

* ``alpha(net)`` — the power-consuming (0->1) transition probability of
  Eq. 1,
* transition-probability histograms (the paper's Figs. 8-9),
* switched capacitance and switching energy when combined with a
  netlist and technology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.netlist import Netlist
from repro.circuits.plan import NetlistPlan
from repro.device.technology import Technology
from repro.errors import ProfileError

__all__ = ["ActivityReport"]


@dataclass(frozen=True)
class ActivityReport:
    """Transition counts accumulated over ``cycles`` input vectors."""

    netlist_name: str
    cycles: int
    rising: Dict[str, int]
    falling: Dict[str, int]
    primary_inputs: Tuple[str, ...]
    constants: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ProfileError("cycles must be >= 1")

    # ------------------------------------------------------------------
    # Per-net statistics
    # ------------------------------------------------------------------
    def transitions(self, net: str) -> int:
        """Total transitions (both edges) seen on a net."""
        self._check_net(net)
        return self.rising[net] + self.falling[net]

    def alpha(self, net: str) -> float:
        """Power-consuming (0->1) transition probability per cycle.

        This is the alpha_0->1 of the paper's Eq. 1; it can exceed 1.0
        on glitchy nodes that rise more than once per applied vector.
        """
        self._check_net(net)
        return self.rising[net] / self.cycles

    def transition_probability(self, net: str) -> float:
        """Total-transition probability per cycle (the Figs. 8-9 axis)."""
        return self.transitions(net) / self.cycles

    def internal_nets(self) -> List[str]:
        """Nets that are neither primary inputs nor constants.

        These are the nodes whose activity the circuit's logic (not the
        stimulus) determines — what the paper histograms.
        """
        excluded = set(self.primary_inputs) | set(self.constants)
        return [net for net in self.rising if net not in excluded]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def mean_activity(self, nets: Optional[Sequence[str]] = None) -> float:
        """Average total-transition probability over nets."""
        chosen = list(nets) if nets is not None else self.internal_nets()
        if not chosen:
            raise ProfileError("no nets to aggregate")
        return sum(self.transition_probability(n) for n in chosen) / len(
            chosen
        )

    def total_transitions(self) -> int:
        """Sum of all transitions on all nets."""
        return sum(self.rising.values()) + sum(self.falling.values())

    def histogram(
        self,
        bins: int = 20,
        max_probability: Optional[float] = None,
        nets: Optional[Sequence[str]] = None,
    ) -> Tuple[List[float], List[int]]:
        """Histogram of per-net transition probabilities.

        Returns (bin_edges, counts) with ``len(edges) == bins + 1``.
        This is the exact content of the paper's Figs. 8-9 ("number of
        nodes" versus "transition probability").
        """
        if bins < 1:
            raise ProfileError("bins must be >= 1")
        chosen = list(nets) if nets is not None else self.internal_nets()
        if not chosen:
            raise ProfileError("no nets to histogram")
        probabilities = [self.transition_probability(n) for n in chosen]
        top = max_probability
        if top is None:
            top = max(max(probabilities), 1e-9)
        width = top / bins
        edges = [i * width for i in range(bins + 1)]
        counts = [0] * bins
        for p in probabilities:
            index = min(int(p / width), bins - 1)
            counts[index] += 1
        return edges, counts

    # ------------------------------------------------------------------
    # Energy coupling
    # ------------------------------------------------------------------
    def switched_capacitance(
        self,
        netlist: Netlist,
        technology: Technology,
        vdd: float,
        wire_length_per_fanout_um: float = 5.0,
    ) -> float:
        """Average switched capacitance per cycle [F].

        ``sum over nets of alpha_0->1(net) * C(net)`` — the effective C
        of Eq. 1, with the capacitance extracted at the same V_DD so
        the Fig. 1 non-linearity is honoured.  Decodes the netlist
        once; a caller that holds a plan prices it with
        :meth:`switched_capacitance_on`.
        """
        plan = NetlistPlan(netlist, technology, wire_length_per_fanout_um)
        return self.switched_capacitance_on(plan, vdd)

    def switched_capacitance_on(self, plan: NetlistPlan, vdd: float) -> float:
        """:meth:`switched_capacitance` on a decoded plan of the report's
        netlist [F]."""
        if plan.netlist.name != self.netlist_name:
            raise ProfileError(
                f"report is for {self.netlist_name!r}, not "
                f"{plan.netlist.name!r}"
            )
        alphas = {n: c / self.cycles for n, c in self.rising.items() if c}
        return plan.switched_capacitance(alphas, vdd)

    def switching_energy_per_cycle(
        self,
        netlist: Netlist,
        technology: Technology,
        vdd: float,
        wire_length_per_fanout_um: float = 5.0,
    ) -> float:
        """Average switching energy per cycle: C_sw * V_DD^2 [J]."""
        return (
            self.switched_capacitance(
                netlist, technology, vdd, wire_length_per_fanout_um
            )
            * vdd
            * vdd
        )

    # ------------------------------------------------------------------
    def merged_with(self, other: "ActivityReport") -> "ActivityReport":
        """Combine two reports over the same netlist (count-wise)."""
        if other.netlist_name != self.netlist_name:
            raise ProfileError("cannot merge reports of different netlists")
        rising = dict(self.rising)
        falling = dict(self.falling)
        for net, count in other.rising.items():
            rising[net] = rising.get(net, 0) + count
        for net, count in other.falling.items():
            falling[net] = falling.get(net, 0) + count
        return ActivityReport(
            netlist_name=self.netlist_name,
            cycles=self.cycles + other.cycles,
            rising=rising,
            falling=falling,
            primary_inputs=self.primary_inputs,
            constants=self.constants,
        )

    # ------------------------------------------------------------------
    # Serialization (SAIF-like interchange)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the report to JSON (a SAIF-style activity dump)."""
        import json

        return json.dumps(
            {
                "format": "repro-activity-v1",
                "netlist": self.netlist_name,
                "cycles": self.cycles,
                "rising": self.rising,
                "falling": self.falling,
                "primary_inputs": list(self.primary_inputs),
                "constants": list(self.constants),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, document: str) -> "ActivityReport":
        """Reconstruct a report written by :meth:`to_json`."""
        import json

        try:
            payload = json.loads(document)
        except json.JSONDecodeError as error:
            raise ProfileError(
                f"malformed activity JSON: {error}"
            ) from error
        if payload.get("format") != "repro-activity-v1":
            raise ProfileError(
                f"unsupported activity format {payload.get('format')!r}"
            )
        return cls(
            netlist_name=payload["netlist"],
            cycles=payload["cycles"],
            rising={k: int(v) for k, v in payload["rising"].items()},
            falling={k: int(v) for k, v in payload["falling"].items()},
            primary_inputs=tuple(payload["primary_inputs"]),
            constants=tuple(payload["constants"]),
        )

    def _check_net(self, net: str) -> None:
        if net not in self.rising:
            raise ProfileError(
                f"no activity recorded for net {net!r} in "
                f"{self.netlist_name!r}"
            )
