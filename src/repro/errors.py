"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DeviceModelError",
    "CalibrationError",
    "NetlistError",
    "SimulationError",
    "StimulusError",
    "AssemblyError",
    "MachineError",
    "ProfileError",
    "CharacterizationError",
    "LibraryError",
    "OptimizationError",
    "AnalysisError",
    "SerializationError",
    "StoreError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class DeviceModelError(ReproError):
    """Invalid device-model parameters or out-of-domain bias point."""


class CalibrationError(DeviceModelError):
    """A calibration routine could not fit the requested targets."""


class NetlistError(ReproError):
    """Structural problem in a netlist (unknown net, cycle, bad pin...)."""


class SimulationError(ReproError):
    """The event-driven simulator was misused or reached a bad state."""


class StimulusError(ReproError):
    """A stimulus generator received inconsistent parameters."""


class AssemblyError(ReproError):
    """The assembler rejected an assembly-language source program."""


class MachineError(ReproError):
    """The ISA interpreter trapped (bad opcode, memory fault, ...)."""


class ProfileError(ReproError):
    """Activity profiling failed or was queried inconsistently."""


class CharacterizationError(ReproError):
    """Cell characterization failed for a cell/corner combination."""


class LibraryError(ReproError):
    """Cell-library lookup or (de)serialization problem."""


class OptimizationError(ReproError):
    """A (V_DD, V_T) optimization did not converge or is infeasible."""


class AnalysisError(ReproError):
    """Analysis-layer misuse (empty sweep, bad contour request, ...)."""


class SerializationError(DeviceModelError):
    """A persisted payload is malformed: corrupt JSON, missing keys, or
    a wrong schema version.  Subclasses :class:`DeviceModelError` so
    callers that caught device errors for load failures keep working."""


class StoreError(ReproError):
    """Run-registry misuse or damage (bad run id, corrupt manifest, ...)."""

