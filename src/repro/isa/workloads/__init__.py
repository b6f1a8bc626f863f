"""Profiling workloads: the paper's three programs plus extensions.

* :mod:`~repro.isa.workloads.idea` — the IDEA block cipher (Table 3),
  implemented exactly (verified against a Python reference and an
  encrypt/decrypt round trip).
* :mod:`~repro.isa.workloads.espresso_like` — the dominant inner loops
  of SPEC espresso: bit-paired cube containment / intersection /
  merging over a synthetic PLA cover (Table 1): shift-heavy.
* :mod:`~repro.isa.workloads.li_like` — the dominant inner loops of
  SPEC li: cons-cell list building, reversal, summation and assoc
  lookup (Table 2): add/load-heavy, no multiplies.
* :mod:`~repro.isa.workloads.fir` — extension: multiply-accumulate FIR
  filter, a continuously-multiplying contrast case.
* :mod:`~repro.isa.workloads.crc` — extension: bitwise CRC-32,
  shift/xor saturated.
* :mod:`~repro.isa.workloads.sort` — extension: recursive quicksort,
  exercising the call stack and compare/move-dominated control flow.
* :mod:`~repro.isa.workloads.matmul` — extension: 4-unrolled integer
  matrix multiply whose grouped multiply bursts give the multiplier
  bga ≈ fga/4 (the run-length contrast to IDEA).
"""

from repro import _lazy_namespace
from repro.errors import ReproError

__all__ = ["WORKLOAD_NAMES", "build"]
_lazy_namespace(globals(), {}, submodules=(
    "idea", "espresso_like", "li_like", "fir", "crc", "sort", "matmul",
))

#: CLI/benchmark short names, in paper-table order then extensions.
WORKLOAD_NAMES = ("idea", "espresso", "li", "fir", "crc", "sort", "matmul")


def build(name: str, scale: int = 48):
    """Build a bundled workload by short name at a given scale.

    ``scale`` is a single size knob mapped onto each workload's natural
    parameters (blocks, cubes, list length, ...) with per-workload
    floors so tiny scales still produce runnable programs.
    """
    if name == "idea":
        from repro.isa.workloads import idea
        return idea.build_program(idea.random_blocks(max(scale // 8, 1)))
    if name == "espresso":
        from repro.isa.workloads import espresso_like
        return espresso_like.build_program(n_cubes=max(scale, 8), n_vars=10)
    if name == "li":
        from repro.isa.workloads import li_like
        return li_like.build_program(
            n=max(scale, 4), n_lookups=max(scale // 2, 2)
        )
    if name == "fir":
        from repro.isa.workloads import fir
        return fir.build_program(n_samples=max(scale, 8))[0]
    if name == "crc":
        from repro.isa.workloads import crc
        return crc.build_program(n_words=max(scale // 2, 4))
    if name == "sort":
        from repro.isa.workloads import sort
        return sort.build_program(count=max(scale, 8))
    if name == "matmul":
        from repro.isa.workloads import matmul
        return matmul.build_program(n=max(4 * (scale // 8), 4))
    raise ReproError(
        f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}"
    )
