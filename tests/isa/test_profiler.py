"""Unit tests for fga/bga extraction (the ATOM analogue)."""

import pytest

from repro.errors import ProfileError
from repro.isa.assembler import assemble
from repro.isa.instructions import FUNCTIONAL_UNITS, instruction_set
from repro.isa.machine import Machine
from repro.isa.profiler import profile_from_counts, profile_program
from tests.isa.reference_machine import (
    AtomProfiler,
    ReferenceMachine,
    reference_profile,
)


class TestUnitAnnotations:
    def test_paper_assumption_loads_use_adder(self):
        specs = instruction_set()
        assert "adder" in specs["LW"].units
        assert "adder" in specs["SW"].units

    def test_paper_assumption_compares_use_adder(self):
        specs = instruction_set()
        for branch in ("BEQ", "BNE", "BLT", "BGEU"):
            assert "adder" in specs[branch].units

    def test_shift_and_multiply_units(self):
        specs = instruction_set()
        assert specs["SLLI"].units == frozenset({"shifter"})
        assert specs["MUL"].units == frozenset({"multiplier"})

    def test_halt_uses_nothing(self):
        assert instruction_set()["HALT"].units == frozenset()


class TestCounting:
    def test_fga_is_use_fraction(self):
        # 4 adds + 1 halt: adder fga = 4/5.
        program = assemble("ADD r1, r0, r0\n" * 4 + "HALT")
        profile = profile_program(program)
        assert profile.fga("adder") == pytest.approx(4.0 / 5.0)

    def test_bga_counts_runs_not_uses(self):
        # add add add (one run) shift add add (second run) halt
        program = assemble(
            """
            ADD r1, r0, r0
            ADD r1, r0, r0
            ADD r1, r0, r0
            SLLI r2, r1, 1
            ADD r1, r0, r0
            ADD r1, r0, r0
            HALT
            """
        )
        profile = profile_program(program)
        adder = profile.stats("adder")
        assert adder.uses == 5
        assert adder.runs == 2
        assert adder.bga == pytest.approx(2.0 / 7.0)

    def test_sequential_uses_give_minimal_bga(self):
        # The paper: "if all the uses of a block were sequential, bga
        # would be 1/total".
        program = assemble("ADD r1, r0, r0\n" * 9 + "HALT")
        profile = profile_program(program)
        assert profile.bga("adder") == pytest.approx(1.0 / 10.0)

    def test_bga_never_exceeds_fga(self):
        program = assemble(
            """
            LI r1, 50
            loop: SLLI r2, r1, 1
            MUL r3, r2, r2
            ADDI r1, r1, -1
            BNE r1, zero, loop
            HALT
            """
        )
        profile = profile_program(program)
        for unit in ("adder", "shifter", "multiplier"):
            assert profile.bga(unit) <= profile.fga(unit)

    def test_mean_run_length(self):
        program = assemble("ADD r1, r0, r0\n" * 6 + "HALT")
        stats = profile_program(program).stats("adder")
        assert stats.mean_run_length == pytest.approx(6.0)

    def test_unused_unit_zero(self):
        profile = profile_program(assemble("NOP\nHALT"))
        assert profile.fga("multiplier") == 0.0
        assert profile.stats("multiplier").mean_run_length == 0.0

    def test_unknown_unit_rejected(self):
        profile = profile_program(assemble("HALT"))
        with pytest.raises(ProfileError, match="unknown unit"):
            profile.fga("fpu")

    def test_empty_profile_rejected(self):
        # A halted machine retires nothing.
        program = assemble("HALT")
        machine = Machine(program)
        machine.halted = True
        with pytest.raises(ProfileError, match="no instructions"):
            profile_program(program, machine=machine)


class TestDutyCycleScaling:
    def test_scaling_divides_activities(self):
        program = assemble("ADD r1, r0, r0\n" * 4 + "HALT")
        profile = profile_program(program)
        scaled = profile.scaled_by_duty_cycle(0.2)
        assert scaled.fga("adder") == pytest.approx(
            profile.fga("adder") * 0.2, rel=1e-6
        )
        assert scaled.bga("adder") == pytest.approx(
            profile.bga("adder") * 0.2, rel=1e-6
        )

    def test_uses_and_runs_preserved(self):
        program = assemble("ADD r1, r0, r0\nHALT")
        scaled = profile_program(program).scaled_by_duty_cycle(0.5)
        assert scaled.stats("adder").uses == 1

    def test_full_duty_is_identity(self):
        program = assemble("ADD r1, r0, r0\nHALT")
        profile = profile_program(program)
        same = profile.scaled_by_duty_cycle(1.0)
        assert same.fga("adder") == pytest.approx(profile.fga("adder"))

    @pytest.mark.parametrize("duty", [0.0, -0.5, 1.5])
    def test_invalid_duty_rejected(self, duty):
        profile = profile_program(assemble("HALT\n"))
        with pytest.raises(ProfileError, match="duty"):
            profile.scaled_by_duty_cycle(duty)


class TestProfileProgramHelper:
    def test_accepts_preconfigured_machine(self):
        program = assemble("ADD r1, r0, r0\nHALT")
        machine = Machine(program)
        extra = []
        machine.add_hook(lambda pc, instr: extra.append(pc))
        profile = profile_program(program, machine=machine)
        assert profile.total_instructions == 2
        assert len(extra) == 2


MIXED_SOURCE = """
LI r1, 20
loop: SLLI r2, r1, 1
MUL r3, r2, r2
SW r3, 0(r0)
LW r4, 0(r0)
ADDI r1, r1, -1
BNE r1, zero, loop
HALT
"""


class TestProfilingEngines:
    """The profile against the reference stepper's AtomProfiler hook."""

    def test_engines_produce_identical_profiles(self):
        fast = profile_program(assemble(MIXED_SOURCE))
        ref = reference_profile(assemble(MIXED_SOURCE))
        assert fast.total_instructions == ref.total_instructions
        for unit in FUNCTIONAL_UNITS:
            assert fast.stats(unit).uses == ref.stats(unit).uses
            assert fast.stats(unit).runs == ref.stats(unit).runs
            assert fast.fga(unit) == ref.fga(unit)
            assert fast.bga(unit) == ref.bga(unit)

    def test_profile_program_folds_run_counted(self):
        program = assemble(MIXED_SOURCE)
        counts = Machine(assemble(MIXED_SOURCE)).run_counted()
        assert (
            profile_program(program)
            == profile_from_counts(program.name, counts)
        )

    def test_hooked_machine_profile_equals_hook_free(self):
        # A user hook keeps observing every retired instruction, and
        # the profile is the hook-free one.
        program = assemble(MIXED_SOURCE)
        machine = Machine(program)
        seen = []
        machine.add_hook(lambda pc, instr: seen.append(pc))
        profile = profile_program(program, machine=machine)
        assert len(seen) == profile.total_instructions
        assert profile == profile_program(program)

    def test_profile_from_counts_matches_hook_profiler(self):
        machine = Machine(assemble(MIXED_SOURCE))
        counts = machine.run_counted()
        from_counts = profile_from_counts("mixed", counts)

        hooked = ReferenceMachine(assemble(MIXED_SOURCE))
        profiler = AtomProfiler()
        hooked.add_hook(profiler)
        hooked.run()
        from_hook = profiler.profile("mixed")
        assert from_counts.units == from_hook.units
        assert from_counts.total_instructions == from_hook.total_instructions

    def test_profile_from_counts_rejects_empty_run(self):
        machine = Machine(assemble("HALT"))
        counts = machine.run_counted()
        empty = type(counts)(
            classes=counts.classes,
            transitions=counts.transitions,
            retired=0,
            final_class=0,
        )
        with pytest.raises(ProfileError, match="no instructions"):
            profile_from_counts("empty", empty)
