"""Tests for the repro.obs instrumentation subsystem and its wiring."""

import json

import pytest

from repro import obs
from repro.device.technology import soi_low_vt
from repro.power.optimizer import FixedThroughputOptimizer, RingOscillatorModel
from repro.tech.cells import standard_cells
from repro.tech.characterize import CellCharacterizer


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


class TestObsCore:
    def test_disabled_by_default_and_noop(self):
        assert not obs.is_enabled()
        obs.incr("x")
        obs.gauge("g", 1.0)
        obs.observe_seconds("t", 0.5)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["timers"] == {}

    def test_enable_records_and_disable_stops(self):
        obs.enable()
        obs.incr("x")
        obs.incr("x", 4)
        obs.gauge("g", 2.5)
        obs.observe_seconds("t", 0.25)
        obs.observe_seconds("t", 0.75)
        obs.disable()
        obs.incr("x")  # ignored
        assert obs.counter_value("x") == 5
        snap = obs.snapshot()
        assert snap["gauges"]["g"] == 2.5
        assert snap["timers"]["t"]["count"] == 2
        assert snap["timers"]["t"]["total_s"] == pytest.approx(1.0)

    def test_span_times_block_when_enabled(self):
        obs.enable()
        with obs.span("work"):
            pass
        count, total = obs.timer_value("work")
        assert count == 1
        assert total >= 0.0

    def test_span_is_shared_noop_when_disabled(self):
        assert obs.span("a") is obs.span("b")
        with obs.span("a"):
            pass
        assert obs.timer_value("a") == (0, 0.0)

    def test_enabled_scope_restores_and_isolates(self):
        obs.enable()
        obs.incr("outer")
        with obs.enabled_scope(fresh=True):
            assert obs.counter_value("outer") == 0
            obs.incr("inner")
        assert obs.is_enabled()  # previous state restored
        obs.disable()
        with obs.enabled_scope():
            assert obs.is_enabled()
        assert not obs.is_enabled()

    def test_reset_clears_everything(self):
        obs.enable()
        obs.incr("x")
        obs.gauge("g", 1.0)
        obs.observe_seconds("t", 1.0)
        obs.reset()
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["timers"] == {}

    def test_format_summary(self):
        assert "no metrics" in obs.format_summary()
        obs.enable()
        obs.incr("hits", 3)
        obs.gauge("rate", 0.5)
        text = obs.format_summary(title="T")
        assert "T" in text
        assert "hits" in text
        assert "rate" in text

    def test_dump_json(self, tmp_path):
        obs.enable()
        obs.incr("x", 2)
        path = tmp_path / "metrics.json"
        obs.dump_json(str(path), extra={"command": "test"})
        payload = json.loads(path.read_text())
        assert payload["counters"]["x"] == 2
        assert payload["command"] == "test"


class TestLeakageInstrumentation:
    def test_reference_solve_then_shift_scaled(self):
        # One NAND2 corner: 40 in-window shifts through the plan and the
        # scalar nominal share the pull-down stack's one reference solve,
        # made by the first shift; the other 40 leakages are scaled.
        characterizer = CellCharacterizer(soi_low_vt())
        nand2 = standard_cells()["NAND2"]
        shifts = [0.001 * i - 0.0205 for i in range(40)]
        with obs.enabled_scope():
            plan = characterizer.corner_plan(nand2)
            plan.leakages([0.6] * len(shifts), shifts)
            characterizer.leakage_current(nand2, 0.6)
            counters = obs.snapshot()["counters"]
        assert counters["leakage.stack_solves"] == 1
        assert counters["leakage.shift_scaled"] == 40
        assert counters["leakage.device_evals"] > 2

    def test_variation_metrics_report_shift_scaled(self, capsys):
        from repro.cli import main

        code = main(
            [
                "variation", "--cell", "NAND3", "--samples", "24",
                "--vdd", "0.8", "--metrics",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "leakage.stack_solves" in output
        assert "leakage.shift_scaled" in output


class TestRingHistoryIndependence:
    def test_revisited_vts_match_fresh_models(self):
        # One decode serves every V_T: answers must not depend on which
        # corners the model was asked before.
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        vts = [0.05, 0.15, 0.25, 0.05, 0.15, 0.25]

        def answer(model, vt):
            return (
                model.stage_delay(0.8, vt),
                model.energy_per_cycle(0.8, vt, 1e-8),
            )

        assert [answer(ring, vt) for vt in vts] == [
            answer(RingOscillatorModel(soi_low_vt(), stages=11), vt)
            for vt in vts
        ]


class TestOptimizerInstrumentation:
    def test_sweep_and_optimum_record_probes(self):
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        with obs.enabled_scope():
            optimizer.sweep([0.1, 0.2, 0.3], target)
            optimizer.optimum(target, vt_bounds=(0.05, 0.45))
            snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["optimizer.vdd_solves"] >= 3
        assert counters["optimizer.supply_evals"] > 0
        assert counters["optimizer.golden_probes"] > 0
        assert snap["timers"]["optimizer.sweep"]["count"] == 1
        assert snap["timers"]["optimizer.optimum"]["count"] == 1

    def test_optimum_solves_once_per_probe(self):
        # The winner is a probed V_T, so it is returned, not re-solved.
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        with obs.enabled_scope():
            best = optimizer.optimum(target, vt_bounds=(0.05, 0.45))
            counters = obs.snapshot()["counters"]
        assert counters["optimizer.vdd_solves"] == counters[
            "optimizer.golden_probes"
        ]
        assert best == optimizer.locus_point(best.vt, target)

    def test_one_plan_decode_per_ring_and_per_surface(self):
        from repro.analysis.surface import energy_surface

        with obs.enabled_scope():
            ring = RingOscillatorModel(soi_low_vt(), stages=11)
            optimizer = FixedThroughputOptimizer(ring)
            target = 4.0 * ring.stage_delay(1.0, 0.2)
            optimizer.sweep([0.1, 0.2, 0.3], target)
            optimizer.optimum(target, vt_bounds=(0.05, 0.45))
            assert obs.counter_value("optimizer.plan_builds") == 1
            obs.reset()
            energy_surface(
                soi_low_vt(), [0.1, 0.2, 0.3], [0.4, 0.7, 1.0], 5e-8,
                stages=11,
            )
            assert obs.counter_value("optimizer.plan_builds") == 1

    def test_low_bound_clamp_counted(self):
        optimizer = FixedThroughputOptimizer(
            RingOscillatorModel(soi_low_vt(), stages=11)
        )
        with obs.enabled_scope():
            vdd = optimizer.solve_vdd_for_delay(1.0, vt=0.05)
            counters = obs.snapshot()["counters"]
        assert vdd == pytest.approx(soi_low_vt().min_vdd)
        assert counters["optimizer.low_bound_clamps"] == 1

    def test_delay_probes_match_stage_delay_calls(self, monkeypatch):
        # Probes are counted at the query site: every stage_delay call
        # is one probe, inside a solve or not, and the optimizer's own
        # solves run on the ring's plan without counting.  The target
        # is computed inside the scope, so the count is not zero.
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        calls = []
        stage_delay = ring.stage_delay

        def counted(vdd, vt):
            calls.append((vdd, vt))
            return stage_delay(vdd, vt)

        monkeypatch.setattr(ring, "stage_delay", counted)
        with obs.enabled_scope():
            target = 4.0 * ring.stage_delay(1.0, 0.2)
            optimizer.sweep([0.1, 0.2, 0.3], target)
            optimizer.optimum(target, vt_bounds=(0.05, 0.45))
            ring.oscillation_period(0.5, 0.2)
            counters = obs.snapshot()["counters"]
        assert counters["optimizer.delay_probes"] == len(calls) == 2

    def test_yield_solve_counters(self):
        from repro.power.optimizer import VariationSpec

        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        optimizer = FixedThroughputOptimizer(
            ring, variation=VariationSpec(n_samples=20)
        )
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        with obs.enabled_scope():
            optimizer.locus_point(0.2, target)
            snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["optimizer.yield_solves"] == 1
        # Bracket checks + bisection + the energy point's percentile.
        assert counters["optimizer.mc_probes"] > 2
        assert snap["gauges"]["optimizer.leakage_amplification"] > 1.0
        assert (
            snap["gauges"]["optimizer.leakage_amplification_lognormal"]
            > 1.0
        )

    def test_nominal_solve_records_no_yield_counters(self):
        ring = RingOscillatorModel(soi_low_vt(), stages=11)
        optimizer = FixedThroughputOptimizer(ring)
        target = 4.0 * ring.stage_delay(1.0, 0.2)
        with obs.enabled_scope():
            optimizer.locus_point(0.2, target)
            counters = obs.snapshot()["counters"]
        assert "optimizer.yield_solves" not in counters
        assert "optimizer.mc_probes" not in counters


class TestMachineInstrumentation:
    SOURCE = "LI r1, 5\nloop: ADDI r1, r1, -1\nBNE r1, zero, loop\nHALT"

    def _machine(self):
        from repro.isa.assembler import assemble
        from repro.isa.machine import Machine

        return Machine(assemble(self.SOURCE))

    def test_run_records_instruction_counter_and_timer(self):
        # A hooked run records the same metrics as a hook-free one.
        machine = self._machine()
        machine.add_hook(lambda pc, instr: None)
        with obs.enabled_scope(fresh=True):
            retired = machine.run()
            snap = obs.snapshot()
        assert snap["counters"]["machine.instructions"] == retired
        assert snap["timers"]["machine.run"]["count"] == 1
        assert snap["gauges"]["machine.instructions_per_s"] > 0

    def test_run_records_decode_span_and_rate(self):
        with obs.enabled_scope(fresh=True):
            retired = self._machine().run()
            snap = obs.snapshot()
        assert snap["counters"]["machine.instructions"] == retired
        assert snap["timers"]["machine.decode"]["count"] == 1
        assert snap["timers"]["machine.run"]["count"] == 1
        assert "machine.run_counted" not in snap["timers"]
        assert snap["gauges"]["machine.instructions_per_s"] > 0

    def test_run_counted_records_its_own_timer(self):
        with obs.enabled_scope(fresh=True):
            counts = self._machine().run_counted()
            snap = obs.snapshot()
        assert snap["counters"]["machine.instructions"] == counts.retired
        assert snap["timers"]["machine.run_counted"]["count"] == 1

    def test_translation_metrics(self):
        from repro.isa.assembler import assemble
        from repro.isa.machine import Machine, _TIER_UP

        source = (
            f"LI r1, {2 * _TIER_UP}\nloop: ADDI r2, r2, 3\n"
            "ADDI r1, r1, -1\nBNE r1, zero, loop\nHALT"
        )
        with obs.enabled_scope(fresh=True):
            counts = Machine(assemble(source)).run_counted()
            snap = obs.snapshot()
        # The first pass runs in the block entered at the LI; the loop
        # block is entered for the other 2 * _TIER_UP - 1 passes and
        # translated on its _TIER_UP-th entry, so its last _TIER_UP - 1
        # passes (3 instructions each) run in generated code.
        assert snap["counters"]["machine.translations"] == 1
        assert snap["timers"]["machine.translate"]["count"] == 1
        assert snap["counters"]["machine.translated_instructions"] == (
            3 * (_TIER_UP - 1)
        )
        assert snap["counters"]["machine.instructions"] == counts.retired

    def test_decode_span_recorded_once(self):
        machine = self._machine()
        with obs.enabled_scope(fresh=True):
            machine.run()
            machine.decode()  # second call is a no-op
            snap = obs.snapshot()
        assert snap["timers"]["machine.decode"]["count"] == 1

    def test_disabled_obs_records_nothing(self):
        assert not obs.is_enabled()
        self._machine().run()
        assert obs.snapshot()["counters"] == {}


class TestCliMetrics:
    def test_optimize_metrics_prints_summary(self, capsys):
        from repro.cli import main

        code = main(["optimize", "--stages", "11", "--metrics"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Metrics: optimize" in output
        assert "optimizer.plan_builds" in output
        assert "optimizer.golden_probes" in output
        # The flag must not leave instrumentation globally enabled.
        assert not obs.is_enabled()

    def test_metrics_json_written(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "metrics.json"
        code = main(
            ["optimize", "--stages", "11", "--metrics-json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "optimize"
        assert payload["counters"]  # non-empty
        assert "optimizer.sweep" in payload["timers"]

    def test_contour_metrics(self, capsys):
        from repro.cli import main

        code = main(
            [
                "contour", "--grid", "4", "--vectors", "10",
                "--width", "4", "--metrics",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Metrics: contour" in captured.out
        assert "flow.ratio_surface" in captured.out
