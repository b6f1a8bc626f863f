"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def _recorded_run_id(captured_out):
    match = re.search(r"Run recorded: (\S+)", captured_out)
    assert match, captured_out
    return match.group(1)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.workload == ["idea"]
        assert args.duty == 1.0

    @pytest.mark.parametrize("verb", ["cache", "sched"])
    def test_removed_verbs_rejected(self, verb, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb, "stats"])
        assert verb not in build_parser().format_help()

    @pytest.mark.parametrize(
        "verb", ["optimize", "compare", "contour", "surface", "variation"]
    )
    @pytest.mark.parametrize(
        "flag",
        [
            ["--workers", "2"],
            ["--progress"],
            ["--store", "x"],
            ["--scheduler", "x"],
        ],
    )
    def test_removed_flags_rejected(self, verb, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb] + flag)

    @pytest.mark.parametrize("verb", ["contour", "surface"])
    def test_has_no_refinement(self, verb, capsys):
        for flag in (["--refine", "2"], ["--refine-band", "0.3"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb] + flag)

    @pytest.mark.parametrize("verb", ["profile", "compare"])
    def test_reference_flag_is_a_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--reference"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --reference" in (
            capsys.readouterr().err
        )

    def test_compare_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workload", "doom"])


class TestProfileCommand:
    def test_prints_unit_rows(self, capsys):
        assert main(["profile", "--workload", "li", "--scale", "16"]) == 0
        output = capsys.readouterr().out
        assert "adder" in output
        assert "fga" in output

    def test_merges_multiple_workloads(self, capsys):
        assert (
            main(
                ["profile", "--workload", "li", "espresso",
                 "--scale", "12"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "li+espresso" in output

    def test_duty_scaling_applied(self, capsys):
        main(["profile", "--workload", "li", "--scale", "16",
              "--duty", "0.5"])
        output = capsys.readouterr().out
        assert "duty 0.5" in output

    def test_profile_metrics_show_machine_counters(self, capsys):
        assert (
            main(
                ["profile", "--workload", "crc", "--scale", "8",
                 "--metrics"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Metrics: profile" in output
        assert "machine.instructions" in output
        assert "machine.run_counted" in output


class TestActivityCommand:
    @pytest.mark.parametrize("stimulus", ["random", "counting"])
    def test_histogram_printed(self, capsys, stimulus):
        code = main(
            [
                "activity", "--circuit", "adder", "--width", "4",
                "--vectors", "40", "--stimulus", stimulus,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean activity" in output
        assert "nodes" in output

    def test_shifter_circuit(self, capsys):
        assert (
            main(
                ["activity", "--circuit", "shifter", "--width", "4",
                 "--vectors", "30"]
            )
            == 0
        )
        assert "shifter" in capsys.readouterr().out

    def test_shifter_width_one_rounds_up(self, capsys):
        # Width 1 used to round to an invalid 1-bit barrel shifter;
        # it now rounds up to the smallest legal width (2).
        assert (
            main(
                ["activity", "--circuit", "shifter", "--width", "1",
                 "--vectors", "20"]
            )
            == 0
        )
        assert "mean activity" in capsys.readouterr().out

    def test_nonpositive_width_rejected(self, capsys):
        assert (
            main(
                ["activity", "--circuit", "shifter", "--width", "0",
                 "--vectors", "20"]
            )
            == 1
        )
        assert "width" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_reports_optimum(self, capsys):
        code = main(
            ["optimize", "--delay-factor", "4", "--stages", "11"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Optimum" in output
        assert "V_T" in output
        assert "Yield" not in output

    def test_yield_mode_reports_percentile_line(self, capsys):
        code = main(
            ["optimize", "--delay-factor", "4", "--stages", "11",
             "--yield-percentile", "99", "--sigma", "0.03",
             "--samples", "24"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Optimum" in output
        assert "p99 delay" in output
        assert "leakage amplification" in output

    def test_yield_mode_raises_supply_over_nominal(self, capsys):
        base = ["optimize", "--delay-factor", "4", "--stages", "11"]
        assert main(base) == 0
        nominal = capsys.readouterr().out
        assert main(
            base + ["--yield-percentile", "99", "--samples", "24"]
        ) == 0
        statistical = capsys.readouterr().out

        def optimum_vdd(output):
            return float(
                re.search(r"V_DD = ([0-9.]+) V", output).group(1)
            )

        assert optimum_vdd(statistical) > optimum_vdd(nominal)

    def test_yield_flags_parse(self):
        args = build_parser().parse_args(
            ["optimize", "--yield-percentile", "95", "--sigma", "0.05",
             "--samples", "64", "--seed", "9"]
        )
        assert args.yield_percentile == 95.0
        assert args.sigma == 0.05
        assert args.samples == 64
        assert args.seed == 9
        # Off by default: nominal bit-identical behavior.
        assert (
            build_parser()
            .parse_args(["optimize"])
            .yield_percentile
            is None
        )

    def test_compare_accepts_yield_flags(self):
        args = build_parser().parse_args(
            ["compare", "--yield-percentile", "99", "--samples", "32"]
        )
        assert args.yield_percentile == 99.0
        assert args.samples == 32

    def test_yield_record_includes_spec(self, tmp_path, capsys):
        root = str(tmp_path / "runs")
        code = main(
            ["optimize", "--delay-factor", "4", "--stages", "11",
             "--yield-percentile", "99", "--samples", "24",
             "--record", "--runs-root", root]
        )
        assert code == 0
        run_id = _recorded_run_id(capsys.readouterr().out)
        assert main(["runs", "show", run_id, "--runs-root", root]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["inputs"]["yield"]["percentile"] == 99.0
        assert manifest["inputs"]["yield"]["n_samples"] == 24

    def test_nominal_record_has_no_yield_keys(self, tmp_path, capsys):
        root = str(tmp_path / "runs")
        code = main(
            ["optimize", "--delay-factor", "4", "--stages", "11",
             "--record", "--runs-root", root]
        )
        assert code == 0
        run_id = _recorded_run_id(capsys.readouterr().out)
        assert main(["runs", "show", run_id, "--runs-root", root]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert "yield" not in manifest["inputs"]


#: Supplies the stack solver once bisected forever: a NaN span never
#: narrows, so only the entry checks stop these.  A non-finite V_T
#: shift spun the stack solve's inner Newton level the same way (inf
#: instead printed delays of ~8e16 s).
HANGING_ARGVS = [
    ["characterize", "--vdd", "nan"],
    ["characterize", "--vdd", "inf"],
    ["recover", "--vdd", "nan"],
    ["variation", "--cell", "NAND2", "--vdd", "nan"],
    ["characterize", "--vt-shift=nan"],
    ["characterize", "--vt-shift=-inf"],
    ["characterize", "--vt-shift=inf"],
]


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--stages", "11", "--delay-factor", "nan"],
            ["surface", "--grid", "3", "--stages", "11", "--clock", "nan"],
            ["surface", "--grid", "3", "--stages", "11", "--activity", "nan"],
            ["compare", "--clock", "nan"],
            ["contour", "--clock", "nan"],
            ["variation", "--vdd", "nan"],
            ["variation", "--vdd", "inf"],
            ["variation", "--sigma", "nan"],
            ["variation", "--load-ff", "nan"],
            ["characterize", "--load-ff", "nan"],
            ["optimize", "--yield-percentile", "99", "--sigma", "nan"],
            ["recover", "--budget", "nan"],
            ["compare", "--vdd", "nan"],
            ["contour", "--vdd", "nan"],
            ["activity", "--vdd", "nan"],
            ["shutdown", "--clock", "0"],
            ["shutdown", "--clock", "nan"],
            ["shutdown", "--mean-busy", "0"],
            ["shutdown", "--mean-busy", "-5"],
            ["shutdown", "--mean-idle", "0"],
            ["shutdown", "--mean-idle", "-1"],
            ["surface", "--grid", "4", "--stages", "100"],
            ["activity", "--vectors", "1"],
            ["characterize", "--vdd", "240"],
            ["characterize", "--vdd", "1e308"],
            ["margins", "--vdd", "1e308"],
        ],
    )
    def test_exits_with_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "nan" not in captured.out

    @pytest.mark.parametrize("argv", HANGING_ARGVS)
    def test_non_finite_supply_returns(self, argv):
        # A subprocess under a timeout, so a regression fails here
        # instead of hanging the suite.
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")


class TestCompareCommand:
    def test_reports_all_technologies(self, capsys):
        code = main(
            [
                "compare", "--workload", "li", "--scale", "12",
                "--width", "4", "--vectors", "20", "--duty", "0.2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        for column in ("SOIAS", "MTCMOS", "VTCMOS"):
            assert column in output


class TestMarginsCommand:
    def test_reports_margins_and_floor(self, capsys):
        code = main(["margins", "--vdd", "1.0", "0.3", "--floor", "0.3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "NM_L" in output
        assert "Minimum supply" in output

    def test_floor_zero_skips_search(self, capsys):
        assert main(["margins", "--vdd", "1.0", "--floor", "0"]) == 0
        assert "Minimum supply" not in capsys.readouterr().out


class TestShutdownCommand:
    def test_reports_all_policies(self, capsys):
        code = main(["shutdown", "--periods", "60"])
        assert code == 0
        output = capsys.readouterr().out
        for policy in ("always-on", "predictive", "oracle"):
            assert policy in output


class TestRecoverCommand:
    def test_reports_both_passes(self, capsys):
        code = main(["recover", "--circuit", "adder", "--width", "6"])
        assert code == 0
        output = capsys.readouterr().out
        assert "downsizing" in output
        assert "dual-V_T" in output


class TestVariationCommand:
    def test_reports_distributions_and_amplification(self, capsys):
        assert main(
            ["variation", "--samples", "16", "--vdd", "0.8"]
        ) == 0
        output = capsys.readouterr().out
        assert "delay" in output
        assert "leakage" in output
        assert "Leakage amplification" in output
        assert "lognormal closed form" in output

    def test_metrics_show_batched_counters(self, capsys):
        assert main(
            ["variation", "--samples", "16", "--vdd", "0.8", "--metrics"]
        ) == 0
        output = capsys.readouterr().out
        assert "optimizer.plan_builds" in output
        assert "variation.samples_batched" in output

    def test_unknown_cell_rejected(self, capsys):
        assert main(["variation", "--cell", "FLUXCAP"]) == 1
        assert "unknown cell" in capsys.readouterr().err

class TestContourCommand:
    def test_prints_contour_cells(self, capsys):
        assert main(
            ["contour", "--width", "4", "--vectors", "20", "--grid", "6"]
        ) == 0
        output = capsys.readouterr().out
        assert re.search(r"contour cells\s+\d+", output)


class TestSurfaceCommand:
    #: Small/fast surface invocation reused across the tests.
    BASE = [
        "surface", "--grid", "5", "--stages", "11", "--clock", "2e7",
    ]

    def test_prints_optimum_and_locus(self, capsys):
        assert main(self.BASE) == 0
        output = capsys.readouterr().out
        assert "feasible cells" in output
        assert "optimum energy" in output
        assert "locus" in output
        assert "refined grid" not in output

    def test_infeasible_surface_reports_error(self, capsys):
        assert main(self.BASE[:-1] + ["1e12"]) == 1
        assert "no feasible" in capsys.readouterr().err

    def test_bad_ranges_rejected(self, capsys):
        assert main(self.BASE + ["--vt-min", "0.6"]) == 1
        assert "--vt-min" in capsys.readouterr().err
        assert main(self.BASE + ["--vdd-min", "0"]) == 1
        assert "--vdd-min" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["surface"])
        assert args.technology == "soi"
        assert args.grid == 12

    def test_metrics_include_surface_spans(self, capsys):
        assert main(self.BASE + ["--metrics"]) == 0
        output = capsys.readouterr().out
        assert "flow.energy_surface" in output
        assert "analysis.energy_surface" in output


class TestStoreParserArgs:
    def test_optimize_accepts_record_flag(self):
        args = build_parser().parse_args(["optimize", "--record"])
        assert args.record is True

    def test_compare_accepts_record_flags(self):
        args = build_parser().parse_args(
            ["compare", "--record", "--runs-root", "/tmp/runs"]
        )
        assert args.record is True
        assert args.runs_root == "/tmp/runs"

    def test_variation_defaults(self):
        args = build_parser().parse_args(["variation"])
        assert args.cell == "INV"
        assert args.samples == 300
        assert args.sigma == 0.03
        assert args.vdd == 1.0

    def test_variation_accepts_metrics_flag(self):
        args = build_parser().parse_args(["variation", "--metrics"])
        assert args.metrics

    def test_runs_actions_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "frobnicate"])


class TestRunsCommand:
    def _record(self, tmp_path, delay_factor, capsys):
        code = main(
            ["optimize", "--delay-factor", str(delay_factor),
             "--stages", "11", "--record",
             "--runs-root", str(tmp_path / "runs")]
        )
        assert code == 0
        return _recorded_run_id(capsys.readouterr().out)

    def test_list_empty(self, tmp_path, capsys):
        code = main(
            ["runs", "list", "--runs-root", str(tmp_path / "runs")]
        )
        assert code == 0
        assert "No runs recorded" in capsys.readouterr().out

    def test_record_list_show_diff_round_trip(self, tmp_path, capsys):
        first = self._record(tmp_path, 4, capsys)
        second = self._record(tmp_path, 6, capsys)
        assert first != second

        root = str(tmp_path / "runs")
        assert main(["runs", "list", "--runs-root", root]) == 0
        listing = capsys.readouterr().out
        assert first in listing
        assert second in listing

        assert main(["runs", "show", first, "--runs-root", root]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "optimize"
        assert manifest["inputs"]["delay_factor"] == 4.0

        assert main(
            ["runs", "diff", first, second, "--runs-root", root]
        ) == 0
        diff_out = capsys.readouterr().out
        assert "inputs.delay_factor" in diff_out
        assert "result_digest" in diff_out

    def test_show_unknown_run_fails(self, tmp_path, capsys):
        code = main(
            ["runs", "show", "nosuchrun",
             "--runs-root", str(tmp_path / "runs")]
        )
        assert code == 1
        assert "nosuchrun" in capsys.readouterr().err

    def test_show_requires_exactly_one_id(self, tmp_path, capsys):
        code = main(
            ["runs", "show", "--runs-root", str(tmp_path / "runs")]
        )
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_diff_requires_exactly_two_ids(self, tmp_path, capsys):
        code = main(
            ["runs", "diff", "only-one",
             "--runs-root", str(tmp_path / "runs")]
        )
        assert code == 1
        assert "exactly two" in capsys.readouterr().err


class TestCharacterizeCommand:
    def test_prints_cells(self, capsys):
        assert main(["characterize", "--vdd", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "NAND2" in output

    def test_writes_library(self, tmp_path, capsys):
        path = tmp_path / "lib.json"
        code = main(
            ["characterize", "--vdd", "0.8", "1.2", "--output", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-liberty-lite-v1"
