"""Documentation accuracy tests: examples in docs must actually work."""

import pathlib
import re

import pytest

DOCS = pathlib.Path(__file__).parent.parent / "docs"
README = pathlib.Path(__file__).parent.parent / "README.md"


def fenced_blocks(path):
    text = path.read_text()
    return re.findall(r"```(?:\w*)\n(.*?)```", text, flags=re.DOTALL)


class TestNetlistFormatDoc:
    @pytest.fixture(scope="class")
    def example(self):
        blocks = fenced_blocks(DOCS / "netlist-format.md")
        candidates = [b for b in blocks if b.lstrip().startswith("#")]
        assert candidates, "example block missing from the doc"
        return candidates[0]

    def test_example_parses_and_accumulates(self, example):
        from repro.circuits.io import parse_netlist

        netlist = parse_netlist(example)
        # The documented circuit is a 2-bit accumulator: q += a.
        history = netlist.evaluate_sequence(
            [{"a[0]": 1, "a[1]": 0}] * 4
        )
        counts = [
            history[k]["q[0]"] + 2 * history[k]["q[1]"] for k in range(4)
        ]
        assert counts == [0, 1, 2, 3]

    def test_grammar_block_lists_every_keyword(self):
        text = (DOCS / "netlist-format.md").read_text()
        for keyword in ("netlist", "input", "constant", "gate",
                        "register", "output"):
            assert keyword in text

    def test_documented_catalog_matches_code(self):
        from repro.tech.cells import standard_cells

        text = (DOCS / "netlist-format.md").read_text()
        for cell_name in standard_cells():
            assert f"`{cell_name}`" in text, cell_name


class TestIsaDoc:
    def test_documented_mnemonics_exist(self):
        from repro.isa.instructions import instruction_set

        text = (DOCS / "isa.md").read_text()
        for mnemonic in instruction_set():
            assert mnemonic in text, mnemonic

    def test_documented_data_base_matches_code(self):
        from repro.isa.assembler import DATA_BASE

        text = (DOCS / "isa.md").read_text()
        assert hex(DATA_BASE) in text

    def test_doc_example_assembles_and_runs(self):
        from repro.isa.assembler import assemble
        from repro.isa.machine import Machine

        blocks = fenced_blocks(DOCS / "isa.md")
        sources = [b for b in blocks if ".text" in b and "HALT" in b]
        assert sources, "assembly example missing from the ISA doc"
        machine = Machine(assemble(sources[0]))
        machine.run()
        assert machine.halted
        assert machine.instructions_retired > 0


class TestReadme:
    def test_quickstart_snippet_runs(self):
        blocks = fenced_blocks(README)
        snippets = [
            b for b in blocks if "LowVoltageDesignFlow" in b and "import" in b
        ]
        assert snippets, "quickstart snippet missing"
        # Shrink the workload so the doc test stays fast.
        code = snippets[0].replace("random_blocks(8)", "random_blocks(1)")
        code = code.replace("standard_datapath()",
                            "standard_datapath(width=4, stimulus_vectors=8)")
        namespace = {}
        exec(compile(code, "<readme>", "exec"), namespace)  # noqa: S102

    def test_example_scripts_listed_exist(self):
        text = README.read_text()
        root = README.parent
        for match in re.findall(r"python (examples/\w+\.py)", text):
            assert (root / match).exists(), match

    def test_cli_commands_listed_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = README.read_text()
        for line in re.findall(r"python -m repro ([^\n]+)", text):
            tokens = line.split("#")[0].split()
            # Replace file outputs with a throwaway path.
            tokens = [
                t if t != "soias.lib.json" else "/tmp/x.json"
                for t in tokens
            ]
            parser.parse_args(tokens)  # must not SystemExit


def _fenced_cli_commands():
    """Every ``python -m repro ...`` line in README/docs fenced blocks.

    Backslash continuations are joined first, so a command split over
    several lines is checked whole.
    """
    commands = []
    for path in [README, *sorted(DOCS.glob("*.md"))]:
        for block in fenced_blocks(path):
            joined = re.sub(r"\\\n\s*", " ", block)
            for match in re.findall(r"python -m repro ([^\n]+)", joined):
                tokens = match.split("#")[0].split()
                commands.append(
                    pytest.param(tokens, id=f"{path.name}:{'_'.join(tokens)}")
                )
    return commands


class TestDocumentedCliCommands:
    def test_commands_found(self):
        assert len(_fenced_cli_commands()) >= 10

    @pytest.mark.parametrize("tokens", _fenced_cli_commands())
    def test_command_parses(self, tokens):
        from repro.cli import build_parser

        build_parser().parse_args(tokens)  # must not SystemExit
