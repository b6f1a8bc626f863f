"""Basic blocks and the hot-block translator of the decoded ISA engine.

A **dynamic basic block** runs from its entry pc through the next
control transfer — BEQ, BNE, BLT, BGE, BLTU, BGEU, JAL, JALR or HALT —
or to the end of the program if no transfer follows.  Inside a block
the pc only ever advances by one, so a block is described by its entry
and its last pc.  :meth:`BlockTable.run` is the dispatch loop of every
hook-free run: it runs one block at a time and counts block entries
the way Pixie does.

Every block starts **cold**: it runs the machine's per-instruction
closures.  On its ``_TIER_UP``-th entry, :func:`translate_block`
replaces them with one generated Python function (the **hot** tier):

* a block whose branch or jump targets its own entry loops inside its
  function, at most :data:`LOOP_PASSES` passes per call, with every
  register it touches in a local variable, written back on every exit;
* a straight block runs once per call, so it reads and writes the
  register file directly, about one statement per instruction;
* HALT, a store over the memory footprint and a branch or jump to a
  negative pc raise :class:`~repro.isa.machine.Halt`,
  :class:`~repro.isa.machine.StoreFault` and
  :class:`~repro.isa.machine.PcFault` with the register file up to
  date, exactly like the HALT, SW, branch and jump closures.

Cold runners and generated functions share one calling convention,
``block(pc) -> next_pc``, so the dispatch loop never asks which tier a
block is in.  Generated source holds only integer literals and register
names built from decoded operands.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Callable, Dict, List, Sequence, Tuple

from repro import obs
from repro.isa.instructions import Instruction
from repro.isa.machine import _TIER_UP, Halt, PcFault, StoreFault

__all__ = [
    "LOOP_PASSES",
    "TERMINATORS",
    "BlockTable",
    "block_ends",
    "translate_block",
]

#: Mnemonics that end a basic block.
TERMINATORS = frozenset(
    ("BEQ", "BNE", "BLT", "BGE", "BLTU", "BGEU", "JAL", "JALR", "HALT")
)

#: Most passes a self-looping block runs per call of its generated
#: function before it returns to the dispatch loop.  Bounds what one
#: dispatch can retire, which sizes the loop's unchecked chunks.
LOOP_PASSES = 64

Slot = Callable[[int], int]

_MASK = "4294967295"
_SIGN = "2147483648"

#: Conditional branches: condition over (rs1, rs2) as source text.
_BRANCH_CONDITIONS = {
    "BEQ": "{a} == {b}",
    "BNE": "{a} != {b}",
    "BLT": f"({{a}} ^ {_SIGN}) < ({{b}} ^ {_SIGN})",
    "BGE": f"({{a}} ^ {_SIGN}) >= ({{b}} ^ {_SIGN})",
    "BLTU": "{a} < {b}",
    "BGEU": "{a} >= {b}",
}

#: ALU results as source text over operand expressions ``a`` and ``b``;
#: for the immediate forms ``b`` is the immediate as the closure uses it
#: (shift amounts masked to 5 bits, logic immediates to 32).
_ALU_RESULTS = {
    "ADD": f"({{a}} + {{b}}) & {_MASK}",
    "SUB": f"({{a}} - {{b}}) & {_MASK}",
    "SLT": f"1 if ({{a}} ^ {_SIGN}) < ({{b}} ^ {_SIGN}) else 0",
    "SLTU": "1 if {a} < {b} else 0",
    "SLL": f"({{a}} << ({{b}} & 31)) & {_MASK}",
    "SRL": "{a} >> ({b} & 31)",
    "SRA": f"((({{a}} ^ {_SIGN}) - {_SIGN}) >> ({{b}} & 31)) & {_MASK}",
    "MUL": f"({{a}} * {{b}}) & {_MASK}",
    "MULHU": "({a} * {b}) >> 32",
    "AND": "{a} & {b}",
    "OR": "{a} | {b}",
    "XOR": "{a} ^ {b}",
    "ADDI": f"({{a}} + {{b}}) & {_MASK}",
    "SLTI": f"1 if (({{a}} ^ {_SIGN}) - {_SIGN}) < {{b}} else 0",
    "SLLI": f"({{a}} << {{b}}) & {_MASK}",
    "SRLI": "{a} >> {b}",
    "SRAI": f"((({{a}} ^ {_SIGN}) - {_SIGN}) >> {{b}}) & {_MASK}",
    "ANDI": "{a} & {b}",
    "ORI": "{a} | {b}",
    "XORI": "{a} ^ {b}",
}


def block_ends(instructions: Sequence[Instruction]) -> List[int]:
    """Per pc, the last pc of the basic block entered there.

    That is the first terminator at or after the pc, or the last
    instruction of the program when no terminator follows.
    """
    ends: List[int] = []
    for pc, instruction in enumerate(instructions):
        if instruction.spec.mnemonic in TERMINATORS:
            ends += [pc] * (pc + 1 - len(ends))
    return ends + [len(instructions) - 1] * (len(instructions) - len(ends))


def _loops_to(instruction: Instruction, entry: int) -> bool:
    """Whether a block ending in ``instruction`` can jump back to ``entry``."""
    mnemonic = instruction.spec.mnemonic
    if mnemonic in _BRANCH_CONDITIONS:
        return instruction.operands[2] == entry
    return mnemonic == "JAL" and instruction.operands[1] == entry


def _registers(
    instruction: Instruction,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(registers read, registers written) by one instruction, r0 left out."""
    fmt = instruction.spec.fmt
    ops = instruction.operands
    if fmt == "rrr":
        reads, writes = ops[1:], ops[:1]
    elif fmt == "rri" or (fmt == "mem" and instruction.spec.mnemonic == "LW"):
        reads, writes = ops[1:2], ops[:1]
    elif fmt == "mem":  # SW reads its data and base registers
        reads, writes = ops[:2], ()
    elif fmt in ("ri", "jump"):
        reads, writes = (), ops[:1]
    elif fmt == "branch":
        reads, writes = ops[:2], ()
    else:
        reads, writes = (), ()
    return tuple(filter(None, reads)), tuple(filter(None, writes))


def translate_block(
    instructions: Sequence[Instruction],
    entry: int,
    end: int,
    namespace: Dict[str, object],
    loop_key: int,
) -> Slot:
    """Generate the function for the block ``instructions[entry..end]``.

    The function is defined in ``namespace``, which must bind ``regs``
    (the register file), ``memory`` and ``memory_get`` (the data memory
    and its ``get``), ``machine``, ``counts`` (the Pixie block-entry
    counts), ``Halt``, ``StoreFault`` and ``PcFault``.  A self-looping
    block adds one to ``counts[loop_key]`` for each pass after the
    first: every extra pass is a block entry whose predecessor is the
    block's own last instruction.

    A self-looping block keeps every register it touches in a local
    (``r5``) across passes and writes them back on every exit.  A
    straight block runs once per call, so it reads and writes the
    register file (``regs[5]``) directly.
    """
    last = instructions[end]
    last_mnemonic = last.spec.mnemonic
    loops = _loops_to(last, entry)
    straight = end if last_mnemonic in TERMINATORS else end + 1

    touched: Dict[int, None] = {}
    written: Dict[int, None] = {}
    if loops:
        for pc in range(entry, end + 1):
            reads, writes = _registers(instructions[pc])
            touched.update(dict.fromkeys(reads + writes))
            written.update(dict.fromkeys(writes))
    register = "r{}" if loops else "regs[{}]"

    def read(index: int) -> str:
        return register.format(index) if index else "0"

    def address(rs1: int, imm: int) -> str:
        # Registers are already masked, so a zero offset needs no mask.
        return read(rs1) if imm == 0 else f"({read(rs1)} + {imm}) & {_MASK}"

    indent = "        " if loops else "    "
    lines = [f"def block_{entry}(pc):"]
    lines += [f"    r{index} = regs[{index}]" for index in touched]
    if loops:
        lines += ["    passes = 0", "    while True:", "        passes += 1"]

    def emit(text: str, deeper: str = "") -> None:
        lines.append(indent + deeper + text)

    def write(index: int, value: str) -> None:
        emit(f"{register.format(index)} = {value}")

    def write_back(deeper: str = "") -> None:
        if loops:
            for index in written:
                emit(f"regs[{index}] = r{index}", deeper)
            emit(f"counts[{loop_key}] += passes - 1", deeper)

    for pc in range(entry, straight):
        instruction = instructions[pc]
        mnemonic = instruction.spec.mnemonic
        ops = instruction.operands
        if mnemonic in _ALU_RESULTS:
            rd, rs1, operand = ops
            if not rd:
                continue
            if instruction.spec.fmt == "rrr":
                b = read(operand)
            elif mnemonic in ("SLLI", "SRLI", "SRAI"):
                b = str(operand & 31)
            elif mnemonic in ("ANDI", "ORI", "XORI"):
                b = str(operand & 0xFFFFFFFF)
            else:
                b = str(operand)
            write(rd, _ALU_RESULTS[mnemonic].format(a=read(rs1), b=b))
        elif mnemonic == "LUI":
            if ops[0]:
                write(ops[0], str((ops[1] & 0xFFFF) << 16))
        elif mnemonic == "LW":
            rd, rs1, imm = ops
            if rd:
                write(rd, f"memory_get({address(rs1, imm)}, 0)")
        elif mnemonic == "SW":
            rs, rs1, imm = ops
            emit(f"if (address := {address(rs1, imm)}) not in memory "
                 "and len(memory) >= machine.memory_limit_words:")
            write_back("    ")
            emit(f"raise StoreFault({pc})", "    ")
            emit(f"memory[address] = {read(rs)}")
        # NOP (and any op whose only effect targets r0) emits nothing.

    ops = last.operands
    if loops:
        if last_mnemonic == "JAL":
            if ops[0]:
                write(ops[0], str(end + 1))
            emit(f"if passes == {LOOP_PASSES}:")
            exit_pc = str(entry)
        else:
            condition = _BRANCH_CONDITIONS[last_mnemonic].format(
                a=read(ops[0]), b=read(ops[1])
            )
            emit(f"if not ({condition}) or passes == {LOOP_PASSES}:")
            exit_pc = f"{entry} if {condition} else {end + 1}"
        emit("break", "    ")
        indent = "    "
        write_back()
        emit(f"return {exit_pc}")
    elif last_mnemonic in _BRANCH_CONDITIONS:
        condition = _BRANCH_CONDITIONS[last_mnemonic].format(
            a=read(ops[0]), b=read(ops[1])
        )
        if ops[2] < 0:  # taken, it leaves the program
            emit(f"if {condition}: raise PcFault({ops[2]})")
            emit(f"return {end + 1}")
        else:
            emit(f"return {ops[2]} if {condition} else {end + 1}")
    elif last_mnemonic == "JAL":
        if ops[0]:
            emit(f"regs[{ops[0]}] = {end + 1}")
        emit(f"raise PcFault({ops[1]})" if ops[1] < 0 else f"return {ops[1]}")
    elif last_mnemonic == "JALR":
        rd, rs1, imm = ops
        if rd:  # the target reads rs1 before the link register is set
            emit(f"next_pc = {address(rs1, imm)}")
            emit(f"regs[{rd}] = {end + 1}")
            emit("return next_pc")
        else:
            emit(f"return {address(rs1, imm)}")
    elif last_mnemonic == "HALT":
        emit("machine.halted = True")
        emit(f"raise Halt({end + 1})")
    else:  # the block runs off the end of the program
        emit(f"return {end + 1}")
    exec(compile("\n".join(lines), f"<block {entry}>", "exec"), namespace)
    return namespace.pop(f"block_{entry}")  # type: ignore[return-value]


class BlockTable:
    """One machine's basic blocks, their tiers and one run's Pixie counts.

    ``_table[pc]`` is ``(exit_base, block)`` for the block entered at
    ``pc``: ``block(pc)`` executes it and returns the next pc, and
    ``exit_base`` is the count-key base of whatever block follows (the
    class of this block's last instruction, times ``_stride``).
    ``_counts[prev_class * _stride + entry]`` counts the run's entries
    into block ``entry`` from class ``prev_class``.

    Every block starts as a shared stub that forms it on its first
    entry.  A one-instruction block becomes its own closure (a generated
    function could not beat one closure call).  A longer block becomes
    a cold runner that steps the block's closures and, on the block's
    ``_TIER_UP``-th entry, swaps in the generated function.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        decoded: Sequence[Slot],
        class_ids: Sequence[int],
        n_classes: int,
        namespace: Dict[str, object],
    ):
        self._instructions = instructions
        self._decoded = decoded
        self._class_ids = class_ids
        self._n_classes = n_classes
        self._stride = stride = len(instructions) or 1
        self._ends = ends = block_ends(instructions)
        base_of = {end: class_ids[end] * stride for end in set(ends)}
        self._exit_bases = list(map(base_of.__getitem__, ends))
        # The longest block starts at pc 0 or right after a block's end.
        starts = [s for s in (0, *(e + 1 for e in base_of)) if s < len(ends)]
        #: A bound on what one dispatch can retire: a whole block, or
        #: ``LOOP_PASSES`` passes of a self-looping one.
        self._longest = LOOP_PASSES * max(
            (ends[start] - start + 1 for start in starts), default=1
        )
        self._counts = [0] * (n_classes * stride)
        #: The table's slot for a block not formed yet.
        self._unformed: Slot = self._first_entry
        self._table: List[Tuple[int, Slot]] = list(
            zip(self._exit_bases, repeat(self._unformed))
        )
        #: Entry pcs of the formed blocks, in formation order.
        self._formed: List[int] = []
        #: Translated block -> its entries this run before translation.
        self._hot: Dict[int, int] = {}
        self._namespace = dict(
            namespace, counts=self._counts, Halt=Halt, StoreFault=StoreFault,
            PcFault=PcFault,
            memory_get=namespace["memory"].get,  # type: ignore[attr-defined]
        )

    def reset(self) -> None:
        """Start a run with zero counts (generated code reads the new list)."""
        self._counts = [0] * len(self._counts)
        self._namespace["counts"] = self._counts
        self._hot = dict.fromkeys(self._hot, 0)

    def run(
        self, pc: int, budget: int, start_class: int
    ) -> Tuple[str, int, int, int]:
        """Run blocks from ``pc`` with fresh counts until HALT, a fault
        or ``budget`` retirements.

        Returns ``(stop, pc, retired, final_class)``: ``stop`` is
        ``"halt"`` (``pc`` follows the HALT), ``"budget"``, ``"pc"``
        (``pc`` lies outside the program) or ``"store"`` (``pc`` is the
        SW that faulted; it did not retire); ``retired`` counts the
        instructions retired, and ``final_class`` is the class of the
        last one (``start_class`` seeds it; set on ``"halt"`` only).
        The stops are the hooked stepper's
        (:meth:`~repro.isa.machine.Machine._step`): it checks the
        budget before each fetch, so an exhausted budget wins over a pc
        outside the program.

        While the budget left covers ``chunk`` of the longest possible
        dispatches, it runs ``chunk`` blocks with no budget check, then
        re-derives the retired count from the block counts.  The last
        stretch checks every block and runs on closures, one
        instruction at a time once the budget ends inside a block.
        """
        self.reset()
        table = self._table
        counts = self._counts
        longest = self._longest
        prev = start_class * self._stride
        retired = 0
        try:
            if pc < 0:  # would index the table from its end
                raise PcFault(pc)
            while True:
                chunk = (budget - retired) // longest
                if chunk <= 0:
                    break
                for _ in range(chunk):
                    exit_base, block = table[pc]
                    counts[prev + pc] += 1
                    prev = exit_base
                    pc = block(pc)
                retired = self._retired()
            decoded = self._decoded
            remaining = budget - retired
            while True:
                exit_base, block = table[pc]
                if block is self._unformed:
                    self._form(pc)  # the fold reads formed blocks only
                length = self._ends[pc] - pc + 1
                counts[prev + pc] += 1
                if length > remaining:
                    break
                prev = exit_base
                remaining -= length
                for _ in range(length):
                    pc = decoded[pc](pc)
            # The budget ends inside this block.
            for _ in range(remaining):
                pc = decoded[pc](pc)
            return "budget", pc, max(budget, 0), start_class
        except Halt as halt:
            if obs.ENABLED:
                obs.incr("machine.translated_instructions", self._translated())
            return "halt", halt.next_pc, self._retired(), prev // self._stride
        except StoreFault as fault:
            # Its block is counted whole: take off the store and the
            # instructions after it.
            retired = self._retired() + fault.pc - self._ends[fault.pc] - 1
            return "store", fault.pc, retired, start_class
        except PcFault as fault:
            pc = fault.pc
        except IndexError:
            pass
        # The fetch at ``pc`` would leave the program.
        retired = self._retired()
        if retired < budget:
            return "pc", pc, retired, start_class
        return "budget", pc, max(budget, 0), start_class

    def _form(self, entry: int) -> Slot:
        """Install the block entered at ``entry``; returns its callable."""
        end = self._ends[entry]
        if end == entry:
            block = self._decoded[entry]
        else:
            block = self._cold(entry, tuple(self._decoded[entry:end + 1]))
        self._table[entry] = (self._exit_bases[entry], block)
        self._formed.append(entry)
        return block

    def _cold(self, entry: int, slots: Tuple[Slot, ...]) -> Slot:
        """The cold runner: steps ``slots``, translating the block on
        its ``_TIER_UP``-th entry (the generated function runs from the
        next entry on)."""
        left = _TIER_UP
        translate = self._translate

        def block(pc: int) -> int:
            nonlocal left
            left -= 1
            if not left:
                translate(entry)
            for slot in slots:
                pc = slot(pc)
            return pc
        return block

    def _first_entry(self, pc: int) -> int:
        """Stub of an unformed block: form it, then run this entry."""
        return self._form(pc)(pc)

    def _translate(self, entry: int) -> None:
        with obs.span("machine.translate"):
            block = translate_block(
                self._instructions, entry, self._ends[entry],
                self._namespace, self._exit_bases[entry] + entry,
            )
        self._table[entry] = (self._exit_bases[entry], block)
        self._hot[entry] = sum(self._counts[entry::self._stride])
        obs.incr("machine.translations")

    def _entries(self) -> Dict[int, int]:
        """Block entry pc -> entries this run, over all predecessors."""
        counts = self._counts
        stride = self._stride
        entries = {}
        for entry in self._formed:
            count = sum(counts[entry::stride])
            if count:
                entries[entry] = count
        return entries

    def _retired(self) -> int:
        """Instructions the run's counted block entries retire."""
        ends = self._ends
        return sum(
            count * (ends[entry] - entry + 1)
            for entry, count in self._entries().items()
        )

    def _translated(self) -> int:
        """Instructions retired this run inside generated functions."""
        entries = self._entries()
        return sum(
            (entries.get(entry, 0) - before) * (self._ends[entry] - entry + 1)
            for entry, before in self._hot.items()
        )

    def fold(self) -> List[int]:
        """The run's k x k class-transition matrix from its Pixie counts.

        Entering block ``b`` from class ``p`` adds one ``(p, first class
        of b)`` transition plus every transition inside ``b``.
        """
        k = self._n_classes
        ids = self._class_ids
        counts = self._counts
        classes = range(k)
        transitions = [0] * (k * k)
        for entry in self._formed:
            row = counts[entry::self._stride]  # entries by predecessor class
            count = sum(row)
            if not count:
                continue
            first = ids[entry]
            for prev in compress(classes, row):
                transitions[prev * k + first] += row[prev]
            for pc in range(entry, self._ends[entry]):
                transitions[ids[pc] * k + ids[pc + 1]] += count
        return transitions
