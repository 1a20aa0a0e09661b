"""Register liveness analysis over the CFG.

A classic backward may-analysis: a register is live at a point if some
path to a use avoids an intervening definition. EEL uses it to find
*dead* registers at instrumentation points, so tools like QPT can borrow
scratch registers without spilling (paper §1's "insert instrumentation
without affecting a program's behavior").

Blocks with indirect exits (``jmpl``) and call sites are treated
conservatively: everything a caller might rely on is assumed live.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import Instruction
from ..isa.opcodes import Category
from ..isa.registers import FCC, ICC, PC, Reg, Y, f, r
from .cfg import CFG, BasicBlock

#: Registers assumed live at indirect exits / returns: everything.
_ALL_REGS = frozenset(
    [r(i) for i in range(1, 32)] + [f(i) for i in range(32)] + [ICC, FCC, Y]
)

#: ``Reg.code`` -> register, for turning a solved mask back into a set.
_BY_CODE = {reg.code: reg for reg in (*_ALL_REGS, PC)}

#: Scratch candidates in preference order: high locals/globals, the
#: registers compilers burn last.
_SCRATCH_CANDIDATES = tuple(r(i) for i in range(23, 0, -1))


def _mask(regs) -> int:
    mask = 0
    for reg in regs:
        mask |= 1 << reg.code
    return mask


_ALL_MASK = _mask(_ALL_REGS)


def _regs(mask: int) -> frozenset[Reg]:
    regs = []
    while mask:
        low = mask & -mask
        regs.append(_BY_CODE[low.bit_length() - 1])
        mask ^= low
    return frozenset(regs)


@dataclass(frozen=True)
class BlockLiveness:
    live_in: frozenset[Reg]
    live_out: frozenset[Reg]


class LivenessAnalysis:
    """Fixed-point liveness over one CFG.

    Register sets are solved as bitmasks over ``Reg.code`` (the masks
    :meth:`~repro.isa.instruction.Instruction.read_mask` and
    :meth:`~repro.isa.instruction.Instruction.write_mask` give); the
    queries turn them back into frozensets of registers."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: per block: the registers it reads or writes anywhere.
        self._touched: dict[int, int] = {}
        self._in: dict[int, int] = {}
        self._out: dict[int, int] = {}
        self._result: dict[int, BlockLiveness] = {}
        self._solve()

    def _block_sequence(self, block: BasicBlock) -> list[Instruction]:
        # Delay-slot instruction executes with the block (conservatively
        # including annulled slots: treating their uses as uses is safe).
        return block.instructions()

    def _boundary(self, block: BasicBlock) -> int:
        term = block.terminator
        if term is None:
            return 0
        # Returns and indirect jumps leave the CFG: assume all live.
        if term.category is Category.JMPL:
            return _ALL_MASK
        # A call's callee may use anything the caller set up.
        if term.category is Category.CALL:
            return _ALL_MASK
        if not block.succs:
            return _ALL_MASK
        return 0

    def _solve(self) -> None:
        # Per block, in solving order: (index, boundary, successors,
        # use = read before any write in the block, ~def).
        blocks = []
        for block in reversed(self.cfg.blocks):
            use = defs = reads = 0
            for inst in self._block_sequence(block):
                read = inst.read_mask()
                use |= read & ~defs
                reads |= read
                defs |= inst.write_mask()
            self._touched[block.index] = reads | defs
            succs = [succ.index for succ in self.cfg.successors(block)]
            blocks.append((block.index, self._boundary(block), succs, use, ~defs))

        live_in = {b.index: 0 for b in self.cfg}
        live_out = {b.index: 0 for b in self.cfg}
        changed = True
        while changed:
            changed = False
            for index, out, succs, use, kept in blocks:
                for succ in succs:
                    out |= live_in[succ]
                new_in = use | (out & kept)
                if out != live_out[index] or new_in != live_in[index]:
                    changed = True
                    live_out[index] = out
                    live_in[index] = new_in
        self._in = live_in
        self._out = live_out

    # -- queries -----------------------------------------------------------

    def _liveness(self, block: BasicBlock | int) -> BlockLiveness:
        index = block if isinstance(block, int) else block.index
        try:
            return self._result[index]
        except KeyError:
            result = self._result[index] = BlockLiveness(
                live_in=_regs(self._in[index]), live_out=_regs(self._out[index])
            )
            return result

    def live_in(self, block: BasicBlock | int) -> frozenset[Reg]:
        return self._liveness(block).live_in

    def live_out(self, block: BasicBlock | int) -> frozenset[Reg]:
        return self._liveness(block).live_out

    def dead_integer_registers(
        self, block: BasicBlock | int, *, count: int, avoid: frozenset[Reg] = frozenset()
    ) -> list[Reg]:
        """Up to ``count`` integer registers that are dead throughout the
        block — not live in, not read or written by the block itself.

        Returns fewer than ``count`` when the block keeps too many
        registers busy (callers fall back to reserved registers).
        """
        index = block if isinstance(block, int) else block.index
        busy = self._in[index] | self._touched[index] | _mask(avoid)
        found: list[Reg] = []
        for reg in _SCRATCH_CANDIDATES:
            if not busy >> reg.code & 1:
                found.append(reg)
                if len(found) == count:
                    break
        return found
