"""The executable editor: insert instrumentation, re-lay-out, re-encode.

This is Figure 3 of the paper as code. A tool (e.g. QPT profiling):

1. analyzes the executable (:func:`repro.eel.cfg.build_cfg`);
2. selects and places instrumentation (:meth:`Editor.insert_before`);
3. optionally supplies a block transform — the instruction scheduler —
   which is applied to each block *as it is laid out in the new
   executable*, so original and instrumentation instructions are
   scheduled together;
4. generates a new executable with every branch retargeted and delay
   slots preserved (:meth:`Editor.build`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..isa.instruction import Instruction, nop
from ..isa.opcodes import Category
from ..obs.recorder import NULL_RECORDER, Recorder
from .cfg import CFG, BasicBlock, Edge, build_cfg
from .executable import BlockMap, Executable
from .image import Section, SectionKind, Symbol
from ..errors import ReproError

#: A block transform maps (block, body) to either a new body, or a
#: (body, delay) pair when it also fills the delay slot. ``body``
#: contains the block's straight-line instructions, instrumentation
#: already merged in program order.
BlockTransform = Callable[
    [BasicBlock, list[Instruction]],
    "list[Instruction] | tuple[list[Instruction], Instruction | None]",
]


class EditError(ReproError):
    pass


@dataclass
class _LaidOutBlock:
    #: the original block, or None for a synthetic trampoline.
    source: BasicBlock | None
    body: list[Instruction]
    terminator: Instruction | None
    delay: Instruction | None
    new_address: int = 0
    #: for trampolines with a terminator: the original block index the
    #: terminator jumps to.
    jump_to_block: int | None = None

    @property
    def instruction_count(self) -> int:
        return (
            len(self.body)
            + (1 if self.terminator is not None else 0)
            + (1 if self.delay is not None else 0)
        )


class Editor:
    """Accumulates edits against one executable, then builds a new one."""

    def __init__(
        self,
        executable: Executable,
        cfg: CFG | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.executable = executable
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if cfg is None:
            with self.recorder.span("eel.cfg_build"):
                cfg = build_cfg(executable)
        self.cfg = cfg
        self._insertions: dict[int, list[Instruction]] = {}
        self._appends: dict[int, list[Instruction]] = {}
        #: (src, dst) -> instructions, for taken-branch edges.
        self._taken_edge_insertions: dict[tuple[int, int], list[Instruction]] = {}
        #: (src, dst) -> instructions, for fall-through edges.
        self._fallthrough_edge_insertions: dict[tuple[int, int], list[Instruction]] = {}
        self._extra_sections: list[Section] = []

    # -- edit collection -------------------------------------------------------

    def insert_before(self, block: BasicBlock | int, instructions: list[Instruction]) -> None:
        """Insert ``instructions`` at the top of a block's body."""
        index = block if isinstance(block, int) else block.index
        for inst in instructions:
            if inst.is_control:
                raise EditError("inserted instrumentation must be straight-line")
        self._insertions.setdefault(index, []).extend(instructions)

    def insert_at_end(self, block: BasicBlock | int, instructions: list[Instruction]) -> None:
        """Insert ``instructions`` at the end of a block's body — after
        the original instructions but before the terminator and its
        delay slot. Used for exit-side instrumentation (epilogue
        counters, invariant checks before a branch)."""
        index = block if isinstance(block, int) else block.index
        for inst in instructions:
            if inst.is_control:
                raise EditError("inserted instrumentation must be straight-line")
        self._appends.setdefault(index, []).extend(instructions)

    def instrument_edge(self, edge: Edge, instructions: list[Instruction]) -> None:
        """Insert ``instructions`` on one CFG edge, so they execute
        exactly when control flows src -> dst.

        Taken-branch edges are routed through a *trampoline*: a new
        block at the end of the text holding the instrumentation and an
        unconditional jump to the original target; the source's branch
        is retargeted at it. Fall-through edges (including the return
        edge after a ``call``) get an inline block between src and dst —
        other predecessors of dst jump past it. This is how edge
        profiling instruments critical edges without disturbing any
        other path.
        """
        for inst in instructions:
            if inst.is_control:
                raise EditError("edge instrumentation must be straight-line")
        src = self.cfg.blocks[edge.src]
        if edge not in src.succs:
            raise EditError(f"{edge} is not an edge of this CFG")
        if edge.kind == "taken":
            term = src.terminator
            if term is None or term.category is Category.JMPL:
                raise EditError("cannot instrument an indirect edge")
            self._taken_edge_insertions.setdefault(
                (edge.src, edge.dst), []
            ).extend(instructions)
        else:
            if edge.dst != self._fallthrough_successor(edge.src):
                raise EditError("fall-through edge does not reach the next block")
            self._fallthrough_edge_insertions.setdefault(
                (edge.src, edge.dst), []
            ).extend(instructions)

    def _fallthrough_successor(self, block_index: int) -> int | None:
        nxt = block_index + 1
        return nxt if nxt < len(self.cfg.blocks) else None

    def add_data_section(self, section: Section) -> None:
        for existing in list(self.executable.sections) + self._extra_sections:
            if not (
                section.end <= existing.address or existing.end <= section.address
            ):
                raise EditError(
                    f"section {section.name!r} overlaps {existing.name!r}"
                )
        self._extra_sections.append(section)

    @property
    def inserted_instruction_count(self) -> int:
        return sum(len(v) for v in self._insertions.values()) + sum(
            len(v) for v in self._appends.values()
        )

    def block_body(self, block: BasicBlock | int) -> list[Instruction]:
        """The exact body a transform will receive for ``block`` at
        build time: its straight-line instructions with pending
        insertions and appends merged in program order. Lets a parallel
        scheduler see the editor's work list before the serial layout
        pass runs."""
        index = block if isinstance(block, int) else block.index
        source = self.cfg.blocks[index]
        return (
            self._insertions.get(index, [])
            + list(source.body)
            + self._appends.get(index, [])
        )

    # -- build -------------------------------------------------------------------

    def build(self, transform: BlockTransform | None = None) -> Executable:
        """Produce the edited executable.

        With no insertions and no transform this is an identity edit:
        the output is a re-laid-out, behaviour-identical program — the
        standard sanity check for an executable editor.

        A transform may define a ``prepare(editor)`` hook; it runs once
        before layout, with every insertion already collected — the
        parallel scheduler uses it to pre-schedule all block bodies
        across worker processes so the per-block calls below become
        cache hits.
        """
        prepare = getattr(transform, "prepare", None)
        if prepare is not None:
            with self.recorder.span("eel.prepare"):
                prepare(self)
        with self.recorder.span("eel.layout"):
            return self._build(transform)

    def _build(self, transform: BlockTransform | None) -> Executable:
        laid_out: list[_LaidOutBlock] = []
        taken_override: dict[int, _LaidOutBlock] = {}
        for block in self.cfg:
            laid_out.append(self._lay_out_block(block, transform))
            inline = self._fallthrough_edge_insertions.get(
                (block.index, block.index + 1)
            )
            if inline:
                laid_out.append(
                    _LaidOutBlock(
                        source=None,
                        body=list(inline),
                        terminator=None,
                        delay=None,
                    )
                )
        for (src, dst), instructions in sorted(self._taken_edge_insertions.items()):
            trampoline = _LaidOutBlock(
                source=None,
                body=list(instructions),
                terminator=Instruction("ba", imm=0),
                delay=nop(),
                jump_to_block=dst,
            )
            laid_out.append(trampoline)
            taken_override[src] = trampoline

        # Assign new addresses (blocks keep their original order, so
        # fall-through adjacency is preserved).
        text_base = self.executable.text_section().address
        address = text_base
        for block in laid_out:
            block.new_address = address
            address += 4 * block.instruction_count

        new_address = {
            b.source.index: b.new_address for b in laid_out if b.source is not None
        }
        instructions = self._emit(laid_out, new_address, taken_override)

        symbols = [
            Symbol(
                s.name,
                self._remap_address(s.address, new_address),
                s.size,
                s.kind,
            )
            for s in self.executable.symbols
        ]
        data_sections = [
            s for s in self.executable.sections if s.kind is not SectionKind.TEXT
        ] + self._extra_sections

        built = Executable.from_instructions(
            instructions,
            entry=self._remap_address(self.executable.entry, new_address),
            text_base=text_base,
            symbols=symbols,
            data_sections=data_sections,
        )
        built.block_map = BlockMap(
            source=self.executable,
            addresses={
                block.address: new_address[block.index] for block in self.cfg
            },
            one_to_one=len(laid_out) == len(self.cfg),
        )
        return built

    # -- internals -------------------------------------------------------------------

    def _lay_out_block(
        self, block: BasicBlock, transform: BlockTransform | None
    ) -> _LaidOutBlock:
        body = (
            self._insertions.get(block.index, [])
            + list(block.body)
            + self._appends.get(block.index, [])
        )
        delay = block.delay
        if transform is not None:
            result = transform(block, body)
            if isinstance(result, tuple):
                if len(result) != 2:
                    raise EditError(
                        f"block transform returned a {len(result)}-tuple "
                        "(expected (body, delay))"
                    )
                body, delay = result
            else:
                body = result
            if not isinstance(body, list) or not all(
                isinstance(inst, Instruction) for inst in body
            ):
                raise EditError(
                    "block transform must return a list of Instructions "
                    f"(got {type(body).__name__})"
                )
            if delay is not None and not isinstance(delay, Instruction):
                raise EditError(
                    "block transform returned a non-instruction delay "
                    f"slot ({type(delay).__name__})"
                )
        return _LaidOutBlock(
            source=block,
            body=list(body),
            terminator=block.terminator,
            delay=delay,
        )

    def _remap_address(self, address: int, new_address: dict[int, int]) -> int:
        block = self.cfg.block_by_address.get(address)
        if block is None:
            return address  # data address or external
        return new_address[block.index]

    def _emit(
        self,
        laid_out: list[_LaidOutBlock],
        new_address: dict[int, int],
        taken_override: dict[int, _LaidOutBlock],
    ) -> list[Instruction]:
        out: list[Instruction] = []
        for block in laid_out:
            out.extend(block.body)
            term = block.terminator
            if term is not None:
                cti_address = block.new_address + 4 * len(block.body)
                if block.source is None:
                    # Trampoline: jump back to its edge's destination.
                    target = new_address.get(block.jump_to_block)
                    if target is None:
                        raise EditError(
                            f"trampoline jumps to unknown block "
                            f"{block.jump_to_block}"
                        )
                    out.append(term.with_target(None, (target - cti_address) // 4))
                else:
                    out.append(
                        self._retarget(
                            block.source, term, cti_address, new_address, taken_override
                        )
                    )
                if block.delay is not None:
                    out.append(block.delay)
        return [inst.with_seq(i) for i, inst in enumerate(out)]

    def _retarget(
        self,
        source: BasicBlock,
        term: Instruction,
        cti_address: int,
        new_address: dict[int, int],
        taken_override: dict[int, _LaidOutBlock],
    ) -> Instruction:
        category = term.category
        if category is Category.JMPL:
            return term  # indirect: target computed at run time
        override = taken_override.get(source.index)
        if override is not None:
            disp = (override.new_address - cti_address) // 4
            return term.with_target(None, disp)
        old_target = source.address + 4 * len(source.body) + 4 * (term.imm or 0)
        # Out-of-text targets (e.g. the STOP sentinel) keep their address.
        target_block = self.cfg.block_by_address.get(old_target)
        if target_block is None:
            new_target = old_target
        else:
            new_target = new_address[target_block.index]
        disp = (new_target - cti_address) // 4
        return term.with_target(None, disp)


def identity_edit(executable: Executable) -> Executable:
    """Re-lay-out an executable without changing it — the editor's
    round-trip sanity operation."""
    return Editor(executable).build()
