"""The RXE executable: serialization, decoding, and simulator loading."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..isa.decode import decode_bytes
from ..isa.encode import encode_words
from ..isa.instruction import Instruction
from ..isa.machine_state import MachineState
from ..isa.simulator import RunResult, Simulator
from .image import (
    ImageError,
    Section,
    SectionKind,
    Symbol,
    SymbolKind,
    _Reader,
    pack_section,
    pack_symbol,
    unpack_section,
    unpack_symbol,
)

MAGIC = b"RXE1"

#: Default virtual addresses, far enough apart that text edits never
#: collide with data.
TEXT_BASE = 0x0001_0000
DATA_BASE = 0x0800_0000


@dataclass(frozen=True)
class BlockMap:
    """Where an edit laid out the blocks of the executable it edited."""

    #: the executable the edit read.
    source: "Executable"
    #: each block's address in ``source`` -> its address in the edit.
    addresses: dict[int, int]
    #: True when the edit added no block of its own (a trampoline or an
    #: inline edge block): its blocks are the source's, one for one and
    #: in the same order, so fall-through runs of blocks stay runs.
    one_to_one: bool


@dataclass
class Executable:
    """A program image: sections, symbols, and an entry point."""

    sections: list[Section] = field(default_factory=list)
    symbols: list[Symbol] = field(default_factory=list)
    entry: int = TEXT_BASE
    #: set on an executable the editor built (never serialized).
    block_map: BlockMap | None = field(default=None, compare=False, repr=False)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_instructions(
        cls,
        instructions: list[Instruction],
        *,
        entry: int | None = None,
        text_base: int = TEXT_BASE,
        symbols: list[Symbol] | None = None,
        data_sections: list[Section] | None = None,
    ) -> "Executable":
        """Build an executable whose ``.text`` holds the encoded
        ``instructions`` (branch targets must already be resolved)."""
        text = Section(".text", SectionKind.TEXT, text_base, encode_words(instructions))
        sections = [text] + list(data_sections or ())
        return cls(
            sections=sections,
            symbols=list(symbols or ()),
            entry=entry if entry is not None else text_base,
        )

    # -- section access --------------------------------------------------------

    def section(self, name: str) -> Section:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(f"no section named {name!r}")

    def text_section(self) -> Section:
        for section in self.sections:
            if section.kind is SectionKind.TEXT:
                return section
        raise KeyError("executable has no text section")

    def symbol(self, name: str) -> Symbol:
        for symbol in self.symbols:
            if symbol.name == name:
                return symbol
        raise KeyError(f"no symbol named {name!r}")

    def function_symbols(self) -> list[Symbol]:
        return sorted(
            (s for s in self.symbols if s.kind is SymbolKind.FUNCTION),
            key=lambda s: s.address,
        )

    # -- decoding ----------------------------------------------------------------

    def decode_text(self) -> list[tuple[int, Instruction]]:
        """Disassemble the text section into (address, instruction): a
        fresh list per call, over one decode (see :meth:`_decoded`)."""
        return list(self._decoded())

    def code_map(self) -> dict[int, Instruction]:
        return dict(self._decoded())

    def _decoded(self) -> tuple[tuple[int, Instruction], ...]:
        """The text section decoded once per content. The memo names
        the ``data`` object and address it decoded, so replacing the
        text section's data or moving it decodes again; it is not a
        dataclass field, so it is never compared or printed, and
        :meth:`__getstate__` leaves it out of pickles."""
        text = self.text_section()
        memo = self.__dict__.get("_decode_memo")
        if memo is not None and memo[0] is text.data and memo[1] == text.address:
            return memo[2]
        decoded = tuple(
            (text.address + 4 * i, inst)
            for i, inst in enumerate(decode_bytes(text.data))
        )
        self._decode_memo = (text.data, text.address, decoded)
        return decoded

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_decode_memo", None)
        return state

    def blocks_from(self, ancestor: "Executable") -> dict[int, int] | None:
        """Each block address of ``ancestor`` mapped to the address of
        its block here, when this executable was built from
        ``ancestor`` by a chain of one-for-one edits (see
        :class:`BlockMap`); otherwise None."""
        maps = []
        executable = self
        while executable is not ancestor:
            block_map = executable.block_map
            if block_map is None or not block_map.one_to_one:
                return None
            maps.append(block_map.addresses)
            executable = block_map.source
        if not maps:
            return None
        addresses = maps.pop()
        while maps:
            step = maps.pop()
            addresses = {
                old: step[new] for old, new in addresses.items() if new in step
            }
        return addresses

    # -- running -----------------------------------------------------------------

    def load_state(self) -> MachineState:
        """A machine state with all data sections loaded into memory."""
        state = MachineState()
        for section in self.sections:
            if section.kind is SectionKind.DATA:
                state.memory.load_bytes(section.address, section.data)
        return state

    def run(
        self,
        *,
        state: MachineState | None = None,
        max_instructions: int = 2_000_000,
        count_executions: bool = False,
        on_execute=None,
    ) -> RunResult:
        """Execute the program functionally from its entry point."""
        simulator = Simulator(self.code_map())
        if state is None:
            state = self.load_state()
        return simulator.run(
            self.entry,
            state=state,
            max_instructions=max_instructions,
            count_executions=count_executions,
            on_execute=on_execute,
        )

    # -- serialization --------------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [MAGIC, struct.pack(">I", self.entry)]
        out.append(struct.pack(">I", len(self.sections)))
        for section in self.sections:
            out.append(pack_section(section))
        out.append(struct.pack(">I", len(self.symbols)))
        for symbol in self.symbols:
            out.append(pack_symbol(symbol))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Executable":
        reader = _Reader(data)
        if reader.take(4) != MAGIC:
            raise ImageError("not an RXE image (bad magic)")
        entry = reader.u32()
        sections = [unpack_section(reader) for _ in range(reader.u32())]
        symbols = [unpack_symbol(reader) for _ in range(reader.u32())]
        return cls(sections=sections, symbols=symbols, entry=entry)

    # -- statistics -------------------------------------------------------------------

    @property
    def text_size(self) -> int:
        return self.text_section().size

    @property
    def instruction_count(self) -> int:
        return self.text_size // 4
