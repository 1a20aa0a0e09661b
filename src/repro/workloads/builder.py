"""Programmatic program construction with labels and per-instruction
execution frequencies.

The workload generator knows, by construction, how often every piece of
the program executes (loop trip counts, branch parity splits). It
records a frequency for each emitted instruction; after CFG recovery the
evaluation harness reads back per-block frequencies without ever having
to run the program. (Tests *do* run the programs functionally with small
trip counts and check the analytic frequencies are exact.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eel.cfg import CFG, build_cfg, build_cfg_from_instructions
from ..eel.executable import DATA_BASE, Executable, TEXT_BASE
from ..eel.image import Section, SectionKind
from ..isa.instruction import Instruction
from ..errors import ReproError


class BuildError(ReproError):
    pass


@dataclass
class ProgramBuilder:
    """Emit instructions with symbolic branch targets and frequencies."""

    text_base: int = TEXT_BASE
    instructions: list[Instruction] = field(default_factory=list)
    frequencies: list[int] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    def label(self, name: str) -> None:
        if name in self.labels:
            raise BuildError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)

    def emit(self, inst: Instruction, freq: int) -> None:
        self.instructions.append(inst)
        self.frequencies.append(freq)

    def emit_all(self, instructions: list[Instruction], freq: int) -> None:
        for inst in instructions:
            self.emit(inst, freq)

    def resolve(self) -> list[Instruction]:
        """Resolve symbolic targets to word displacements."""
        return [
            inst.with_seq(index)
            for index, inst in enumerate(self._targets_resolved())
        ]

    def _targets_resolved(self) -> list[Instruction]:
        """:meth:`resolve` without numbering ``seq``, which neither
        encoding nor block recovery reads."""
        resolved = []
        for index, inst in enumerate(self.instructions):
            if inst.target is not None:
                if inst.target not in self.labels:
                    raise BuildError(f"undefined label {inst.target!r}")
                disp = self.labels[inst.target] - index
                inst = inst.with_target(None, disp)
            resolved.append(inst)
        return resolved

    def profile(self) -> tuple[CFG, dict[int, int]]:
        """(cfg, per-block frequencies) of the resolved instructions as
        they would be laid out, without encoding them: the blocks
        :meth:`build`'s CFG recovers from the executable."""
        resolved = self._targets_resolved()
        cfg = build_cfg_from_instructions(
            [(self.text_base + 4 * i, inst) for i, inst in enumerate(resolved)],
            entry=self.text_base,
        )
        return cfg, self._block_frequencies(cfg)

    def build(
        self, *, data: bytes = b"", data_base: int = DATA_BASE
    ) -> tuple[Executable, CFG, dict[int, int]]:
        """Produce (executable, cfg, per-block frequencies)."""
        sections = []
        if data:
            sections.append(Section(".data", SectionKind.DATA, data_base, data))
        exe = Executable.from_instructions(
            self._targets_resolved(), text_base=self.text_base, data_sections=sections
        )
        cfg = build_cfg(exe)
        return exe, cfg, self._block_frequencies(cfg)

    def _block_frequencies(self, cfg: CFG) -> dict[int, int]:
        return {
            block.index: self.frequencies[(block.address - self.text_base) // 4]
            for block in cfg
        }
