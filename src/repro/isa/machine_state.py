"""Architectural machine state for the functional SPARC V8 simulator.

The state is deliberately concrete: integer registers hold 32-bit
patterns, floating-point registers hold raw 32-bit patterns (doubles
occupy an even/odd pair, exactly as on the hardware), and memory is a
sparse byte-addressable big-endian store. Keeping everything at the bit
level lets the differential tests compare *architectural state* between
an original and a scheduled basic block without any tolerance fudging.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from ..errors import ReproError

MASK32 = 0xFFFFFFFF

#: fcc values after fcmps/fcmpd (SPARC V8 encoding).
FCC_EQUAL = 0
FCC_LESS = 1
FCC_GREATER = 2
FCC_UNORDERED = 3


class MemoryFault(ReproError):
    """Raised on misaligned accesses."""


class Memory:
    """Sparse byte-addressable big-endian memory."""

    def __init__(self) -> None:
        self._bytes: dict[int, int] = {}

    def read_byte(self, address: int) -> int:
        return self._bytes.get(address & MASK32, 0)

    def write_byte(self, address: int, value: int) -> None:
        self._bytes[address & MASK32] = value & 0xFF

    def _check_align(self, address: int, size: int) -> None:
        if address % size:
            raise MemoryFault(f"misaligned {size}-byte access at {address:#x}")

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes big-endian as an unsigned integer."""
        self._check_align(address, size)
        value = 0
        for offset in range(size):
            value = (value << 8) | self.read_byte(address + offset)
        return value

    def write(self, address: int, value: int, size: int) -> None:
        """Write ``size`` low-order bytes of ``value`` big-endian."""
        self._check_align(address, size)
        for offset in range(size):
            shift = 8 * (size - 1 - offset)
            self.write_byte(address + offset, (value >> shift) & 0xFF)

    def read_word(self, address: int) -> int:
        """``read(address, 4)``, unrolled: the simulator's word loads
        reach the byte store without a call per byte."""
        if address & 3:
            raise MemoryFault(f"misaligned 4-byte access at {address:#x}")
        get = self._bytes.get
        address &= MASK32
        return (
            get(address, 0) << 24
            | get(address + 1, 0) << 16
            | get(address + 2, 0) << 8
            | get(address + 3, 0)
        )

    def write_word(self, address: int, value: int) -> None:
        """``write(address, value, 4)``, unrolled like :meth:`read_word`."""
        if address & 3:
            raise MemoryFault(f"misaligned 4-byte access at {address:#x}")
        store = self._bytes
        address &= MASK32
        store[address] = value >> 24 & 0xFF
        store[address + 1] = value >> 16 & 0xFF
        store[address + 2] = value >> 8 & 0xFF
        store[address + 3] = value & 0xFF

    def load_bytes(self, address: int, data: bytes) -> None:
        for offset, byte in enumerate(data):
            self.write_byte(address + offset, byte)

    def dump(self, address: int, length: int) -> bytes:
        return bytes(self.read_byte(address + i) for i in range(length))

    def snapshot(self) -> dict[int, int]:
        """The populated bytes, for state comparison in tests."""
        return {a: b for a, b in self._bytes.items() if b}

    def copy(self) -> "Memory":
        clone = Memory()
        clone._bytes = dict(self._bytes)
        return clone


@dataclass
class MachineState:
    """Full architectural state: register files, condition codes, memory."""

    regs: list[int] = field(default_factory=lambda: [0] * 32)
    fregs: list[int] = field(default_factory=lambda: [0] * 32)
    icc_n: bool = False
    icc_z: bool = False
    icc_v: bool = False
    icc_c: bool = False
    fcc: int = FCC_EQUAL
    y: int = 0
    pc: int = 0
    npc: int = 4
    memory: Memory = field(default_factory=Memory)

    # -- integer registers ---------------------------------------------------

    def get_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & MASK32

    # -- floating point (raw bit patterns) ------------------------------------

    def get_freg(self, index: int) -> int:
        return self.fregs[index]

    def set_freg(self, index: int, value: int) -> None:
        self.fregs[index] = value & MASK32

    def get_single(self, index: int) -> float:
        return struct.unpack(">f", struct.pack(">I", self.fregs[index]))[0]

    def set_single(self, index: int, value: float) -> None:
        try:
            pattern = struct.unpack(">I", struct.pack(">f", value))[0]
        except OverflowError:
            pattern = 0x7F800000 if value > 0 else 0xFF800000
        self.fregs[index] = pattern

    def get_double(self, index: int) -> float:
        if index % 2:
            raise MemoryFault(f"odd double register %f{index}")
        raw = (self.fregs[index] << 32) | self.fregs[index + 1]
        return struct.unpack(">d", struct.pack(">Q", raw))[0]

    def set_double(self, index: int, value: float) -> None:
        if index % 2:
            raise MemoryFault(f"odd double register %f{index}")
        raw = struct.unpack(">Q", struct.pack(">d", value))[0]
        self.fregs[index] = (raw >> 32) & MASK32
        self.fregs[index + 1] = raw & MASK32

    # -- comparisons -----------------------------------------------------------

    def architectural_equal(self, other: "MachineState") -> bool:
        """True when the two states agree on everything a program can
        observe: registers, condition codes, Y, and memory contents."""
        return (
            self.regs == other.regs
            and self.fregs == other.fregs
            and (self.icc_n, self.icc_z, self.icc_v, self.icc_c)
            == (other.icc_n, other.icc_z, other.icc_v, other.icc_c)
            and self.fcc == other.fcc
            and self.y == other.y
            and self.memory.snapshot() == other.memory.snapshot()
        )

    def copy(self) -> "MachineState":
        return MachineState(
            regs=list(self.regs),
            fregs=list(self.fregs),
            icc_n=self.icc_n,
            icc_z=self.icc_z,
            icc_v=self.icc_v,
            icc_c=self.icc_c,
            fcc=self.fcc,
            y=self.y,
            pc=self.pc,
            npc=self.npc,
            memory=self.memory.copy(),
        )
