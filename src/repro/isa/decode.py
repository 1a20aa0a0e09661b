"""Binary decoding of SPARC V8 instruction words.

The inverse of :mod:`repro.isa.encode`. EEL's analyses (CFG recovery,
liveness, scheduling) all start from decoded instructions, so the decoder
is deliberately strict: an unrecognized word raises :class:`DecodeError`
rather than guessing — past executable editors found that silent
misdecoding was the dominant source of subtle bugs.
"""

from __future__ import annotations

import struct
from typing import Iterator

from .instruction import Instruction
from .opcodes import BICC_CONDS, FBFCC_CONDS, Format, Slot, lookup
from .registers import Reg, f, r

_BICC_BY_COND = {cond: name for name, cond in BICC_CONDS.items()}
_FBFCC_BY_COND = {cond: name for name, cond in FBFCC_CONDS.items()}

# Reverse tables keyed by op3, built from the opcode table.
_ARITH_BY_OP3: dict[int, str] = {}
_MEM_BY_OP3: dict[int, str] = {}
_FPOP_BY_OPF: dict[tuple[int, int], str] = {}

from . import opcodes as _opcodes  # noqa: E402  (table introspection)
from ..errors import ReproError

for _m in _opcodes.all_mnemonics():
    _info = _opcodes.lookup(_m)
    if _info.fmt is Format.ARITH:
        _ARITH_BY_OP3[_info.op3] = _m
    elif _info.fmt is Format.MEM:
        _MEM_BY_OP3[_info.op3] = _m
    elif _info.fmt is Format.FPOP:
        _FPOP_BY_OPF[(_info.op3, _info.opf)] = _m


class DecodeError(ReproError, ValueError):
    """Raised for instruction words outside the supported V8 subset."""


def _sign_extend(value: int, bits: int) -> int:
    mask = 1 << (bits - 1)
    return (value & (mask - 1)) - (value & mask)


def _reg(kind: str, num: int) -> Reg:
    return f(num) if kind == "f" else r(num)


def _check_unused(word: int, field: str, value: int, used: bool) -> None:
    """Operand fields an instruction does not use must encode as zero
    (the encoder writes zeros there); anything else is a corrupt word,
    not a quiet don't-care."""
    if not used and value:
        raise DecodeError(
            f"unused {field} field is {value:#x} in word {word:#010x}"
        )


def decode(word: int, seq: int = -1) -> Instruction:
    """Decode one 32-bit instruction word into an :class:`Instruction`
    numbered ``seq``."""
    if not 0 <= word < (1 << 32):
        raise DecodeError(f"not a 32-bit word: {word:#x}")
    op = word >> 30

    if op == 0b01:
        return Instruction("call", imm=_sign_extend(word, 30), seq=seq)

    if op == 0b00:
        return _decode_format2(word, seq)

    rd = (word >> 25) & 0x1F
    op3 = (word >> 19) & 0x3F
    rs1 = (word >> 14) & 0x1F
    use_imm = (word >> 13) & 1
    rs2 = word & 0x1F
    simm13 = _sign_extend(word, 13)

    if op == 0b10 and op3 in (0x34, 0x35):
        opf = (word >> 5) & 0x1FF
        mnemonic = _FPOP_BY_OPF.get((op3, opf))
        if mnemonic is None:
            raise DecodeError(f"unsupported FP opf {opf:#x} in word {word:#010x}")
        info = lookup(mnemonic)
        _check_unused(word, "rd", rd, Slot.RD in info.operand_kinds)
        _check_unused(word, "rs1", rs1, Slot.RS1 in info.operand_kinds)
        return Instruction(
            mnemonic,
            rd=_reg("f", rd) if Slot.RD in info.operand_kinds else None,
            rs1=_reg("f", rs1) if Slot.RS1 in info.operand_kinds else None,
            rs2=_reg("f", rs2),
            seq=seq,
        )

    table = _ARITH_BY_OP3 if op == 0b10 else _MEM_BY_OP3
    mnemonic = table.get(op3)
    if mnemonic is None:
        raise DecodeError(
            f"unsupported op3 {op3:#x} (op={op:#b}) in word {word:#010x}"
        )
    info = lookup(mnemonic)
    kinds = info.operand_kinds
    if not use_imm and (word >> 5) & 0xFF:
        # The asi field of register-form format 3: always zero in this
        # subset. Rejecting nonzero values here is what makes a flipped
        # bit a DecodeError instead of a silently different instruction.
        raise DecodeError(f"reserved asi bits set in word {word:#010x}")
    _check_unused(word, "rd", rd, Slot.RD in kinds)
    _check_unused(word, "rs1", rs1, Slot.RS1 in kinds)
    if not use_imm:
        _check_unused(word, "rs2", rs2, Slot.RS2 in kinds)
    return Instruction(
        mnemonic,
        rd=_reg(kinds[Slot.RD], rd) if Slot.RD in kinds else None,
        rs1=_reg(kinds[Slot.RS1], rs1) if Slot.RS1 in kinds else None,
        rs2=None if use_imm else (_reg(kinds[Slot.RS2], rs2) if Slot.RS2 in kinds else None),
        imm=simm13 if use_imm else None,
        seq=seq,
    )


def _decode_format2(word: int, seq: int) -> Instruction:
    op2 = (word >> 22) & 0b111
    if op2 == 0b100:  # sethi
        rd = (word >> 25) & 0x1F
        imm22 = word & 0x3FFFFF
        if rd == 0 and imm22 == 0:
            return Instruction("nop", imm=0, seq=seq)
        return Instruction("sethi", rd=r(rd), imm=imm22, seq=seq)
    if op2 in (0b010, 0b110):  # bicc / fbfcc
        annul = bool((word >> 29) & 1)
        cond = (word >> 25) & 0xF
        table = _BICC_BY_COND if op2 == 0b010 else _FBFCC_BY_COND
        return Instruction(
            table[cond], imm=_sign_extend(word, 22), annul=annul, seq=seq
        )
    raise DecodeError(f"unsupported format-2 op2 {op2:#b} in word {word:#010x}")


def decode_bytes(data: bytes, *, base_seq: int = 0) -> list[Instruction]:
    """Decode a big-endian byte string into instructions.

    ``seq`` numbers are assigned consecutively starting at ``base_seq``,
    matching the instructions' positions in the byte stream.
    """
    if len(data) % 4:
        raise DecodeError(f"text length {len(data)} is not a multiple of 4")
    return [
        decode(word, base_seq + i)
        for i, (word,) in enumerate(struct.iter_unpack(">I", data))
    ]


def iter_words(data: bytes) -> Iterator[int]:
    """Yield the raw 32-bit words of ``data`` (big-endian)."""
    for (word,) in struct.iter_unpack(">I", data):
        yield word
