"""SPARC V8 register model.

Registers are identified by :class:`Reg` values — a register *kind*
(integer, floating point, or one of the special resources) plus an index.
``Reg`` values are interned: :func:`r`, :func:`f`, the named constants
and the decoder hand out one shared instance per architectural register,
built at import, and a register unpickled from another process comes
back as that instance. A ``Reg`` built by hand is a separate object that
compares and hashes equal to the shared one. Each register also carries
a dense integer :attr:`Reg.code`, its bit position in the register-set
masks of the dependence analyzer and the liveness solver.

The integer file follows the SPARC naming convention: ``%g0``–``%g7`` are
``r0``–``r7``, ``%o0``–``%o7`` are ``r8``–``r15``, ``%l0``–``%l7`` are
``r16``–``r23``, and ``%i0``–``%i7`` are ``r24``–``r31``. ``%g0`` is
hard-wired to zero: writes are discarded and it never participates in a
data dependence.

Register windows are deliberately flattened: ``save``/``restore`` are
modelled as plain ALU instructions over a single 32-register file, which
is sufficient for local (basic-block) scheduling — a window shift never
occurs inside a block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import total_ordering


class RegKind(enum.Enum):
    """The architectural register files and special resources."""

    INT = "r"
    FP = "f"
    ICC = "icc"
    FCC = "fcc"
    Y = "y"
    PC = "pc"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegKind.{self.name}"


@total_ordering
@dataclass(frozen=True)
class Reg:
    """A single architectural register: a kind plus an index.

    The special resources (``icc``, ``fcc``, ``y``, ``pc``) always use
    index 0. Registers order by :attr:`code` (kind order, then index),
    so a set that mixes kinds sorts too.
    """

    kind: RegKind
    index: int

    def __post_init__(self) -> None:
        limit = _FILE_SIZES[self.kind]
        if not 0 <= self.index < limit:
            raise ValueError(
                f"register index {self.index} out of range for "
                f"{self.kind.value} file (size {limit})"
            )
        # Registers key the pipeline's register-history dictionaries,
        # so their hash is on every scheduler hot path: precompute it,
        # along with the dense code used for bitmask dependence tests.
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))
        object.__setattr__(
            self, "code", (_KIND_ORDER[self.kind] << 5) | self.index
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Reg") -> bool:
        if not isinstance(other, Reg):
            return NotImplemented
        return self.code < other.code

    def __reduce__(self):
        # Unpickle as the shared instance: the precomputed hash is
        # per-process (enum members hash by name, and string hashing is
        # seeded per interpreter), so a pickled copy of ``_hash`` would
        # not match this process's registers.
        return _interned, (self.kind, self.index)

    @property
    def is_zero(self) -> bool:
        """True for ``%g0``, the hard-wired zero register."""
        return self.kind is RegKind.INT and self.index == 0

    @property
    def name(self) -> str:
        """The conventional assembly name, e.g. ``%o1`` or ``%f4``."""
        if self.kind is RegKind.INT:
            bank, offset = divmod(self.index, 8)
            return "%" + "goli"[bank] + str(offset)
        if self.kind is RegKind.FP:
            return f"%f{self.index}"
        return "%" + self.kind.value

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Reg({self.name})"


_FILE_SIZES = {
    RegKind.INT: 32,
    RegKind.FP: 32,
    RegKind.ICC: 1,
    RegKind.FCC: 1,
    RegKind.Y: 1,
    RegKind.PC: 1,
}

#: Register kind -> dense ordinal, for :attr:`Reg.code`. Every file has
#: at most 32 registers, so ``(ordinal << 5) | index`` is a unique
#: small integer per architectural register — a bit position for the
#: dependence analyzer's register-set masks.
_KIND_ORDER = {kind: i for i, kind in enumerate(RegKind)}


#: The shared instances, per kind, indexed by register number.
_SHARED = {
    kind: tuple(Reg(kind, index) for index in range(size))
    for kind, size in _FILE_SIZES.items()
}
_INT_REGS = _SHARED[RegKind.INT]
_FP_REGS = _SHARED[RegKind.FP]


def _interned(kind: RegKind, index: int) -> Reg:
    """The shared instance of register ``index`` of ``kind``."""
    if 0 <= index < _FILE_SIZES[kind]:
        return _SHARED[kind][index]
    return Reg(kind, index)  # raises the out-of-range ValueError


def r(index: int) -> Reg:
    """The integer register ``r<index>`` (0–31); raises ``ValueError``
    outside that range."""
    if 0 <= index < 32:
        return _INT_REGS[index]
    return Reg(RegKind.INT, index)  # raises the out-of-range ValueError


def f(index: int) -> Reg:
    """The floating-point register ``%f<index>`` (0–31); raises
    ``ValueError`` outside that range."""
    if 0 <= index < 32:
        return _FP_REGS[index]
    return Reg(RegKind.FP, index)  # raises the out-of-range ValueError


#: Hard-wired zero register, ``%g0``.
G0 = r(0)

#: Integer condition codes (N, Z, V, C) as one schedulable resource.
ICC = _SHARED[RegKind.ICC][0]

#: Floating-point condition codes.
FCC = _SHARED[RegKind.FCC][0]

#: The Y register used by integer multiply/divide.
Y = _SHARED[RegKind.Y][0]

#: The program counter, read by ``call`` (which saves PC into ``%o7``).
PC = _SHARED[RegKind.PC][0]

#: Global registers %g0-%g7.
G = tuple(r(i) for i in range(8))
#: Out registers %o0-%o7 (%o6 is %sp, %o7 holds the call return address).
O = tuple(r(8 + i) for i in range(8))
#: Local registers %l0-%l7.
L = tuple(r(16 + i) for i in range(8))
#: In registers %i0-%i7 (%i6 is %fp, %i7 the caller's return address).
I = tuple(r(24 + i) for i in range(8))

#: Stack pointer (%o6) and frame pointer (%i6).
SP = O[6]
FP_REG = I[6]
#: Call return-address register (%o7).
O7 = O[7]

_NAMED = {
    "%sp": SP,
    "%fp": FP_REG,
    "%icc": ICC,
    "%fcc": FCC,
    "%y": Y,
    "%pc": PC,
}


def parse_reg(text: str) -> Reg:
    """Parse an assembly register name like ``%o3``, ``%f12``, or ``%sp``.

    Raises :class:`ValueError` for anything that is not a register name.
    """
    name = text.strip().lower()
    if name in _NAMED:
        return _NAMED[name]
    if not name.startswith("%") or len(name) < 3:
        raise ValueError(f"not a register name: {text!r}")
    bank, digits = name[1], name[2:]
    if not digits.isdigit():
        raise ValueError(f"not a register name: {text!r}")
    index = int(digits)
    if bank == "r":
        return r(index)
    if bank == "f":
        return f(index)
    if bank in "goli":
        if index >= 8:
            raise ValueError(f"register offset out of range: {text!r}")
        return r("goli".index(bank) * 8 + index)
    raise ValueError(f"unknown register bank in {text!r}")
