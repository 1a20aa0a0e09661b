"""Symbolic execution over the SPARC V8 subset semantics.

:mod:`repro.isa.semantics` executes instructions over *concrete*
32-bit values; this module re-executes them over **terms** — symbolic
expressions rooted at the initial architectural state. Two instruction
sequences that compute the same dataflow produce structurally identical
terms for every register, condition code, and memory cell, no matter
how the instructions were interleaved; that observation turns schedule
verification into a term-equality check
(:func:`repro.analyze.sym_verify.symbolic_verify_schedule`) instead of
a randomized differential battery.

Design notes:

* **Terms are hash-consed.** :func:`const` / :func:`var` / :func:`app`
  intern every term, so structural equality is identity (``is``) and
  common subexpressions are shared — a block's final state is a DAG,
  not a tree.
* **The simplifier is deliberately modest.** Constant folding mirrors
  :mod:`repro.isa.semantics` bit-for-bit (wrapping 32-bit arithmetic,
  V8 condition codes, carry-as-borrow), plus the handful of identities
  needed to canonicalize address arithmetic (``sethi``+``or`` constant
  synthesis folds to a single constant; nested ``add``-immediate chains
  merge). Nothing here "solves"; either the two sides normalize to the
  same term or the validator escalates.
* **Memory is alias-aware.** :class:`SymbolicMemory` keeps an ordered
  log of symbolic write records over an opaque initial memory. Loads
  forward from a definite match, skip past *provably disjoint* writes
  (same symbolic base with disjoint concrete intervals, or the paper's
  §4 axiom: instrumentation and original memory are disjoint under the
  permissive policy), and otherwise read from an opaque snapshot.
  Snapshots are canonicalized by sorting provably-disjoint neighboring
  writes into a deterministic order, so two schedules that only swap
  independent stores produce identical memory terms.
* **Floating point stays opaque.** FP operations become uninterpreted
  applications over the raw register bit patterns: identical operand
  terms imply identical results, which is all equivalence checking
  needs, and no rounding behavior is ever approximated.
* **Traps surface as exceptions.** A *definite* trap — a constant zero
  divisor, a constant misaligned address — raises :class:`SymbolicTrap`
  (the lint rules report these; the validator escalates). Anything the
  executor cannot model raises :class:`SymexUnsupported`, which the
  validator maps to ``inconclusive`` — never to a false proof.
"""

from __future__ import annotations

from ..errors import ReproError
from ..isa.instruction import Instruction
from ..isa.machine_state import MASK32
from ..isa.opcodes import Category
from ..isa.semantics import sdiv_result, udiv_result

SIGN_BIT = 0x80000000

#: Memory access sizes by mnemonic (word-pair ops issue two accesses).
_MEM_SIZES = {
    "ld": 4, "ldub": 1, "lduh": 2, "ldsb": 1, "ldsh": 2,
    "st": 4, "stb": 1, "sth": 2, "ldf": 4, "stf": 4,
}


class SymexUnsupported(ReproError):
    """The symbolic executor cannot model this instruction; the caller
    must treat the region as inconclusive, never as proven."""


class SymbolicTrap(ReproError):
    """The instruction *definitely* traps (constant zero divisor,
    constant misaligned address) on every concrete execution."""

    def __init__(self, message: str, *, kind: str, index: int) -> None:
        super().__init__(message)
        #: 'div-zero' | 'misaligned'
        self.kind = kind
        #: position of the trapping instruction in the executed sequence.
        self.index = index


# -- the term language ------------------------------------------------------------


class Term:
    """One hash-consed node: ``op`` plus interned ``args`` (sub-terms
    for applications, a value for ``const``, a name for ``var``).

    Never construct directly — go through :func:`const` / :func:`var` /
    :func:`app` so interning holds and equality stays ``is``.
    """

    __slots__ = ("op", "args", "_id")

    def __init__(self, op: str, args: tuple, _id: int) -> None:
        self.op = op
        self.args = args
        self._id = _id

    @property
    def value(self) -> int:
        """The concrete value of a ``const`` term."""
        if self.op != "const":
            raise ValueError(f"{self.op} term has no concrete value")
        return self.args[0]

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    def __str__(self) -> str:
        return render_term(self)

    def __repr__(self) -> str:
        return f"<Term {render_term(self, limit=60)}>"


_INTERN: dict[tuple, Term] = {}


def _intern(op: str, args: tuple) -> Term:
    key = (op, args)
    term = _INTERN.get(key)
    if term is None:
        term = Term(op, args, len(_INTERN))
        _INTERN[key] = term
    return term


def const(value: int) -> Term:
    return _intern("const", (int(value) & MASK32,))


def var(name: str) -> Term:
    return _intern("var", (name,))


FALSE = const(0)
TRUE = const(1)


def _signed(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & SIGN_BIT else value


#: Binary integer operators folded when both arguments are constants.
#: Each mirrors the corresponding entry of ``repro.isa.semantics``'s
#: table; ``udiv`` and ``sdiv`` fold through its own division helpers.
_FOLD2 = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andn": lambda a, b: (a & ~b) & MASK32,
    "orn": lambda a, b: (a | ~b) & MASK32,
    "xnor": lambda a, b: (~(a ^ b)) & MASK32,
    "sll": lambda a, b: (a << (b & 31)) & MASK32,
    "srl": lambda a, b: (a >> (b & 31)) & MASK32,
    "sra": lambda a, b: (_signed(a) >> (b & 31)) & MASK32,
    "umullo": lambda a, b: (a * b) & MASK32,
    "umulhi": lambda a, b: ((a * b) >> 32) & MASK32,
    "smullo": lambda a, b: (_signed(a) * _signed(b)) & MASK32,
    "smulhi": lambda a, b: ((_signed(a) * _signed(b)) >> 32) & MASK32,
    # V8 condition-code predicates (0/1-valued).
    "addc": lambda a, b: int((a + b) > MASK32),
    "subc": lambda a, b: int(b > a),  # carry-as-borrow
    "addv": lambda a, b: int(bool((~(a ^ b)) & (a ^ ((a + b) & MASK32)) & SIGN_BIT)),
    "subv": lambda a, b: int(bool((a ^ b) & (a ^ ((a - b) & MASK32)) & SIGN_BIT)),
}

_FOLD1 = {
    "msb": lambda a: int(bool(a & SIGN_BIT)),
    "eqz": lambda a: int((a & MASK32) == 0),
}


def app(op: str, *args: Term) -> Term:
    """Build (and simplify) an application term."""
    # Constant folding, mirroring the concrete semantics exactly.
    if op in _FOLD2 and args[0].is_const and args[1].is_const:
        return const(_FOLD2[op](args[0].value, args[1].value))
    if op in _FOLD1 and args[0].is_const:
        return const(_FOLD1[op](args[0].value))
    if op == "sext" and args[0].is_const:
        bits = args[1].value
        low = args[0].value & ((1 << bits) - 1)
        if low & (1 << (bits - 1)):
            return const(low - (1 << bits))
        return const(low)
    if op == "udiv" and all(a.is_const for a in args):
        y, a, b = (t.value for t in args)
        if b != 0:
            return const(udiv_result(y, a, b))
    if op == "sdiv" and all(a.is_const for a in args):
        y, a, b = (t.value for t in args)
        if _signed(b) != 0:
            return const(sdiv_result(y, a, b))

    # Address-arithmetic canonicalization: constants ride on the right
    # of an ``add`` and nested immediates merge, so a ``sethi``-based
    # counter address folds to a single constant and ``base + c1 + c2``
    # normalizes identically on both sides of a comparison.
    if op == "sub" and args[1].is_const:
        return app("add", args[0], const(-args[1].value))
    if op == "add":
        a, b = args
        if a.is_const and not b.is_const:
            a, b = b, a
        if b.is_const:
            if b.value == 0:
                return a
            if a.op == "add" and a.args[1].is_const:
                return app("add", a.args[0], const(a.args[1].value + b.value))
        args = (a, b)
    if op in ("or", "xor") and args[1].is_const and args[1].value == 0:
        return args[0]
    if op in ("or", "xor") and args[0].is_const and args[0].value == 0:
        return args[1]
    if op == "and" and args[1].is_const and args[1].value == MASK32:
        return args[0]
    if op in ("sll", "srl", "sra") and args[1].is_const and args[1].value & 31 == 0:
        return args[0]

    return _intern(op, args)


def render_term(term: Term, *, limit: int = 400) -> str:
    """A readable rendering, depth-first, truncated at ``limit``."""
    pieces: list[str] = []
    total = 0

    def emit(text: str) -> bool:
        nonlocal total
        pieces.append(text)
        total += len(text)
        return total <= limit

    def walk(t: Term) -> bool:
        if t.op == "const":
            value = t.args[0]
            return emit(hex(value) if value >= 0x10000 else str(value))
        if t.op == "var":
            return emit(t.args[0])
        if not emit(f"{t.op}("):
            return False
        for position, arg in enumerate(t.args):
            if position and not emit(", "):
                return False
            if isinstance(arg, Term):
                if not walk(arg):
                    return False
            elif not emit(str(arg)):
                return False
        return emit(")")

    if not walk(term):
        pieces.append("…")
    return "".join(pieces)


def _split_base(addr: Term) -> tuple[Term | None, int]:
    """``addr`` as (symbolic base, concrete offset); the base is None
    when the address is fully constant."""
    if addr.is_const:
        return None, addr.value
    if addr.op == "add" and addr.args[1].is_const:
        return addr.args[0], addr.args[1].value
    return addr, 0


# -- symbolic memory --------------------------------------------------------------


class _Write:
    """One symbolic store record."""

    __slots__ = ("side", "addr", "size", "value", "index", "observed", "shadowed_by")

    def __init__(self, side: str, addr: Term, size: int, value: Term, index: int):
        self.side = side          # 'orig' | 'instr' (the §4 alias classes)
        self.addr = addr
        self.size = size
        self.value = value
        self.index = index        # position of the storing instruction
        self.observed = False     # a load may have read this record
        self.shadowed_by = None   # index of an exact overwrite, if any


class SymbolicMemory:
    """An ordered write log over an opaque initial memory term.

    ``restrict=True`` mirrors
    ``SchedulingPolicy.restrict_instrumentation_memory``: the §4 axiom
    (instrumentation memory is disjoint from original memory) is only
    assumed under the permissive policy — exactly when the dependence
    DAG also assumes it.
    """

    def __init__(self, *, restrict: bool = False) -> None:
        self.base = var("mem")
        self.restrict = restrict
        self.writes: list[_Write] = []

    # -- aliasing -----------------------------------------------------------------

    def _disjoint(
        self, side_a: str, addr_a: Term, size_a: int,
        side_b: str, addr_b: Term, size_b: int,
    ) -> bool:
        """Provably non-overlapping byte intervals.

        Identical symbolic bases (including "no base": two constants)
        decide by interval arithmetic — truthfully, so this branch also
        *denies* disjointness for overlapping counters. Different bases
        fall back to the §4 axiom when the accesses sit on opposite
        instrumentation/original sides under the permissive policy."""
        base_a, off_a = _split_base(addr_a)
        base_b, off_b = _split_base(addr_b)
        if base_a is base_b:
            return off_a + size_a <= off_b or off_b + size_b <= off_a
        return side_a != side_b and not self.restrict

    # -- accesses -----------------------------------------------------------------

    def _check_alignment(self, addr: Term, size: int, index: int) -> None:
        if size > 1 and addr.is_const and addr.value % size:
            raise SymbolicTrap(
                f"misaligned {size}-byte access at {addr.value:#x}",
                kind="misaligned",
                index=index,
            )

    def load(self, side: str, addr: Term, size: int, *, index: int = 0) -> Term:
        self._check_alignment(addr, size, index)
        for write in reversed(self.writes):
            if write.addr is addr and write.size == size:
                write.observed = True
                value = write.value
                if size < 4:
                    value = app("and", value, const((1 << (8 * size)) - 1))
                return value
            if self._disjoint(
                write.side, write.addr, write.size, side, addr, size
            ):
                continue
            # Ambiguous overlap: the value comes from an opaque snapshot
            # of the whole log. Every record the snapshot may expose to
            # this load counts as observed (dead-store analysis must not
            # claim it).
            for other in self.writes:
                if not self._disjoint(
                    other.side, other.addr, other.size, side, addr, size
                ):
                    other.observed = True
            return app("read", self.snapshot(), addr, const(size))
        return app("read", self.base, addr, const(size))

    def store(
        self, side: str, addr: Term, size: int, value: Term, *, index: int = 0
    ) -> None:
        self._check_alignment(addr, size, index)
        # Dead-store bookkeeping: the newest unobserved record this
        # store exactly overwrites is shadowed. The scan stops at the
        # first record it cannot prove disjoint — anything older may
        # still be partially visible.
        for write in reversed(self.writes):
            if write.addr is addr and write.size == size:
                if not write.observed and write.shadowed_by is None:
                    write.shadowed_by = index
                break
            if not self._disjoint(
                write.side, write.addr, write.size, side, addr, size
            ):
                break
        self.writes.append(_Write(side, addr, size, value, index))

    # -- canonical snapshot -------------------------------------------------------

    def _commutes(self, a: _Write, b: _Write) -> bool:
        return self._disjoint(a.side, a.addr, a.size, b.side, b.addr, b.size)

    def snapshot(self) -> Term:
        """The write log folded over the initial memory, in canonical
        order: neighboring *provably disjoint* writes (which commute
        physically) are sorted by a deterministic key, so two logs that
        differ only in the interleaving of independent stores fold to
        the same term."""
        records = list(self.writes)
        changed = True
        while changed:
            changed = False
            for i in range(len(records) - 1):
                a, b = records[i], records[i + 1]
                if self._commutes(a, b) and self._sort_key(b) < self._sort_key(a):
                    records[i], records[i + 1] = b, a
                    changed = True
        snapshot = self.base
        for write in records:
            snapshot = app(
                "store", snapshot, write.addr, const(write.size), write.value
            )
        return snapshot

    @staticmethod
    def _sort_key(write: _Write) -> tuple:
        return (write.addr._id, write.size, write.value._id, write.side)

    def dead_stores(self) -> list[tuple[int, int]]:
        """(store index, overwriting index) for every record exactly
        overwritten before any load could observe it."""
        return [
            (w.index, w.shadowed_by)
            for w in self.writes
            if w.shadowed_by is not None and not w.observed
        ]


# -- symbolic machine state -------------------------------------------------------


class SymbolicState:
    """Term-level mirror of :class:`~repro.isa.machine_state.MachineState`.

    Fresh states start every register, condition code, ``%y``, and
    memory at a named initial-state variable; two states built from the
    same variables are comparable term-for-term.
    """

    def __init__(self, *, restrict_memory: bool = False) -> None:
        self.regs: list[Term] = [var(f"r{i}") for i in range(32)]
        self.regs[0] = const(0)
        self.fregs: list[Term] = [var(f"f{i}") for i in range(32)]
        self.icc_n = var("icc_n")
        self.icc_z = var("icc_z")
        self.icc_v = var("icc_v")
        self.icc_c = var("icc_c")
        self.fcc = var("fcc")
        self.y = var("y")
        self.memory = SymbolicMemory(restrict=restrict_memory)
        # Condition-code def/use provenance for the lint rules: the
        # defining instruction index per code, defs that were read, and
        # defs overwritten while still unread.
        self.cc_def: dict[str, int | None] = {"icc": None, "fcc": None}
        self.cc_used: set[tuple[str, int]] = set()
        self.dead_cc: list[tuple[int, int, str]] = []  # (def, killer, which)

    # -- registers ----------------------------------------------------------------

    def get_reg(self, index: int) -> Term:
        return const(0) if index == 0 else self.regs[index]

    def set_reg(self, index: int, value: Term) -> None:
        if index != 0:
            self.regs[index] = value

    def get_freg(self, index: int) -> Term:
        return self.fregs[index]

    def set_freg(self, index: int, value: Term) -> None:
        self.fregs[index] = value

    # -- condition-code provenance ------------------------------------------------

    def _define_cc(self, which: str, index: int) -> None:
        previous = self.cc_def[which]
        if previous is not None and (which, previous) not in self.cc_used:
            self.dead_cc.append((previous, index, which))
        self.cc_def[which] = index

    def use_cc(self, which: str) -> None:
        current = self.cc_def[which]
        if current is not None:
            self.cc_used.add((which, current))

    def set_icc(self, n: Term, z: Term, v: Term, c: Term, *, index: int = 0) -> None:
        self._define_cc("icc", index)
        self.icc_n, self.icc_z, self.icc_v, self.icc_c = n, z, v, c

    def set_fcc(self, value: Term, *, index: int = 0) -> None:
        self._define_cc("fcc", index)
        self.fcc = value


# -- the executor -----------------------------------------------------------------


def _src2(state: SymbolicState, inst: Instruction) -> Term:
    if inst.imm is not None:
        return const(inst.imm)
    if inst.rs2 is None:
        return const(0)
    return state.get_reg(inst.rs2.index)


def _effective_address(state: SymbolicState, inst: Instruction) -> Term:
    base = state.get_reg(inst.rs1.index) if inst.rs1 is not None else const(0)
    return app("add", base, _src2(state, inst))


def _side(inst: Instruction) -> str:
    return "instr" if inst.is_instrumentation else "orig"


def sym_execute(state: SymbolicState, inst: Instruction, *, index: int = 0) -> None:
    """Apply ``inst`` symbolically, mirroring the concrete semantics
    table of :mod:`repro.isa.semantics` mnemonic for mnemonic."""
    if inst.is_control:
        raise SymexUnsupported(
            f"control transfer {inst.mnemonic} has no straight-line semantics"
        )
    cat = inst.category

    if cat is Category.NOP:
        return
    if cat is Category.SETHI:
        state.set_reg(inst.rd.index, const((inst.imm or 0) << 10))
        return
    if cat in (Category.IALU, Category.SHIFT, Category.IMUL, Category.IDIV):
        _sym_integer(state, inst, index)
        return
    if cat in (Category.LOAD, Category.FPLOAD):
        _sym_load(state, inst, index)
        return
    if cat in (Category.STORE, Category.FPSTORE):
        _sym_store(state, inst, index)
        return
    _sym_fp(state, inst, index)


def _sym_integer(state: SymbolicState, inst: Instruction, index: int) -> None:
    m = inst.mnemonic
    a = state.get_reg(inst.rs1.index) if inst.rs1 is not None else const(0)
    b = _src2(state, inst)

    if m == "rdy":
        state.set_reg(inst.rd.index, state.y)
        return
    if m == "wry":
        state.y = app("xor", a, b)
        return

    base = m[:-2] if m.endswith("cc") and m not in ("and",) else m
    sets_cc = m.endswith("cc") and m != "and"

    if base in ("add", "save", "restore"):
        result = app("add", a, b)
        if sets_cc:
            state.set_icc(
                app("msb", result), app("eqz", result),
                app("addv", a, b), app("addc", a, b), index=index,
            )
    elif base == "addx":
        state.use_cc("icc")
        result = app("add", app("add", a, b), state.icc_c)
    elif base == "sub":
        result = app("sub", a, b)
        if sets_cc:
            state.set_icc(
                app("msb", result), app("eqz", result),
                app("subv", a, b), app("subc", a, b), index=index,
            )
    elif base == "subx":
        state.use_cc("icc")
        result = app("sub", app("sub", a, b), state.icc_c)
    elif base in ("and", "or", "xor", "andn", "orn", "xnor"):
        result = app(base, a, b)
        if sets_cc:
            state.set_icc(
                app("msb", result), app("eqz", result), FALSE, FALSE, index=index
            )
    elif base in ("sll", "srl", "sra"):
        result = app(base, a, b)
    elif base == "umul":
        state.y = app("umulhi", a, b)
        result = app("umullo", a, b)
    elif base == "smul":
        state.y = app("smulhi", a, b)
        result = app("smullo", a, b)
        if sets_cc:
            state.set_icc(
                app("msb", result), app("eqz", result), FALSE, FALSE, index=index
            )
    elif base in ("udiv", "sdiv"):
        if b.is_const and (b.value == 0 if base == "udiv" else _signed(b.value) == 0):
            raise SymbolicTrap(f"{base} by zero", kind="div-zero", index=index)
        result = app(base, state.y, a, b)
    else:
        raise SymexUnsupported(f"no integer semantics for {m}")

    if inst.rd is not None:
        state.set_reg(inst.rd.index, result)


def _sym_load(state: SymbolicState, inst: Instruction, index: int) -> None:
    m = inst.mnemonic
    addr = _effective_address(state, inst)
    mem, side = state.memory, _side(inst)
    if m in ("ld", "ldub", "lduh"):
        state.set_reg(inst.rd.index, mem.load(side, addr, _MEM_SIZES[m], index=index))
    elif m in ("ldsb", "ldsh"):
        value = mem.load(side, addr, _MEM_SIZES[m], index=index)
        state.set_reg(
            inst.rd.index, app("sext", value, const(8 * _MEM_SIZES[m]))
        )
    elif m == "ldd":
        state.set_reg(inst.rd.index, mem.load(side, addr, 4, index=index))
        state.set_reg(
            inst.rd.index | 1,
            mem.load(side, app("add", addr, const(4)), 4, index=index),
        )
    elif m == "ldf":
        state.set_freg(inst.rd.index, mem.load(side, addr, 4, index=index))
    elif m == "lddf":
        _even_double(inst.rd.index)
        state.set_freg(inst.rd.index, mem.load(side, addr, 4, index=index))
        state.set_freg(
            inst.rd.index + 1,
            mem.load(side, app("add", addr, const(4)), 4, index=index),
        )
    else:
        raise SymexUnsupported(f"no load semantics for {m}")


def _sym_store(state: SymbolicState, inst: Instruction, index: int) -> None:
    m = inst.mnemonic
    addr = _effective_address(state, inst)
    mem, side = state.memory, _side(inst)
    if m in ("st", "stb", "sth"):
        mem.store(
            side, addr, _MEM_SIZES[m], state.get_reg(inst.rd.index), index=index
        )
    elif m == "std":
        mem.store(side, addr, 4, state.get_reg(inst.rd.index), index=index)
        mem.store(
            side, app("add", addr, const(4)), 4,
            state.get_reg(inst.rd.index | 1), index=index,
        )
    elif m == "stf":
        mem.store(side, addr, 4, state.get_freg(inst.rd.index), index=index)
    elif m == "stdf":
        _even_double(inst.rd.index)
        mem.store(side, addr, 4, state.get_freg(inst.rd.index), index=index)
        mem.store(
            side, app("add", addr, const(4)), 4,
            state.get_freg(inst.rd.index + 1), index=index,
        )
    else:
        raise SymexUnsupported(f"no store semantics for {m}")


def _even_double(index: int) -> None:
    """Refuse an odd FP double register, which the concrete semantics
    faults on, before anything is read or written."""
    if index % 2:
        raise SymexUnsupported(f"odd double register %f{index}")


def _double_pair(state: SymbolicState, index: int) -> tuple[Term, Term]:
    _even_double(index)
    return state.fregs[index], state.fregs[index + 1]


def _set_double(state: SymbolicState, index: int, term64: Term) -> None:
    _even_double(index)
    state.set_freg(index, app("hi64", term64))
    state.set_freg(index + 1, app("lo64", term64))


def _sym_fp(state: SymbolicState, inst: Instruction, index: int) -> None:
    """FP operations as uninterpreted applications over bit patterns.

    Soundness comes for free: identical operand terms denote identical
    concrete patterns, hence identical results — no rounding behavior
    is modeled and none needs to be."""
    m = inst.mnemonic

    if m in ("fmovs", "fnegs", "fabss"):
        pattern = state.get_freg(inst.rs2.index)
        if m == "fnegs":
            pattern = app("xor", pattern, const(SIGN_BIT))
        elif m == "fabss":
            pattern = app("and", pattern, const(~SIGN_BIT & MASK32))
        state.set_freg(inst.rd.index, pattern)
        return

    if m == "fcmps":
        state.set_fcc(
            app("fcmps", state.get_freg(inst.rs1.index), state.get_freg(inst.rs2.index)),
            index=index,
        )
        return
    if m == "fcmpd":
        ah, al = _double_pair(state, inst.rs1.index)
        bh, bl = _double_pair(state, inst.rs2.index)
        state.set_fcc(app("fcmpd", ah, al, bh, bl), index=index)
        return

    if m == "fsqrts":
        state.set_freg(inst.rd.index, app("fsqrts", state.get_freg(inst.rs2.index)))
        return
    if m == "fsqrtd":
        sh, sl = _double_pair(state, inst.rs2.index)
        _set_double(state, inst.rd.index, app("fsqrtd", sh, sl))
        return
    if m == "fitos":
        state.set_freg(inst.rd.index, app("fitos", state.get_freg(inst.rs2.index)))
        return
    if m == "fitod":
        _set_double(state, inst.rd.index, app("fitod", state.get_freg(inst.rs2.index)))
        return
    if m == "fstoi":
        state.set_freg(inst.rd.index, app("fstoi", state.get_freg(inst.rs2.index)))
        return
    if m == "fdtoi":
        sh, sl = _double_pair(state, inst.rs2.index)
        state.set_freg(inst.rd.index, app("fdtoi", sh, sl))
        return
    if m == "fstod":
        _set_double(state, inst.rd.index, app("fstod", state.get_freg(inst.rs2.index)))
        return
    if m == "fdtos":
        sh, sl = _double_pair(state, inst.rs2.index)
        state.set_freg(inst.rd.index, app("fdtos", sh, sl))
        return

    if m in ("fadds", "fsubs", "fmuls", "fdivs"):
        state.set_freg(
            inst.rd.index,
            app(m, state.get_freg(inst.rs1.index), state.get_freg(inst.rs2.index)),
        )
        return
    if m in ("faddd", "fsubd", "fmuld", "fdivd"):
        ah, al = _double_pair(state, inst.rs1.index)
        bh, bl = _double_pair(state, inst.rs2.index)
        _set_double(state, inst.rd.index, app(m, ah, al, bh, bl))
        return

    raise SymexUnsupported(f"no FP semantics for {m}")


def sym_run(
    state: SymbolicState, instructions: list[Instruction]
) -> SymbolicState:
    """Execute a branch-free sequence symbolically, returning ``state``."""
    for index, inst in enumerate(instructions):
        sym_execute(state, inst, index=index)
    return state


__all__ = [
    "SymbolicMemory",
    "SymbolicState",
    "SymbolicTrap",
    "SymexUnsupported",
    "Term",
    "app",
    "const",
    "render_term",
    "sym_execute",
    "sym_run",
    "var",
]
