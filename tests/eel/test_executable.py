"""RXE container tests: serialization round-trip, decoding, running."""

import pickle

import pytest

from repro.eel import executable as executable_module
from repro.isa import assemble, encode_words
from repro.eel import (
    DATA_BASE,
    Executable,
    Section,
    SectionKind,
    Symbol,
    SymbolKind,
    TEXT_BASE,
)

SUM_LOOP = """
    clr %o1
    mov 10, %o0
loop:
    add %o1, %o0, %o1
    subcc %o0, 1, %o0
    bne loop
    nop
    retl
    nop
"""


def make_exe(source=SUM_LOOP, **kwargs):
    return Executable.from_instructions(
        assemble(source, base_address=TEXT_BASE), **kwargs
    )


def test_from_instructions_encodes_text():
    exe = make_exe()
    assert exe.text_size == 8 * 4
    assert exe.instruction_count == 8


def test_decode_text_roundtrip():
    program = assemble(SUM_LOOP, base_address=TEXT_BASE)
    exe = Executable.from_instructions(program)
    decoded = exe.decode_text()
    assert [a for a, _ in decoded] == [TEXT_BASE + 4 * i for i in range(len(program))]
    assert [i.mnemonic for _, i in decoded] == [i.mnemonic for i in program]


def test_run_executes_program():
    result = make_exe().run()
    assert result.state.get_reg(9) == 55  # %o1 = sum 1..10


def test_serialization_roundtrip():
    exe = make_exe(
        symbols=[Symbol("main", TEXT_BASE, 32, SymbolKind.FUNCTION)],
        data_sections=[
            Section(".data", SectionKind.DATA, DATA_BASE, b"\x01\x02\x03\x04"),
            Section(".bss", SectionKind.BSS, DATA_BASE + 0x1000, bss_size=64),
        ],
    )
    again = Executable.from_bytes(exe.to_bytes())
    assert again.entry == exe.entry
    assert [s.name for s in again.sections] == [".text", ".data", ".bss"]
    assert again.section(".data").data == b"\x01\x02\x03\x04"
    assert again.section(".bss").size == 64
    assert again.symbol("main").address == TEXT_BASE
    assert again.run().state.get_reg(9) == 55


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        Executable.from_bytes(b"ELF!" + b"\x00" * 32)


def test_data_sections_loaded_into_memory():
    exe = make_exe(
        data_sections=[
            Section(".data", SectionKind.DATA, DATA_BASE, b"\xde\xad\xbe\xef")
        ]
    )
    state = exe.load_state()
    assert state.memory.read_word(DATA_BASE) == 0xDEADBEEF


def test_missing_section_raises():
    with pytest.raises(KeyError):
        make_exe().section(".rodata")


def test_function_symbols_sorted():
    exe = make_exe(
        symbols=[
            Symbol("b", TEXT_BASE + 16),
            Symbol("a", TEXT_BASE),
            Symbol("obj", DATA_BASE, kind=SymbolKind.OBJECT),
        ]
    )
    assert [s.name for s in exe.function_symbols()] == ["a", "b"]


def _counting_decodes(monkeypatch):
    calls = []
    decode_bytes = executable_module.decode_bytes

    def counted(data, **kwargs):
        calls.append(data)
        return decode_bytes(data, **kwargs)

    monkeypatch.setattr(executable_module, "decode_bytes", counted)
    return calls


def test_text_is_decoded_once_per_content(monkeypatch):
    calls = _counting_decodes(monkeypatch)
    exe = make_exe()
    listing = exe.decode_text()
    assert exe.code_map() == dict(listing)
    assert exe.run().state.get_reg(9) == 55
    assert exe.decode_text() == listing
    assert len(calls) == 1


def test_decode_text_hands_out_independent_lists():
    exe = make_exe()
    first = exe.decode_text()
    first.clear()
    second = exe.decode_text()
    assert second and second is not exe.decode_text()
    assert len(second) == exe.instruction_count


def test_replacing_the_text_decodes_again(monkeypatch):
    calls = _counting_decodes(monkeypatch)
    exe = make_exe()
    exe.decode_text()
    text = exe.text_section()
    text.data = encode_words(assemble("add %g1, %g2, %g3\nretl\nnop"))
    assert [i.mnemonic for _, i in exe.decode_text()] == ["add", "jmpl", "nop"]
    text.address = TEXT_BASE + 0x40
    moved = [TEXT_BASE + 0x40 + 4 * i for i in range(3)]
    assert [a for a, _ in exe.decode_text()] == moved
    assert len(calls) == 3


def test_decode_memo_is_invisible_to_equality_bytes_and_pickles():
    decoded, fresh = make_exe(), make_exe()
    decoded.decode_text()
    assert decoded == fresh
    assert repr(decoded) == repr(fresh)
    assert decoded.to_bytes() == fresh.to_bytes()
    assert pickle.dumps(decoded) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(decoded)).decode_text() == fresh.decode_text()
