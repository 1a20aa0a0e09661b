"""The on-disk table store refuses what it cannot trust.

Every stall query answers through the model's tables, and the tables
start from a store keyed by the model's content digest: a header line
(a CRC-32, then a JSON object of the store's parameters and counts)
followed by five array sections — key offsets, key bytes, ``advance``,
packed transition keys and packed transition values. A store that
fails its checksum, is not a store at all, disagrees with its header
or with this model, or holds out-of-range entries is refused — counted
in ``tables.rejected`` — recompiled and rewritten, so the tables still
answer exactly like the interpreted walker.
"""

import json
import os
import sys
import zlib
from array import array

import pytest

from repro.core.regions import split_regions
from repro.eel.cfg import build_cfg
from repro.isa import Instruction, r
from repro.pipeline import tables as tables_module
from repro.pipeline.simulator import BlockSimulator, issue_cycles
from repro.pipeline.tables import CACHE_DIR_ENV, attach_tables, persist_learned
from repro.spawn.library import description_text, load_machine_from_source
from repro.workloads.spec95 import generate_benchmark
from tests.walker_tables import use_walker

MACHINE = "ultrasparc"

#: The five sections, in file order.
SECTIONS = ("offsets", "keys", "advance", "packed_keys", "packed_values")


def _fresh():
    return load_machine_from_source(description_text(MACHINE), MACHINE)


@pytest.fixture(scope="module")
def regions():
    executable = generate_benchmark("126.gcc", trip_count=2).executable
    return [
        list(region.instructions)
        for block in build_cfg(executable)
        for region in split_regions(list(block.body))
        if region.instructions
    ]


@pytest.fixture(scope="module")
def walker_cycles(regions):
    """Per region, the walker's issue cycles for it and its double."""
    reference = BlockSimulator(use_walker(_fresh()))
    return [
        [
            reference.time_block(region).issue_cycles,
            reference.time_block(region + region).issue_cycles,
        ]
        for region in regions
    ]


@pytest.fixture
def cache_path(tmp_path, monkeypatch, regions):
    """A private store holding the eager prefix plus every state block
    timing of the regions learned."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    model = _fresh()
    for region in regions:
        issue_cycles(model, region, copies=2)
    assert persist_learned(model, min_growth=1)
    return model.tables.cache_path


# -- reading and writing stores by hand -------------------------------------------


def _read(path):
    """``(checksum digits, header fields, {section: bytes})`` of the
    store at ``path``, parsed independently of the loader."""
    with open(path, "rb") as handle:
        data = handle.read()
    end = data.index(b"\n")
    checksum, _, text = data[:end].partition(b" ")
    header = json.loads(text)
    offset, advance, packed = header["itemsizes"]
    sizes = (
        (header["states"] + 1) * offset,
        header["key_bytes"],
        header["states"] * advance,
        header["transitions"] * packed,
        header["transitions"] * packed,
    )
    sections, at = {}, end + 1
    for name, size in zip(SECTIONS, sizes):
        sections[name] = data[at : at + size]
        at += size
    assert at == len(data)
    return checksum, header, sections


def _write(path, header, sections, checksum=None):
    """Write a store of ``header`` and ``sections``, under a fresh
    checksum unless ``checksum`` is given."""
    text = json.dumps(header, separators=(",", ":")).encode()
    if checksum is None:
        crc = zlib.crc32(text)
        for name in SECTIONS:
            crc = zlib.crc32(sections[name], crc)
        checksum = b"%08x" % crc
    with open(path, "wb") as handle:
        handle.write(checksum + b" " + text + b"\n")
        for name in SECTIONS:
            handle.write(sections[name])


def _arrays(sections):
    """The array sections, decoded in this host's byte order."""
    out = {}
    for name, code in zip(SECTIONS, ("I", None, "i", "Q", "Q")):
        if code is not None:
            out[name] = array(code)
            out[name].frombytes(sections[name])
    return out


# -- corruptions ------------------------------------------------------------------


def _short_advance(path):
    """Half the ``advance`` section dropped, under a fresh checksum."""
    _, header, sections = _read(path)
    advance = sections["advance"]
    sections["advance"] = advance[: len(advance) // 2]
    _write(path, header, sections)


def _fit_past_window(path):
    """Every fit from the empty machine set to one past the window: it
    still fits the packed fit bits, under a fresh checksum."""
    _, header, sections = _read(path)
    window, fit_bits = header["window"], header["fit_bits"]
    assert window + 1 < 1 << fit_bits
    arrays = _arrays(sections)
    mask = (1 << header["sid_bits"]) - 1
    moved = 0
    for at, key in enumerate(arrays["packed_keys"]):
        if key & mask == 0:
            value = arrays["packed_values"][at]
            arrays["packed_values"][at] = value >> fit_bits << fit_bits | window + 1
            moved += 1
    assert moved
    sections["packed_values"] = arrays["packed_values"].tobytes()
    _write(path, header, sections)


def _flipped_fit_digit(path):
    """Raise one in-range fit by one (its low bit's digit flipped in
    the packed value), leaving the checksum."""
    checksum, header, sections = _read(path)
    arrays = _arrays(sections)
    fit_mask = (1 << header["fit_bits"]) - 1
    for at, value in enumerate(arrays["packed_values"]):
        if value & fit_mask < header["window"]:
            arrays["packed_values"][at] = value + 1
            sections["packed_values"] = arrays["packed_values"].tobytes()
            _write(path, header, sections, checksum)
            return
    raise AssertionError("no in-range fit to flip")


def _bare_list(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[]")


def _checksummed_list(path):
    with open(path, "wb") as handle:
        handle.write(b"%08x []\n" % zlib.crc32(b"[]"))


def _v2_json_entry(path):
    """The previous format, one checksummed JSON document, at the v3
    path: a JSON checksum line, then the text."""
    tables = _fresh().tables
    width = len(tables.capacity)
    text = json.dumps(
        {
            "version": 2,
            "window": tables.window,
            "capacity": list(tables.capacity),
            "groups": tables._group_signatures(),
            "keys": [
                [list(key[at : at + width]) for at in range(0, len(key), width)]
                for key in tables.keys
            ],
            "advance": tables.advance,
            "transitions": [[] for _ in tables.keys],
        },
        separators=(",", ":"),
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{zlib.crc32(text.encode()):08x}\n{text}")


def _itemsize(header, name):
    offset, advance, packed = header["itemsizes"]
    return dict(zip(SECTIONS, (offset, 1, advance, packed, packed)))[name]


def _truncated(name):
    """The last item of section ``name`` cut, header unchanged, under a
    fresh checksum."""

    def corrupt(path):
        _, header, sections = _read(path)
        sections[name] = sections[name][: -_itemsize(header, name)]
        _write(path, header, sections)

    corrupt.__name__ = f"_truncated_{name}"
    return corrupt


def _cut_file(path):
    """The file cut in the middle of its key bytes, as a write that
    never finished would leave it."""
    with open(path, "rb") as handle:
        data = handle.read()
    _, header, sections = _read(path)
    keep = data.index(b"\n") + 1 + len(sections["offsets"]) + header["key_bytes"] // 2
    with open(path, "wb") as handle:
        handle.write(data[:keep])


def _miscounted(field, delta):
    """Header ``field`` moved by ``delta``, sections unchanged, under a
    fresh checksum."""

    def corrupt(path):
        _, header, sections = _read(path)
        header[field] += delta
        _write(path, header, sections)

    corrupt.__name__ = f"_{field}_{delta:+d}"
    return corrupt


def _other_byte_order(path):
    """Every section byte-swapped and the header naming the other byte
    order: the loader does not swap, it refuses."""
    _, header, sections = _read(path)
    for name, values in _arrays(sections).items():
        values.byteswap()
        sections[name] = values.tobytes()
    header["byteorder"] = "big" if sys.byteorder == "little" else "little"
    _write(path, header, sections)


def _wider_offsets(path):
    """Key offsets re-encoded as ``uint64`` and the header saying so."""
    _, header, sections = _read(path)
    offsets = _arrays(sections)["offsets"]
    sections["offsets"] = array("Q", offsets).tobytes()
    header["itemsizes"] = [8] + header["itemsizes"][1:]
    _write(path, header, sections)


def _decreasing_offsets(path):
    """Two key offsets swapped, under a fresh checksum."""
    _, header, sections = _read(path)
    offsets = _arrays(sections)["offsets"]
    for at in range(2, len(offsets) - 1):
        if offsets[at] != offsets[at + 1]:
            offsets[at], offsets[at + 1] = offsets[at + 1], offsets[at]
            break
    sections["offsets"] = offsets.tobytes()
    _write(path, header, sections)


def _partial_row_key(path):
    """One key offset moved by a byte: still non-decreasing, but two
    keys no longer hold whole unit rows."""
    _, header, sections = _read(path)
    offsets = _arrays(sections)["offsets"]
    at = next(at for at in range(2, len(offsets) - 1) if offsets[at] < offsets[at + 1])
    offsets[at] += 1
    sections["offsets"] = offsets.tobytes()
    _write(path, header, sections)


def _nonempty_first_key(path):
    """State 0, the empty machine, given the next state's rows."""
    _, header, sections = _read(path)
    offsets = _arrays(sections)["offsets"]
    offsets[1] = offsets[2]
    sections["offsets"] = offsets.tobytes()
    _write(path, header, sections)


def _group_out_of_range(path):
    """One transition key naming a group past the stored signatures."""
    _, header, sections = _read(path)
    keys = _arrays(sections)["packed_keys"]
    mask = (1 << header["sid_bits"]) - 1
    keys[0] = len(header["groups"]) << header["sid_bits"] | keys[0] & mask
    sections["packed_keys"] = keys.tobytes()
    _write(path, header, sections)


def _transition_of_a_missing_state(path):
    """One transition key naming a state the store does not hold."""
    _, header, sections = _read(path)
    keys = _arrays(sections)["packed_keys"]
    keys[0] = keys[0] >> header["sid_bits"] << header["sid_bits"] | header["states"]
    sections["packed_keys"] = keys.tobytes()
    _write(path, header, sections)


CORRUPTIONS = [
    _short_advance,
    _fit_past_window,
    _flipped_fit_digit,
    _bare_list,
    _checksummed_list,
    _v2_json_entry,
    _cut_file,
    *[_truncated(name) for name in SECTIONS],
    _miscounted("states", 1),
    _miscounted("states", -1),
    _miscounted("key_bytes", 13),
    _miscounted("transitions", -1),
    _other_byte_order,
    _wider_offsets,
    _decreasing_offsets,
    _partial_row_key,
    _nonempty_first_key,
    _group_out_of_range,
    _transition_of_a_missing_state,
]


@pytest.mark.parametrize(
    "corrupt", CORRUPTIONS, ids=lambda corrupt: corrupt.__name__.strip("_")
)
def test_corrupt_entry_is_refused_and_rewritten(
    corrupt, cache_path, regions, walker_cycles
):
    corrupt(cache_path)
    model = _fresh()
    tables = model.tables
    assert tables.rejected == 1
    assert tables.states == tables_module.EAGER_STATES  # recompiled
    assert tables.cache_path == cache_path
    for region, want in zip(regions, walker_cycles):
        assert issue_cycles(model, region, copies=2) == want
    assert tables.misses == 0
    # The rewritten store loads cleanly.
    assert _read(cache_path)[1]["states"] == tables_module.EAGER_STATES
    assert _fresh().tables.rejected == 0


@pytest.mark.parametrize(
    "corrupt", [_bare_list, _checksummed_list], ids=lambda corrupt: corrupt.__name__.strip("_")
)
def test_persist_learned_overwrites_a_corrupt_entry(
    corrupt, tmp_path, monkeypatch, regions
):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    model = _fresh()
    tables = model.tables
    corrupt(tables.cache_path)
    for region in regions:
        issue_cycles(model, region, copies=2)
    assert tables.states > tables.persisted_states
    assert persist_learned(model, min_growth=1)
    assert _read(tables.cache_path)[1]["states"] == tables.states


def test_entry_loads_into_a_model_that_numbered_its_groups_differently(
    cache_path, regions, walker_cycles
):
    """Group ids follow formation order; a store names its groups by
    trace signature, so any model of the description can load it."""
    load = Instruction("ld", rd=r(3), rs1=r(1), imm=8)
    add = Instruction("add", rd=r(3), rs1=r(1), rs2=r(2))
    first, second = _fresh(), _fresh()
    first.timing(load)
    second.timing(add)
    assert first.timing(load).group != second.timing(load).group
    for model in (first, second):
        assert model.tables.rejected == 0
        assert model.tables.states > 256  # the learned states came along
        for region, want in zip(regions, walker_cycles):
            assert issue_cycles(model, region, copies=2) == want
        assert model.tables.misses == 0


def _decoded(tables):
    """``{(sid, group): (fit, next_sid)}`` of every memoized transition."""
    mask = (1 << tables._sid_bits) - 1
    return {
        (key & mask, key >> tables._sid_bits): tables.lookup(key & mask, key >> tables._sid_bits)
        for key in list(tables.transitions)
    }


def test_a_store_larger_than_the_budget_loads_its_first_states(
    cache_path, regions, walker_cycles
):
    """Of a store with more states than the budget, the first ``budget``
    load; transitions from the rest are dropped, and successors and
    ``advance`` entries naming them become None."""
    stored = _fresh().tables
    budget = stored.states // 2
    model = _fresh()
    tables = attach_tables(model, budget=budget)
    assert tables.rejected == 0
    assert tables.keys == stored.keys[:budget]
    assert tables.advance == [0] + [
        sid if sid is not None and sid < budget else None
        for sid in stored.advance[1:budget]
    ]
    assert _decoded(tables) == {
        (sid, group): (fit, None if successor is None or successor >= budget else successor)
        for (sid, group), (fit, successor) in _decoded(stored).items()
        if sid < budget
    }
    # Lean streams may now run out of states, but every answer is exact.
    for region, want in zip(regions, walker_cycles):
        assert issue_cycles(model, region, copies=2) == want


def test_successors_past_the_stored_states_load_as_none(cache_path):
    """A successor naming a state the store does not hold loads as None
    (tracking is lost there), as one past the budget does."""
    _, header, sections = _read(cache_path)
    arrays = _arrays(sections)
    fit_bits = header["fit_bits"]
    value = arrays["packed_values"][0]
    arrays["packed_values"][0] = (value & ((1 << fit_bits) - 1)) | (header["states"] + 5) << fit_bits
    sections["packed_values"] = arrays["packed_values"].tobytes()
    _write(cache_path, header, sections)
    tables = _fresh().tables
    assert tables.rejected == 0 and tables.states == header["states"]
    key = arrays["packed_keys"][0]
    sid, group = key & ((1 << header["sid_bits"]) - 1), key >> header["sid_bits"]
    fit, successor = tables.lookup(sid, group)
    assert (fit, successor) == (value & ((1 << fit_bits) - 1), None)


class _CountingFile:
    """A file whose reads are tallied."""

    def __init__(self, handle, tally):
        self.handle = handle
        self.tally = tally

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def read(self, *args):
        data = self.handle.read(*args)
        self.tally.append(len(data))
        return data

    def readline(self, *args):
        line = self.handle.readline(*args)
        self.tally.append(len(line))
        return line


def test_a_larger_header_stops_persist_learned_without_reading_the_body(
    tmp_path, monkeypatch, regions
):
    """Last writer wins only when it holds more: a header counting more
    states than this process holds stops the write, and the growth check
    reads the header line and nothing after it."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    model = _fresh()
    tables = model.tables
    for region in regions:
        issue_cycles(model, region, copies=2)
    assert tables.states > tables.persisted_states
    _, header, sections = _read(tables.cache_path)
    header["states"] = tables.states + 1
    body = b"\xff" * 4096  # no store would parse this
    line = b"00000000 " + json.dumps(header).encode() + b"\n"
    with open(tables.cache_path, "wb") as handle:
        handle.write(line + body)
    tally = []
    monkeypatch.setattr(
        tables_module, "open", lambda path, mode: _CountingFile(open(path, mode), tally), raising=False
    )
    assert persist_learned(model, min_growth=1) is False
    assert sum(tally) == len(line)
    assert tables.persisted_states == tables.states
    with open(tables.cache_path, "rb") as handle:
        assert handle.read() == line + body  # not rewritten


def test_steady_state_opens_no_file(tmp_path, monkeypatch, regions):
    """Below ``min_growth`` the growth check compares two in-memory
    counts and touches no file."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    model = _fresh()
    for region in regions:
        issue_cycles(model, region, copies=2)
    assert persist_learned(model, min_growth=1)
    opened = []
    monkeypatch.setattr(
        tables_module, "open", lambda *args: opened.append(args), raising=False
    )
    assert persist_learned(model) is False
    assert persist_learned(model, min_growth=1) is False
    assert opened == []


def test_a_missing_store_counts_as_no_entry(tmp_path, monkeypatch, regions):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    model = _fresh()
    tables = model.tables
    os.unlink(tables.cache_path)
    for region in regions[:4]:
        issue_cycles(model, region, copies=2)
    assert persist_learned(model, min_growth=1)
    assert _read(tables.cache_path)[1]["states"] == tables.states
