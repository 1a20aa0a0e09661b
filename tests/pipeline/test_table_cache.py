"""The on-disk table cache refuses what it cannot trust.

Every stall query answers through the model's tables, and the tables
start from a disk cache entry keyed by the model's content digest. An
entry is the checksum of its JSON text on the first line, then the
text. One that fails the checksum, holds no JSON object, or whose lists
disagree with its state count is refused — counted in
``tables.rejected`` — recompiled and rewritten, so the tables still
answer exactly like the interpreted walker.
"""

import json

import pytest

from repro.core.regions import split_regions
from repro.eel.cfg import build_cfg
from repro.isa import Instruction, r
from repro.pipeline.simulator import BlockSimulator, issue_cycles
from repro.pipeline.tables import (
    CACHE_DIR_ENV,
    _checksum,
    _read_entry,
    persist_learned,
)
from repro.spawn.library import description_text, load_machine_from_source
from repro.workloads.spec95 import generate_benchmark
from tests.walker_tables import use_walker

MACHINE = "ultrasparc"


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
    """A private cache entry holding the eager prefix plus every state
    block timing of the regions learned."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    model = _fresh()
    for region in regions:
        issue_cycles(model, region, copies=2)
    assert persist_learned(model, min_growth=1)
    return model.tables.cache_path


def _write(path, text, checksum=None):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_checksum(text) if checksum is None else checksum}\n{text}")


def _short_advance(path):
    payload = _read_entry(path)
    del payload["advance"][len(payload["advance"]) // 2 :]
    _write(path, json.dumps(payload))


def _fit_past_window(path):
    """Every fit from the empty machine raised by ``2**fit_bits``, past
    the window and into the packed successor's bits."""
    payload = _read_entry(path)
    past = 1 << payload["window"].bit_length()
    for entry in payload["transitions"][0]:
        entry[1] += past
    _write(path, json.dumps(payload))


def _flipped_fit_digit(path):
    """Raise one in-range fit by one in the text, leaving the checksum."""
    with open(path, encoding="utf-8") as handle:
        checksum, _, text = handle.read().partition("\n")
    payload = json.loads(text)
    window = payload["window"]
    for table in payload["transitions"]:
        for entry in table:
            if entry[1] < window:
                entry[1] += 1
                _write(path, json.dumps(payload, separators=(",", ":")), checksum)
                return
    raise AssertionError("no in-range fit to flip")


def _bare_list(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[]")


def _checksummed_list(path):
    _write(path, "[]")


@pytest.mark.parametrize(
    "corrupt",
    [_short_advance, _fit_past_window, _flipped_fit_digit, _bare_list, _checksummed_list],
    ids=lambda corrupt: corrupt.__name__.strip("_"),
)
def test_corrupt_entry_is_refused_and_rewritten(
    corrupt, cache_path, regions, walker_cycles
):
    corrupt(cache_path)
    model = _fresh()
    tables = model.tables
    assert tables.rejected == 1
    assert tables.cache_path == cache_path
    for region, want in zip(regions, walker_cycles):
        assert issue_cycles(model, region, copies=2) == want
    assert tables.misses == 0
    # The rewritten entry loads cleanly.
    assert isinstance(_read_entry(cache_path), dict)
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
    assert len(_read_entry(tables.cache_path)["keys"]) == tables.states


def test_entry_loads_into_a_model_that_numbered_its_groups_differently(
    cache_path, regions, walker_cycles
):
    """Group ids follow formation order; an entry names its groups by
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
