"""Stall tables that never answer: the interpreted walker as a model's
tables, for comparing the walker with the compiled tables.

Every stall query goes through ``model.tables``. Putting
:class:`WalkerTables` there makes each query miss, so each one takes the
exact fallback path — the interpreted walker over the occupancy
timeline — and lean streams count their misses here.
"""

from repro.pipeline.tables import SegmentMemo


class WalkerTables:
    """Tables with no states: every query misses."""

    def __init__(self) -> None:
        self.misses = 0
        #: trace timing's memo; it stays empty, since no segment can
        #: be issued on tables that never answer.
        self.memo = SegmentMemo()

    def advance_to(self, sid, cycles):
        return None

    def lookup(self, sid, group):
        return None

    def intern_from_state(self, state, origin):
        return None


def use_walker(model):
    """``model``, with every stall query answered by the walker."""
    model.tables = WalkerTables()
    return model
