"""The in-order superscalar pipeline model (paper §3.2 and Appendix A)."""

from .diagnose import Hazard, all_hazards, attribute_stalls, explain_stall, stall_breakdown
from .ooo import OoOConfig, OoORun, OoOSimulator, ooo_timed_run
from .simulator import BlockSimulator, BlockTiming
from .stalls import (
    MAX_STALL_SEARCH,
    PipelineDeadlock,
    WalkResult,
    issue,
    pipeline_stalls,
    walk,
)
from .state import HeldInterval, PipelineState
from .tables import LeanPipeline, PipelineTables, TableMiss, attach_tables
from .timing import TimedRun, timed_run
from .viz import schedule_chart, unit_occupancy

__all__ = [
    "BlockSimulator",
    "BlockTiming",
    "Hazard",
    "HeldInterval",
    "LeanPipeline",
    "MAX_STALL_SEARCH",
    "OoOConfig",
    "OoORun",
    "OoOSimulator",
    "PipelineDeadlock",
    "PipelineState",
    "PipelineTables",
    "TableMiss",
    "TimedRun",
    "WalkResult",
    "all_hazards",
    "attach_tables",
    "attribute_stalls",
    "explain_stall",
    "issue",
    "ooo_timed_run",
    "pipeline_stalls",
    "schedule_chart",
    "stall_breakdown",
    "timed_run",
    "unit_occupancy",
    "walk",
]
