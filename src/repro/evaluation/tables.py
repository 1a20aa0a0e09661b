"""Table rendering and the three table protocols (Tables 1–3)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..pipeline.tables import persist_learned
from ..spawn.library import load_machine
from ..workloads.spec95 import CFP95, CINT95
from .experiment import BenchmarkResult, ExperimentConfig, run_profiling_experiment

#: The three published tables and their protocols.
TABLE_CONFIGS: dict[int, ExperimentConfig] = {
    1: ExperimentConfig(machine="ultrasparc", reschedule_baseline=False),
    2: ExperimentConfig(machine="ultrasparc", reschedule_baseline=True),
    3: ExperimentConfig(machine="supersparc", reschedule_baseline=False),
}

TABLE_TITLES = {
    1: "Table 1: Slow profiling instrumentation on the UltraSPARC",
    2: (
        "Table 2: Slow profiling instrumentation on the UltraSPARC, "
        "with original instructions first rescheduled by EEL"
    ),
    3: "Table 3: Slow profiling instrumentation on the SuperSPARC",
}

#: Paper-reported per-suite average % hidden, for shape assertions.
PAPER_AVERAGES = {
    1: {"int": 0.148, "fp": 0.167},
    2: {"int": 0.132, "fp": 0.273},
    3: {"int": 0.109, "fp": 0.435},
}


@dataclass
class TableResult:
    """All rows of one reproduced table."""

    table: int
    config: ExperimentConfig
    rows: list[BenchmarkResult] = field(default_factory=list)

    def _suite(self, names) -> list[BenchmarkResult]:
        return [row for row in self.rows if row.benchmark in names]

    @staticmethod
    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def average_hidden(self, suite: str) -> float:
        names = CINT95 if suite == "int" else CFP95
        return self._mean([row.pct_hidden for row in self._suite(names)])

    def average_ratio(self, suite: str, which: str = "instrumented") -> float:
        names = CINT95 if suite == "int" else CFP95
        attr = f"{which}_ratio"
        return self._mean([getattr(row, attr) for row in self._suite(names)])

    def render(self) -> str:
        """The table in the paper's column layout (cycles, not seconds)."""
        header = (
            f"{'Benchmark':<14} {'BB':>5} {'Uninst.':>12} "
            f"{'Inst.':>20} {'Sched.':>20} {'Hidden':>8}"
        )
        lines = [TABLE_TITLES[self.table], header, "-" * len(header)]

        def emit(rows, label):
            for row in rows:
                lines.append(
                    f"{row.benchmark:<14} {row.avg_block_size:>5.1f} "
                    f"{row.uninstrumented_cycles:>12,} "
                    f"{row.instrumented_cycles:>12,} ({row.instrumented_ratio:4.2f}) "
                    f"{row.scheduled_cycles:>12,} ({row.scheduled_ratio:4.2f}) "
                    f"{row.pct_hidden:>7.1%}"
                )
            if rows:
                suite = "int" if label.startswith("CINT") else "fp"
                lines.append(
                    f"{label:<14} {'':>5} {'':>12} "
                    f"{'':>12}  {self.average_ratio(suite, 'instrumented'):4.2f}  "
                    f"{'':>12}  {self.average_ratio(suite, 'scheduled'):4.2f}  "
                    f"{self.average_hidden(suite):>7.1%}"
                )

        emit(self._suite(CINT95), "CINT95 Average")
        lines.append("")
        emit(self._suite(CFP95), "CFP95 Average")
        return "\n".join(lines)


def run_table(
    table: int,
    *,
    benchmarks: tuple[str, ...] | None = None,
    trip_count: int | None = None,
) -> TableResult:
    """Reproduce one of the paper's tables (1, 2, or 3). Afterwards the
    stall-table states the rows learned are written back to the
    machine's table store (:func:`repro.pipeline.tables.persist_learned`),
    so the next process starts from them."""
    config = TABLE_CONFIGS[table]
    if trip_count is not None:
        config = replace(config, trip_count=trip_count)
    result = TableResult(table=table, config=config)
    for benchmark in benchmarks or (CINT95 + CFP95):
        result.rows.append(run_profiling_experiment(benchmark, config))
    persist_learned(load_machine(config.machine))
    return result
