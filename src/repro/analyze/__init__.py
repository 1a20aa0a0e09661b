"""repro.analyze — static analysis over descriptions, images, and schedules.

This package holds:

* a **lint framework** — :class:`Finding`, a rule registry with
  per-rule enable/disable (:func:`registered_rules`,
  :func:`select_rules`), and text/JSON/SARIF emitters;
* **rules** in two categories: ``description`` lints over SADL/Spawn
  machine descriptions (:func:`lint_description` — the deep form of
  :func:`repro.spawn.validate_machine`) and ``image`` lints over whole
  executables (:func:`lint_image` / :func:`lint_profiled` — cross-block
  hazards, delay-slot violations, instrumentation clobbering live
  registers);
* the **static pre-verifier** :func:`static_verify_schedule`, which
  proves schedule legality from the dependence DAG without execution;
* the **symbolic translation validator** — a term-level executor over
  the ISA semantics (:mod:`repro.analyze.symex`) and, on top of it,
  :func:`symbolic_verify_schedule` / :func:`symbolic_masked_verify`,
  which prove architectural equivalence of a block and its reordering
  on *all* inputs (verdicts ``proven``/``refuted``/``inconclusive``,
  with a :class:`Counterexample` on refutation) — plus the
  symex-powered image rules (:mod:`repro.analyze.symex_rules`);
* the **verification ladder** :func:`prove_schedule`, the one place the
  two gates above and the differential battery are chained: the guard,
  the superblock pass and ``qpt verify`` all decide through it.

CLI surface: ``qpt_cli lint``. Analyzer failures raise
:class:`repro.errors.AnalysisError`; findings about the analyzed input
are returned, never raised.
"""

from ..errors import AnalysisError
from .baseline import (
    BASELINE_VERSION,
    apply_baseline,
    finding_key,
    load_baseline,
    write_baseline,
)
from .description_rules import (
    DescriptionContext,
    description_context,
    encoding_pattern,
    lint_description,
)
from .emit import render_text, summarize, to_json, to_sarif
from .findings import SEVERITIES, Finding, Location, severity_rank
from .image_rules import (
    RESERVED_SCRATCH,
    ImageContext,
    image_context,
    lint_image,
    lint_profiled,
)
from .ladder import prove_schedule
from .rules import Rule, get_rule, registered_rules, rule, run_rules, select_rules
from .static_verify import StaticVerdict, static_verify_schedule
from .sym_verify import (
    Counterexample,
    SymbolicVerdict,
    symbolic_masked_verify,
    symbolic_verify_schedule,
)
from . import symex_rules as _symex_rules  # noqa: F401 — registers image/* rules

__all__ = [
    "AnalysisError",
    "BASELINE_VERSION",
    "Counterexample",
    "DescriptionContext",
    "Finding",
    "ImageContext",
    "Location",
    "RESERVED_SCRATCH",
    "Rule",
    "SEVERITIES",
    "StaticVerdict",
    "SymbolicVerdict",
    "apply_baseline",
    "description_context",
    "encoding_pattern",
    "finding_key",
    "get_rule",
    "image_context",
    "lint_description",
    "lint_image",
    "load_baseline",
    "lint_profiled",
    "prove_schedule",
    "registered_rules",
    "render_text",
    "rule",
    "run_rules",
    "select_rules",
    "severity_rank",
    "static_verify_schedule",
    "summarize",
    "symbolic_masked_verify",
    "symbolic_verify_schedule",
    "to_json",
    "to_sarif",
    "write_baseline",
]
