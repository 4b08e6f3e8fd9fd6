"""Static analysis of the PIM-Assembler reproduction.

Three checkers share one findings model
(:mod:`repro.analysis.findings`) and one exit-code taxonomy:

* :mod:`repro.analysis.verifier` — dataflow verification of recorded
  AAP command streams (``repro verify-trace``),
* :mod:`repro.analysis.lint` — repo invariants enforced over the AST
  (determinism, hot-path ledger honesty, the error taxonomy),
* :mod:`repro.analysis.typecheck` — gated strict mypy over the
  annotated core contracts,
* :mod:`repro.analysis.optimizer` /  :mod:`repro.analysis.equiv` —
  translation-validated peephole optimisation of recorded streams
  (``repro optimize-trace``): every rewrite is independently proven
  observationally equivalent by a symbolic row-state interpreter.

``python -m repro.analysis`` runs all three plus a self-check that
records and verifies a small seeded pipeline under both execution
engines.
"""

from repro.analysis.findings import (
    EXIT_FINDINGS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RUNTIME,
    Finding,
    FindingReport,
    Severity,
)
from repro.analysis.equiv import check_equivalence, interpret_trace
from repro.analysis.lint import lint_tree
from repro.analysis.optimizer import (
    OptimizationResult,
    TraceOptimizer,
    optimize_document,
)
from repro.analysis.tracefile import (
    TraceDocument,
    TraceRecorder,
    load_document,
    save_document,
)
from repro.analysis.typecheck import typecheck
from repro.analysis.verifier import StreamVerifier, verify_document

__all__ = [
    "EXIT_FINDINGS",
    "EXIT_INPUT",
    "EXIT_OK",
    "EXIT_RUNTIME",
    "Finding",
    "FindingReport",
    "OptimizationResult",
    "Severity",
    "StreamVerifier",
    "TraceDocument",
    "TraceOptimizer",
    "TraceRecorder",
    "check_equivalence",
    "interpret_trace",
    "lint_tree",
    "load_document",
    "optimize_document",
    "save_document",
    "typecheck",
    "verify_document",
]
