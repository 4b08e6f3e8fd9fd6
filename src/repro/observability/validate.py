"""Schema validation CLI: ``python -m repro.observability.validate``.

Validates Chrome trace-event JSON files through the shared
static-analysis taxonomy (:mod:`repro.analysis.findings`), rule
``X001``: strict ``B``/``E`` nesting, monotone timestamps,
counter-track sanity.

Exit codes: 0 when every file is clean, 1 when any file has findings
(each printed), 2 on usage errors.  CI runs this against the smoke
trace the hotpath job emits.
"""

from __future__ import annotations

import sys

from repro.analysis.findings import EXIT_INPUT, FindingReport
from repro.observability.export import validate_trace_report

__all__ = ["main"]


def main(argv: "list[str] | None" = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.observability.validate TRACE.json ...")
        return EXIT_INPUT
    combined = FindingReport()
    for path in paths:
        report = validate_trace_report(path)
        combined.extend(report)
        if report.findings:
            print(f"{path}: INVALID")
            for finding in report:
                print(f"  - {finding.message}")
        else:
            print(f"{path}: ok")
    return combined.exit_code


if __name__ == "__main__":
    sys.exit(main())
