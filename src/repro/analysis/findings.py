"""The shared findings model of the static-analysis layer.

Every checker in this package — the AAP trace verifier, the AST lint
pass, the mypy gate — and the observability trace validator report
through one vocabulary: a :class:`Finding` names the violated rule, a
severity, a human-readable message and where in the artefact (file,
line, trace position) the problem sits.  A :class:`FindingReport`
aggregates them and maps onto the process exit-code taxonomy the CLI
already uses:

=====================  ====  ==========================================
outcome                exit  meaning
=====================  ====  ==========================================
clean                  0     no findings
findings               1     at least one finding (linter convention)
bad input              2     ``InputError`` family (unreadable trace,
                             missing file) — matches ``repro.cli``
runtime failure        3     any other ``ReproError`` — matches
                             ``repro.cli``
=====================  ====  ==========================================

This module is stdlib-only by design: :mod:`repro.observability`
imports it, and observability must stay importable without numpy-heavy
core modules loaded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "EXIT_FINDINGS",
    "EXIT_INPUT",
    "EXIT_OK",
    "EXIT_RUNTIME",
    "Finding",
    "FindingReport",
    "Severity",
]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the build; ``WARNING`` findings are
    reported but do not affect the exit code (none of the current
    rules emit them — the slot exists so a future soft rule does not
    need a model change).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: stable rule identifier (``V003``, ``L001``, ``C002``,
            ``T001``, ``X001`` ...) — what tests and allowlists key on.
        message: human-readable description of the violation.
        source: the artefact the finding is about (a file path, a trace
            document name, ``"<charges>"``).
        location: position inside the source — a line number for lint
            findings, a command index for trace findings; ``None`` when
            the finding is about the artefact as a whole.
        severity: see :class:`Severity`.
    """

    rule: str
    message: str
    source: str = ""
    location: int | None = None
    severity: Severity = Severity.ERROR

    def __str__(self) -> str:
        where = self.source or "<input>"
        if self.location is not None:
            where = f"{where}:{self.location}"
        return f"{where}: {self.severity}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        """JSON-serialisable form (CI and external tooling consume it)."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "source": self.source,
            "location": self.location,
        }


@dataclass
class FindingReport:
    """An ordered collection of findings plus its exit-code mapping."""

    findings: list[Finding] = field(default_factory=list)

    def add(
        self,
        rule: str,
        message: str,
        source: str = "",
        location: int | None = None,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        finding = Finding(
            rule=rule,
            message=message,
            source=source,
            location=location,
            severity=severity,
        )
        self.findings.append(finding)
        return finding

    def extend(self, other: "FindingReport") -> None:
        self.findings.extend(other.findings)

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors()

    def rules(self) -> set[str]:
        """The distinct rule identifiers present (test convenience)."""
        return {f.rule for f in self.findings}

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.ok else EXIT_FINDINGS

    def render(self) -> str:
        """One finding per line, stable order, ready for stderr."""
        return "\n".join(str(f) for f in self.findings)

    def to_json(self) -> dict:
        """Machine-readable form: findings plus the summary the exit
        code is derived from, so consumers never re-implement the
        severity → exit mapping."""
        return {
            "findings": [f.to_json() for f in self.findings],
            "errors": len(self.errors()),
            "warnings": len(self.findings) - len(self.errors()),
            "ok": self.ok,
            "exit_code": self.exit_code,
        }

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)
