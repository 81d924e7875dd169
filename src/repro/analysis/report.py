"""Findings, reports, and the allowlist — the common currency of every pass.

Each static-analysis pass (:mod:`repro.analysis.lint`,
:mod:`repro.analysis.dataflow`) emits
:class:`Finding` records; a run collects them into an
:class:`AnalysisReport` that renders as text for humans or JSON for CI
artifacts.

Suppression is explicit and audited: an allowlist file maps
``(code, path-glob)`` pairs to a *mandatory* one-line justification —
an entry without one is a parse error, so "silenced because it was
noisy" cannot happen silently.  Allowlist format, one entry per line::

    # comment
    CX101  src/repro/legacy/spool.py  -- poll loop predates the supervisor

i.e. ``<code>  <path glob>  -- <justification>``.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Finding:
    """One defect reported by one pass.

    >>> f = Finding("CX102", "bare except", path="src/x.py", line=3)
    >>> f.format()
    'src/x.py:3: CX102 bare except'
    """

    code: str
    message: str
    path: str = "<spec>"
    line: int = 0
    pass_name: str = ""
    severity: str = "error"

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "pass": self.pass_name,
            "severity": self.severity,
        }


class AllowlistError(ValueError):
    """A malformed allowlist line (most often: missing justification)."""


@dataclass(frozen=True)
class AllowlistEntry:
    """One audited suppression: a finding code, a path glob, and why.

    >>> e = AllowlistEntry("CX101", "src/repro/legacy/*.py", "pre-supervisor")
    >>> e.matches(Finding("CX101", "m", path="src/repro/legacy/spool.py"))
    True
    >>> e.matches(Finding("CX102", "m", path="src/repro/legacy/spool.py"))
    False
    """

    code: str
    pattern: str
    justification: str

    def matches(self, finding: Finding) -> bool:
        if self.code != "*" and self.code != finding.code:
            return False
        path = finding.path.replace("\\", "/")
        return fnmatch.fnmatch(path, self.pattern) or path.endswith(
            "/" + self.pattern
        )


def parse_allowlist(text: str, source: str = "<allowlist>") -> list[AllowlistEntry]:
    """Parse the allowlist format; every entry must carry a justification."""
    entries: list[AllowlistEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, justification = line.partition("--")
        justification = justification.strip()
        if not sep or not justification:
            raise AllowlistError(
                f"{source}:{lineno}: allowlist entry lacks a '-- justification' "
                f"(suppression without a recorded reason is not allowed): {line!r}"
            )
        parts = head.split()
        if len(parts) != 2:
            raise AllowlistError(
                f"{source}:{lineno}: expected '<code> <path-glob> -- <why>', "
                f"got {line!r}"
            )
        entries.append(AllowlistEntry(parts[0], parts[1], justification))
    return entries


def default_allowlist_path() -> Path | None:
    """The repo's ``.analysis-allowlist``, if running from a checkout."""
    import repro

    if repro.__file__ is None:  # pragma: no cover - namespace packages only
        return None
    for parent in Path(repro.__file__).resolve().parents:
        candidate = parent / ".analysis-allowlist"
        if candidate.exists():
            return candidate
    return None


def load_allowlist(path: str | Path | None) -> list[AllowlistEntry]:
    """Load an allowlist file; a missing/None path is an empty allowlist."""
    if path is None:
        return []
    p = Path(path)
    if not p.exists():
        return []
    return parse_allowlist(p.read_text(encoding="utf-8"), source=str(p))


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, allowlist already applied."""

    findings: list[Finding] = field(default_factory=list)
    #: ``(finding, entry)`` pairs silenced by the allowlist — still visible
    #: in the JSON artifact, so suppressions are reviewable in CI.
    suppressed: list[tuple[Finding, AllowlistEntry]] = field(default_factory=list)
    passes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def extend(
        self, findings: Iterable[Finding], allowlist: Sequence[AllowlistEntry] = ()
    ) -> None:
        """Fold a pass's findings in, routing allowlisted ones aside."""
        for finding in findings:
            entry = next((e for e in allowlist if e.matches(finding)), None)
            if entry is not None:
                self.suppressed.append((finding, entry))
            else:
                self.findings.append(finding)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return out

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "passes": list(self.passes),
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [
                {
                    "finding": f.to_dict(),
                    "pattern": e.pattern,
                    "justification": e.justification,
                }
                for f, e in self.suppressed
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_text(self) -> str:
        lines = []
        for f in self.findings:
            lines.append(f.format())
        for f, e in self.suppressed:
            lines.append(f"{f.format()}  [allowlisted: {e.justification}]")
        status = "OK" if self.ok else "FAIL"
        lines.append(
            f"{status}: {len(self.findings)} finding(s), "
            f"{len(self.suppressed)} allowlisted, "
            f"passes: {', '.join(self.passes) or '-'}"
        )
        return "\n".join(lines)
