"""Reporting engine for the static checker (:mod:`repro.tooling.analyzer`).

Every rule emits :class:`Finding` records through this module, which
owns suppression (``# noqa``), baselines, output formats (text / JSON /
SARIF) and exit codes::

    repro analyze src/repro --format sarif --baseline analyzer_baseline.json

Exit-code contract:

* ``0`` — clean (no unsuppressed, non-baselined findings);
* ``1`` — findings were reported;
* ``2`` — usage error (bad paths, unreadable baseline, ...).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError

#: Exit-code semantics of ``repro analyze``.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Output formats the CLI accepts.
OUTPUT_FORMATS = ("text", "json", "sarif")

#: Schema identifiers pinned by golden-output tests — bump deliberately.
JSON_SCHEMA_ID = "fastbfs-findings/1"
BASELINE_SCHEMA_ID = "fastbfs-baseline/1"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``symbol`` is the qualified name of the function/class the finding is
    about (empty for purely positional findings); baselines match on
    ``(code, path, symbol)`` so entries survive line drift.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    symbol: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    @property
    def norm_path(self) -> str:
        """Forward-slash path, for stable output across platforms."""
        return self.path.replace("\\", "/")


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic report order: path, then position, then code."""
    return sorted(
        findings, key=lambda f: (f.norm_path, f.line, f.col, f.code, f.message)
    )


# ----------------------------------------------------------------------
# suppression (``# noqa`` / ``# noqa: FB207[,FB205] - reason``)
# ----------------------------------------------------------------------
_NOQA_CODE = re.compile(r"[A-Z]+[0-9]+")


def is_suppressed(finding: Finding, source_lines: Sequence[str]) -> bool:
    """Honour ``# noqa`` / ``# noqa: FB207[,FB102] - reason`` on the line.

    Only the leading comma- or space-separated codes count; the first
    token that is not a code (``-``, a word) starts the free-text reason.
    """
    if finding.line > len(source_lines) or finding.line < 1:
        return False
    line = source_lines[finding.line - 1]
    marker = line.find("# noqa")
    if marker < 0:
        return False
    tail = line[marker + len("# noqa") :].strip()
    if not tail.startswith(":"):
        return True  # blanket noqa
    codes: Set[str] = set()
    for token in re.split(r"[,\s]+", tail[1:].strip()):
        if not _NOQA_CODE.fullmatch(token):
            break
        codes.add(token)
    return finding.code in codes


def drop_suppressed(
    findings: Sequence[Finding], sources: Mapping[str, str]
) -> List[Finding]:
    """Remove findings whose flagged line carries a matching ``# noqa``.

    ``sources`` maps finding paths to file contents; findings whose path is
    unknown are kept (nothing to read a suppression from).
    """
    lines_by_path: Dict[str, List[str]] = {}
    kept: List[Finding] = []
    for finding in findings:
        source = sources.get(finding.path)
        if source is None:
            kept.append(finding)
            continue
        if finding.path not in lines_by_path:
            lines_by_path[finding.path] = source.splitlines()
        if not is_suppressed(finding, lines_by_path[finding.path]):
            kept.append(finding)
    return kept


# ----------------------------------------------------------------------
# baseline (grandfathered findings, committed with justifications)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding: matched on (code, path suffix, symbol)."""

    code: str
    path: str
    symbol: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        if self.code != finding.code or self.symbol != finding.symbol:
            return False
        return self.covers(finding.norm_path)

    def covers(self, path: str) -> bool:
        """Whether this entry's path names the source file ``path``."""
        norm = path.replace("\\", "/")
        entry = self.path.replace("\\", "/")
        return norm == entry or norm.endswith("/" + entry)


@dataclass
class Baseline:
    """A committed set of intentionally-accepted findings."""

    entries: List[BaselineEntry] = field(default_factory=list)

    @staticmethod
    def load(path: str) -> "Baseline":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read baseline file {path!r}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(
                f"baseline file {path!r} must hold a JSON object, "
                f"not {type(doc).__name__}"
            )
        if doc.get("schema") != BASELINE_SCHEMA_ID:
            raise ConfigError(
                f"baseline file {path!r} has schema {doc.get('schema')!r}, "
                f"expected {BASELINE_SCHEMA_ID!r}"
            )
        raw_entries = doc.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ConfigError(
                f"baseline file {path!r}: 'entries' must be a list, "
                f"not {type(raw_entries).__name__}"
            )
        entries = []
        for raw in raw_entries:
            if not isinstance(raw, dict):
                raise ConfigError(
                    f"baseline file {path!r}: entry {raw!r} must be a JSON "
                    "object"
                )
            missing = [k for k in ("code", "path", "symbol", "reason") if k not in raw]
            if missing:
                raise ConfigError(
                    f"baseline entry {raw!r} is missing keys {missing} "
                    "(every grandfathered finding needs a justification)"
                )
            if not str(raw["reason"]).strip():
                raise ConfigError(
                    f"baseline entry {raw!r} has an empty reason; baselines "
                    "exist to record *why* a finding is intentional"
                )
            entries.append(
                BaselineEntry(
                    code=str(raw["code"]),
                    path=str(raw["path"]),
                    symbol=str(raw["symbol"]),
                    reason=str(raw["reason"]),
                )
            )
        return Baseline(entries=entries)

    def split(
        self,
        findings: Sequence[Finding],
        analyzed: Sequence[str],
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Partition findings into (kept, baselined); also unused entries.

        ``analyzed`` lists the source files the findings came from: an
        entry naming none of them is not reported unused, since a run over
        part of the tree says nothing about it.
        """
        kept: List[Finding] = []
        baselined: List[Finding] = []
        used = [False] * len(self.entries)
        for finding in findings:
            hit = False
            for i, entry in enumerate(self.entries):
                if entry.matches(finding):
                    used[i] = True
                    hit = True
            (baselined if hit else kept).append(finding)
        unused = [
            e for i, e in enumerate(self.entries)
            if not used[i]
            and any(e.covers(path) for path in analyzed)
        ]
        return kept, baselined, unused


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary line."""
    lines = [str(f) for f in sort_findings(findings)]
    count = len(findings)
    lines.append(f"{count} finding(s)" if count else "clean")
    return "\n".join(lines) + "\n"


def render_json(
    findings: Sequence[Finding], tool: str, rules: Mapping[str, str]
) -> str:
    """Schema-stable JSON document (sorted keys, trailing newline)."""
    doc = {
        "schema": JSON_SCHEMA_ID,
        "tool": tool,
        "rules": dict(sorted(rules.items())),
        "count": len(findings),
        "findings": [
            {
                "path": f.norm_path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "symbol": f.symbol,
                "message": f.message,
            }
            for f in sort_findings(findings)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_sarif(
    findings: Sequence[Finding], tool: str, rules: Mapping[str, str]
) -> str:
    """SARIF 2.1.0 document (what the CI job uploads for annotations)."""
    doc = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "informationUri": (
                            "https://example.invalid/fastbfs-repro/docs/"
                            "static_analysis.md"
                        ),
                        "rules": [
                            {
                                "id": code,
                                "shortDescription": {"text": summary},
                            }
                            for code, summary in sorted(rules.items())
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.code,
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": f.norm_path},
                                    "region": {
                                        "startLine": f.line,
                                        "startColumn": f.col,
                                    },
                                }
                            }
                        ],
                    }
                    for f in sort_findings(findings)
                ],
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render(
    findings: Sequence[Finding],
    fmt: str,
    tool: str,
    rules: Mapping[str, str],
) -> str:
    """Dispatch on ``--format``; raises :class:`ConfigError` on a bad name."""
    if fmt == "text":
        return render_text(findings)
    if fmt == "json":
        return render_json(findings, tool, rules)
    if fmt == "sarif":
        return render_sarif(findings, tool, rules)
    raise ConfigError(
        f"unknown output format {fmt!r} (choose from {', '.join(OUTPUT_FORMATS)})"
    )


def exit_code(findings: Sequence[Finding]) -> int:
    """The exit-code contract: 0 clean, 1 findings."""
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def baseline_warnings(unused: Sequence[BaselineEntry]) -> Optional[str]:
    """Warning text for baseline entries that no longer match anything."""
    if not unused:
        return None
    lines = ["warning: stale baseline entries (no matching finding):"]
    for entry in sorted(unused, key=lambda e: (e.code, e.path, e.symbol)):
        lines.append(f"  {entry.code} {entry.path} {entry.symbol!r}")
    lines.append("  remove them so the baseline only records live exceptions")
    return "\n".join(lines)
