"""Render lint findings for humans."""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.findings import Finding

__all__ = ["render_text"]


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE message`` line per finding.

    Ends with a one-line summary so a truncated CI log still shows the
    count; an empty run renders a single "clean" line.
    """
    if not findings:
        return "repro lint: no findings"
    lines = [f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"repro lint: {len(findings)} {noun}")
    return "\n".join(lines)
