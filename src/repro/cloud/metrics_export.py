"""Prometheus-style text exposition of monitoring data.

The paper's landscape feeds an external monitoring system (Dynatrace);
an open-source deployment would scrape Prometheus. This module renders a
whole :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges and
bucketed histograms) in the Prometheus text exposition format (v0.0.4),
so the simulator can stand in for a real scrape target in integration
environments.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "describe_counter_families",
    "render_registry",
]


def describe_counter_families(
    registry: MetricsRegistry, families: Mapping[str, str]
) -> None:
    """Declare *families* (name -> help text) as counters on *registry*.

    Scrapers discover a family from its ``# HELP``/``# TYPE`` header, so
    exporters declare their whole vocabulary up front — e.g. the safety
    governor's ``SAFETY_METRIC_FAMILIES`` — and
    :func:`render_registry` then renders the headers even before (or
    without) any increment landing.
    """
    for name, help_text in families.items():
        registry.describe(name, "counter", help_text)


def _sanitise_label(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_sanitise_label(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def render_registry(registry: MetricsRegistry) -> str:
    """Every family of *registry* in Prometheus text exposition format.

    Families render in name order with their ``# HELP`` / ``# TYPE``
    header even when no sample has landed yet (empty series), histograms
    as cumulative ``_bucket{le=...}`` samples plus ``_sum``/``_count`` —
    the full exposition shape, deterministically ordered.
    """
    lines: list[str] = []
    for name in sorted(registry.families):
        family = registry.families[name]
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples():
            rendered = (
                f"{sample.value:.6g}"
                if sample.value != int(sample.value)
                else f"{int(sample.value)}"
            )
            lines.append(
                f"{sample.name}{_render_labels(sample.labels)} {rendered}"
            )
    return "\n".join(lines) + "\n"

