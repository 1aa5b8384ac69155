"""Query templating, after Ma et al. (SIGMOD 2018).

The TDE cannot afford to examine every query on a production system, so it
first reduces the stream to *templates*: the query text with all literal
parameters replaced by placeholders. Queries sharing a template share a
template id, which shrinks the population that reservoir sampling (see
:mod:`repro.workloads.sampling`) then draws from.

Every statement of a query family shares the family's template
(:attr:`~repro.workloads.query.QueryFamily.log_template`), so
:class:`TemplateCatalog` counts a window's log rows per family and keeps,
per template, the latest row as the example the TDE EXPLAINs. The paper
substitutes the most frequent concrete parameters into a template before
EXPLAIN; the simulator's EXPLAIN reads only a statement's footprint, so
no parameters are kept.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.workloads.query import Query, QueryRows

__all__ = [
    "make_template",
    "template_id",
    "TemplateCatalog",
    "TemplateStats",
]

_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")
# Numbers as standalone literals AND numeric suffixes of identifiers
# (tmp_sales_482 and tmp_sales_91 must share a template): `_` is a word
# character, so a plain \b would leave identifier suffixes untouched and
# generated names would each mint a fresh template.
_NUMBER_LITERAL = re.compile(r"(?:\b|(?<=_))\d+(?:\.\d+)?\b")
_WHITESPACE = re.compile(r"\s+")


def make_template(sql: str) -> str:
    """Strip literal parameters from *sql*, returning the template text.

    String literals are replaced first (so numbers inside strings are not
    double-substituted), then bare numeric literals; whitespace is
    normalised and keywords upper-cased are left as written (the generators
    emit consistent casing).
    """
    text = _STRING_LITERAL.sub("?", sql)
    text = _NUMBER_LITERAL.sub("?", text)
    return _WHITESPACE.sub(" ", text).strip()


def template_id(template: str) -> str:
    """Stable short identifier for a template string."""
    return hashlib.sha1(template.encode("utf-8")).hexdigest()[:12]


@dataclass
class TemplateStats:
    """Frequency bookkeeping for one template."""

    template: str
    count: int = 0
    #: The latest row seen with this template: ``(rows, row)``.
    example_at: tuple[QueryRows, int] | None = None

    @property
    def example(self) -> Query | None:
        """The latest statement seen with this template (built on read)."""
        if self.example_at is None:
            return None
        rows, row = self.example_at
        return rows[row]


class TemplateCatalog:
    """Streaming template extractor with per-template frequencies.

    Feed it the log's rows with :meth:`observe_rows`; read back the known
    templates, their counts and a representative query per template.
    """

    def __init__(self) -> None:
        self._stats: dict[str, TemplateStats] = {}
        self._total = 0
        # template text -> id: the sha1 is paid once per distinct template.
        self._tid_cache: dict[str, str] = {}

    def observe_rows(self, rows: QueryRows) -> list[str]:
        """Record every row of *rows*; returns their template ids.

        Ids come in the order their templates first appear among the rows.
        Each template's example becomes its last row.
        """
        first_seen: list[str] = []
        latest: dict[str, int] = {}
        counts = rows.counts.tolist()
        for family, _first, last in rows.appearances():
            template = rows.families[family].log_template
            tid = self._tid_cache.get(template)
            if tid is None:
                tid = template_id(template)
                self._tid_cache[template] = tid
            stats = self._stats.get(tid)
            if stats is None:
                stats = TemplateStats(template=template)
                self._stats[tid] = stats
            stats.count += counts[family]
            if tid not in latest:
                first_seen.append(tid)
            latest[tid] = max(latest.get(tid, last), last)
        for tid, row in latest.items():
            self._stats[tid].example_at = (rows, row)
        self._total += len(rows)
        return first_seen

    def __len__(self) -> int:
        return len(self._stats)

    @property
    def total_observed(self) -> int:
        """Total queries observed (not distinct templates)."""
        return self._total

    def stats(self, tid: str) -> TemplateStats:
        """Stats for template id *tid* (KeyError if unknown)."""
        return self._stats[tid]

    def templates(self) -> dict[str, TemplateStats]:
        """Mapping of template id to stats, insertion-ordered."""
        return dict(self._stats)

    def top_templates(self, n: int) -> list[TemplateStats]:
        """The *n* most frequent templates."""
        return sorted(self._stats.values(), key=lambda s: -s.count)[:n]
