"""Query templating, after Ma et al. (SIGMOD 2018).

The TDE cannot afford to examine every query on a production system, so it
first reduces the stream to *templates*: the query text with all literal
parameters replaced by placeholders. Queries sharing a template share one
entry in the population that reservoir sampling (see
:mod:`repro.workloads.sampling`) then draws from.

Every statement of a query family shares the family's template
(:attr:`~repro.workloads.query.QueryFamily.log_template`), so the memory
detector keeps, per template, the latest log row as the example the TDE
EXPLAINs. The paper substitutes the most frequent concrete parameters
into a template before EXPLAIN; the simulator's EXPLAIN reads only a
statement's footprint, so no parameters are kept.
"""

from __future__ import annotations

import re

__all__ = ["make_template"]

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
