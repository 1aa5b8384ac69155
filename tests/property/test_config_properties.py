"""``KnobConfiguration.with_values`` / ``clamped`` against the constructor.

Both methods check only the updates and copy the held values, which the
constructor validated already; ``tests/reference.py`` keeps the form
that re-validates every merged knob through the constructor. For any
base configuration (defaults, which the catalog holds as ints, or a
partial or full set of valid values) and any updates (in range, out of
range, non-finite, ints, numpy floats, unknown knobs), the two must
agree: equal values, key order, hash and pickle, or the same exception
type and message.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import catalog_for
from tests.reference import clamped_by_constructor, with_values_by_constructor

_CATALOGS = {flavor: catalog_for(flavor) for flavor in ("postgres", "mysql")}


def _in_range(knob):
    values = [
        st.floats(knob.min_value, knob.max_value),
        st.sampled_from([knob.min_value, knob.max_value, knob.default]),
    ]
    if knob.max_value >= np.ceil(knob.min_value):
        values.append(st.integers(int(np.ceil(knob.min_value)), int(knob.max_value)))
    return st.one_of(values)


def _any_value(knob):
    return st.one_of(
        _in_range(knob),
        _in_range(knob).map(np.float64),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([knob.min_value - 1.0, knob.max_value + 1.0]),
    )


@st.composite
def _case(draw):
    catalog = _CATALOGS[draw(st.sampled_from(sorted(_CATALOGS)))]
    knobs = list(catalog)
    held = draw(st.lists(st.sampled_from(knobs), unique_by=lambda k: k.name))
    base = KnobConfiguration(catalog, {k.name: draw(_in_range(k)) for k in held})
    named = draw(st.lists(st.sampled_from(knobs), unique_by=lambda k: k.name))
    updates = {k.name: draw(_any_value(k)) for k in named}
    if draw(st.booleans()):
        unknown = draw(st.sampled_from(["bogus_knob", "shared_buffer", "Work_Mem"]))
        updates[unknown] = draw(st.floats(0.0, 10.0))
    # Update order decides which bad value the reference reports first.
    order = draw(st.permutations(list(updates)))
    return base, {name: updates[name] for name in order}


def _outcome(derive, base, updates):
    try:
        config = derive(base, updates)
    except Exception as exc:  # the exception is the outcome
        return ("raised", type(exc), str(exc))
    return (
        "config",
        config._values,
        list(config._values),
        [type(v) for v in config._values.values()],
        hash(config),
        pickle.dumps(config),
    )


@settings(max_examples=300, deadline=None)
@given(_case())
def test_with_values_matches_constructor(case):
    base, updates = case
    assert _outcome(KnobConfiguration.with_values, base, updates) == _outcome(
        with_values_by_constructor, base, updates
    )


@settings(max_examples=300, deadline=None)
@given(_case())
def test_clamped_matches_constructor(case):
    base, updates = case
    assert _outcome(KnobConfiguration.clamped, base, updates) == _outcome(
        clamped_by_constructor, base, updates
    )


def test_derived_configuration_is_independent():
    catalog = _CATALOGS["postgres"]
    base = KnobConfiguration(catalog)
    derived = base.with_values({"work_mem": 64})
    assert base["work_mem"] == 4 and derived["work_mem"] == 64.0
    assert derived._values is not base._values
