"""Hypothesis strategies for attribute values, constraints and
preferences that reach every path of the matcher's attribute columns.

A float64 column holds ``float`` values and ints of magnitude at most
2**53 exactly; everything else -- bools, strings, larger ints, numpy
scalars, tuples, ``None`` -- must take the per-row path.  The operands
mix the same kinds, so every operator meets exact rows, other rows and
absent rows, with exact and non-exact operands.
"""

import math

import numpy as np
from hypothesis import strategies as st

from repro.discovery import Constraint, Preference
from repro.discovery.constraints import OPERATORS

ATTRIBUTES = ("queue_length", "cost_per_use")

#: values a float64 column holds exactly (the 2**53 bounds included)
exact_values = st.one_of(
    st.integers(0, 9), st.floats(0.0, 1.0),
    st.sampled_from([2 ** 53, -2 ** 53, -0.0, math.inf, -math.inf, math.nan,
                     1e308, -1e308]))

#: values that must take the per-row path (bools most often: they are
#: the ones a careless column would read as 0.0 and 1.0)
other_values = st.one_of(st.booleans(), st.sampled_from([
    "3", "abc", 2 ** 53 + 1, -2 ** 53 - 1, 2 ** 63, 10 ** 20,
    np.float64(0.5), np.float64(math.nan), np.int64(4), np.int64(2 ** 53 + 1),
    None, ("a", 1), (3,),
]))

attribute_values = st.one_of(exact_values, other_values)

#: constraint operands: the values above plus containers for in/contains
operands = st.one_of(exact_values, exact_values, exact_values, other_values,
                     st.sampled_from(["ab", ("a", 3, 0.5), (True, 4)]))

constraints = st.builds(Constraint, st.sampled_from(ATTRIBUTES),
                        st.sampled_from(sorted(OPERATORS)), operands)

preferences = st.builds(Preference, st.sampled_from(ATTRIBUTES),
                        st.sampled_from(("minimize", "maximize")),
                        st.sampled_from((0.5, 1, 2.0, 3)))


@st.composite
def attribute_maps(draw):
    """Each attribute drawn from :data:`attribute_values`, or absent
    (one time in four)."""
    attributes = {}
    for key in ATTRIBUTES:
        if draw(st.integers(0, 3)):
            attributes[key] = draw(attribute_values)
    return attributes


def outcome(fn, *args, **kwargs):
    """``("ok", (name, degree, score) triples)`` or ``("raises", type)``:
    a value whose comparison operator fails does so on both sides."""
    try:
        return "ok", [(r.service.name, r.degree, r.score) for r in fn(*args, **kwargs)]
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raises", type(exc)
