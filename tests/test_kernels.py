"""Properties of the vectorized dead-time filter against its sequential oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfclab._kernels import dead_time_mask
from qfclab.acceptance import _oracle_dead_time

# a small value range makes ties and closely spaced clusters common
_TAG = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
_SMALL_TAG = st.integers(min_value=-5, max_value=200)


@st.composite
def streams(draw):
    values = draw(st.lists(draw(st.sampled_from([_TAG, _SMALL_TAG])), max_size=200))
    tags = np.sort(np.array(values, dtype=np.int64))
    dead = draw(st.one_of(st.integers(0, 50), st.integers(0, 2 ** 41)))
    return tags, dead


@settings(max_examples=300, deadline=None)
@given(streams())
def test_matches_sequential_oracle(case):
    tags, dead = case
    assert np.array_equal(dead_time_mask(tags, dead), _oracle_dead_time(tags, dead))


@settings(max_examples=200, deadline=None)
@given(streams())
def test_kept_tags_are_dead_time_apart(case):
    tags, dead = case
    kept = tags[dead_time_mask(tags, dead)]
    assert np.all(np.diff(kept) >= dead)


@settings(max_examples=200, deadline=None)
@given(streams())
def test_dropped_tags_fall_in_the_dead_time_of_the_last_kept(case):
    tags, dead = case
    keep = dead_time_mask(tags, dead)
    # index of the last kept tag at or before each position, -1 if none
    last = np.maximum.accumulate(np.where(keep, np.arange(len(tags)), -1))
    dropped = np.flatnonzero(~keep)
    before = last[dropped]
    # a drop before any kept tag is a tag earlier than the detector's ready time
    assert np.all(tags[dropped[before < 0]] < -1)
    with_kept = before >= 0
    gap = tags[dropped[with_kept]] - tags[before[with_kept]]
    assert np.all((gap >= 0) & (gap < dead))


@settings(max_examples=200, deadline=None)
@given(streams())
def test_idempotent(case):
    tags, dead = case
    kept = tags[dead_time_mask(tags, dead)]
    assert dead_time_mask(kept, dead).all()
