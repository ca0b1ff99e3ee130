"""Hash-index property: one bucket dict is exactly a naive grouping.

Random rows over hash-equal mixed values (``1``, ``1.0``, ``True``),
``None`` and tuple-valued columns, indexed on 0, 1, 2 and 3 positions.
A :class:`~repro.relational.HashIndex` must equal grouping the rows by
``==`` on their key — the bare value of one position, the value tuple
of several, ``()`` for none — with each bucket in row order; its
copy-on-write growth must equal a fresh build and share every bucket it
did not touch; and its lookups and planner statistics must agree with
the grouping.  The unique form (a key → row map, built when the
positions cover the rows' declared key) is the same grouping over rows
with distinct keys, one row per key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import HashIndex

#: Run as CI's property step (``-m property``), not in its tier-1 step.
pytestmark = pytest.mark.property

ARITY = 4
SCALARS = st.sampled_from([0, 1, 1.0, True, False, 0.0, 2, None, "a", "b"])
VALUES = st.one_of(SCALARS, st.tuples(SCALARS, SCALARS))
ROWS = st.lists(st.tuples(*[VALUES] * ARITY), max_size=40)
POSITIONS = st.integers(0, 3).flatmap(
    lambda n: st.permutations(range(ARITY)).map(lambda p: tuple(p[:n]))
)


def naive_key(row, positions):
    values = tuple(row[i] for i in positions)
    return values[0] if len(positions) == 1 else values


def naive_groups(rows, positions) -> list[tuple[object, list]]:
    """``(key, rows)`` by first occurrence, keys compared with ``==``."""
    keys: list = []
    for row in rows:
        key = naive_key(row, positions)
        if all(key != seen for seen in keys):
            keys.append(key)
    return [(k, [r for r in rows if naive_key(r, positions) == k]) for k in keys]


@settings(max_examples=200, deadline=None)
@given(ROWS, POSITIONS)
def test_build_is_naive_grouping(rows, positions):
    index = HashIndex(positions, rows)
    groups = naive_groups(rows, positions)
    assert list(index.buckets.items()) == groups
    for key, bucket in groups:
        assert index.lookup(key) == bucket
    assert index.lookup(("missing",)) == [] and index.lookup("missing") == []
    assert index.selectivity() == (1.0 / len(groups) if groups else 1.0)
    heaviest = max((len(b) for _, b in groups), default=0)
    assert index.max_bucket_fraction() == (heaviest / len(rows) if rows else 0.0)


@settings(max_examples=200, deadline=None)
@given(ROWS, ROWS, POSITIONS)
def test_extended_is_a_fresh_build_sharing_untouched_buckets(old_rows, fresh, positions):
    old = HashIndex(positions, old_rows)
    before = {key: list(bucket) for key, bucket in old.buckets.items()}
    grown = old.extended(fresh)
    rebuilt = HashIndex(positions, old_rows + fresh)
    assert list(grown.buckets.items()) == list(rebuilt.buckets.items())
    assert list(grown.buckets.items()) == naive_groups(old_rows + fresh, positions)
    assert grown.selectivity() == rebuilt.selectivity()
    assert grown.max_bucket_fraction() == rebuilt.max_bucket_fraction()
    touched = [naive_key(row, positions) for row in fresh]
    for key, bucket in old.buckets.items():
        if all(key != t for t in touched):
            assert grown.buckets[key] is bucket
    assert old.buckets == before  # the published index is left untouched


def one_per_key(rows, positions) -> list:
    """The first row of each key: rows a declared key would admit."""
    return [bucket[0] for _key, bucket in naive_groups(rows, positions)]


@settings(max_examples=200, deadline=None)
@given(ROWS, POSITIONS)
def test_unique_build_maps_each_key_to_its_one_row(rows, positions):
    rows = one_per_key(rows, positions)
    index = HashIndex(positions, rows, unique=True)
    groups = naive_groups(rows, positions)
    assert index.unique
    assert list(index.buckets.items()) == [(key, bucket[0]) for key, bucket in groups]
    for key, bucket in groups:
        assert index.lookup(key) == (bucket[0],)
    assert index.lookup(("missing",)) == () and index.lookup("missing") == ()
    buckets = HashIndex(positions, rows)
    assert index.selectivity() == buckets.selectivity()
    assert index.max_bucket_fraction() == buckets.max_bucket_fraction()


@settings(max_examples=200, deadline=None)
@given(ROWS, POSITIONS, st.data())
def test_unique_extended_is_a_fresh_build_leaving_the_old_index(rows, positions, data):
    rows = one_per_key(rows, positions)
    cut = data.draw(st.integers(0, len(rows)))
    old_rows, fresh = rows[:cut], rows[cut:]
    old = HashIndex(positions, old_rows, unique=True)
    before = dict(old.buckets)
    grown = old.extended(fresh)
    rebuilt = HashIndex(positions, rows, unique=True)
    assert grown.unique
    assert list(grown.buckets.items()) == list(rebuilt.buckets.items())
    assert grown.selectivity() == rebuilt.selectivity()
    assert grown.max_bucket_fraction() == rebuilt.max_bucket_fraction()
    for row in fresh:
        assert grown.lookup(naive_key(row, positions)) == (row,)
    assert old.buckets == before and len(old.buckets) == len(before)
