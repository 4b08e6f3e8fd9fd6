"""The grouping helper against NumPy's stable-sort reference."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.grouping import group

#: small value pools force repeats; the top of the uint64 range holds
#: k=32 k-mers, whose 64 packed bits set the sign bit of an int64
UINT64_POOLS = (
    st.integers(0, 3),
    st.integers(0, 2**64 - 1),
    st.integers(2**64 - 4, 2**64 - 1),
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]),
)


def reference(a):
    values, first, inverse = np.unique(a, return_index=True, return_inverse=True)
    return values, first, inverse, np.argsort(inverse, kind="stable")


def assert_matches(g, a):
    values, first, inverse, order = reference(a)
    np.testing.assert_array_equal(g.values, values)
    assert g.values.dtype == a.dtype
    np.testing.assert_array_equal(g.first, first)
    np.testing.assert_array_equal(g.inverse, inverse)
    np.testing.assert_array_equal(g.order, order)
    np.testing.assert_array_equal(g.counts, np.bincount(inverse, minlength=values.size))
    # rank: earlier positions holding the same value
    expected_rank = [int((a[:i] == a[i]).sum()) for i in range(a.size)]
    np.testing.assert_array_equal(g.rank(), expected_rank)
    last = [int(np.flatnonzero(a == v)[-1]) for v in values]
    np.testing.assert_array_equal(g.last, last)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        *(
            hnp.arrays(np.uint64, st.integers(0, 60), elements=pool)
            for pool in UINT64_POOLS
        ),
        hnp.arrays(np.int64, st.integers(0, 60), elements=st.integers(-5, 5)),
    ),
    st.data(),
)
def test_group_matches_numpy_reference(a, data):
    g = group(a)
    assert_matches(g, a)
    m = data.draw(st.integers(0, a.size))
    assert_matches(g.head(m), a[:m])


def test_edge_cases():
    for a in (
        np.zeros(0, dtype=np.uint64),
        np.array([7], dtype=np.uint64),
        np.full(9, 2**64 - 1, dtype=np.uint64),
        np.full(5, 3, dtype=np.int64),
    ):
        assert_matches(group(a), a)
        assert_matches(group(a).head(0), a[:0])
