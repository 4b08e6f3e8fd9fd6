"""Grouping equal values of a key array with unstable sorts.

The bulk engine groups every batch several ways: arrivals by k-mer,
distinct k-mers by partition, arrivals by (read, partition) pair, and
scheduled entries by (segment, resource).  ``np.unique`` with
``return_index`` and ``argsort(kind="stable")`` would each run NumPy's
stable merge sort, several times slower than its unstable SIMD sort.
:func:`group` needs only the unstable one: it sorts the values once,
then recovers first-arrival order by sorting the distinct integers
``group * n + position``, for which stability cannot matter.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["Groups", "group"]


class Groups:
    """The equal values of a 1-D array of ``n`` positions.

    * ``values`` — the distinct values, increasing (``np.unique``);
    * ``inverse`` — each position's index into ``values``
      (``return_inverse``);
    * ``starts`` — where each value's run begins in ``order``;
    * ``order`` — the positions value by value, increasing within a
      value (``np.argsort(inverse, kind="stable")``), sorted on first
      use.
    """

    def __init__(
        self,
        values: np.ndarray,
        inverse: np.ndarray,
        starts: np.ndarray,
        order: "np.ndarray | tuple",
    ) -> None:
        self.values = values
        self.inverse = inverse
        self.starts = starts
        #: the order, or the (run index per sorted position, sorting
        #: permutation) it is sorted from
        self._order = order

    @property
    def order(self) -> np.ndarray:
        if isinstance(self._order, tuple):
            gid, perm = self._order
            # gid is non-decreasing, so sorting gid * n + position keeps
            # each run in place and puts its positions in increasing
            # order; the values are distinct, so no stability is needed
            base = gid * perm.size
            self._order = np.sort(base + perm) - base
        return self._order

    @cached_property
    def counts(self) -> np.ndarray:
        """Positions per value."""
        return np.diff(self.starts, append=self.inverse.size)

    @cached_property
    def first(self) -> np.ndarray:
        """Each value's first position (``return_index``)."""
        return self.order[self.starts]

    @property
    def last(self) -> np.ndarray:
        """Each value's last position."""
        return self.order[self.starts + self.counts - 1]

    def rank(self) -> np.ndarray:
        """Per position, how many earlier positions hold its value."""
        n = self.inverse.size
        rank = np.empty(n, dtype=np.int64)
        rank[self.order] = np.arange(n) - np.repeat(self.starts, self.counts)
        return rank

    def head(self, m: int) -> "Groups":
        """The groups of positions ``[0, m)``: ``group(a[:m])`` without
        sorting again."""
        keep = self.first < m
        inverse = (np.cumsum(keep) - 1)[self.inverse[:m]]
        counts = np.bincount(inverse, minlength=int(keep.sum()))
        return Groups(
            self.values[keep],
            inverse,
            np.cumsum(counts) - counts,
            self.order[self.order < m],
        )


def group(a: np.ndarray) -> Groups:
    """Group the equal values of ``a``: one unstable argsort over ``a``,
    and for :attr:`Groups.order` one unstable sort over distinct
    ``int64`` values."""
    n = a.size
    perm = np.argsort(a)
    ordered = a[perm]
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    gid = np.cumsum(head) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = gid
    return Groups(ordered[head], inverse, np.flatnonzero(head), (gid, perm))
