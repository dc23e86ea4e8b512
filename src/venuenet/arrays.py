"""The integer-array rules the stages share, each written once: compressed
sparse rows, runs of sorted values, id widths and exact integer sums."""

from __future__ import annotations

import numpy as np

INT64_MAX = int(np.iinfo(np.int64).max)


def ids(bound: int):
    """The narrower of int32 and int64 that holds 0..bound."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def exact(values, terms: int = 1) -> np.ndarray:
    """The non-negative integers `values` as int64 when `terms` of the
    largest add up inside int64, else as Python integers (dtype object):
    with `terms` = len(values), every sum of them is exact."""
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:  # a value passes int64
        return np.asarray(values, dtype=object)
    return a.astype(object) if int(a.max(initial=0)) * terms > INT64_MAX else a


class FirstSeenIds(dict):
    """Value -> id: a value looked up for the first time gets the next id."""

    def __missing__(self, value) -> int:
        self[value] = len(self)
        return len(self) - 1


def row_offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """The indptr of n rows from the row of each entry, entries grouped by row."""
    return np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]


def arc_tails(indptr: np.ndarray) -> np.ndarray:
    """The tail of each arc of the rows `indptr` delimits."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """range(starts[i], starts[i] + counts[i]) for every i, concatenated,
    and the i each element came from."""
    owner = np.repeat(np.arange(counts.size), counts)
    ranges = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    ranges += np.arange(owner.size)
    return ranges, owner


def run_starts(codes: np.ndarray) -> np.ndarray:
    """The index of the first value of each run of equal values of `codes`."""
    first = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return np.flatnonzero(first)


def distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values), by one sort of `values` in place (every caller
    passes a temporary): numpy 2.4's np.unique hashes and was many times
    slower on these keys."""
    values.sort()
    return values[run_starts(values)]


def unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(keys, return_index=True, return_inverse=True) with the
    inverse in the narrowest ids, by one stable sort (np.unique's int64
    inverse and temporaries peaked 3.5 MB higher at 100k publications)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = run_starts(keys)
    inverse = np.zeros(keys.size, dtype=ids(starts.size))
    inverse[starts[1:]] = 1
    inverse[order] = np.cumsum(inverse, dtype=inverse.dtype)
    return keys[starts], order[starts], inverse


def component_labels(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The smallest node of each node's weakly connected component, over
    the arcs tails[k] -> heads[k] of nodes 0..n-1."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, tails, label[heads])
        np.minimum.at(new, heads, label[tails])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new
