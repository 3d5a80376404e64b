"""SU(2) representation bookkeeping on twice-integer spin labels.

All spins are passed around as twice their value (so spin 3/2 is the
int 3).  This keeps every label an exact integer and makes parity
checks trivial.  Nothing in here ever touches explicit recoupling
tensors; only dimensions and channel labels are needed.
"""

from __future__ import annotations


def dim_rep(twice_j: int) -> int:
    """Dimension 2j+1 of the spin-j irrep, j given as twice its value."""
    if twice_j < 0:
        raise ValueError(f"negative twice-spin {twice_j}")
    return twice_j + 1


def _channels(twice_js: tuple[int, int, int, int]) -> range:
    """The channel spins k of `channel_spins` as a range, O(1) at any spin:
    lo = max(|j1 - j2|, |j3 - j4|) already has the parity of k."""
    j1, j2, j3, j4 = twice_js
    if any(j < 0 for j in twice_js):
        raise ValueError(f"negative twice-spin in {twice_js}")
    if (j1 + j2) % 2 != (j3 + j4) % 2:
        return range(0)
    return range(max(abs(j1 - j2), abs(j3 - j4)), min(j1 + j2, j3 + j4) + 1, 2)


def channel_spins(twice_js: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Intermediate twice-spins of the (12)(34) recoupling channel.

    The channel spin k must appear both in j1 x j2 and in j3 x j4; the
    returned tuple is sorted increasingly and fixes the ordering of the
    intertwiner basis used everywhere else (block indices of the bulk
    state refer to this ordering).
    """
    return tuple(_channels(twice_js))


def intertwiner_dimension(twice_js: tuple[int, int, int, int]) -> int:
    """Dimension of the invariant subspace of a 4-valent vertex, counted
    without listing its channels."""
    return len(_channels(twice_js))
