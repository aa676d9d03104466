"""Graceful permutations and the lift to cyclic R-terraces."""

import pytest

from seqlatin.errors import DeskScaleExceeded
from seqlatin.graceful import (
    graceful_to_r_terrace,
    graceful_with_first,
    is_graceful,
    walecki_graceful,
)
from seqlatin.rotational import check_r_terrace


def test_is_graceful():
    assert is_graceful((1, 3, 2))
    assert not is_graceful((1, 2, 3))
    assert is_graceful((2, 1))
    assert is_graceful((1,))
    assert not is_graceful((1, 1))
    assert not is_graceful((2, 3))


def test_walecki():
    assert walecki_graceful(5) == (1, 5, 2, 4, 3)
    assert walecki_graceful(4) == (1, 4, 2, 3)
    assert walecki_graceful(1) == (1,)
    for k in range(1, 60):
        assert is_graceful(walecki_graceful(k))


def test_graceful_with_first_examples():
    assert graceful_with_first(3, 2) == (2, 3, 1)
    assert graceful_with_first(5, 1) == (1, 5, 2, 4, 3)
    assert graceful_with_first(1, 1) == (1,)


def test_graceful_with_first_every_start():
    for k in range(1, 21):
        for x in range(1, k + 1):
            g = graceful_with_first(k, x)
            assert g[0] == x
            assert is_graceful(g)


def test_graceful_with_first_desk_cap():
    with pytest.raises(DeskScaleExceeded):
        graceful_with_first(41, 1)


def test_graceful_with_first_rejects_bad_x():
    with pytest.raises(ValueError):
        graceful_with_first(5, 6)


def test_lift_examples():
    t = graceful_to_r_terrace((1, 3, 2))
    assert t.entries == ((1,), (3,), (2,), (5,), (6,), (4,))
    t = graceful_to_r_terrace((1,))
    assert t.entries == ((1,), (2,))
    t = graceful_to_r_terrace((1, 2))
    assert t.entries == ((1,), (2,), (4,), (3,))


def test_lift_is_r_terrace_with_wrap():
    for k in range(1, 30):
        t = graceful_to_r_terrace(walecki_graceful(k))
        res = check_r_terrace(t.group, t.entries)
        assert res.is_r
        # wrap difference a_0 - a_last is k+1 in Z_{2k+1}
        wrap = t.group.sub(t.entries[0], t.entries[-1])
        assert wrap == ((k + 1) % (2 * k + 1),)


def test_lift_rejects_non_graceful():
    with pytest.raises(ValueError):
        graceful_to_r_terrace((1, 2, 3))


def test_walecki_star_position():
    """For Z_3p the lifted Walecki terrace has its star where a_{2p} is
    the sum of its neighbors (1-based), i.e. 0-based index 2p-1."""
    for p in (5, 7):
        k = (3 * p - 1) // 2
        t = graceful_to_r_terrace(walecki_graceful(k))
        res = check_r_terrace(t.group, t.entries)
        assert (2 * p - 1) in res.star_indices
