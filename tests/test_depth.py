"""The searches give the same answer whatever the caller's stack depth."""

import sys

import pytest

from seqlatin.graceful import graceful_with_first
from seqlatin.groups import cyclic
from seqlatin.rotational import search_r_terrace

MARGIN = 30  # frames left below the recursion limit


def stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def near_limit(fn):
    """Call fn with about MARGIN frames left before RecursionError."""

    def dive(left: int):
        return dive(left - 1) if left > 0 else fn()

    return dive(sys.getrecursionlimit() - MARGIN - stack_depth())


@pytest.mark.parametrize(
    "search",
    [
        lambda: search_r_terrace(
            cyclic(45), star=True, element_orders=[(0, 5), (1, 5), (-1, 5)], seed=1
        ),
        lambda: graceful_with_first(40, 1),
    ],
    ids=["search_r_terrace", "graceful_with_first"],
)
def test_same_result_near_the_recursion_limit(search):
    assert near_limit(search) == search()
