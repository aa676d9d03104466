"""Directed terraces, the Walecki zig-zag, and complete Latin squares.

A directed terrace lists every group element once so that the left
quotients a_i^{-1} a_{i+1} hit every non-identity element once; the
quotient list is the sequencing.  Multiplying a terrace's inverses
against another terrace row-by-column gives a complete Latin square:
every ordered pair of distinct symbols appears exactly once in
horizontally adjacent cells and once in vertically adjacent cells.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Optional

from .errors import NotATerrace, OddOrder
from .groups import TableGroup


def is_directed_terrace(group, indices) -> tuple[bool, list[int]]:
    """Check the covering conditions of an arrangement given as element indices.

    Returns (verdict, quotients): quotients[i] is the index, in
    group.elements() order, of a_i^-1 a_{i+1}, and the list is empty
    when the verdict is False.  Any index outside 0..n-1, a negative one
    included, makes the verdict False.  Byte marks over the indices
    0..n-1 check that every element appears once and that the quotients
    cover every index but the identity's.  Outside input is read into
    indices by the group's strict map first.
    """
    n = group.order
    if len(indices) != n or min(indices) < 0:
        return False, []
    marks = bytearray(n)
    try:
        for i in indices:
            marks[i] = 1
    except IndexError:  # an index n or above
        return False, []
    if 0 in marks:
        return False, []
    quots = group.quots(indices)
    marks = bytearray(n)
    marks[group.indices([group.identity])[0]] = 1
    for q in quots:
        marks[q] = 1
    if 0 in marks:
        return False, []
    return True, quots


def walecki_terrace(n: int) -> tuple[int, ...]:
    """(0, n-1, 1, n-2, 2, ...) as Z_n indices, for even n."""
    if n < 2 or n % 2 != 0:
        raise OddOrder(f"zig-zag terrace needs even n >= 2, got {n}")
    out = [0] * n
    out[0::2] = range(n // 2)
    out[1::2] = range(n - 1, n // 2 - 1, -1)
    return tuple(out)


@dataclass(frozen=True)
class LatinSquare:
    n: int
    grid: tuple[tuple[int, ...], ...]

    @cached_property
    def _completeness(self) -> CompletenessReport:
        return _report(self.n, self.grid)


def terrace_to_complete_square(group, terrace) -> LatinSquare:
    """Rows run through the terrace's elementwise inverses, columns through the terrace.

    The terrace is outside input, read by the strict map; the gate runs
    on every call, and the square is sequencing_square's, shared by every
    terrace with the same quotients.
    """
    idx = group.indices(terrace)
    ok, quots = (False, []) if idx is None else is_directed_terrace(group, idx)
    if not ok:
        raise NotATerrace("row/column source must be a directed terrace")
    return sequencing_square(group, quots)


# The square cache: squares by (group, quotients), least recently used
# first, each entry (square, cells charged).  A square and its report are
# immutable, so every caller of an entry shares them.  The bound counts
# cells: 8 bytes each, since cells point at the group's shared ints.  A
# table group's entry is charged its table as well, because the key keeps
# the group alive, and every entry is charged _ENTRY_CELLS for its own
# bookkeeping (about 500 bytes), so many tiny squares stay bounded too.
_MAX_CELLS = 4_000_000
_ENTRY_CELLS = 64
_squares: OrderedDict[tuple, tuple[LatinSquare, int]] = OrderedDict()
_held = 0  # cells charged to the entries in _squares
_lock = threading.Lock()


def sequencing_square(group, quotients) -> LatinSquare:
    """The complete square of a sequencing given as the gate's quotient indices.

    Nothing is re-checked: the quotients come from is_directed_terrace.
    Every terrace with these quotients is a left translate a_i = a_0 b_i
    of the one that starts at the identity, b_0 = e and b_{i+1} = b_i q_i,
    and a_i^-1 a_j = b_i^-1 b_j, so b's square is the square of each of
    them: cell (i, j) is the index of b_i^-1 b_j, read from the group's
    own quot and row.

    The square comes from the cache or is built and stored.  AbelianSpec
    and SdSpec compare by value, so an equal group rebuilt from its
    descriptor hits and builds no row; a TableGroup compares by identity,
    so its squares hit only for the same group object.  A square charged
    more than the bound is built and returned but not stored.
    """
    global _held
    key = (group, tuple(quotients))
    with _lock:
        entry = _squares.get(key)
        if entry is not None:
            _squares.move_to_end(key)
            return entry[0]
    e = group.indices([group.identity])[0]
    b = [e]
    for q in quotients:
        b.append(group.quot(group.quot(b[-1], e), q))  # inv(inv(b_i)) * q_i
    # a row is the product row of b_i^-1 read at b's indices; itemgetter
    # with one key returns the bare item, not a 1-tuple
    pick = itemgetter(*b) if len(b) > 1 else lambda row: (row[e],)
    square = LatinSquare(len(b), tuple(pick(group.row(group.quot(c, e))) for c in b))
    cells = square.n**2 * (2 if isinstance(group, TableGroup) else 1) + _ENTRY_CELLS
    if cells > _MAX_CELLS:
        return square
    with _lock:
        if key in _squares:  # another thread stored it first
            return _squares[key][0]
        while _held + cells > _MAX_CELLS:
            _held -= _squares.popitem(last=False)[1][1]
        _squares[key] = (square, cells)
        _held += cells
    return square


@dataclass(frozen=True)
class CompletenessReport:
    is_latin: bool
    is_row_complete: bool
    is_column_complete: bool
    is_complete: bool
    witness: Optional[tuple] = None


def _repeated_pair(lines):
    """The first adjacent pair seen twice, as (a, b, line, position), or None."""
    seen = set()
    for r, line in enumerate(lines):
        for j, pair in enumerate(zip(line, islice(line, 1, None))):
            if pair in seen:
                return (*pair, r, j)
            seen.add(pair)
    return None


def _successors_distinct(lines, n: int) -> bool:
    """Whether the n lines of a Latin square hold each ordered pair of distinct symbols once.

    A symbol is followed once in every line but the one it ends (None
    there), so the adjacent pairs are all distinct iff each symbol's n
    successors are.  This holds one line's successor map and n^2
    pointers, not a set of n^2 pairs.
    """
    succ = [list(map(dict(zip(line, islice(line, 1, None))).get, range(n))) for line in lines]
    return all(len(set(t)) == n for t in zip(*succ))


def _report(n: int, grid) -> CompletenessReport:
    symbols = set(range(n))
    cols = list(zip(*grid))
    is_latin = (
        len(grid) == n
        and all(len(row) == n and set(row) == symbols for row in grid)
        and all(set(col) == symbols for col in cols)
    )
    row_w = None if is_latin and _successors_distinct(grid, n) else _repeated_pair(grid)
    col_w = None if is_latin and _successors_distinct(cols, n) else _repeated_pair(cols)
    row_ok, col_ok = row_w is None, col_w is None
    return CompletenessReport(
        is_latin, row_ok, col_ok, is_latin and row_ok and col_ok, row_w or col_w
    )


def completeness_report(square: LatinSquare) -> CompletenessReport:
    """Latin, row- and column-complete, and the first repeated adjacent pair if any.

    Without the Latin property, completeness means the adjacent pairs are
    all distinct.  The witness is the first repeated pair of the rows, or
    else of the columns (a, b, column, row).  Each square computes its
    report once, so a cached square's report is shared by every caller.
    """
    return square._completeness
