"""Directed terraces, the Walecki zig-zag, and complete Latin squares.

A directed terrace lists every group element once so that the left
quotients a_i^{-1} a_{i+1} hit every non-identity element once; the
quotient list is the sequencing.  Multiplying a terrace's inverses
against another terrace row-by-column gives a complete Latin square:
every ordered pair of distinct symbols appears exactly once in
horizontally adjacent cells and once in vertically adjacent cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Optional, Sequence

from .errors import NotATerrace, OddOrder
from .groups import compile_index


def _as_tuple_elem(e):
    return tuple(e) if isinstance(e, (list, tuple)) else e


def is_directed_terrace(group, arrangement) -> tuple[bool, list[int]]:
    """Check the covering conditions on element indices.

    Returns (verdict, quotients): quotients[i] is the index, in
    group.elements() order, of a_i^-1 a_{i+1}, and the list is empty
    when the verdict is False.  An entry that is not an element (a
    coordinate outside its range) makes the verdict False; one of the
    wrong length raises ShapeMismatch.  Byte marks over the indices
    0..n-1 check that every element appears once and that the quotients
    cover every index but the identity's.
    """
    enc = compile_index(group)
    n = group.order
    idx = enc.indices(arrangement)
    if idx is None or len(idx) != n:
        return False, []
    marks = bytearray(n)
    for i in idx:
        marks[i] = 1
    if 0 in marks:
        return False, []
    quots = list(map(enc.quot, idx, islice(idx, 1, None)))
    marks = bytearray(n)
    marks[enc.indices([group.identity])[0]] = 1
    for q in quots:
        marks[q] = 1
    if 0 in marks:
        return False, []
    return True, quots


def walecki_terrace(n: int):
    """(0, n-1, 1, n-2, 2, ...) over Z_n for even n."""
    if n < 2 or n % 2 != 0:
        raise OddOrder(f"zig-zag terrace needs even n >= 2, got {n}")
    out = [0]
    for i in range(1, n // 2 + 1):
        out.append(n - i)
        if len(out) < n:
            out.append(i)
    return tuple((v,) for v in out)


@dataclass(frozen=True)
class LatinSquare:
    n: int
    grid: tuple[tuple[int, ...], ...]
    row_order: tuple
    col_order: tuple


def terrace_to_complete_square(group, terrace) -> LatinSquare:
    """Rows run through the terrace's elementwise inverses, columns through the terrace."""
    ok, _ = is_directed_terrace(group, terrace)
    if not ok:
        raise NotATerrace("row/column source must be a directed terrace")
    seq = tuple(_as_tuple_elem(e) for e in terrace)
    enc = compile_index(group)
    grid = _grid(enc, enc.indices([group.identity])[0], enc.indices(seq))
    return LatinSquare(len(seq), grid, tuple(map(group.inv, seq)), seq)


def sequencing_square(group, quotients) -> LatinSquare:
    """The complete square of a sequencing given as the gate's quotient indices.

    Nothing is re-checked: the quotients come from is_directed_terrace.
    Every terrace with these quotients is a left translate a_i = a_0 b_i
    of the one that starts at the identity, b_0 = e and b_{i+1} = b_i q_i,
    and a_i^-1 a_j = b_i^-1 b_j, so b's square is the square of each of
    them.  Rows run through b's inverses, columns through b.
    """
    enc = compile_index(group)
    e = enc.indices([group.identity])[0]
    b = [e]
    for q in quotients:
        b.append(enc.quot(enc.quot(b[-1], e), q))  # inv(inv(b_i)) * q_i
    rows = (enc.decode(enc.quot(g, e)) for g in b)
    return LatinSquare(len(b), _grid(enc, e, b), tuple(rows), tuple(map(enc.decode, b)))


def _grid(enc, e, cols):
    """Cell (i, j) is the index of a_i^-1 a_j, for the terrace a at indices cols.

    e is the identity's index.  A row is the product row of a_i^-1 read
    at the columns' indices.
    """
    # itemgetter with one key returns the bare item, not a 1-tuple
    pick = itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
    return tuple(pick(enc.row(enc.quot(c, e))) for c in cols)


@dataclass(frozen=True)
class CompletenessReport:
    is_latin: bool
    is_row_complete: bool
    is_column_complete: bool
    is_complete: bool
    witness: Optional[tuple] = None


def _row_complete(grid: Sequence[Sequence[int]], n: int):
    seen = [False] * (n * n)
    for r, row in enumerate(grid):
        for j in range(n - 1):
            a, b = row[j], row[j + 1]
            key = a * n + b
            if seen[key]:
                return False, (a, b, r, j)
            seen[key] = True
    return True, None


def _adjacent_distinct(key_rows, n) -> bool:
    # n(n-1) adjacent pairs, all with distinct symbols in a Latin square,
    # so distinctness of the keys is exactly the covering condition
    seen: set[int] = set()
    total = 0
    for keys in key_rows:
        seen.update(keys)
        total += len(keys)
    return len(seen) == total


def completeness_report(square: LatinSquare) -> CompletenessReport:
    n = square.n
    grid = square.grid
    symbols = set(range(n))
    cols = list(zip(*grid))
    is_latin = all(set(row) == symbols for row in grid) and all(
        set(col) == symbols for col in cols
    )
    row_ok = _adjacent_distinct(
        ([a * n + b for a, b in zip(row, islice(row, 1, None))] for row in grid), n
    )
    col_ok = _adjacent_distinct(
        ([a * n + b for a, b in zip(col, islice(col, 1, None))] for col in cols), n
    )
    witness = None
    if not row_ok:
        _, witness = _row_complete(grid, n)
    elif not col_ok:
        _, witness = _row_complete(cols, n)
    return CompletenessReport(
        is_latin, row_ok, col_ok, is_latin and row_ok and col_ok, witness
    )


def square_to_csv(square: LatinSquare) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in square.grid) + "\n"


def square_from_csv(text: str) -> LatinSquare:
    rows = [
        tuple(int(tok) for tok in line.split(","))
        for line in text.strip().splitlines()
        if line.strip()
    ]
    n = len(rows)
    placeholder = tuple(range(n))
    return LatinSquare(n, tuple(rows), placeholder, placeholder)
