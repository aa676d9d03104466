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


def is_directed_terrace(group, arrangement) -> tuple[bool, list]:
    """Check the covering conditions; returns (verdict, quotient list)."""
    seq = [_as_tuple_elem(e) for e in arrangement]
    elems = list(group.elements())
    quots = [group.quot(seq[i], seq[i + 1]) for i in range(len(seq) - 1)] if len(seq) > 1 else []
    if len(seq) != len(elems) or set(seq) != set(elems):
        return False, quots
    nonid = set(elems) - {group.identity}
    return set(quots) == nonid and len(quots) == len(nonid), quots


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
    """Rows run through the terrace's elementwise inverses, columns through the terrace.

    Cell (i, j) is the index, in group.elements() order, of row i times
    column j: the row's product row read at the terrace's indices.
    """
    ok, _ = is_directed_terrace(group, terrace)
    if not ok:
        raise NotATerrace("row/column source must be a directed terrace")
    seq = [_as_tuple_elem(e) for e in terrace]
    rows = [group.inv(e) for e in seq]
    enc = compile_index(group)
    cols = [enc.index(e) for e in seq]
    # itemgetter with one key returns the bare item, not a 1-tuple
    pick = itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
    grid = tuple(pick(enc.row(enc.index(g))) for g in rows)
    return LatinSquare(len(seq), grid, tuple(rows), tuple(seq))


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
