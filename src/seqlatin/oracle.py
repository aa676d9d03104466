"""Brute-force ground truth for the constructive modules.

Everything here is deliberately naive: exhaustive backtracking over
whole groups, full enumeration of graceful permutations, and
second-opinion checkers coded without reference to the main ones.  The
constructions are audited against these at desk scale.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .desk import desk_cap
from .errors import DeskScaleExceeded
from .groups import TableGroup

EXHAUSTIVE_CAP = 16
GRACEFUL_CAP = 8


@dataclass(frozen=True)
class ExhaustiveResult:
    terraces: tuple
    count: int
    exhausted: bool

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "exhausted": self.exhausted,
            "terraces": [
                [list(e) if isinstance(e, tuple) else e for e in t]
                for t in self.terraces
            ],
        }


def _index_tables(group):
    ident = group.indices([group.identity])[0]
    quot = [group.row(group.quot(i, ident)) for i in range(group.order)]
    return list(group.elements()), ident, quot


def _walk(quot, n, ident, start_branches, limit):
    """DFS anchored at the identity; bitmasks prune used elements/quotients."""
    found: list[tuple[int, ...]] = []
    count = 0
    full = (1 << n) - 1
    stack: list[tuple[int, int, int, tuple[int, ...]]] = []
    for b in reversed(start_branches):
        stack.append((b, 1 << ident | 1 << b, 1 << quot[ident][b], (ident, b)))
    if n == 1:
        return [(ident,)], 1, True
    while stack:
        cur, used, uq, path = stack.pop()
        if used == full:
            count += 1
            if limit is None or len(found) < limit:
                found.append(path)
            if limit is not None and count >= limit:
                return found, count, False
            continue
        row = quot[cur]
        for nxt in range(n - 1, -1, -1):
            bit = 1 << nxt
            if used & bit:
                continue
            qbit = 1 << row[nxt]
            if uq & qbit:
                continue
            stack.append((nxt, used | bit, uq | qbit, path + (nxt,)))
    return found, count, True


def _shard_worker(args):
    quot, n, ident, branch = args
    return _walk(quot, n, ident, [branch], None)


def exhaustive_sequencings(
    group,
    limit: Optional[int] = None,
    jobs: int = 1,
) -> ExhaustiveResult:
    """Every identity-anchored directed terrace of a small group.

    With a limit the walk stops once that many are found and the result
    is marked unexhausted; without one the count is complete.  jobs > 1
    shards the tree by the element after the identity; shards always run
    to completion and merge in branch order, so the output matches the
    sequential walk.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    cap = desk_cap(EXHAUSTIVE_CAP)
    n = group.order
    if n > cap:
        raise DeskScaleExceeded(f"order {n} exceeds exhaustive cap {cap}")
    elems, ident, quot = _index_tables(group)
    branches = [b for b in range(n) if b != ident]
    if jobs > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(branches))) as pool:
            parts = list(
                pool.map(_shard_worker, [(quot, n, ident, b) for b in branches])
            )
        found = [p for part in parts for p in part[0]]
        count = sum(part[1] for part in parts)
        if limit is not None:
            found = found[:limit]
        exhausted = True
    else:
        found, count, exhausted = _walk(quot, n, ident, branches, limit)
    terraces = tuple(tuple(elems[i] for i in path) for path in found)
    return ExhaustiveResult(terraces, count, exhausted)


def enumerate_graceful(k: int) -> tuple:
    """All graceful permutations of 1..k, lexicographically."""
    cap = desk_cap(GRACEFUL_CAP)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > cap:
        raise DeskScaleExceeded(f"k = {k} exceeds enumeration cap {cap}")
    out = []
    stack = [((x,), 1 << x, 0) for x in range(k, 0, -1)]
    while stack:
        path, used, diffs = stack.pop()
        if len(path) == k:
            out.append(path)
            continue
        last = path[-1]
        for nxt in range(k, 0, -1):
            bit = 1 << nxt
            if used & bit:
                continue
            dbit = 1 << abs(last - nxt)
            if diffs & dbit:
                continue
            stack.append((path + (nxt,), used | bit, diffs | dbit))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# small non-abelian fixtures


def s3_table() -> TableGroup:
    """Symmetric group on 3 letters via permutation composition."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [
        [index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms
    ]
    return TableGroup(rows)


def d8_table() -> TableGroup:
    """Dihedral group of order 8: r^i s^j with s r s = r^-1."""
    def idx(i, j):
        return i * 2 + j

    rows = [[0] * 8 for _ in range(8)]
    for i1, j1, i2, j2 in itertools.product(range(4), range(2), range(4), range(2)):
        i = (i1 + (i2 if j1 == 0 else -i2)) % 4
        rows[idx(i1, j1)][idx(i2, j2)] = idx(i, (j1 + j2) % 2)
    return TableGroup(rows)


def q8_table() -> TableGroup:
    """Quaternion group: signed units 1, i, j, k."""
    # axis products: (i, j) -> (sign, axis)
    prod = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def idx(sign, axis):
        return axis * 2 + (0 if sign > 0 else 1)

    rows = [[0] * 8 for _ in range(8)]
    for a1, s1, a2, s2 in itertools.product(range(4), (1, -1), range(4), (1, -1)):
        s, a = prod[(a1, a2)]
        rows[idx(s1, a1)][idx(s2, a2)] = idx(s1 * s2 * s, a)
    return TableGroup(rows)


# ---------------------------------------------------------------------------
# second-opinion checkers, coded from the definitions


def naive_directed_terrace(group, arrangement) -> bool:
    seq = [tuple(e) if isinstance(e, (list, tuple)) else e for e in arrangement]
    elems = [tuple(e) if isinstance(e, tuple) else e for e in group.elements()]
    if sorted(seq) != sorted(elems):
        return False
    quots = []
    for a, b in zip(seq, seq[1:]):
        quots.append(group.mul(group.inv(a), b))
    wanted = sorted(e for e in elems if e != group.identity)
    return sorted(quots) == wanted


def naive_r_terrace(group, entries) -> bool:
    seq = [tuple(e) for e in entries]
    elems = list(group.elements())
    if sorted(seq) != sorted(e for e in elems if e != group.identity):
        return False
    diffs = []
    for i in range(len(seq)):
        nxt = seq[(i + 1) % len(seq)]
        diffs.append(group.sub(nxt, seq[i]))
    return sorted(diffs) == sorted(e for e in elems if e != group.identity)


def naive_hash_harmonious(group, entries) -> bool:
    seq = [tuple(e) for e in entries]
    elems = list(group.elements())
    if sorted(seq) != sorted(e for e in elems if e != group.identity):
        return False
    sums = [group.add(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]
    return sorted(sums) == sorted(e for e in elems if e != group.identity)


def naive_harmonious(group, entries) -> bool:
    seq = [tuple(e) for e in entries]
    elems = sorted(group.elements())
    if sorted(seq) != elems:
        return False
    sums = [group.add(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]
    return sorted(sums) == elems


def naive_graceful(values) -> bool:
    vals = list(values)
    k = len(vals)
    if sorted(vals) != list(range(1, k + 1)):
        return False
    gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
    return sorted(gaps) == list(range(1, k))


def naive_complete(grid) -> bool:
    n = len(grid)
    if any(len(row) != n for row in grid):
        return False
    syms = list(range(n))
    for row in grid:
        if sorted(row) != syms:
            return False
    for c in range(n):
        if sorted(grid[r][c] for r in range(n)) != syms:
            return False
    horiz = sorted((row[j], row[j + 1]) for row in grid for j in range(n - 1))
    vert = sorted(
        (grid[r][c], grid[r + 1][c]) for r in range(n - 1) for c in range(n)
    )
    pairs = sorted((a, b) for a in syms for b in syms if a != b)
    return horiz == pairs and vert == pairs
