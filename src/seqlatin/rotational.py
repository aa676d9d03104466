"""Directed R-terraces and R*-terraces of abelian groups.

An arrangement a_1..a_{m-1} of the non-identity elements is a directed
R-terrace when the cyclic consecutive differences a_{i+1} - a_i (wrap
difference a_1 - a_{m-1}) also run through the non-identity elements
exactly once.  A star at position i means a_i = a_{i-1} + a_{i+1}
(cyclic); standard form puts a star at the first position.

Indices here are 0-based throughout, including star indices.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .desk import desk_cap
from .errors import (
    DeskScaleExceeded,
    GroupFormatError,
    NoStarIndex,
    NotATerrace,
    NotFound,
)
from .groups import AbElem, AbelianSpec


@dataclass(frozen=True)
class CheckResult:
    is_r: bool
    star_indices: tuple[int, ...]
    reason: str = ""


@dataclass(frozen=True)
class RTerrace:
    group: AbelianSpec
    entries: tuple[AbElem, ...]
    star_index: Optional[int] = None

    @property
    def is_standard(self) -> bool:
        g, e = self.group, self.entries
        return e[0] == g.add(e[-1], e[1 % len(e)])


def check_r_terrace(group: AbelianSpec, entries: Sequence[AbElem]) -> CheckResult:
    m = group.order
    entries = tuple(tuple(x) for x in entries)
    if len(entries) != m - 1:
        return CheckResult(False, (), f"expected {m - 1} entries, got {len(entries)}")
    nonzero = set(group.elements()) - {group.identity}
    if set(entries) != nonzero:
        return CheckResult(False, (), "entries are not the non-identity elements")
    n = len(entries)
    diffs = {group.sub(entries[(i + 1) % n], entries[i]) for i in range(n)}
    if diffs != nonzero:
        return CheckResult(False, (), "cyclic differences miss some element")
    stars = tuple(
        i
        for i in range(n)
        if entries[i] == group.add(entries[i - 1], entries[(i + 1) % n])
    )
    return CheckResult(True, stars)


def make_r_terrace(
    group: AbelianSpec, entries: Sequence[AbElem], require_star: bool = False
) -> RTerrace:
    """Validate entries and attach the smallest star index if one exists."""
    res = check_r_terrace(group, entries)
    if not res.is_r:
        raise NotATerrace(res.reason)
    if require_star and not res.star_indices:
        raise NoStarIndex("no position equals the sum of its neighbors")
    star = res.star_indices[0] if res.star_indices else None
    return RTerrace(group, tuple(tuple(x) for x in entries), star)


# ---------------------------------------------------------------------------
# the product construction: extend a standard R*-terrace by an odd cyclic
# factor coprime to 3


def fgm_extend(base: RTerrace, w: int) -> RTerrace:
    """Standard R*-terrace of A x Z_w from a standard one of A (3 does not divide w).

    First coordinates: the base entries a once, then k = (w-1)/2 copies of
    a with its head doubled, then k copies with the doubled head zeroed.
    Second coordinates: |A|-2 zeros, then for s = 1..2k a row of |A|-1
    values alternating -s, s and closed by 2s, then a final zero; each
    row straddles a block boundary by one position.
    """
    if w < 5 or w % 2 == 0 or w % 3 == 0:
        raise GroupFormatError(f"extension factor must be odd, >= 5, coprime to 3, got {w}")
    if base.group.order % 2 == 0:
        raise GroupFormatError("base group must have odd order")
    if base.group.order == 3:
        # the head entry a_1 and the entry a_{m-2} coincide, and no
        # assignment of pair-shaped rows verifies (exhausted by sweep);
        # search_r_terrace(A x Z_w, star=True) finds these terraces
        raise GroupFormatError("base group of order 3 has no pair-shaped extension")
    if not base.entries or not base.is_standard:  # order 1 has no star
        raise GroupFormatError("base terrace must be standard (star at position 0)")
    a, zero = base.entries, base.group.identity
    m, k = len(a) + 1, (w - 1) // 2
    first = list(a) + [a[0], *a] * k + [zero, zero, *a[1:]] * k
    second = [0] * (m - 2)
    for s in range(1, 2 * k + 1):
        second += [-s % w, s] * ((m - 1) // 2) + [2 * s % w]
    second.append(0)
    product = AbelianSpec(base.group.factors + (w,))
    # an R*-terrace by theorem, so not re-checked; entries 0, 1 and -1
    # are (a_0, 0), (a_1, 0) and (a_last, 0), so the base's star stays at 0
    return RTerrace(product, tuple(u + (z,) for u, z in zip(first, second)), 0)


def fgm_extend_many(base: RTerrace, b: AbelianSpec) -> RTerrace:
    """Fold fgm_extend over the cyclic factors of b (odd order, coprime to 3)."""
    if b.order % 2 == 0 or b.order % 3 == 0:
        raise GroupFormatError("extension group must have odd order coprime to 3")
    out = base
    for w in b.factors:
        out = fgm_extend(out, w)
    return out


# ---------------------------------------------------------------------------
# constrained randomized search


def search_r_terrace(
    group: AbelianSpec,
    *,
    star: bool = False,
    independent_ends: bool = False,
    element_orders: Sequence[tuple[int, int]] = (),
    seed: int = 0,
    max_nodes: int = 200_000,
) -> RTerrace:
    """Randomized backtracking for a directed R-terrace under constraints.

    star              -- require standard form (star at 0)
    independent_ends  -- <a_0> and <a_last> meet only in 0
    element_orders    -- (index, order) pairs; negative indices count
                         from the end

    One randomized run with the given seed; raises NotFound once the
    node budget is spent, and the caller may retry with another seed.
    The open nodes live on an explicit stack, one shuffled candidate
    iterator each, so neither the result nor the speed depends on the
    caller's stack depth.
    """
    cap = desk_cap(250)
    m = group.order
    if m > cap:
        raise DeskScaleExceeded(f"group order {m} exceeds search cap {cap}")
    if m % 2 == 0:
        raise GroupFormatError("R-terrace search needs odd group order")
    if m == 1:
        raise GroupFormatError("no non-identity elements to arrange")
    n = m - 1
    rng = random.Random(seed)
    zero = group.identity
    order_at = {idx % n: order for idx, order in element_orders}
    order_positions: dict[int, list[int]] = {}
    for idx, o in sorted(order_at.items()):
        order_positions.setdefault(o, []).append(idx)
    elements = [e for e in group.elements() if e != zero]
    order_pool = {
        o: frozenset(x for x in elements if group.element_order(x) == o)
        for o in order_positions
    }
    entries: list[AbElem] = []
    used: set[AbElem] = set()
    used_diffs: set[AbElem] = set()
    nodes = 0

    def fits(pos: int, x: AbElem) -> bool:
        return pos not in order_at or x in order_pool[order_at[pos]]

    def open_node():
        """Count the node at len(entries); return its shuffled candidates
        and the final entry it reserves (a pruned node has no candidates)."""
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise NotFound(
                f"no R-terrace of order {m} found within {max_nodes} nodes (seed {seed})"
            )
        pos = len(entries)
        for o, idxs in order_positions.items():
            needed = len(idxs) - bisect.bisect_left(idxs, pos)
            if needed and sum(1 for x in order_pool[o] if x not in used) < needed:
                return iter(()), None
        last = None
        if star and n > 2 and pos >= 2:
            # standard form a_0 = a_last + a_1 fixes the final entry, and
            # the wrap difference a_0 - a_last is a_1: reserve both while
            # filling the middle
            last = group.sub(entries[0], entries[1])
            if last in used or not fits(n - 1, last):
                return iter(()), None
            if independent_ends and not group.independent(entries[0], last):
                return iter(()), None
        if pos == n - 1 and last is not None:
            candidates = [last]
        else:
            candidates = [
                x for x in elements if x not in used and x != last and fits(pos, x)
            ]
        rng.shuffle(candidates)
        return iter(candidates), last

    stack = [open_node()]
    while True:
        candidates, last = stack[-1]
        pos = len(entries)
        d = None
        for x in candidates:
            if pos == 0:
                break
            d = group.sub(x, entries[-1])
            if d in used_diffs:
                continue
            if last is not None and pos < n - 1 and d == entries[1]:
                continue
            if pos == n - 1:
                wd = group.sub(entries[0], x)
                if wd in used_diffs or wd == d:
                    continue
                if star and entries[0] != group.add(x, entries[1] if n > 2 else x):
                    continue
                if independent_ends and not group.independent(entries[0], x):
                    continue
            break
        else:
            # this node is spent: take back the entry that opened it
            stack.pop()
            if not stack:
                named = [
                    name
                    for name, value in (
                        ("element_orders", element_orders),
                        ("independent_ends", independent_ends),
                        ("star", star),
                    )
                    if value
                ]
                raise NotFound(f"search space exhausted for order {m} under {named}")
            x = entries.pop()
            used.remove(x)
            if entries:
                used_diffs.remove(group.sub(x, entries[-1]))
            continue
        entries.append(x)
        used.add(x)
        if d is not None:
            used_diffs.add(d)
        if len(entries) == n:
            return RTerrace(group, tuple(entries), 0 if star else None)
        stack.append(open_node())


def search_r_terrace_retry(
    group: AbelianSpec,
    *,
    star: bool = False,
    independent_ends: bool = False,
    element_orders: Sequence[tuple[int, int]] = (),
    seeds: Sequence[int] = range(8),
    max_nodes: int = 200_000,
) -> RTerrace:
    """Run search_r_terrace over several seeds, returning the first hit."""
    err: Optional[NotFound] = None
    for s in seeds:
        try:
            return search_r_terrace(
                group,
                star=star,
                independent_ends=independent_ends,
                element_orders=element_orders,
                seed=s,
                max_nodes=max_nodes,
            )
        except NotFound as e:
            err = e
    raise err if err is not None else NotFound("no seeds supplied")
