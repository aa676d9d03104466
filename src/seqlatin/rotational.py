"""Directed R-terraces and R*-terraces of abelian groups.

An arrangement a_1..a_{m-1} of the non-identity elements is a directed
R-terrace when the cyclic consecutive differences a_{i+1} - a_i (wrap
difference a_1 - a_{m-1}) also run through the non-identity elements
exactly once.  A star at position i means a_i = a_{i-1} + a_{i+1}
(cyclic); standard form puts a star at the first position.

Positions are 0-based throughout, including star indices.  Terraces
hold elements; the randomized search works on the group's element
indices and decodes only the terrace it returns.
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


def _order_constraints(element_orders: Sequence[tuple[int, int]], n: int) -> dict[int, int]:
    """{position: order} of (index, order) pairs over n positions.

    An index lies in -n..n-1, negative ones counting from the end, an
    order is an int >= 1 (not a bool), and a position is constrained once.
    """
    order_at: dict[int, int] = {}
    for idx, order in element_orders:
        if type(idx) is not int or not -n <= idx < n:
            raise ValueError(f"element_orders index {idx!r} is outside {-n}..{n - 1}")
        if type(order) is not int or order < 1:
            raise ValueError(f"element_orders order {order!r} must be an int >= 1")
        if idx % n in order_at:
            raise ValueError(f"element_orders constrains position {idx % n} twice")
        order_at[idx % n] = order
    return order_at


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
                         from the end; a bad index or order, or a
                         position named twice, raises ValueError

    One randomized run with the given seed; raises NotFound, carrying
    the nodes opened and the seed, once the node budget is spent or the
    space is exhausted, and the caller may retry with another seed.
    The open nodes live on an explicit stack, one shuffled candidate
    iterator each, so neither the result nor the speed depends on the
    caller's stack depth.

    The search runs on the group's element indices: differences
    come from a table of index(g_x - g_p) built once per call, subgroups
    meet only in 0 when their masks share bit 0 alone, and a mask's bit
    count is its element's order.  Index order is elements() order, so
    every node shuffles the same candidate list as a search on the
    elements would.  Only the returned terrace holds elements.
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
    order_at = _order_constraints(element_orders, n)
    rng = random.Random(seed)
    span = range(m)
    flat = group.diffs([p for p in span for _ in span], list(span) * m)
    diff = [flat[p : p + m] for p in range(0, m * m, m)]  # diff[p][x]: g_x - g_p
    masks = group.subgroups
    order_positions: dict[int, list[int]] = {}
    for idx, o in sorted(order_at.items()):
        order_positions.setdefault(o, []).append(idx)
    order_pool = {
        o: [x for x in range(1, m) if masks[x].bit_count() == o] for o in order_positions
    }
    # the candidates of each position, in index order
    nonzero = list(range(1, m))
    allowed = [order_pool[order_at[pos]] if pos in order_at else nonzero for pos in range(n)]
    allowed_last = set(allowed[-1])
    entries: list[int] = []
    used = bytearray(m)  # used[x] is 1 once x is an entry
    used_diffs = bytearray(m)  # and used_diffs[d] once d is a difference
    nodes = 0

    def open_node():
        """Count the node at len(entries); return its shuffled candidates
        and the final entry it reserves (a pruned node has no candidates)."""
        nonlocal nodes
        if nodes >= max_nodes:
            raise NotFound(
                f"no R-terrace of order {m} found within {max_nodes} nodes (seed {seed})",
                nodes=nodes,
                seed=seed,
            )
        nodes += 1
        pos = len(entries)
        for o, idxs in order_positions.items():
            needed = len(idxs) - bisect.bisect_left(idxs, pos)
            pool = order_pool[o]
            if needed and len(pool) - sum(map(used.__getitem__, pool)) < needed:
                return iter(()), None
        last = None
        if star and n > 2 and pos >= 2:
            # standard form a_0 = a_last + a_1 fixes the final entry, and
            # the wrap difference a_0 - a_last is a_1: reserve both while
            # filling the middle
            last = diff[entries[1]][entries[0]]
            if used[last] or last not in allowed_last:
                return iter(()), None
            if independent_ends and masks[entries[0]] & masks[last] != 1:
                return iter(()), None
        if pos == n - 1 and last is not None:
            candidates = [last]
        else:
            candidates = [x for x in allowed[pos] if not used[x] and x != last]
        rng.shuffle(candidates)
        return iter(candidates), last

    stack = [open_node()]
    while True:
        candidates, last = stack[-1]
        pos = len(entries)
        d = None
        step = diff[entries[-1]] if entries else ()
        for x in candidates:
            if pos == 0:
                break
            d = step[x]
            if used_diffs[d]:
                continue
            if last is not None and pos < n - 1 and d == entries[1]:
                continue
            if pos == n - 1:
                wd = diff[x][entries[0]]
                if used_diffs[wd] or wd == d:
                    continue
                # standard form: a_0 - a_last is a_1 (a_last itself when n = 2)
                if star and wd != (entries[1] if n > 2 else x):
                    continue
                if independent_ends and masks[entries[0]] & masks[x] != 1:
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
                raise NotFound(
                    f"search space exhausted for order {m} under {named}",
                    nodes=nodes,
                    seed=seed,
                )
            x = entries.pop()
            used[x] = 0
            if entries:
                used_diffs[diff[entries[-1]][x]] = 0
            continue
        entries.append(x)
        used[x] = 1
        if d is not None:
            used_diffs[d] = 1
        if len(entries) == n:
            return RTerrace(group, tuple(zip(*group.columns(entries))), 0 if star else None)
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
    """Run search_r_terrace over several seeds, returning the first hit.

    The NotFound of the last seed, when every seed fails, also carries
    `seeds`, the seeds tried.
    """
    err = NotFound("no seeds supplied", nodes=0)
    tried: list[int] = []
    for s in seeds:
        tried.append(s)
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
    err.seeds = tuple(tried)
    raise err
