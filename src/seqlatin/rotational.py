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
    ConstructionFailed,
    GroupFormatError,
    NoStarIndex,
    NotATerrace,
    NotFound,
    ShapeMismatch,
)
from .groups import AbElem, AbelianSpec, Automorphism


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

    def __len__(self) -> int:
        return len(self.entries)

    def sequencing(self) -> tuple[AbElem, ...]:
        """The cyclic difference sequence b_i = a_{i+1} - a_i."""
        g, e = self.group, self.entries
        return tuple(
            g.sub(e[(i + 1) % len(e)], e[i]) for i in range(len(e))
        )

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


def standardize(t: RTerrace) -> RTerrace:
    """Rotate so the star sits at position 0 (a_0 = a_last + a_1)."""
    res = check_r_terrace(t.group, t.entries)
    if not res.star_indices:
        raise NoStarIndex("cannot standardize a terrace with no star")
    j = res.star_indices[0]
    rotated = t.entries[j:] + t.entries[:j]
    return RTerrace(t.group, rotated, 0)


def transform(t: RTerrace, op: str, arg=None) -> RTerrace:
    """Apply a validity-preserving symmetry: reverse, negate, rotate, aut.

    reverse negates the difference multiset (a bijection on non-identity
    elements in odd order), negate and aut push a bijection through both
    entries and differences, rotate re-anchors the cycle.
    """
    g = t.group
    if op == "reverse":
        entries = tuple(reversed(t.entries))
    elif op == "negate":
        entries = tuple(g.neg(x) for x in t.entries)
    elif op == "rotate":
        j = int(arg) % len(t.entries)
        entries = t.entries[j:] + t.entries[:j]
    elif op == "aut":
        if not isinstance(arg, Automorphism):
            raise GroupFormatError("aut transform needs an Automorphism")
        entries = tuple(arg.apply(x) for x in t.entries)
    else:
        raise GroupFormatError(f"unknown transform {op!r}")
    res = check_r_terrace(g, entries)
    star = res.star_indices[0] if res.star_indices else None
    return RTerrace(g, entries, star)


# ---------------------------------------------------------------------------
# the product construction: extend a standard R*-terrace by an odd cyclic
# factor coprime to 3


def _fgm_streams(base: RTerrace, w: int):
    """First-coordinate stream and the slots of the second-coordinate rows.

    First coordinates: the base entries once, then k blocks repeating the
    base with a doubled head, then k more with the head zeroed.  Second
    coordinates: zeros under the base prefix, then 2k rows of w-values
    straddling the block boundaries by one position, then a final zero.
    """
    a = base.entries
    m = len(a) + 1
    k = (w - 1) // 2
    first: list[AbElem] = list(a)
    for _ in range(k):
        first += [a[0], a[0]] + list(a[1:])
    for _ in range(k):
        first += [base.group.identity, base.group.identity] + list(a[1:])
    return first, m, k


def _fgm_second(m: int, k: int, xs: Sequence[int], fs: Sequence[int]) -> list[int]:
    rows: list[int] = [0] * (m - 2)
    w = 2 * k + 1
    for sigma in range(1, 2 * k + 1):
        x = xs[sigma - 1] % w
        row = [x if j % 2 == 0 else (-x) % w for j in range(m - 1)]
        row.append(fs[sigma - 1] % w)
        rows += row
    rows.append(0)
    return rows


def _fgm_assemble(base: RTerrace, w: int, xs, fs) -> tuple[AbelianSpec, list[AbElem]]:
    first, m, k = _fgm_streams(base, w)
    second = _fgm_second(m, k, xs, fs)
    product = AbelianSpec(base.group.factors + (w,))
    return product, [u + (z,) for u, z in zip(first, second)]


def _fgm_second_stream_search(base: RTerrace, w: int) -> Optional[RTerrace]:
    """Backtrack over the free second-coordinate slots, checker-gated.

    With a base of order 3 the head entry a_1 and the entry a_{m-2}
    coincide, and no assignment of pair-shaped rows verifies (exhausted
    by sweep).  The first-coordinate streams and the zero prefix/suffix
    carry the construction, so keep those fixed and fill the remaining
    second coordinates by backtracking against entry and difference
    uniqueness directly.
    """
    first, m, k = _fgm_streams(base, w)
    product = AbelianSpec(base.group.factors + (w,))
    total = len(first)
    second = [0] * total  # slots m-2 .. total-2 are free
    free_lo, free_hi = m - 2, total - 1
    used_entries = set()
    used_diffs: set[AbElem] = set()

    def entry(i: int) -> AbElem:
        return first[i] + (second[i],)

    for i in range(free_lo):
        used_entries.add(entry(i))
        if i:
            used_diffs.add(product.sub(entry(i), entry(i - 1)))

    def place(i: int) -> bool:
        if i == free_hi:
            e = entry(i)  # fixed final (a_last, 0)
            if e in used_entries:
                return False
            d_in = product.sub(e, entry(i - 1))
            d_wrap = product.sub(entry(0), e)
            if (
                d_in == product.identity
                or d_wrap == product.identity
                or d_in in used_diffs
                or d_wrap in used_diffs
                or d_in == d_wrap
            ):
                return False
            # uniqueness of all entries and differences already makes
            # this an R-terrace; standardization still needs a star
            return any(
                entry(j) == product.add(entry(j - 1), entry((j + 1) % total))
                for j in range(total)
            )
        for z in range(w):
            second[i] = z
            e = entry(i)
            if e == product.identity or e in used_entries:
                continue
            d = product.sub(e, entry(i - 1))
            if d == product.identity or d in used_diffs:
                continue
            used_entries.add(e)
            used_diffs.add(d)
            if place(i + 1):
                return True
            used_entries.remove(e)
            used_diffs.remove(d)
        second[i] = 0
        return False

    if not place(free_lo):
        return None
    entries = [entry(i) for i in range(total)]
    res = check_r_terrace(product, entries)
    if res.is_r and res.star_indices:
        j = res.star_indices[0]  # standard form: rotate the first star to 0
        return RTerrace(product, tuple(entries[j:] + entries[:j]), 0)
    return None


def fgm_extend(base: RTerrace, w: int) -> RTerrace:
    """Standard R*-terrace of A x Z_w from a standard one of A (3 does not divide w)."""
    if w < 5 or w % 2 == 0 or w % 3 == 0:
        raise GroupFormatError(f"extension factor must be odd, >= 5, coprime to 3, got {w}")
    if base.group.order % 2 == 0:
        raise GroupFormatError("base group must have odd order")
    if not base.is_standard:
        raise GroupFormatError("base terrace must be standard (star at position 0)")
    k = (w - 1) // 2
    xs = [(-s) % w for s in range(1, 2 * k + 1)]
    fs = [(2 * s) % w for s in range(1, 2 * k + 1)]
    product, entries = _fgm_assemble(base, w, xs, fs)
    res = check_r_terrace(product, entries)
    if res.is_r and res.star_indices:
        j = res.star_indices[0]  # standard form: rotate the first star to 0
        return RTerrace(product, tuple(entries[j:] + entries[:j]), 0)
    # order-3 bases break the pair-shaped rows outright (exhausted by
    # sweep): fall back to filling the second coordinates by search
    if base.group.order == 3:
        repaired = _fgm_second_stream_search(base, w)
        if repaired is not None:
            return repaired
    raise ConstructionFailed(
        "fgm_extend",
        f"no valid row assignment for |A|={base.group.order}, w={w}",
    )


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
    constraints: Optional[dict] = None,
    seed: int = 0,
    max_nodes: int = 200_000,
    desk_limit: Optional[int] = None,
) -> RTerrace:
    """Randomized backtracking for a directed R-terrace under constraints.

    Supported constraint keys:
      first, last            -- pin those entries
      wrap_difference        -- require a_0 - a_last equal to this
      star                   -- True: require standard form (star at 0)
      independent_ends       -- True: <a_0> and <a_last> meet only in 0
      element_order_constraints -- list of (index, order); negative
                                   indices count from the end

    One randomized run with the given seed; raises NotFound once the
    node budget is spent, and the caller may retry with another seed.
    """
    cap = desk_cap(250, desk_limit)
    m = group.order
    if m > cap:
        raise ShapeMismatch(f"group order {m} exceeds search cap {cap}")
    if m % 2 == 0:
        raise GroupFormatError("R-terrace search needs odd group order")
    if m == 1:
        raise GroupFormatError("no non-identity elements to arrange")
    c = dict(constraints or {})
    n = m - 1
    rng = random.Random(seed)
    zero = group.identity

    first = tuple(c["first"]) if "first" in c else None
    last = tuple(c["last"]) if "last" in c else None
    wrap = tuple(c["wrap_difference"]) if "wrap_difference" in c else None
    want_star = bool(c.get("star", False))
    want_indep = bool(c.get("independent_ends", False))
    order_at: dict[int, int] = {}
    for idx, order in c.get("element_order_constraints", ()):
        order_at[idx % n] = order
    order_positions: dict[int, list[int]] = {}
    for idx, o in sorted(order_at.items()):
        order_positions.setdefault(o, []).append(idx)

    def admissible(pos: int, x: AbElem) -> bool:
        if x == zero:
            return False
        if pos == 0 and first is not None and x != first:
            return False
        if pos == n - 1 and last is not None and x != last:
            return False
        if pos in order_at and group.element_order(x) != order_at[pos]:
            return False
        return True

    elements = [e for e in group.elements() if e != zero]
    order_pool = {
        o: frozenset(x for x in elements if group.element_order(x) == o)
        for o in order_positions
    }
    entries: list[AbElem] = []
    used: set[AbElem] = set()
    used_diffs: set[AbElem] = set()
    nodes = 0

    def forced_last():
        """Resolve the closing constraints into the final entry early.

        Returns (known, value): value None under `known` means the
        constraints contradict each other on this branch.
        """
        cands = set()
        if last is not None:
            cands.add(last)
        if wrap is not None and entries:
            cands.add(group.sub(entries[0], wrap))
        if want_star and n > 2 and len(entries) >= 2:
            cands.add(group.sub(entries[0], entries[1]))
        if not cands:
            return False, None
        if len(cands) > 1:
            return True, None
        return True, next(iter(cands))

    def extend() -> bool:
        nonlocal nodes
        pos = len(entries)
        if pos == n:
            return True
        nodes += 1
        if nodes > max_nodes:
            raise NotFound(
                f"no R-terrace of order {m} found within {max_nodes} nodes (seed {seed})"
            )
        for o, idxs in order_positions.items():
            needed = len(idxs) - bisect.bisect_left(idxs, pos)
            if needed and sum(1 for x in order_pool[o] if x not in used) < needed:
                return False
        known, fl = forced_last()
        rw = None
        if known:
            # the final entry and the wrap difference are both spoken
            # for: reserve them while filling the middle
            if fl is None or fl in used or not admissible(n - 1, fl):
                return False
            if entries:
                rw = group.sub(entries[0], fl)
                if rw == zero:
                    return False
                if want_indep and not group.independent(entries[0], fl):
                    return False
        if pos == n - 1:
            if known:
                candidates = [fl]
            else:
                candidates = [x for x in elements if x not in used and admissible(pos, x)]
        else:
            candidates = [
                x
                for x in elements
                if x not in used and admissible(pos, x) and not (known and x == fl)
            ]
        rng.shuffle(candidates)
        for x in candidates:
            if pos > 0:
                d = group.sub(x, entries[-1])
                if d == zero or d in used_diffs:
                    continue
                if known and pos < n - 1 and d == rw:
                    continue
                if pos == n - 1:
                    wd = group.sub(entries[0], x)
                    if wd == zero or wd in used_diffs or wd == d:
                        continue
                    if wrap is not None and wd != wrap:
                        continue
                    second = entries[1] if n > 2 else x
                    if want_star and entries[0] != group.add(x, second):
                        continue
                    if want_indep and not group.independent(entries[0], x):
                        continue
            else:
                d = None
            entries.append(x)
            used.add(x)
            if d is not None:
                used_diffs.add(d)
            if extend():
                return True
            entries.pop()
            used.remove(x)
            if d is not None:
                used_diffs.remove(d)
        return False

    if extend():
        res = check_r_terrace(group, entries)
        assert res.is_r
        star = res.star_indices[0] if res.star_indices else None
        return RTerrace(group, tuple(entries), star)
    raise NotFound(f"search space exhausted for order {m} under {sorted(c)}")


def search_r_terrace_retry(
    group: AbelianSpec,
    constraints: Optional[dict] = None,
    seeds: Sequence[int] = range(8),
    max_nodes: int = 200_000,
    desk_limit: Optional[int] = None,
) -> RTerrace:
    """Run search_r_terrace over several seeds, returning the first hit."""
    err: Optional[NotFound] = None
    for s in seeds:
        try:
            return search_r_terrace(group, constraints, seed=s, max_nodes=max_nodes, desk_limit=desk_limit)
        except NotFound as e:
            err = e
    raise err if err is not None else NotFound("no seeds supplied")
