"""Graceful permutations of {1..k} and their lift to R-terraces of Z_{2k+1}.

A permutation g_1..g_k is graceful when the absolute consecutive
differences |g_{i+1} - g_i| are pairwise distinct, hence exactly
{1..k-1}.  Appending g_k + k, g_{k-1} + k, ..., g_1 + k yields a
directed R-terrace of Z_{2k+1} whose wrap difference is k+1.
"""

from __future__ import annotations

from typing import Sequence

from .desk import desk_cap
from .errors import DeskScaleExceeded, NotFound
from .groups import cyclic
from .rotational import RTerrace


def is_graceful(values: Sequence[int]) -> bool:
    k = len(values)
    if k == 0 or set(values) != set(range(1, k + 1)):
        return False
    diffs = {abs(values[i + 1] - values[i]) for i in range(k - 1)}
    return len(diffs) == k - 1


def walecki_graceful(k: int) -> tuple[int, ...]:
    """The zig-zag permutation (1, k, 2, k-1, ...).

    k is capped at the pipeline order cap: the pipelines ask for k below
    the order, so only a direct caller can reach it.
    """
    cap = desk_cap(5000)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > cap:
        raise DeskScaleExceeded(f"k = {k} exceeds zig-zag cap {cap}")
    out = []
    lo, hi = 1, k
    while lo <= hi:
        out.append(lo)
        if hi != lo:
            out.append(hi)
        lo, hi = lo + 1, hi - 1
    return tuple(out)


def graceful_with_first(k: int, x: int) -> tuple[int, ...]:
    """A graceful permutation starting at x, by pruned backtracking.

    Large differences are the scarce resource: candidates are tried in
    order of decreasing jump from the tail, and a branch is cut as soon
    as some unused difference has no realizable pair among the remaining
    values (bitset check).  On the worked examples this reproduces
    (2,3,1) for k=3 and (1,5,2,4,3) for k=5.  Existence for every
    1 <= x <= k is a known fact; the search asserts it at desk scale.
    """
    cap = desk_cap(40)
    if k > cap:
        raise DeskScaleExceeded(f"k={k} exceeds graceful search cap {cap}")
    if not 1 <= x <= k:
        raise ValueError(f"first element {x} outside 1..{k}")
    used_diffs = [True] * k  # flipped off below; index 0 unused sentinel
    for d in range(1, k):
        used_diffs[d] = False
    out = [x]
    remaining = ((1 << (k + 1)) - 2) & ~(1 << x)  # bits 1..k minus x

    def feasible(mask: int) -> bool:
        # every unused difference needs an adjacent-able pair in mask
        for d in range(1, k):
            if not used_diffs[d] and mask & (mask >> d) == 0:
                return False
        return True

    def children():
        prev = out[-1]
        cands = [
            v
            for v in range(1, k + 1)
            if remaining >> v & 1 and not used_diffs[abs(v - prev)]
        ]
        cands.sort(key=lambda v: (-abs(v - prev), -v))
        return iter(cands)

    # one candidate iterator per open node; an infeasible placement
    # opens a node without candidates, so one place takes values back
    stack = [children()]
    while len(out) < k:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            if not stack:
                raise NotFound(f"no graceful permutation of {{1..{k}}} starting at {x}")
            v = out.pop()
            used_diffs[abs(v - out[-1])] = False
            remaining |= 1 << v
            continue
        used_diffs[abs(v - out[-1])] = True
        out.append(v)
        remaining &= ~(1 << v)
        stack.append(children() if feasible(remaining | (1 << v)) else iter(()))
    return tuple(out)


def graceful_to_r_terrace(g: Sequence[int]) -> RTerrace:
    """Lift g_1..g_k to the R-terrace (g_1..g_k, g_k+k, ..., g_1+k) of Z_{2k+1}.

    The lift of a graceful permutation is an R-terrace by theorem, so it
    is not re-checked and carries no star index.
    """
    if not is_graceful(g):
        raise ValueError(f"{tuple(g)} is not a graceful permutation")
    k = len(g)
    entries = [(v % (2 * k + 1),) for v in g]
    entries += [((g[i] + k) % (2 * k + 1),) for i in range(k - 1, -1, -1)]
    return RTerrace(cyclic(2 * k + 1), tuple(entries))
