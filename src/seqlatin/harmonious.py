"""Harmonious and #-harmonious sequences of odd-order abelian groups.

A harmonious sequence lists every group element once so that the cyclic
consecutive sums c_i + c_{i+1} are again a permutation of the group.  The
#-harmonious variant drops the identity from both the entries and the
sums.  The BGHJ base constructions cover odd cyclic groups and Z_3 x Z_3,
and the product construction folds a matched pair for C with the ascending
harmonious sequence 0, 1, ..., w-1 of Z_w into a matched pair for C x Z_w;
together they produce a #-harmonious sequence for every odd-order abelian
group except Z_3.

Entries are base indices of their group, its mixed-radix values: a Z_m
element is its own index, (a, b) of Z_3 x Z_3 is 3a + b, and folding in
Z_w puts (c, d) at c*w + d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import ConstructionFailed, GroupFormatError, NotCoprime
from .groups import AbelianSpec


@dataclass(frozen=True)
class HashHarmonious:
    group: AbelianSpec
    entries: tuple[int, ...]


@dataclass(frozen=True)
class Harmonious:
    group: AbelianSpec
    entries: tuple[int, ...]


@dataclass(frozen=True)
class MatchedPair:
    """A #-harmonious and a harmonious sequence of one group with the same
    first and last entries; bghj_base and bghj_product build them so."""

    hash: HashHarmonious
    harm: Harmonious


def _cyclic_base_ints(r: int) -> tuple[list[int], list[int]]:
    if r % 4 == 1:
        ell = r // 4
        hsh = (
            list(range(2 * ell, 0, -2))
            + list(range(4 * ell, 2 * ell, -2))
            + list(range(2 * ell + 1, 4 * ell, 2))
            + list(range(1, 2 * ell, 2))
        )
        harm = list(range(2 * ell, 4 * ell + 1)) + list(range(0, 2 * ell))
    else:
        ell = r // 4
        hsh = (
            list(range(2 * ell + 1, 0, -2))
            + list(range(4 * ell + 1, 2 * ell + 1, -2))
            + list(range(2 * ell + 2, 4 * ell + 3, 2))
            + list(range(2, 2 * ell + 1, 2))
        )
        harm = list(range(2 * ell + 1, 4 * ell + 3)) + list(range(0, 2 * ell + 1))
    return hsh, harm


# the printed order-9 pair for Z_3 x Z_3, (a, b) at 3a + b
_Z33_HASH = (4, 6, 7, 2, 8, 3, 5, 1)
_Z33_HARM = (4, 7, 2, 5, 8, 0, 3, 6, 1)


def bghj_base(group: AbelianSpec) -> MatchedPair:
    """The BGHJ matched pair for an odd cyclic group of order >= 5 or Z_3 x Z_3."""
    if group.factors == (3, 3):
        hsh, harm = _Z33_HASH, _Z33_HARM
    elif len(group.factors) == 1 and group.order % 2 == 1 and group.order >= 5:
        hsh, harm = map(tuple, _cyclic_base_ints(group.order))
    else:
        raise GroupFormatError(
            f"base construction needs odd cyclic order >= 5 or Z_3 x Z_3, got {group.factors}"
        )
    return MatchedPair(HashHarmonious(group, hsh), Harmonious(group, harm))


def bghj_product(cd: MatchedPair, w: int) -> MatchedPair:
    """Fold a matched pair for C with 0, 1, ..., w-1 of Z_w into one for C x Z_w.

    w must be odd and at least 3.  The two block concatenations are
    re-indexed by the first rotation pair that restores the
    shared-endpoint property.
    """
    if w % 2 == 0 or w < 3:
        raise GroupFormatError(f"product construction needs an odd factor >= 3, got {w}")
    charm = [c * w for c in cd.harm.entries]
    hsh = [c * w for c in cd.hash.entries]
    for d in range(1, w):
        hsh += [c + d for c in charm]
    harm = [c + d for d in range(w) for c in charm]
    # harm lists each element once, so hsh[i] fixes the one j to try
    at = {e: j for j, e in enumerate(harm)}
    for i, e in enumerate(hsh):
        j = at[e]
        if hsh[i - 1] == harm[j - 1]:
            break
    else:
        raise ConstructionFailed("bghj_product", "no rotation restores the matched endpoints")
    product = AbelianSpec(cd.hash.group.factors + (w,))
    return MatchedPair(
        HashHarmonious(product, tuple(hsh[i:] + hsh[:i])),
        Harmonious(product, tuple(harm[j:] + harm[:j])),
    )


def hash_for(group: AbelianSpec) -> HashHarmonious:
    """A #-harmonious sequence for any odd-order abelian group except Z_3.

    The base block is the first factor above 3, or Z_3 x Z_3 when every
    factor is 3; the other factors fold in one at a time, in order.
    """
    m = group.order
    if m % 2 == 0 or m < 5:
        raise GroupFormatError(f"need odd order >= 5, got {m}")
    factors = group.factors
    b = next((i for i, f in enumerate(factors) if f > 3), 0)
    width = 1 if factors[b] > 3 else 2
    pair = bghj_base(AbelianSpec(factors[b : b + width]))
    for w in factors[:b] + factors[b + width :]:
        pair = bghj_product(pair, w)
    entries = pair.hash.entries
    if b:
        # the fold put the base digit ahead of the b leading 3s; move it back
        f, low = factors[b], prod(factors[b + 1 :])
        span = m // f
        entries = tuple(
            (r // low * f + d) * low + r % low for d, r in (divmod(e, span) for e in entries)
        )
    return HashHarmonious(group, entries)


def transform_hash(h: HashHarmonious, op: str, arg=None) -> HashHarmonious:
    """Apply scale(unit), rotate(j), or reverse; each keeps the sum property."""
    group = h.group
    entries = list(h.entries)
    if op == "scale":
        u = int(arg)
        if gcd(u, group.exponent) != 1:
            raise NotCoprime(f"{u} is not a unit for exponent {group.exponent}")
        digits, entries = group.columns(entries), [0] * len(entries)
        for col, f in zip(digits, group.factors):
            entries = [i * f + u * x % f for i, x in zip(entries, col)]
    elif op == "rotate":
        j = int(arg) % len(entries)
        entries = entries[j:] + entries[:j]
    elif op == "reverse":
        entries = entries[::-1]
    else:
        raise GroupFormatError(f"unknown transform {op!r}")
    return HashHarmonious(group, tuple(entries))
