"""Harmonious and #-harmonious sequences of odd-order abelian groups.

A harmonious sequence lists every group element once so that the cyclic
consecutive sums c_i + c_{i+1} are again a permutation of the group.  The
#-harmonious variant drops the identity from both the entries and the
sums.  The BGHJ base constructions cover odd cyclic groups and Z_3 x Z_3,
and the product construction folds a matched pair for C with a harmonious
sequence for D into a matched pair for C x D; together they produce a
#-harmonious sequence for every odd-order abelian group except Z_3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ConstructionFailed, GroupFormatError, NotCoprime
from .groups import AbElem, AbelianSpec


@dataclass(frozen=True)
class HashHarmonious:
    group: AbelianSpec
    entries: tuple[AbElem, ...]


@dataclass(frozen=True)
class Harmonious:
    group: AbelianSpec
    entries: tuple[AbElem, ...]


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


# the printed order-9 pair for Z_3 x Z_3
_Z33_HASH = ((1, 1), (2, 0), (2, 1), (0, 2), (2, 2), (1, 0), (1, 2), (0, 1))
_Z33_HARM = ((1, 1), (2, 1), (0, 2), (1, 2), (2, 2), (0, 0), (1, 0), (2, 0), (0, 1))


def bghj_base(group: AbelianSpec) -> MatchedPair:
    """The BGHJ matched pair for an odd cyclic group of order >= 5 or Z_3 x Z_3."""
    if group.factors == (3, 3):
        hsh, harm = list(_Z33_HASH), list(_Z33_HARM)
    elif len(group.factors) == 1 and group.order % 2 == 1 and group.order >= 5:
        ih, im = _cyclic_base_ints(group.order)
        hsh = [(v,) for v in ih]
        harm = [(v,) for v in im]
    else:
        raise GroupFormatError(
            f"base construction needs odd cyclic order >= 5 or Z_3 x Z_3, got {group.factors}"
        )
    return MatchedPair(HashHarmonious(group, tuple(hsh)), Harmonious(group, tuple(harm)))


def ascending_harmonious(group: AbelianSpec) -> Harmonious:
    """0, 1, ..., n-1 for odd cyclic groups; starts at the identity."""
    if len(group.factors) > 1 or group.order % 2 == 0:
        raise GroupFormatError("ascending form needs an odd cyclic group")
    if group.factors == ():
        entries: tuple[AbElem, ...] = ((),)
    else:
        entries = tuple((v,) for v in range(group.order))
    return Harmonious(group, entries)


def bghj_product(cd: MatchedPair, d: Harmonious) -> MatchedPair:
    """Fold a matched pair for C with a harmonious sequence for D into one for C x D.

    d must start at the identity of D; both orders must be odd.  The two
    block concatenations are re-indexed by the lexicographically least
    rotation pair that restores the shared-endpoint property.
    """
    cgroup = cd.hash.group
    dgroup = d.group
    if cgroup.order % 2 == 0 or dgroup.order % 2 == 0:
        raise GroupFormatError("product construction needs odd orders")
    if d.entries[0] != dgroup.identity:
        raise GroupFormatError("harmonious factor must start at the identity")
    product = AbelianSpec(cgroup.factors + dgroup.factors)
    chash = cd.hash.entries
    charm = cd.harm.entries
    dzero = dgroup.identity
    hsh = [c + dzero for c in chash]
    for dj in d.entries[1:]:
        hsh.extend(c + dj for c in charm)
    harm = [c + dj for dj in d.entries for c in charm]
    # harm lists each element once, so hsh[i] fixes the one j to try
    at = {e: j for j, e in enumerate(harm)}
    for i, e in enumerate(hsh):
        j = at.get(e, 0)
        if harm[j] == e and hsh[i - 1] == harm[j - 1]:
            break
    else:
        raise ConstructionFailed("bghj_product", "no rotation restores the matched endpoints")
    hsh = hsh[i:] + hsh[:i]
    harm = harm[j:] + harm[:j]
    return MatchedPair(
        HashHarmonious(product, tuple(hsh)), Harmonious(product, tuple(harm))
    )


def _decompose(group: AbelianSpec) -> tuple[list[int], list[int]]:
    """Indices of the factors forming the base block, then the rest in order."""
    factors = group.factors
    for i, f in enumerate(factors):
        if f > 3:
            chosen = [i]
            break
    else:
        chosen = [0, 1]  # hash_for's odd order >= 5 makes every factor 3, at least two
    rest = [i for i in range(len(factors)) if i not in chosen]
    return chosen, rest


def hash_for(group: AbelianSpec) -> HashHarmonious:
    """A #-harmonious sequence for any odd-order abelian group except Z_3."""
    m = group.order
    if m % 2 == 0 or m < 5:
        raise GroupFormatError(f"need odd order >= 5, got {m}")
    chosen, rest = _decompose(group)
    factors = group.factors
    base_group = AbelianSpec(tuple(factors[i] for i in chosen))
    pair = bghj_base(base_group)
    for i in rest:
        dgroup = AbelianSpec((factors[i],))
        pair = bghj_product(pair, ascending_harmonious(dgroup))
    # fold order placed the base block first; restore the original coordinates
    built_order = chosen + rest
    slot_of = {orig: pos for pos, orig in enumerate(built_order)}
    entries = tuple(
        tuple(e[slot_of[i]] for i in range(len(factors))) for e in pair.hash.entries
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
        entries = [group.scale(u, e) for e in entries]
    elif op == "rotate":
        j = int(arg) % len(entries)
        entries = entries[j:] + entries[:j]
    elif op == "reverse":
        entries = entries[::-1]
    else:
        raise GroupFormatError(f"unknown transform {op!r}")
    return HashHarmonious(group, tuple(entries))
