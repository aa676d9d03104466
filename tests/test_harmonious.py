import hashlib

import pytest

from seqlatin.errors import GroupFormatError, NotCoprime
from seqlatin.groups import AbelianSpec, cyclic
from seqlatin.harmonious import bghj_base, bghj_product, hash_for, transform_hash
from seqlatin.oracle import naive_harmonious, naive_hash_harmonious


def elements(group, idx):
    """The elements at base indices idx, as the naive checkers take them."""
    return list(zip(*group.columns(idx)))


def is_hash(seq):
    return naive_hash_harmonious(seq.group, elements(seq.group, seq.entries))


def is_harm(seq):
    return naive_harmonious(seq.group, elements(seq.group, seq.entries))


def test_check_hash_z9_example():
    assert naive_hash_harmonious(cyclic(9), [(4,), (2,), (8,), (6,), (5,), (7,), (1,), (3,)])


def test_z3_is_not_hash_harmonious():
    assert not naive_hash_harmonious(cyclic(3), [(1,), (2,)])
    assert not naive_hash_harmonious(cyclic(3), [(2,), (1,)])


def test_check_harm_z3():
    assert naive_harmonious(cyclic(3), [(0,), (1,), (2,)])


def test_check_hash_rejects_wrong_shapes():
    assert not naive_hash_harmonious(cyclic(9), [(4,), (2,)])
    assert not naive_hash_harmonious(cyclic(9), [(4,), (4,), (8,), (6,), (5,), (7,), (1,), (3,)])


def test_bghj_base_z9():
    pair = bghj_base(cyclic(9))
    assert pair.hash.entries == (4, 2, 8, 6, 5, 7, 1, 3)
    assert pair.harm.entries == (4, 5, 6, 7, 8, 0, 1, 2, 3)


def test_bghj_base_z7():
    pair = bghj_base(cyclic(7))
    assert pair.hash.entries == (3, 1, 5, 4, 6, 2)
    assert pair.harm.entries == (3, 4, 5, 6, 0, 1, 2)


def test_bghj_base_z3_squared():
    pair = bghj_base(AbelianSpec((3, 3)))
    # the printed pair, (a, b) at 3a + b
    assert elements(pair.hash.group, pair.hash.entries) == [
        (1, 1), (2, 0), (2, 1), (0, 2), (2, 2), (1, 0), (1, 2), (0, 1)
    ]
    assert is_hash(pair.hash) and is_harm(pair.harm)
    assert pair.hash.entries[0] == pair.harm.entries[0]
    assert pair.hash.entries[-1] == pair.harm.entries[-1]


def test_bghj_base_sweep():
    for r in range(5, 60, 2):
        pair = bghj_base(cyclic(r))
        assert is_hash(pair.hash) and is_harm(pair.harm)


def test_bghj_base_rejects_even_and_z3():
    with pytest.raises(GroupFormatError):
        bghj_base(cyclic(3))
    with pytest.raises(GroupFormatError):
        bghj_base(cyclic(8))
    with pytest.raises(GroupFormatError):
        bghj_base(AbelianSpec((5, 5)))


def test_matched_pair_requires_shared_endpoints():
    # MatchedPair checks nothing: the constructions build pairs of one
    # group whose two sequences share their first and last entries
    pairs = [bghj_base(cyclic(r)) for r in range(5, 30, 2)] + [bghj_base(AbelianSpec((3, 3)))]
    pairs += [bghj_product(p, w) for p in pairs[:4] for w in (3, 5, 7)]
    for pair in pairs:
        assert pair.hash.group == pair.harm.group
        assert pair.hash.entries[0] == pair.harm.entries[0]
        assert pair.hash.entries[-1] == pair.harm.entries[-1]


def test_product_z5_z3():
    pair = bghj_product(bghj_base(cyclic(5)), 3)
    assert pair.hash.group.factors == (5, 3)
    assert is_hash(pair.hash) and is_harm(pair.harm)
    assert pair.hash.entries[0] == pair.harm.entries[0]
    assert pair.hash.entries[-1] == pair.harm.entries[-1]


def test_product_z33_z3():
    pair = bghj_product(bghj_base(AbelianSpec((3, 3))), 3)
    assert pair.hash.group.factors == (3, 3, 3)
    assert is_hash(pair.hash) and is_harm(pair.harm)


@pytest.mark.parametrize("w", [1, 2, 4])
def test_product_rejects_even_or_trivial_factor(w):
    # Z_w folds in through 0, 1, ..., w-1, which needs odd w >= 3
    with pytest.raises(GroupFormatError):
        bghj_product(bghj_base(cyclic(5)), w)


def test_hash_for_direct_base_case():
    assert hash_for(cyclic(9)).entries == (4, 2, 8, 6, 5, 7, 1, 3)


def test_hash_for_products():
    for g in [
        cyclic(15),
        cyclic(21),
        AbelianSpec((5, 5)),
        AbelianSpec((3, 3, 3)),
        AbelianSpec((3, 3, 5)),
        AbelianSpec((5, 5, 3)),
        AbelianSpec((3, 5)),
        AbelianSpec((3, 3, 7)),
        AbelianSpec((3, 9)),
    ]:
        assert is_hash(hash_for(g)), g.factors


# blake2b-128 of repr(tuple of hash_for(g)'s elements), recorded while
# hash_for still built element tuples; the groups with Z_3 factors ahead
# of the base factor are the ones whose base digit moves back into place
HASH_FOR_DIGESTS = {
    (3, 5): "a87eb8132b869c4323deb70b3371a293",
    (3, 3, 5): "bba1914733838f63c572c7bddd4a9d73",
    (3, 7, 5): "2e724538b87cdc2a524a9736bed27b63",
    (3, 5, 3): "c1453aa520c65271f8bdfe81ea53e557",
    (7, 3, 3): "edd3ac86bd71c1cd7fd1317339f818cf",
    (3, 3, 3, 3): "06f7cf5eeaee4876b7ff9c7b7d3c8b80",
    (9,): "47f67e3660ce0f7cd352edb97e062005",
    (3, 9): "b201815ddaeee7e21e54cfec20be52bd",
    (3, 3, 7, 11): "7c016b1480310cc54a368ba823c83b31",
}


@pytest.mark.parametrize("factors", list(HASH_FOR_DIGESTS), ids=lambda f: "x".join(map(str, f)))
def test_hash_for_pin(factors):
    g = AbelianSpec(factors)
    decoded = tuple(elements(g, hash_for(g).entries))
    digest = hashlib.blake2b(repr(decoded).encode(), digest_size=16).hexdigest()
    assert digest == HASH_FOR_DIGESTS[factors]


def test_hash_for_rejects_z3_and_even():
    with pytest.raises(GroupFormatError):
        hash_for(cyclic(3))
    with pytest.raises(GroupFormatError):
        hash_for(cyclic(10))


def test_cyclic_base_has_one_and_minus_two_adjacent():
    for m in range(5, 100, 2):
        entries = bghj_base(cyclic(m)).hash.entries
        n = len(entries)
        spots = [
            i
            for i in range(n)
            if {entries[i], entries[(i + 1) % n]} == {1, m - 2}
        ]
        assert spots, m
        # never split across the wrap in the printed form
        assert all(i != n - 1 for i in spots), m


def test_transform_scale():
    h = bghj_base(cyclic(7)).hash
    out = transform_hash(h, "scale", 2)
    assert is_hash(out)
    assert out.entries == tuple(2 * v % 7 for v in h.entries)


def test_transform_scale_is_digitwise():
    g = AbelianSpec((3, 3, 5))
    h = hash_for(g)
    out = transform_hash(h, "scale", 7)
    assert is_hash(out)
    assert elements(g, out.entries) == [
        (7 * a % 3, 7 * b % 3, 7 * c % 5) for a, b, c in elements(g, h.entries)
    ]


def test_transform_rotate_zero_is_identity():
    h = bghj_base(cyclic(9)).hash
    assert transform_hash(h, "rotate", 0).entries == h.entries


def test_transform_reverse():
    h = bghj_base(cyclic(9)).hash
    out = transform_hash(h, "reverse")
    assert out.entries == h.entries[::-1]
    assert is_hash(out)


def test_transform_rejects_non_unit():
    h = bghj_base(cyclic(9)).hash
    with pytest.raises(NotCoprime):
        transform_hash(h, "scale", 3)
