import pytest

from seqlatin.errors import GroupFormatError, NotCoprime
from seqlatin.groups import AbelianSpec, cyclic
from seqlatin.harmonious import (
    Harmonious,
    ascending_harmonious,
    bghj_base,
    bghj_product,
    hash_for,
    transform_hash,
)
from seqlatin.oracle import naive_harmonious, naive_hash_harmonious


def ints(entries):
    return tuple(e[0] for e in entries)


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
    assert ints(pair.hash.entries) == (4, 2, 8, 6, 5, 7, 1, 3)
    assert ints(pair.harm.entries) == (4, 5, 6, 7, 8, 0, 1, 2, 3)


def test_bghj_base_z7():
    pair = bghj_base(cyclic(7))
    assert ints(pair.hash.entries) == (3, 1, 5, 4, 6, 2)
    assert ints(pair.harm.entries) == (3, 4, 5, 6, 0, 1, 2)


def test_bghj_base_z3_squared():
    pair = bghj_base(AbelianSpec((3, 3)))
    assert naive_hash_harmonious(pair.hash.group, pair.hash.entries)
    assert naive_harmonious(pair.harm.group, pair.harm.entries)
    assert pair.hash.entries[0] == pair.harm.entries[0]
    assert pair.hash.entries[-1] == pair.harm.entries[-1]


def test_bghj_base_sweep():
    for r in range(5, 60, 2):
        pair = bghj_base(cyclic(r))
        assert naive_hash_harmonious(pair.hash.group, pair.hash.entries)
        assert naive_harmonious(pair.harm.group, pair.harm.entries)


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
    pairs += [bghj_product(p, ascending_harmonious(cyclic(w))) for p in pairs[:4] for w in (3, 5, 7)]
    for pair in pairs:
        assert pair.hash.group == pair.harm.group
        assert pair.hash.entries[0] == pair.harm.entries[0]
        assert pair.hash.entries[-1] == pair.harm.entries[-1]


def test_product_z5_z3():
    pair = bghj_product(bghj_base(cyclic(5)), ascending_harmonious(cyclic(3)))
    g = pair.hash.group
    assert g.factors == (5, 3)
    assert naive_hash_harmonious(g, pair.hash.entries)
    assert naive_harmonious(g, pair.harm.entries)
    assert pair.hash.entries[0] == pair.harm.entries[0]
    assert pair.hash.entries[-1] == pair.harm.entries[-1]


def test_product_z33_z3():
    pair = bghj_product(bghj_base(AbelianSpec((3, 3))), ascending_harmonious(cyclic(3)))
    assert pair.hash.group.factors == (3, 3, 3)
    assert naive_hash_harmonious(pair.hash.group, pair.hash.entries)


def test_product_trivial_factor_is_identity():
    pair = bghj_base(cyclic(7))
    out = bghj_product(pair, ascending_harmonious(AbelianSpec(())))
    assert out.hash.entries == pair.hash.entries
    assert out.harm.entries == pair.harm.entries


def test_product_rejects_nonidentity_start():
    d = ascending_harmonious(cyclic(3))
    shifted = Harmonious(d.group, d.entries[1:] + d.entries[:1])
    with pytest.raises(GroupFormatError):
        bghj_product(bghj_base(cyclic(5)), shifted)


def test_hash_for_direct_base_case():
    assert ints(hash_for(cyclic(9)).entries) == (4, 2, 8, 6, 5, 7, 1, 3)


def test_hash_for_products():
    for g in [
        cyclic(15),
        cyclic(21),
        AbelianSpec((5, 5)),
        AbelianSpec((3, 3, 3)),
        AbelianSpec((3, 3, 5)),
        AbelianSpec((5, 5, 3)),
    ]:
        h = hash_for(g)
        assert naive_hash_harmonious(g, h.entries)


def test_hash_for_rejects_z3_and_even():
    with pytest.raises(GroupFormatError):
        hash_for(cyclic(3))
    with pytest.raises(GroupFormatError):
        hash_for(cyclic(10))


def test_cyclic_base_has_one_and_minus_two_adjacent():
    for m in range(5, 100, 2):
        entries = ints(bghj_base(cyclic(m)).hash.entries)
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
    assert naive_hash_harmonious(h.group, out.entries)
    assert out.entries == tuple(((2 * v[0]) % 7,) for v in h.entries)


def test_transform_rotate_zero_is_identity():
    h = bghj_base(cyclic(9)).hash
    assert transform_hash(h, "rotate", 0).entries == h.entries


def test_transform_reverse():
    h = bghj_base(cyclic(9)).hash
    out = transform_hash(h, "reverse")
    assert out.entries == h.entries[::-1]
    assert naive_hash_harmonious(h.group, out.entries)


def test_transform_rejects_non_unit():
    h = bghj_base(cyclic(9)).hash
    with pytest.raises(NotCoprime):
        transform_hash(h, "scale", 3)
