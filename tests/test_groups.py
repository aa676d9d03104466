"""Group arithmetic: abelian specs, automorphisms, semidirect products, tables."""

import itertools

import pytest

from seqlatin.errors import (
    DeskScaleExceeded,
    GroupFormatError,
    NotIndependent,
    OrderMismatch,
    ShapeMismatch,
)
from seqlatin.groups import (
    AbelianSpec,
    Automorphism,
    MatrixBlock,
    ScalarBlock,
    SdSpec,
    TableGroup,
    automorphism_from_descriptor,
    automorphism_to_descriptor,
    cyclic,
    extend_to_basis,
    group_from_descriptor,
    group_to_descriptor,
    mat_inv,
    mat_mul,
    mat_pow,
)
from seqlatin.oracle import d8_table, q8_table, s3_table


# ---------------------------------------------------------------------------
# abelian arithmetic


def test_cyclic_add():
    z7 = cyclic(7)
    assert z7.add((3,), (5,)) == (1,)


def test_product_add():
    g = AbelianSpec((3, 5))
    assert g.add((2, 4), (2, 2)) == (1, 1)


def test_neg():
    assert cyclic(9).neg((4,)) == (5,)


def test_sub_is_add_neg():
    g = AbelianSpec((3, 5))
    for a in g.elements():
        for b in g.elements():
            assert g.sub(a, b) == g.add(a, g.neg(b))


def test_trivial_group():
    g = AbelianSpec(())
    assert g.order == 1
    assert g.identity == ()
    assert list(g.elements()) == [()]
    assert g.add((), ()) == ()


def test_enumeration_order():
    # rightmost coordinate moves fastest
    g = AbelianSpec((2, 3))
    assert list(g.elements()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert g.indices(g.elements()) == list(range(g.order))
    for i, x in enumerate(g.elements()):
        assert g.decode(i) == x


def test_element_order():
    g = AbelianSpec((3, 5))
    assert g.element_order((0, 0)) == 1
    assert g.element_order((1, 0)) == 3
    assert g.element_order((0, 2)) == 5
    assert g.element_order((1, 1)) == 15
    assert cyclic(15).element_order((3,)) == 5


def test_independent():
    """Cyclic subgroups meet only in 0 when their masks share bit 0 alone."""

    def independent(g, a, b):
        i, j = g.indices([a, b])
        return g.subgroups[i] & g.subgroups[j] == 1

    z15 = cyclic(15)
    assert independent(z15, (3,), (5,))
    assert not independent(z15, (3,), (6,))
    g = AbelianSpec((5, 5))
    assert independent(g, (1, 0), (0, 1))
    assert independent(g, (1, 2), (1, 3))
    assert not independent(g, (1, 0), (2, 0))
    # a mask is the subgroup's index set, so its bit count is the order
    for g in (z15, g, AbelianSpec((3, 5)), AbelianSpec((9, 3))):
        elems = list(g.elements())
        for e, mask in zip(elems, g.subgroups):
            multiples = {tuple(k * x % m for x, m in zip(e, g.factors)) for k in range(g.order)}
            assert mask == sum(1 << i for i in g.indices(multiples))
            assert mask.bit_count() == g.element_order(e)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        cyclic(7).add((1, 2), (3,))
    with pytest.raises(GroupFormatError):
        AbelianSpec((1, 5))


# ---------------------------------------------------------------------------
# matrix helpers


def test_mat_inv():
    m = ((0, 4), (1, 4))
    mi = mat_inv(m, 5)
    assert mat_mul(m, mi, 5) == ((1, 0), (0, 1))


def test_mat_inv_singular():
    with pytest.raises(ShapeMismatch):
        mat_inv(((1, 2), (2, 4)), 5)


def test_extend_to_basis_columns():
    m = extend_to_basis([(2, 0), (0, 2)], 2, 5)
    # columns are the given vectors
    assert (m[0][0], m[1][0]) == (2, 0)
    assert (m[0][1], m[1][1]) == (0, 2)


def test_extend_to_basis_completes():
    m = extend_to_basis([(1, 1, 0)], 3, 3)
    mat_inv(m, 3)  # a basis means invertible


def test_extend_to_basis_dependent():
    with pytest.raises(NotIndependent):
        extend_to_basis([(1, 2), (2, 4)], 2, 5)


# ---------------------------------------------------------------------------
# automorphisms


def test_scalar_apply():
    alpha = Automorphism((ScalarBlock(7, 2),))
    assert alpha.apply_power(2, (3,)) == (5,)
    assert alpha.apply_power(0, (3,)) == (3,)


def test_scalar_order():
    block = ScalarBlock(7, 2)
    assert [e for e in range(1, 7) if block.is_identity_power(e)] == [3, 6]


def test_matrix_apply():
    alpha = Automorphism((MatrixBlock(5, ((0, 4), (1, 4))),))
    assert alpha.apply((1, 0)) == (0, 1)
    block = alpha.blocks[0]
    assert [e for e in range(1, 7) if block.is_identity_power(e)] == [3, 6]


def test_negative_power_inverts():
    alpha = Automorphism((MatrixBlock(5, ((0, 4), (1, 4))),))
    for v in AbelianSpec((5, 5)).elements():
        assert alpha.apply_power(-1, alpha.apply(v)) == v


def test_identity_automorphism():
    spec = AbelianSpec((3, 5))
    alpha = Automorphism((ScalarBlock(3, 1), ScalarBlock(5, 1)))
    assert all(b.is_identity_power(1) for b in alpha.blocks)
    assert all(alpha.apply(v) == v for v in spec.elements())


def test_automorphism_additive_and_bijective():
    """alpha(x+y) = alpha(x)+alpha(y) and alpha permutes the group."""
    spec = AbelianSpec((5, 5, 7))
    alpha = Automorphism((MatrixBlock(5, ((0, 4), (1, 4))), ScalarBlock(7, 2)))
    assert alpha.matches(spec)
    els = list(spec.elements())
    images = {alpha.apply(v) for v in els}
    assert len(images) == len(els)
    for x, y in itertools.islice(itertools.product(els, els), 0, None, 7):
        assert alpha.apply(spec.add(x, y)) == spec.add(alpha.apply(x), alpha.apply(y))


def test_matches_rejects_wrong_moduli():
    alpha = Automorphism((ScalarBlock(7, 2),))
    assert not alpha.matches(AbelianSpec((5,)))
    assert alpha.matches(AbelianSpec((7,)))


def test_scalar_must_be_unit():
    with pytest.raises(GroupFormatError):
        ScalarBlock(9, 3)


def test_matrix_must_be_invertible():
    with pytest.raises(GroupFormatError):
        MatrixBlock(5, ((1, 2), (2, 4)))


def test_matrix_block_bounds_width_and_modulus():
    shift = lambda w: tuple(tuple(int(j == (i + 1) % w) for j in range(w)) for i in range(w))
    assert MatrixBlock(3, shift(8)).width == 8
    with pytest.raises(GroupFormatError, match="width 9 exceeds 8"):
        MatrixBlock(3, shift(9))
    with pytest.raises(GroupFormatError, match="not a prime"):
        MatrixBlock(4, ((0, 1), (1, 1)))
    with pytest.raises(DeskScaleExceeded):
        MatrixBlock(10**13 + 37, ((0, 1), (1, 1)))


def test_matrix_identity_power_reduces_by_the_linear_group_order():
    # |GL(2, 5)| = 480; the Fibonacci matrix has order 20 mod 5
    fib = MatrixBlock(5, ((0, 1), (1, 1)))
    orders = [e for e in range(1, 481) if mat_pow(fib.mat, e, 5) == ((1, 0), (0, 1))]
    assert orders[0] == 20
    for e in (0, 1, 20, 40, 479, 480, 481, 480 * 10**50 + 20, 10**400 + 1):
        assert fib.is_identity_power(e) == (e % 20 == 0), e


# ---------------------------------------------------------------------------
# semidirect products


def z3_z7():
    return SdSpec(3, cyclic(7), Automorphism((ScalarBlock(7, 2),)))


def test_sd_mul():
    g = z3_z7()
    assert g.mul((1, (3,)), (1, (5,))) == (2, (4,))


def test_sd_identity():
    g = z3_z7()
    for x in g.elements():
        assert g.mul(g.identity, x) == x
        assert g.mul(x, g.identity) == x


def test_sd_inv():
    g = z3_z7()
    assert g.inv((1, (3,))) == (2, (2,))
    assert g.inv((0, (4,))) == (0, (3,))
    assert g.inv((1, (0,))) == (2, (0,))
    for x in g.elements():
        assert g.mul(x, g.inv(x)) == g.identity
        assert g.mul(g.inv(x), x) == g.identity


def test_sd_quot():
    # the encoded quotient the gate reads, against the product and inverse
    g = z3_z7()
    els = list(g.elements())
    for i, x in enumerate(els):
        assert [g.decode(g.quot(i, j)) for j in range(len(els))] == [
            g.mul(g.inv(x), y) for y in els
        ]


def test_sd_associative_exhaustive():
    g = z3_z7()
    els = list(g.elements())
    for a in els:
        for b in els:
            ab = g.mul(a, b)
            for c in els:
                assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_sd_associative_matrix_action():
    # matrix automorphism on an elementary abelian base
    g = SdSpec(3, AbelianSpec((5, 5)), Automorphism((MatrixBlock(5, ((0, 4), (1, 4))),)))
    assert g.order == 75
    els = list(g.elements())
    import random

    rng = random.Random(0)
    for _ in range(10000):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_sd_enumeration():
    g = SdSpec(3, cyclic(3), Automorphism((ScalarBlock(3, 1),)))
    els = list(g.elements())
    assert len(els) == 9
    assert els[0] == (0, (0,))


def test_sd_rejects_bad_alpha_order():
    with pytest.raises(OrderMismatch):
        SdSpec(5, cyclic(7), Automorphism((ScalarBlock(7, 2),)))


def test_sd_alpha_check_does_not_step_powers():
    big = 1000000007
    with pytest.raises(OrderMismatch):
        SdSpec(2, cyclic(big), Automorphism((ScalarBlock(big, 5),)))
    fib = MatrixBlock(1000003, ((0, 1), (1, 1)))
    with pytest.raises(OrderMismatch):
        SdSpec(3, AbelianSpec((1000003, 1000003)), Automorphism((fib,)))
    assert SdSpec(6, cyclic(7), Automorphism((ScalarBlock(7, 2),))).order == 42


# ---------------------------------------------------------------------------
# table groups


def table_from_abelian(spec):
    els = list(spec.elements())
    return TableGroup([spec.indices(spec.add(a, b) for b in els) for a in els])


def test_table_round_trip_z6():
    g = table_from_abelian(cyclic(6))
    assert g.order == 6
    assert g.identity == 0
    assert list(g.elements()) == [0, 1, 2, 3, 4, 5]
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.mul(g.inv(2), 1) == 5


def test_table_klein():
    rows = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = TableGroup(rows)
    assert all(g.inv(i) == i for i in range(4))


@pytest.mark.parametrize("a, b", [(-1, 0), (0, -2), (6, 0), (0, 6), (True, 0), (1.0, 0), ("1", 0)])
def test_table_ops_refuse_non_elements(a, b):
    # a negative index would otherwise read a row from the end
    g = s3_table()
    with pytest.raises(GroupFormatError):
        g.mul(a, b)
    with pytest.raises(GroupFormatError):
        g.inv(a if a != 0 else b)


def test_table_rejects_non_latin():
    with pytest.raises(GroupFormatError):
        TableGroup([[0, 1], [0, 1]])


def test_table_rejects_no_identity():
    with pytest.raises(GroupFormatError):
        TableGroup([[1, 0, 2], [2, 1, 0], [0, 2, 1]])


def test_table_rejects_non_associative():
    # a Latin square with two-sided identity 0 that is not a group table
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 1, 0],
        [3, 4, 0, 2, 1],
        [4, 2, 1, 0, 3],
    ]
    with pytest.raises(GroupFormatError):
        TableGroup(rows)


def cyclic_rows(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def test_table_validates_large_and_small_groups():
    assert TableGroup(cyclic_rows(512)).order == 512
    assert TableGroup([[a ^ b for b in range(512)] for a in range(512)]).order == 512
    for table in (s3_table(), d8_table(), q8_table()):
        rows = group_to_descriptor(table)["table"]["mul"]
        assert group_to_descriptor(TableGroup(rows)) == group_to_descriptor(table)


def test_table_rejects_swapped_intercalate_above_512():
    # swapping the intercalate on rows and columns {1, 1 + n/2} keeps the
    # table Latin with identity 0, but no longer a group
    n, h = 520, 260
    rows = cyclic_rows(n)
    for a in (1, 1 + h):
        rows[a][1], rows[a][1 + h] = rows[a][1 + h], rows[a][1]
    with pytest.raises(GroupFormatError):
        TableGroup(rows)


def test_table_rejects_loop_needing_too_many_generators():
    # a Latin loop of order 12 whose greedy generating set reaches
    # 0..3, then 0..7, then needs a fourth generator; a group of order 12
    # never needs more than three
    rows = [
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        [1, 0, 3, 2, 5, 9, 7, 11, 6, 10, 8, 4],
        [2, 3, 0, 1, 7, 10, 11, 9, 5, 8, 4, 6],
        [3, 2, 1, 0, 6, 7, 5, 10, 9, 4, 11, 8],
        [4, 5, 6, 11, 3, 1, 0, 8, 10, 7, 9, 2],
        [5, 7, 4, 10, 1, 11, 8, 6, 3, 0, 2, 9],
        [6, 4, 7, 8, 0, 2, 9, 3, 11, 1, 5, 10],
        [7, 6, 5, 9, 2, 8, 10, 4, 0, 11, 1, 3],
        [8, 9, 11, 5, 10, 6, 3, 1, 4, 2, 0, 7],
        [9, 8, 10, 4, 11, 3, 2, 0, 7, 5, 6, 1],
        [10, 11, 9, 6, 8, 0, 4, 2, 1, 3, 7, 5],
        [11, 10, 8, 7, 9, 4, 1, 5, 2, 6, 3, 0],
    ]
    with pytest.raises(GroupFormatError, match="generators"):
        TableGroup(rows)


# ---------------------------------------------------------------------------
# descriptors


def test_abelian_descriptor_round_trip():
    g = AbelianSpec((3, 5))
    d = group_to_descriptor(g)
    assert d == {"abelian": [3, 5]}
    assert group_from_descriptor(d) == g


def test_semidirect_descriptor_round_trip():
    g = z3_z7()
    d = group_to_descriptor(g)
    assert d["semidirect"]["s"] == 3
    assert d["semidirect"]["base"] == [7]
    g2 = group_from_descriptor(d)
    assert g2.order == 21
    assert g2.mul((1, (3,)), (1, (5,))) == (2, (4,))


def test_matrix_alpha_descriptor_round_trip():
    alpha = Automorphism((MatrixBlock(5, ((0, 4), (1, 4))), ScalarBlock(7, 2)))
    d = automorphism_to_descriptor(alpha)
    alpha2 = automorphism_from_descriptor(d)
    assert alpha2 == alpha


def test_table_descriptor_round_trip():
    g = table_from_abelian(cyclic(4))
    d = group_to_descriptor(g)
    assert d["table"]["n"] == 4
    assert d["table"]["id"] == 0
    g2 = group_from_descriptor(d)
    assert group_to_descriptor(g2) == d


def test_descriptor_rejects_junk():
    with pytest.raises(GroupFormatError):
        group_from_descriptor({"wat": 1})
    with pytest.raises(GroupFormatError):
        group_from_descriptor([1, 2, 3])
    with pytest.raises(GroupFormatError):
        group_from_descriptor({"abelian": [3], "table": {"n": 1}})


def unit_mod_7(unit):
    return {"blocks": [{"kind": "scalar", "modulus": 7, "unit": unit}]}


@pytest.mark.parametrize(
    "desc",
    [
        {"abelian": [7.9]},
        {"abelian": ["7"]},
        {"semidirect": {"s": 2.0, "base": [7], "alpha": unit_mod_7(6)}},
        {"semidirect": {"s": 2, "base": [7], "alpha": unit_mod_7(True)}},
        {"table": {"mul": [[True, False], [False, True]]}},
        {"table": {"mul": [[0, 1], [1, 0]], "n": "2"}},
    ],
)
def test_descriptor_accepts_only_json_integers(desc):
    with pytest.raises(GroupFormatError):
        group_from_descriptor(desc)
