"""The integer encoding each group class owns, and the squares built on it.

The kernel is checked cell by cell against group.mul.  The golden
digests pin every square to the bytes the per-shape grid code produced
before the kernel replaced it.
"""

import gc
import hashlib
import random
import weakref
from collections import OrderedDict

import pytest

from seqlatin import latin
from seqlatin.groups import (
    AbelianSpec,
    Automorphism,
    MatrixBlock,
    ScalarBlock,
    SdSpec,
    TableGroup,
    cyclic,
    group_from_descriptor,
    group_to_descriptor,
)
from seqlatin.latin import completeness_report, terrace_to_complete_square, walecki_terrace
from seqlatin.oracle import d8_table, exhaustive_sequencings, q8_table, s3_table
from seqlatin.pipelines import build_nondiag_aut, sequence_non3, sequence_order, sequence_theorem3


def as_table(group):
    elems = list(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    return TableGroup([[index[group.mul(a, b)] for b in elems] for a in elems]), index


def nondiag(p, extra=()):
    mat = build_nondiag_aut(p, 2, 3).alpha.blocks[0]
    return SdSpec(
        3,
        AbelianSpec((p, p) + tuple(m for m, _ in extra)),
        Automorphism((mat,) + tuple(ScalarBlock(m, r) for m, r in extra)),
    )


KERNEL_GROUPS = {
    "trivial": AbelianSpec(()),
    "Z12": cyclic(12),
    "Z2xZ3xZ4": AbelianSpec((2, 3, 4)),
    "Z3xZ3xZ5": AbelianSpec((3, 3, 5)),
    "Z3|Z7": SdSpec(3, cyclic(7), Automorphism((ScalarBlock(7, 2),))),
    "Z6|Z7": SdSpec(6, cyclic(7), Automorphism((ScalarBlock(7, 2),))),
    "Z3|Z7xZ13": SdSpec(
        3, AbelianSpec((7, 13)), Automorphism((ScalarBlock(7, 2), ScalarBlock(13, 3)))
    ),
    "Z3|Z7xZ2xZ7": SdSpec(
        3,
        AbelianSpec((7, 2, 7)),
        Automorphism((ScalarBlock(7, 4), ScalarBlock(2, 1), ScalarBlock(7, 2))),
    ),
    "Z3|Z5^2": nondiag(5),
    "Z3|Z5^2xZ7": nondiag(5, [(7, 2)]),
    # a scalar block ahead of a matrix block, and a width-3 matrix block
    "Z3|Z7xZ5^2": SdSpec(
        3,
        AbelianSpec((7, 5, 5)),
        Automorphism((ScalarBlock(7, 2), build_nondiag_aut(5, 2, 3).alpha.blocks[0])),
    ),
    "Z13|Z3^3": SdSpec(13, AbelianSpec((3, 3, 3)), build_nondiag_aut(3, 3, 13).alpha),
    "Z3|Z2^2": SdSpec(3, AbelianSpec((2, 2)), Automorphism((MatrixBlock(2, ((0, 1), (1, 1))),))),
    "S3": s3_table(),
    "D8": d8_table(),
    "Q8": q8_table(),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_kernel_rows_match_multiplication(name):
    group = KERNEL_GROUPS[name]
    elems = list(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    assert group.indices(elems) == list(range(len(elems)))
    rows = range(len(elems))
    if len(elems) > 200:
        rows = sorted(random.Random(name).sample(rows, 40))
    for g in rows:
        want = [index[group.mul(elems[g], h)] for h in elems]
        assert group.row(g) == want, (name, g)


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_batch_quotients_match_quot(name):
    group = KERNEL_GROUPS[name]
    rng = random.Random(name)
    for length in (0, 1, 2, 50):
        idx = [rng.randrange(group.order) for _ in range(length)]
        assert group.quots(idx) == [group.quot(i, j) for i, j in zip(idx, idx[1:])], length
        assert group.quots(tuple(idx)) == group.quots(idx)


@pytest.mark.parametrize("name", [k for k, g in KERNEL_GROUPS.items() if isinstance(g, SdSpec)])
def test_twist_table_applies_alpha_powers(name):
    group = KERNEL_GROUPS[name]
    base = group.base
    elems = list(base.elements())
    for e in (0, 1, group.s - 1, group.s + 1):
        want = base.indices(group.alpha.apply_power(e % group.s, v) for v in elems)
        assert group.twist(e) == want, e


def test_one_encoder_per_group(monkeypatch):
    """A group object keeps every table it builds, outside its fields, and
    an equal SdSpec rebuilt from its descriptor still hits the square cache."""
    monkeypatch.setattr(latin, "_squares", OrderedDict())
    monkeypatch.setattr(latin, "_held", 0)
    sd = SdSpec(3, cyclic(7), Automorphism((ScalarBlock(7, 2),)))
    assert sd.twist(1) is sd.twist(1) and sd._runs is sd._runs
    z = AbelianSpec((4, 6))
    assert z.subgroups is z.subgroups and z._runs is z._runs
    assert repr(sd) == repr(SdSpec(3, cyclic(7), Automorphism((ScalarBlock(7, 2),))))
    assert z == AbelianSpec((4, 6)) and hash(z) == hash(AbelianSpec((4, 6)))
    cert = sequence_order(21)
    square = terrace_to_complete_square(cert.group, cert.terrace)
    rebuilt = group_from_descriptor(group_to_descriptor(cert.group))
    assert rebuilt is not cert.group and rebuilt == cert.group
    assert terrace_to_complete_square(rebuilt, cert.terrace) is square


def test_encoder_memo_stays_within_its_size():
    """No module-level memo keeps an encoding: each group object holds its
    own tables, so they are freed with it however many groups are built."""
    table, _ = as_table(cyclic(6))
    sd = SdSpec(3, cyclic(7), Automorphism((ScalarBlock(7, 2),)))
    groups = [cyclic(n) for n in range(2, 80)] + [sd, table]
    refs = []
    for group in groups:
        group.row(1)
        group.quots([0, 1, 0])
        if isinstance(group, AbelianSpec):
            assert len(group.subgroups) == group.order
        refs.append(weakref.ref(group))
    sd.twist(1)
    del group, groups, sd, table
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def digest(grid):
    return hashlib.blake2b(repr(grid).encode(), digest_size=16).hexdigest()


# Digests recorded from the per-shape grid code (cyclic scalar action,
# one-factor abelian, generic group.mul) that the encoding replaced.
CATALOGUE = {
    "order:63": (lambda: sequence_order(63), "a58fd388c42026ec7b5570876db199d3"),
    "order:100": (lambda: sequence_order(100), "77a7f2a6dbb3287cdd9f8fcf73fbc035"),
    "order:507": (lambda: sequence_order(507), "036d362048452a2a31ce5d5d549e077d"),
    "order:129": (lambda: sequence_order(129), "19580ce792ad1778a25c61a918c6d07f"),
    "order:171": (lambda: sequence_order(171), "52f7dd1d2e7308827f46724415df8537"),
    "order:200": (lambda: sequence_order(200), "711f888e4e6bd233774359801f3faead"),
    "order:256": (lambda: sequence_order(256), "0d0a300277835d44152d4bdd032d9f76"),
    "order:301": (lambda: sequence_order(301), "ef752b8628cd35803a09f05e6b3e6bd0"),
    "order:399": (lambda: sequence_order(399), "b0f2dd453932a2ed3dc939b95e948761"),
    "order:400": (lambda: sequence_order(400), "721b23e5fd359a627f16d4947b552542"),
    "order:512": (lambda: sequence_order(512), "3639bfd1fc175cb06efe20b456efa339"),
    "non3:5,3,[]": (
        lambda: sequence_non3(5, 2, 3, AbelianSpec(())),
        "8683642717e973943eda129784b9f080",
    ),
    "theorem3:5,3": (lambda: sequence_theorem3(5, 3), "663aa90eb93801cfed13fda6f1b32b03"),
    "non3:11,3,[]": (
        lambda: sequence_non3(11, 2, 3, AbelianSpec(())),
        "5e69d6b2028d9c5f7a7c7fdc416f469c",
    ),
    "non3:5,3,[7]": (
        lambda: sequence_non3(5, 2, 3, AbelianSpec((7,))),
        "4f581e8878cdc5896d53e5d77dc178b7",
    ),
}


@pytest.mark.parametrize("key", list(CATALOGUE))
def test_catalogue_squares_golden(key):
    build, want = CATALOGUE[key]
    cert = build()
    square = terrace_to_complete_square(cert.group, cert.terrace)
    assert square.n == cert.group.order
    assert digest(square.grid) == want


def test_walecki_squares_golden():
    grids = tuple(
        terrace_to_complete_square(cyclic(n), [(x,) for x in walecki_terrace(n)]).grid
        for n in range(2, 65, 2)
    )
    assert digest(grids) == "8e88e2dc91b58ceae21ff6602acaee3f"


def test_table_group_squares_golden():
    # S3, D8 and Q8 have no sequencing, so the table groups squared here
    # are D10, Z10 and Z3 acting on Z7 written as Cayley tables
    d10, _ = as_table(SdSpec(2, cyclic(5), Automorphism((ScalarBlock(5, 4),))))
    z10, _ = as_table(cyclic(10))
    for group, want in (
        (d10, "27f5d1761bac1ff9bbcc64de69f5a575"),
        (z10, "89ae1c50022bd5706b71ec9a762a05b1"),
    ):
        terrace = exhaustive_sequencings(group, limit=1).terraces[0]
        square = terrace_to_complete_square(group, terrace)
        assert completeness_report(square).is_complete
        assert digest(square.grid) == want
    cert = sequence_order(21)
    t21, index = as_table(cert.group)
    square = terrace_to_complete_square(t21, [index[e] for e in cert.terrace])
    assert digest(square.grid) == "cddb0a3f742fe865ea96d9cacf008c87"
    assert square.grid == terrace_to_complete_square(cert.group, cert.terrace).grid


def test_trivial_group_square():
    square = terrace_to_complete_square(AbelianSpec(()), [()])
    assert square.grid == ((0,),)
