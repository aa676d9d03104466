"""Digests of the searched bases and of the graceful permutation search.

The bases are the ones behind the searching pipelines: the R*-terrace of
Z_5^2 with independent ends that `sequence_non3(5, 2, q, seed=s)` starts
from (seeds s..s+7), and the theorem-3 nine certificates of p=5, whose
provenance carries the searched R*-terrace of Z_45 with elements of
order 5 at positions 0, 1 and -1.  The graceful digests cover
`graceful_with_first(k, x)` for every 1 <= x <= k <= 40.  The product
digests cover `fgm_extend(base, w)` for the odd widths 5..29 coprime to
3 over nine bases: the searched Z_5^2 base, the Walecki lifts of Z_15,
Z_21, Z_33 and Z_39 rotated to their star as `sequence_theorem3` does,
and each lift extended by 5.  Each value is
written as its repr (a certificate as sorted compact JSON of to_json())
and hashed with blake2b-128; the search digests were recorded before the
searches became loops, so a change to one shuffle draw, candidate order
or node count fails here, and the product digests before fgm_extend
lost its stream helpers.  The mixed-radix digests cover
`search_r_terrace` on Z_3 x Z_5 and Z_5 x Z_3 with a star (seeds 0-3,
and Z_3 x Z_5 with independent ends too), the line digests the
`_pk_base(p, 1, s)` path that searches Z_p itself, for p = 13 and 23,
and one budget-hit NotFound its message; these were recorded before the
search moved onto element indices.
"""

import hashlib
import json

import pytest

from seqlatin.errors import NotFound
from seqlatin.graceful import graceful_to_r_terrace, graceful_with_first, walecki_graceful
from seqlatin.pipelines import _pk_base, sequence_theorem3
from seqlatin.groups import AbelianSpec, cyclic
from seqlatin.rotational import RTerrace, fgm_extend, search_r_terrace

SQUARE_BASE_DIGESTS = [
    "dbd1324399c546d071d4da355fa3d28c",  # seed 0
    "1a2a19d6862d126a06a9678e939fd121",  # seed 1
    "8bd49e58b10366def5d2d544a91162a0",  # seed 2
    "a2d32e3c8670db4c2f6095a2d834cfe0",  # seed 3
    "ce7972b102f5a244352756ec17a53aae",  # seed 4
    "4dcec70b5b8af72e51ba1ecc8fdb80e8",  # seed 5
    "e98617eceecc7ec6a713e4c6477a1817",  # seed 6
    "9b499d91d0145b3541e429f2c2cf66b9",  # seed 7
    "e6d63103e057bee6fe1a7c0c9d903c40",  # seed 8
    "f3dff5b2bd448e6bdafc2868e55e32c6",  # seed 9
    "11d5a6ad46f855602b95a95f95e9afde",  # seed 10
    "988cd95e9dbd71e89e96943a39e9081e",  # seed 11
    "e52cf74d1fa769c4b58cd08b8bf778e3",  # seed 12
    "7888e1ddcfb38dd7a7ad7addbfd822e4",  # seed 13
    "39c1b4f11340f6ed1ddb5a3241641fbd",  # seed 14
    "b990663cfa043e336218c154103fa2ff",  # seed 15
]

NINE_DIGESTS = [
    "3850e1479c09cb0076ec95963147be86",  # seed 0
    "02a272310472a1031d94c9c29b547c46",  # seed 1
    "d70b78aeb58903ba661f84e2b042053c",  # seed 2
    "a60f7ad608927465403a3c00a7de8ad4",  # seed 3
]

GRACEFUL_DIGESTS = [
    "bbc58156b6dc8a2fa7106535f888fcfb",  # k 1..10
    "7f8c452c52a7453d7c72a74ea5327ed1",  # k 11..20
    "01c3701d0454934dccb925f65a2bd421",  # k 21..30
    "af76a1108d5acca33da17b8b97c68f78",  # k 31..40
]

MIXED_DIGESTS = {
    (3, 5): [
        "2ea13ae27d21b38308f8218000e40c61",  # seed 0
        "9fded99249277643146d8f4526a48012",  # seed 1
        "40559e7fc71116ae98d1282e92376c6f",  # seed 2
        "0b63b2744df18e7c77e9ea0b48c96da6",  # seed 3
    ],
    (5, 3): [
        "6682e5e8bc5deb8bcfb9efa22783892e",  # seed 0
        "537df97fd855f9708feb3e5798fa7014",  # seed 1
        "7caf89f9066832e6411c29b214115c8f",  # seed 2
        "9001226bc1b8fb094671306511521a02",  # seed 3
    ],
}

MIXED_INDEPENDENT_DIGESTS = [
    "2025a018c79cd21215cab0d42b1a5db0",  # seed 0
    "37c3fa6ed9021fae4ad9071dde6c938a",  # seed 1
    "9fa8cea19297ff5522e6bd3199cb1099",  # seed 2
    "1f6e8b2930310a408b16de6acff153f3",  # seed 3
]

LINE_DIGESTS = {
    13: [
        "819c91a5703426aa6611c4a42425822d",  # seed 0
        "dd927c89548844418a0d74f786fb1310",  # seed 1
        "a3eebd5ba42d8db6ce62a6e8748276e6",  # seed 2
        "84677a7bc5addd0a44d590dcdaf2141c",  # seed 3
    ],
    23: [
        "66fb94d351b643908f841911ed110e9d",  # seed 0
        "eb73a7d2dea96d3fbb6bcb687c3deea4",  # seed 1
        "d9844aa127bab35ac2d76f94c350069e",  # seed 2
        "8545d70ed7405f5c1ba2cf716ab0b6ad",  # seed 3
    ],
}

BUDGET_MESSAGE_DIGEST = "25bb07563340d8e93c8eff8333da7dcf"

FGM_WIDTHS = (5, 7, 11, 13, 17, 19, 23, 25, 29)

FGM_DIGESTS = {
    "z5sq": "ea968570c8359895fe5edb205b3ef42a",
    "lift15": "38c083cca924442d16745c704e699185",
    "lift21": "5d1c28c0c242943ca28cd7077f976de2",
    "lift33": "c60d63dbbb2bb2988cc6fdabadc38047",
    "lift39": "e2cf0ee9e9dc9f84a83150e2983810c8",
    "lift15x5": "45bfb06cc121432e751148d7dbaf9076",
    "lift21x5": "af3475da329092e0ec4f1b2ce585d39c",
    "lift33x5": "762636938483330cf70dad0e500e6c57",
    "lift39x5": "57be8ef6e09f201357aa8e2bd8c89aaa",
}


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("seed", range(16))
def test_z5_square_base(seed):
    assert digest(repr(_pk_base(5, 2, seed))) == SQUARE_BASE_DIGESTS[seed]


@pytest.mark.parametrize("seed", range(4))
def test_theorem3_nine_p5(seed):
    cert = sequence_theorem3(5, 3, nine=True, seed=seed)
    text = json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
    assert digest(text) == NINE_DIGESTS[seed]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("factors", MIXED_DIGESTS)
def test_mixed_radix_star(factors, seed):
    t = search_r_terrace(AbelianSpec(factors), star=True, seed=seed)
    assert digest(repr(t)) == MIXED_DIGESTS[factors][seed]


@pytest.mark.parametrize("seed", range(4))
def test_mixed_radix_star_independent(seed):
    t = search_r_terrace(AbelianSpec((3, 5)), star=True, independent_ends=True, seed=seed)
    assert digest(repr(t)) == MIXED_INDEPENDENT_DIGESTS[seed]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p", LINE_DIGESTS)
def test_line_base(p, seed):
    assert digest(repr(_pk_base(p, 1, seed))) == LINE_DIGESTS[p][seed]


def test_budget_message():
    with pytest.raises(NotFound) as err:
        search_r_terrace(cyclic(45), star=True, max_nodes=3)
    assert digest(repr(str(err.value))) == BUDGET_MESSAGE_DIGEST


@pytest.mark.parametrize("block", range(4))
def test_graceful_with_first(block):
    text = "".join(
        f"{graceful_with_first(k, x)!r}\n"
        for k in range(10 * block + 1, 10 * block + 11)
        for x in range(1, k + 1)
    )
    assert digest(text) == GRACEFUL_DIGESTS[block]


def _lift(p: int) -> RTerrace:
    """The Walecki lift of Z_3p rotated to its star, as sequence_theorem3 does."""
    lift = graceful_to_r_terrace(walecki_graceful((3 * p - 1) // 2))
    j = 2 * p - 1
    return RTerrace(lift.group, lift.entries[j:] + lift.entries[:j], 0)


def _fgm_base(name: str) -> RTerrace:
    if name == "z5sq":
        return _pk_base(5, 2, 0)[0]
    p = int(name[4:6]) // 3
    return fgm_extend(_lift(p), 5) if name.endswith("x5") else _lift(p)


@pytest.mark.parametrize("name", FGM_DIGESTS)
def test_fgm_extend(name):
    base = _fgm_base(name)
    text = "".join(
        f"{(t.group, t.entries, t.star_index)!r}\n"
        for t in (fgm_extend(base, w) for w in FGM_WIDTHS)
    )
    assert digest(text) == FGM_DIGESTS[name]
