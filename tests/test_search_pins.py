"""Digests of the searched bases and of the graceful permutation search.

The bases are the ones behind the searching pipelines: the R*-terrace of
Z_5^2 with independent ends that `sequence_non3(5, 2, q, seed=s)` starts
from (seeds s..s+7), and the theorem-3 nine certificates of p=5, whose
provenance carries the searched R*-terrace of Z_45 with elements of
order 5 at positions 0, 1 and -1.  The graceful digests cover
`graceful_with_first(k, x)` for every 1 <= x <= k <= 40.  Each value is
written as its repr (a certificate as sorted compact JSON of to_json())
and hashed with blake2b-128; the digests were recorded before the
searches became loops, so a change to one shuffle draw, candidate order
or node count fails here.
"""

import hashlib
import json

import pytest

from seqlatin.graceful import graceful_with_first
from seqlatin.pipelines import _pk_base, sequence_theorem3

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


@pytest.mark.parametrize("block", range(4))
def test_graceful_with_first(block):
    text = "".join(
        f"{graceful_with_first(k, x)!r}\n"
        for k in range(10 * block + 1, 10 * block + 11)
        for x in range(1, k + 1)
    )
    assert digest(text) == GRACEFUL_DIGESTS[block]
