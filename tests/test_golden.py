"""Golden digests of every order 1..5000 and of sampled CLI output.

Each order's result is written in a canonical form (a certificate as
sorted compact JSON of to_json(), anything else as its repr, each
followed by a newline) and hashed with blake2b-128, one digest per block
of 250 orders.  The CLI digests cover exit code and stdout of classify,
sequence --order and verify of that sequence output, and of latin --order
as JSON and as CSV.  The digests were
recorded before the pipelines dropped their internal re-checks, so a
refactor that changes a single byte of any result fails here.
"""

import hashlib
import json

import pytest

from seqlatin.cli import main
from seqlatin.pipelines import SequencingCertificate, sequence_order

BLOCK = 250

ORDER_DIGESTS = [
    "081deb8140f0f65b5b33cee22ab3a8a4",  # 1..250
    "9788e748685f5b885b421453ad4d2516",  # 251..500
    "f21ea9f7b11803650e10cdb3106a16f6",  # 501..750
    "07de0d5a139c8e689b4c27a31a6456ad",  # 751..1000
    "88c5e4aa0aa2eef6b7993a883f7e970a",  # 1001..1250
    "ff00d42d5f6bb88726c62eafc2c81e7e",  # 1251..1500
    "f4162b9dd0c35a1810164ed349b730cb",  # 1501..1750
    "3fc3cac4cd5240ba8c232898f68e5d4c",  # 1751..2000
    "66b8da7bca53ef07c1e0967fb9335e7a",  # 2001..2250
    "6d6f4445ff50b5f306ff2ebe93e1fac7",  # 2251..2500
    "bdfc209abd145638b5bf08458095239b",  # 2501..2750
    "027440f892d298f9d772eb6e7531a6aa",  # 2751..3000
    "626a6d4ca84278550cbaf2589861f5d4",  # 3001..3250
    "82227663c0a7bc60629c726a3d91a597",  # 3251..3500
    "24299720d665e4827a0993b6f46ac5e3",  # 3501..3750
    "ead1175ef73cf332254423bfa9a2b725",  # 3751..4000
    "81ef84618cbf0ebfd3f21bc5d82704c2",  # 4001..4250
    "f44d0c49bee869a9bc3bb06e41ace430",  # 4251..4500
    "031ad8968b5c113edadf2fed1dc2bcff",  # 4501..4750
    "dbe57fdbde7bdc89b130bdabcf87ce4a",  # 4751..5000
]

CLI_DIGESTS = {
    1: "d03ba3dcca1f8bd1d4ca5ed16fbed061",
    2: "bdf1e759fbd23eac720d43f9135fb865",
    9: "8a2a6c6664b95a4dad67757722c48fa0",
    21: "23eb8137f76a539d80662dd110341fb0",
    75: "aaea859fa24c812bf97888bbea4b23c5",
    225: "33ee8f9c92d46661775600707b5d7773",
    507: "b8fb336e989e6991cea3ed0342b1d912",
    1024: "700a9fa66219d25864d4fae4bd22a9d6",
}


def canonical(result) -> str:
    if isinstance(result, SequencingCertificate):
        text = json.dumps(result.to_json(), sort_keys=True, separators=(",", ":"))
    else:
        text = repr(result)
    return text + "\n"


def order_block_digest(block: int) -> str:
    h = hashlib.blake2b(digest_size=16)
    for n in range(block * BLOCK + 1, (block + 1) * BLOCK + 1):
        h.update(canonical(sequence_order(n)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("block", range(20))
def test_order_corpus(block):
    assert order_block_digest(block) == ORDER_DIGESTS[block]


def cli_digest(order: int, tmp_path, capsys) -> str:
    h = hashlib.blake2b(digest_size=16)
    cert_path = tmp_path / "cert.json"
    for argv in (
        ["classify", str(order)],
        ["sequence", "--order", str(order)],
        ["verify", str(cert_path)],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        if argv[0] == "sequence":
            cert_path.write_text(out)
        h.update(f"{argv[0]} {code}\n{out}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("order", sorted(CLI_DIGESTS))
def test_cli_corpus(order, tmp_path, capsys):
    assert cli_digest(order, tmp_path, capsys) == CLI_DIGESTS[order]


# exit code and stdout of latin --order n, as JSON and as CSV: trivial,
# negative, cyclic, non3, even and theorem-3 orders
LATIN_DIGESTS = {
    1: "d3e6fea0d4b6be36f615d87b474c3702",
    9: "435c8a16b22b2d1f7e98a35519a967aa",
    21: "f469228608fd5d78e0135caf2510c1bd",
    75: "e9e90e1c0bc55e4501dbcd08583dd398",
    100: "bae3589797825c69693f002760b364c3",
    225: "d6b253f911473a220859f5d8e26082f8",
}


def latin_digest(order: int, capsys) -> str:
    h = hashlib.blake2b(digest_size=16)
    for fmt in ([], ["--format", "csv"]):
        code = main(["latin", "--order", str(order), *fmt])
        out = capsys.readouterr().out
        h.update(f"latin {' '.join(fmt)} {code}\n{out}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("order", sorted(LATIN_DIGESTS))
def test_latin_cli_corpus(order, capsys):
    assert latin_digest(order, capsys) == LATIN_DIGESTS[order]
