"""Certificates from the cyclic, product, and spectrum pipelines."""

import hashlib
import json
import random
from itertools import product
from math import gcd

import pytest
import sympy

import seqlatin.pipelines as pipelines
from seqlatin.errors import (
    ConstructionFailed,
    Diagonalisable,
    DeskScaleExceeded,
    NoSuchUnit,
    NotIndependent,
)
from seqlatin.graceful import graceful_to_r_terrace, walecki_graceful
from seqlatin.groups import AbelianSpec, cyclic
from seqlatin.harmonious import bghj_base
from seqlatin.latin import (
    completeness_report,
    is_directed_terrace,
    terrace_to_complete_square,
)
from seqlatin.numtheory import classify_order
from seqlatin.pipelines import (
    NoGroupBasedCLS,
    SequencingCertificate,
    TrivialOrder,
    build_nondiag_aut,
    pair_transport,
    sequence_cyclic,
    sequence_non3,
    sequence_order,
    sequence_theorem3,
)


def _assert_certificate(cert, order):
    assert isinstance(cert, SequencingCertificate)
    assert cert.group.order == order
    assert len(cert.terrace) == order
    ok, quots = is_directed_terrace(cert.group, cert.indices)
    assert cert.group.indices(cert.terrace) == list(cert.indices)
    assert ok
    assert tuple(quots) == cert.quotients
    pairs = zip(cert.terrace, cert.terrace[1:])
    assert cert.sequencing == tuple(cert.group.mul(cert.group.inv(a), b) for a, b in pairs)
    json.dumps(cert.to_json())  # provenance must stay serializable


def test_cyclic_named_pairs():
    for q, m in ((3, 7), (3, 9), (3, 13), (5, 11), (7, 29)):
        cert = sequence_cyclic(q, m)
        _assert_certificate(cert, q * m)
        rep = completeness_report(terrace_to_complete_square(cert.group, cert.terrace))
        assert rep.is_complete


def test_cyclic_routes():
    # the principal endpoint allocations go dead exactly when every unit
    # of order q is 1 mod each prime-power component they depend on
    assert sequence_cyclic(3, 7).provenance["route"] == "principal"
    for m in (9, 45, 81):
        cert = sequence_cyclic(3, m)
        assert cert.provenance["route"] == "extended"
        _assert_certificate(cert, 3 * m)


def test_cyclic_provenance_fields():
    cert = sequence_cyclic(5, 11)
    p = cert.provenance
    assert p["pipeline"] == "cyclic" and p["q"] == 5 and p["m"] == 11
    assert pow(p["r"], 5, 11) == 1 and p["r"] != 1
    assert sorted(p["graceful"]) == list(range(1, 6))
    assert len(p["r_terrace"]) == 10 and len(p["hash"]) == 10
    assert p["a1"] == p["r_terrace"][0]
    assert p["alast"] == p["r_terrace"][-1]


def test_cyclic_deterministic():
    a = sequence_cyclic(3, 13)
    b = sequence_cyclic(3, 13)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_cyclic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sequence_cyclic(4, 7)
    with pytest.raises(ValueError):
        sequence_cyclic(3, 8)
    with pytest.raises(NoSuchUnit):
        sequence_cyclic(3, 5)  # no unit of order 3 mod 5


def _scan_placement(values, m, first, last):
    """The placement as a plain scan: _unit_sending at every position,
    forward then reversed.  The reference the ratio test must match."""
    for rev in (False, True):
        seq = values[::-1] if rev else values
        for j in range(len(seq)):
            u = pipelines._unit_sending(seq[j], seq[j - 1], first, last, m)
            if u is not None:
                return u, j, rev
    return None


def _cyclic_lists(m):
    hash_vals = list(bghj_base(cyclic(m)).hash.entries)
    gperm = walecki_graceful((m - 1) // 2)
    return hash_vals, list(graceful_to_r_terrace(gperm).entries)


@pytest.mark.parametrize("m", [7, 9, 13, 25, 45, 49, 63, 81, 91, 315])
def test_cyclic_placement_matches_scan(m):
    if m <= 45:
        ends = list(product(range(m), repeat=2))
    else:
        rng = random.Random(m)
        ends = [(rng.randrange(m), rng.randrange(m)) for _ in range(60)]
    # both kinds of first and of last, whatever the sample drew
    assert {gcd(x, m) == 1 for x, _ in ends} == {gcd(y, m) == 1 for _, y in ends} == {True, False}
    for values in _cyclic_lists(m):
        table = pipelines._end_pairs(values)
        for first, last in ends:
            got = pipelines._cyclic_placement(table, m, first, last)
            assert got == _scan_placement(values, m, first, last), (first, last)


def test_cyclic_placement_calls_unit_sending_at_hits(monkeypatch):
    # a unit first is placed by the end ratio, with _unit_sending only at
    # the hit; the plain scan called it 1719 and 703 times on these
    calls = []
    unit_sending = pipelines._unit_sending
    monkeypatch.setattr(
        pipelines, "_unit_sending", lambda *a: calls.append(a) or unit_sending(*a)
    )
    assert sequence_cyclic(3, 1663).provenance["route"] == "principal"
    assert len(calls) <= 8
    calls.clear()
    assert sequence_cyclic(3, 81).provenance["route"] == "extended"
    assert len(calls) <= 300


# blake2b-128 of the sorted compact to_json() of sequence_cyclic(q, m),
# one line each, for the pairs with q <= 13, m < 401 and q*m <= 5000 that
# classify_order never picks as a witness (so the golden corpus misses
# them); recorded with the plain placement scan
UNPICKED_CYCLIC = [
    (5, 93), (5, 183), (5, 231), (5, 279), (5, 297),
    (7, 87), (7, 129), (7, 147), (7, 213), (7, 261), (7, 339), (7, 355), (7, 381), (7, 387),
    (11, 115), (11, 201), (11, 335), (11, 345), (13, 159), (13, 237),
]  # fmt: skip
UNPICKED_CYCLIC_DIGEST = "a7cfb07cae08146946e14ef2aa85fc60"


def test_unpicked_cyclic_pairs_pin():
    h = hashlib.blake2b(digest_size=16)
    for q, m in UNPICKED_CYCLIC:
        w = classify_order(q * m).witness
        assert (w.pipeline, w.q, w.m) != ("cyclic", q, m)
        doc = sequence_cyclic(q, m).to_json()
        h.update((json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode())
    assert h.hexdigest() == UNPICKED_CYCLIC_DIGEST


def test_nondiag_aut_example():
    na = build_nondiag_aut(5, 2, 3)
    assert na.companion == ((0, 4), (1, 4))
    assert na.alpha.blocks[0].mat == ((0, 4), (1, 4))
    assert na.d == 2
    block = na.alpha.blocks[0]
    assert block.is_identity_power(3) and not block.is_identity_power(1)


def test_nondiag_aut_power_relation():
    # alpha^(lam-1) must be the companion block itself
    na = build_nondiag_aut(3, 6, 7)
    assert na.d == 6
    cols = [
        na.alpha.apply_power(2, tuple(1 if i == j else 0 for i in range(6)))
        for j in range(6)
    ]
    assert tuple(tuple(col[i] for col in cols) for i in range(6)) == na.companion


def test_nondiag_aut_errors():
    with pytest.raises(Diagonalisable):
        build_nondiag_aut(7, 2, 3)  # 7 = 1 mod 3
    with pytest.raises(ValueError):
        build_nondiag_aut(5, 1, 3)  # needs k >= 2
    with pytest.raises(ValueError):
        build_nondiag_aut(4, 2, 3)


def _grid_pairs(least_p):
    """(p, q, d) with primes least_p <= p < 60, 3 <= q < 40, d = ord_q(p) >= 2, p^d <= 20000."""
    out = []
    for p in sympy.primerange(least_p, 60):
        for q in sympy.primerange(3, 40):
            d = sympy.n_order(p, q) if p != q else 0
            if d >= 2 and p**d <= 20000:
                out.append((p, q, d))
    return out


def _sympy_least_factor(p, q, d):
    x = sympy.symbols("x")
    _, facs = sympy.Poly([1] * q, x, modulus=p).factor_list()
    return sorted(
        [int(c) % p for c in f.all_coeffs()] for f, _ in facs if f.degree() == d
    )[0]


def test_least_factor_matches_sympy():
    """The long-division search finds sympy's least factor on the whole grid."""
    pairs = _grid_pairs(2)
    assert len(pairs) == 37
    for p, q, d in pairs:
        assert list(pipelines._least_factor(p, q, d)) == _sympy_least_factor(p, q, d), (p, q)


def test_nondiag_aut_companion_matches_sympy():
    pairs = _grid_pairs(3)
    assert len(pairs) == 29
    for p, q, d in pairs:
        coeffs = _sympy_least_factor(p, q, d)
        lows = coeffs[:0:-1]  # constant term first
        companion = tuple(
            tuple((-lows[i]) % p if j == d - 1 else int(i == j + 1) for j in range(d))
            for i in range(d)
        )
        assert build_nondiag_aut(p, d, q).companion == companion, (p, q)


def test_direct_pipelines_refuse_orders_over_the_cap(monkeypatch):
    def refuse(n):
        raise AssertionError("tested primality before the order cap")

    monkeypatch.setattr(pipelines, "is_prime", refuse)
    with pytest.raises(DeskScaleExceeded):
        sequence_cyclic(3, 14007)
    with pytest.raises(DeskScaleExceeded):
        sequence_non3(5, 2, 3, AbelianSpec((101,)))
    with pytest.raises(DeskScaleExceeded):
        sequence_non3(5, 10**9, 3)  # p^k is never formed
    for nine in (False, True):  # orders 5175 and 15525
        with pytest.raises(DeskScaleExceeded):
            sequence_theorem3(5, 3, AbelianSpec((23,)), nine=nine)


def test_pair_transport_examples():
    g = AbelianSpec((5, 5))
    psi = pair_transport(g, 5, 2, ((1, 0), (0, 1)), ((2, 0), (0, 2)))
    assert psi.blocks[0].mat == ((2, 0), (0, 2))
    ident = pair_transport(g, 5, 2, ((1, 3), (2, 2)), ((1, 3), (2, 2)))
    assert ident.blocks[0].mat == ((1, 0), (0, 1))
    src, dst = ((1, 2), (3, 2)), ((4, 0), (2, 3))
    psi = pair_transport(g, 5, 2, src, dst)
    assert psi.apply(src[0]) == dst[0]
    assert psi.apply(src[1]) == dst[1]


def test_pair_transport_cofactors_fixed():
    g = AbelianSpec((5, 5, 7))
    psi = pair_transport(g, 5, 2, ((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0)))
    assert psi.apply((0, 0, 3)) == (0, 0, 3)


def test_pair_transport_errors():
    g = AbelianSpec((5, 5))
    with pytest.raises(NotIndependent):
        pair_transport(g, 5, 2, ((1, 0), (2, 0)), ((1, 0), (0, 1)))


def test_pair_transport_spans_a_cofactor_p_run():
    # B = Z_5 extends the leading Z_5 run, so psi is 3 x 3 and fixes B
    cert = sequence_non3(5, 2, 3, AbelianSpec((5,)))
    _assert_certificate(cert, 375)
    assert cert.provenance["psi"] == [[4, 1, 0], [1, 1, 0], [0, 0, 1]]


def test_non3_order_75():
    cert = sequence_non3(5, 2, 3)
    _assert_certificate(cert, 75)
    p = cert.provenance
    assert p["pipeline"] == "non3"
    assert p["alpha_block"] == [[0, 4], [1, 4]]
    assert p["base_source"].startswith("searched")
    assert len(p["psi"]) == 2


def test_non3_order_525():
    cert = sequence_non3(5, 2, 3, AbelianSpec((7,)))
    _assert_certificate(cert, 525)
    assert cert.provenance["b"] == [7]
    assert cert.group.base.factors == (5, 5, 7)


def test_non3_deterministic():
    a = sequence_non3(5, 2, 3)
    b = sequence_non3(5, 2, 3)
    assert a.terrace == b.terrace and a.provenance == b.provenance


def test_non3_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sequence_non3(3, 2, 3)
    with pytest.raises(ValueError):
        sequence_non3(5, 1, 3)  # 5 is not 1 mod 3
    with pytest.raises(ValueError):
        sequence_non3(5, 2, 3, AbelianSpec((9,)))
    with pytest.raises(ValueError):
        sequence_non3(5, 2, 3, AbelianSpec((4,)))
    with pytest.raises(Diagonalisable):
        sequence_non3(7, 2, 3)


def test_theorem3_order_225():
    cert = sequence_theorem3(5, 3)
    _assert_certificate(cert, 225)
    p = cert.provenance
    assert p["pipeline"] == "theorem3" and not p["nine"]
    assert p["walecki_k"] == 7
    assert p["star_index"] == 9
    assert cert.group.base.factors == (5, 5, 3)


def test_theorem3_order_675():
    cert = sequence_theorem3(5, 3, nine=True)
    _assert_certificate(cert, 675)
    p = cert.provenance
    assert p["nine"]
    assert len(p["searched_base"]) == 44
    assert cert.group.base.factors == (5, 5, 9)


def test_theorem3_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sequence_theorem3(3, 3)
    with pytest.raises(ValueError):
        sequence_theorem3(7, 5)  # 49 is not 1 mod 5
    with pytest.raises(Diagonalisable):
        sequence_theorem3(7, 3)  # 7 = 1 mod 3
    with pytest.raises(ValueError):
        sequence_theorem3(5, 3, AbelianSpec((3,)))


# blake2b-128 of the sorted compact to_json() of product certificates that
# no order up to 5000 reaches, one line each: the ladder with k = 3, B with
# a Z_p factor of its own (psi's run outgrows the prefix), B with two
# factors, and theorem 3 with a B; recorded before the R-terrace layer
# moved onto base indices
UNREACHED_PRODUCTS = [
    ("non3", (5, 3, 31, ())),
    ("non3", (5, 2, 3, (5,))),
    ("non3", (5, 2, 3, (5, 7))),
    ("theorem3", (5, 3, (5,))),
    ("theorem3", (5, 3, (7,))),
]
UNREACHED_PRODUCTS_DIGEST = "b2dfd24a05237041590d61a8f9f39639"


def test_unreached_product_certificates_pin():
    h = hashlib.blake2b(digest_size=16)
    for pipeline, args in UNREACHED_PRODUCTS:
        *head, b = args
        build = sequence_non3 if pipeline == "non3" else sequence_theorem3
        doc = build(*head, AbelianSpec(b)).to_json()
        h.update((json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode())
    assert h.hexdigest() == UNREACHED_PRODUCTS_DIGEST


def test_product_arguments_fail_before_any_search(monkeypatch):
    def searched(*args, **kwargs):
        raise AssertionError("searched before refusing the arguments")

    monkeypatch.setattr(pipelines, "search_r_terrace_retry", searched)
    monkeypatch.setattr(pipelines, "_pk_base", searched)
    with pytest.raises(Diagonalisable):
        sequence_non3(7, 2, 3)
    with pytest.raises(Diagonalisable):
        sequence_theorem3(7, 3)
    with pytest.raises(Diagonalisable):
        sequence_theorem3(7, 3, nine=True)
    with pytest.raises(ValueError):
        sequence_non3(5, 2, 3, AbelianSpec((3,)))
    with pytest.raises(ValueError):
        sequence_theorem3(5, 3, AbelianSpec((3,)))
    with pytest.raises(ValueError):
        sequence_theorem3(5, 3, AbelianSpec((3,)), nine=True)


def test_walecki_star_for_3p():
    # the lifted graceful zig-zag of Z_3p stars at 0-based 2p - 1
    from seqlatin.rotational import RTerrace, check_r_terrace

    for p in (5, 7):
        lift = graceful_to_r_terrace(walecki_graceful((3 * p - 1) // 2))
        res = check_r_terrace(lift.group, list(zip(*lift.group.columns(lift.entries))))
        assert 2 * p - 1 in res.star_indices
        j = 2 * p - 1
        assert RTerrace(lift.group, lift.entries[j:] + lift.entries[:j]).is_standard


def test_order_dispatch():
    assert isinstance(sequence_order(1), TrivialOrder)
    even = sequence_order(6)
    _assert_certificate(even, 6)
    assert even.provenance["pipeline"] == "walecki"
    neg = sequence_order(15)
    assert isinstance(neg, NoGroupBasedCLS)
    assert neg.order == 15
    cyc = sequence_order(21)
    _assert_certificate(cyc, 21)
    assert cyc.provenance["pipeline"] == "cyclic"
    prod = sequence_order(75)
    _assert_certificate(prod, 75)
    assert prod.provenance["pipeline"] == "non3"
    t3 = sequence_order(225)
    _assert_certificate(t3, 225)
    assert t3.provenance["pipeline"] == "theorem3"


def test_order_desk_cap(monkeypatch):
    with pytest.raises(DeskScaleExceeded):
        sequence_order(5001)
    monkeypatch.setenv("SEQLATIN_DESK_LIMIT", "6000")
    assert isinstance(sequence_order(5001), NoGroupBasedCLS)
    with pytest.raises(ValueError):
        sequence_order(0)


def test_certificate_json_shape():
    cert = sequence_cyclic(3, 7)
    doc = cert.to_json()
    assert "semidirect" in doc["group"]
    assert len(doc["terrace"]) == 21
    assert len(doc["sequencing"]) == 20
    assert doc["provenance"]["pipeline"] == "cyclic"


def test_rejected_terrace_raises_construction_failed(monkeypatch):
    monkeypatch.setattr(pipelines, "is_directed_terrace", lambda group, arr: (False, []))
    # each pipeline skips the rejected candidates and fails in its own stage
    with pytest.raises(ConstructionFailed) as exc:
        sequence_cyclic(3, 7)
    assert exc.value.stage == "sequence_cyclic"
    with pytest.raises(ConstructionFailed) as exc:
        sequence_non3(5, 2, 3)
    assert exc.value.stage == "finish_template"
    # one reason per allocation, each also in the message
    assert exc.value.failures == ["no adjacent independent pair matched", "dependent targets"]
    assert all(reason in str(exc.value) for reason in exc.value.failures)
    with pytest.raises(ConstructionFailed) as exc:
        sequence_order(6)
    assert exc.value.stage == "sequence_order"
