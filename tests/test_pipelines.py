"""Certificates from the cyclic, product, and spectrum pipelines."""

import json

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
from seqlatin.groups import AbelianSpec
from seqlatin.latin import (
    completeness_report,
    is_directed_terrace,
    terrace_to_complete_square,
)
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


def test_walecki_star_for_3p():
    # the lifted graceful zig-zag of Z_3p stars at 0-based 2p - 1
    from seqlatin.graceful import graceful_to_r_terrace, walecki_graceful
    from seqlatin.rotational import RTerrace, check_r_terrace

    for p in (5, 7):
        lift = graceful_to_r_terrace(walecki_graceful((3 * p - 1) // 2))
        res = check_r_terrace(lift.group, lift.entries)
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
