"""Primes, lambda selection, order-q units, and the order classifier."""

import math

import pytest
import sympy

from seqlatin.errors import DeskScaleExceeded, NotCoprime
from seqlatin.numtheory import (
    EVEN,
    FACTOR_LIMIT,
    ODD_NONABELIAN,
    ODD_ONLY_ABELIAN,
    TRIVIAL,
    classify_order,
    factorize,
    find_lambda,
    is_prime,
    is_primitive_root,
    mult_order,
    unit_of_order_exists,
    units_of_order,
)


def test_factorize():
    assert factorize(675) == [(3, 3), (5, 2)]
    assert factorize(1) == []
    assert factorize(10403) == [(101, 1), (103, 1)]
    assert factorize(2) == [(2, 1)]


def test_factorize_reconstructs():
    for n in range(1, 500):
        assert math.prod(p**a for p, a in factorize(n)) == n


def test_factorize_matches_sympy():
    """sympy stays a test-only reference for the trial-division code."""
    for n in range(1, 100001):
        assert factorize(n) == sorted(sympy.factorint(n).items()), n
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_near_the_limit_matches_sympy():
    for n in (
        999999999989,  # the largest prime below 10**12
        999999000001,
        999983 * 999979,
        2 * 499999999979,
        3**25,
        FACTOR_LIMIT,
    ):
        assert factorize(n) == sorted(sympy.factorint(n).items()), n
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_refuses_above_the_limit():
    assert FACTOR_LIMIT == 10**12
    for n in (FACTOR_LIMIT + 1, 10**111 + 57):
        with pytest.raises(DeskScaleExceeded):
            factorize(n)
        with pytest.raises(DeskScaleExceeded):
            is_prime(n)
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_mult_order():
    assert mult_order(2, 7) == 3
    assert mult_order(1, 91) == 1
    assert mult_order(4, 9) == 3


def test_mult_order_not_coprime():
    with pytest.raises(NotCoprime):
        mult_order(6, 9)


def test_find_lambda_small():
    assert find_lambda(3) == 2
    assert find_lambda(5) == 2
    assert find_lambda(7) == 3


def test_find_lambda_all_desk_primes():
    """Both lambda and lambda/(lambda-1) are primitive for every odd prime."""
    from sympy import primerange

    for q in primerange(3, 998):
        lam = find_lambda(q)
        assert is_primitive_root(lam, q)
        ratio = (lam * pow(lam - 1, -1, q)) % q
        assert is_primitive_root(ratio, q)


def test_units_of_order():
    assert units_of_order(7, 3) == [2, 4]
    assert units_of_order(9, 3) == [4, 7]
    assert units_of_order(5, 3) == []


def test_units_of_order_match_brute_force():
    for q in (3, 5, 7):
        for m in range(5, 200, 2):
            brute = [r for r in range(2, m) if math.gcd(r, m) == 1 and mult_order(r, m) == q]
            assert units_of_order(m, q) == brute
            assert unit_of_order_exists(m, q) == bool(brute)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_units_of_order_by_crt_match_brute_force(q):
    # q^2 | m, q^3 | m, two primes = 1 mod q, and mixed factors
    p1, p2 = [p for p in sympy.primerange(3, 200) if p % q == 1][:2]
    ms = (189, 819, 243 * 7, 49 * 29, 121 * 23, 25 * 11 * 31, 2 * q**3, p1 * p2, q**2 * p1)
    for m in ms:
        brute = [r for r in range(2, m) if math.gcd(r, m) == 1 and pow(r, q, m) == 1]
        assert units_of_order(m, q) == brute, m


def test_unit_order_is_exact():
    for m, q in ((7, 3), (9, 3), (11, 5), (29, 7), (63, 3), (121, 5)):
        assert {mult_order(r, m) for r in units_of_order(m, q)} == {q}


# ---------------------------------------------------------------------------
# classification


def test_classify_spots():
    assert classify_order(1).verdict == TRIVIAL
    assert classify_order(2).verdict == EVEN
    assert classify_order(9).verdict == ODD_ONLY_ABELIAN
    assert classify_order(15).verdict == ODD_ONLY_ABELIAN
    assert classify_order(21).verdict == ODD_NONABELIAN
    assert classify_order(27).verdict == ODD_NONABELIAN
    assert classify_order(33).verdict == ODD_ONLY_ABELIAN
    assert classify_order(63).verdict == ODD_NONABELIAN
    assert classify_order(75).verdict == ODD_NONABELIAN


def test_classify_witnesses():
    w = classify_order(21).witness
    assert (w.pipeline, w.q, w.m) == ("cyclic", 3, 7)
    w = classify_order(27).witness
    assert (w.pipeline, w.q, w.m) == ("cyclic", 3, 9)
    w = classify_order(75).witness
    assert (w.pipeline, w.q, w.p, w.k, w.b_factors) == ("non3", 3, 5, 2, ())
    w = classify_order(525).witness  # 3 * 5^2 * 7: 7 = 1 mod 3, so cyclic wins
    assert (w.pipeline, w.q, w.m) == ("cyclic", 3, 175)
    w = classify_order(1275).witness  # 3 * 5^2 * 17: no order-3 unit route
    assert (w.pipeline, w.q, w.p, w.b_factors) == ("non3", 3, 5, (17,))
    w = classify_order(225).witness  # 3^2 * 5^2
    assert (w.pipeline, w.q, w.p, w.nine) == ("theorem3", 3, 5, False)
    w = classify_order(363).witness  # 3 * 11^2
    assert (w.pipeline, w.q, w.p) == ("non3", 3, 11)
    w = classify_order(675).witness  # 3^3 * 5^2: the cyclic route wins
    assert (w.pipeline, w.q, w.m) == ("cyclic", 3, 225)


def test_classify_witness_shape():
    """Every witness has its shape, and none takes the nine route.

    A square witness (p, q) with a 3-part of 9 would need p != 3, q | p + 1
    and 9 q p^2 | n.  With q = 3, 27 | n, and q = 3 gives a cyclic witness
    first: 9 | n/3, so Z_{n/3} has a unit of order 3.  With q != 3 and
    p = 1 (mod 3), q = 3 gives a cyclic witness, since p | n/3.  With
    p = 2 (mod 3), 3 divides p + 1 and is the first q that _square_witness
    tries for p, and n/(3 p^2) has a 3-part of 3.  So classify_order never
    needs the nine route, and the scan below agrees.
    """
    for n in range(3, 50000, 2):
        c = classify_order(n)
        if c.verdict == ODD_NONABELIAN:
            w = c.witness
            assert w is not None
            assert not w.nine
            if w.pipeline == "cyclic":
                assert w.q * w.m == n
                assert unit_of_order_exists(w.m, w.q)
            else:
                rest = math.prod(w.b_factors)
                three = 9 if w.nine else 3
                if w.pipeline == "non3":
                    assert w.q * w.p**2 * rest == n
                    assert rest % 3 != 0
                else:
                    assert w.q * w.p**2 * three * rest == n
                    assert rest % 3 != 0
                assert (w.p + 1) % w.q == 0
                assert w.p != 3
        else:
            assert c.witness is None


def nonabelian_by_prime_cases(n):
    """Independent check: the three prime-pattern cases for odd orders.

    A nonabelian group of odd order n exists iff some prime cubed divides
    n, or p = 1 mod q for primes p, q dividing n, or p^2 = 1 mod q with
    p^2 dividing n.
    """
    fac = factorize(n)
    for p, a in fac:
        if a >= 3:
            return True
    for p, a in fac:
        for q, _ in fac:
            if p == q:
                continue
            if p % q == 1:
                return True
            if a >= 2 and (p * p) % q == 1:
                return True
    return False


def test_classify_matches_independent_evaluation():
    for n in range(1, 2001, 2):
        expect = (
            TRIVIAL
            if n == 1
            else (ODD_NONABELIAN if nonabelian_by_prime_cases(n) else ODD_ONLY_ABELIAN)
        )
        assert classify_order(n).verdict == expect, n


def test_classify_json_round_trip():
    j = classify_order(21).to_json()
    assert j == {"verdict": ODD_NONABELIAN, "witness": {"pipeline": "cyclic", "q": 3, "m": 7}}
    j = classify_order(15).to_json()
    assert j == {"verdict": ODD_ONLY_ABELIAN, "witness": None}
