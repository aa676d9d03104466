"""Primes, primitive roots, order-q units, and the order-spectrum classifier.

The classifier answers: at which odd orders n does a nonabelian group
exist?  Exactly when n has a prime divisor p with p^3 | n, or a
prime-power divisor p^k with p^k = 1 mod q for some other prime q | n.
When the answer is yes we also pick construction parameters (a witness)
for the cheapest pipeline that can realize a sequenceable group of that
order: a cyclic base if some unit of order q exists mod n/q, else a
two-dimensional base over p with p = -1 mod q, split by whether 3
divides the cofactor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import DeskScaleExceeded, NotCoprime

Factorization = list[tuple[int, int]]

# Trial division up to sqrt(10**12) tries at most ~333,000 divisors.
# A plain constant, not a desk cap: SEQLATIN_DESK_LIMIT moves every desk
# cap to one number, which would tie classify to the pipeline cap.
FACTOR_LIMIT = 10**12


def _trial_divisors() -> Iterator[int]:
    """2, 3, then every 6j - 1 and 6j + 1: a superset of the primes > 3."""
    yield 2
    yield 3
    for c in itertools.count(5, 6):
        yield c
        yield c + 2


def factorize(n: int) -> Factorization:
    """Prime factorization as an ascending list of (prime, exponent).

    Trial division up to sqrt(n); n above FACTOR_LIMIT raises
    DeskScaleExceeded rather than run for an unbounded time.
    """
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    if n > FACTOR_LIMIT:
        raise DeskScaleExceeded(f"{n} exceeds the factoring limit {FACTOR_LIMIT}")
    out: Factorization = []
    for p in _trial_divisors():
        if p * p > n:
            break
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            out.append((p, a))
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    """Primality by factorize, so n above FACTOR_LIMIT raises DeskScaleExceeded."""
    return n >= 2 and factorize(n) == [(n, 1)]


def mult_order(x: int, m: int) -> int:
    """Least t >= 1 with x^t = 1 mod m."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if math.gcd(x, m) != 1:
        raise NotCoprime(f"{x} is not a unit mod {m}")
    if m == 1:
        return 1
    t, cur = 1, x % m
    while cur != 1:
        cur = (cur * x) % m
        t += 1
    return t


def is_primitive_root(x: int, q: int) -> bool:
    return math.gcd(x, q) == 1 and mult_order(x, q) == q - 1


def find_lambda(q: int) -> int:
    """Smallest primitive root lam of q with lam/(lam-1) also primitive."""
    if q == 3:
        return 2
    for lam in range(2, q):
        if not is_primitive_root(lam, q):
            continue
        ratio = (lam * pow(lam - 1, -1, q)) % q
        if is_primitive_root(ratio, q):
            return lam
    raise AssertionError(f"no dual-primitive lambda for q={q}")


def unit_of_order_exists(m: int, q: int) -> bool:
    """Whether the units mod m contain an element of order q (odd prime q).

    The unit group is the product over prime-power divisors p^a of m of
    groups of order p^(a-1)(p-1), so an order-q element exists iff q
    divides one of those local orders: q^2 | m, or p = 1 mod q for some
    prime p | m.
    """
    for p, a in factorize(m):
        if p == q and a >= 2:
            return True
        if p != q and p % q == 1:
            return True
    return False


def _local_torsion(p: int, a: int, q: int) -> list[int]:
    """Every x mod p^a with x^q = 1, for an odd prime q.

    For p = q and a >= 2 those are 1 + j*q^(a-1), j < q.  For p = 1 mod q
    the units mod p^a are cyclic of order phi = p^(a-1)(p-1), so the
    solutions are the powers of any x^(phi/q) that is not 1.  Otherwise q
    does not divide the local order and only 1 solves it.
    """
    if p == q and a >= 2:
        return [1 + j * q ** (a - 1) for j in range(q)]
    if p % q != 1:
        return [1]
    pa, e = p**a, p ** (a - 1) * (p - 1) // q
    y = next(y for y in (pow(x, e, pa) for x in itertools.count(2)) if y != 1)
    return [pow(y, j, pa) for j in range(q)]


def units_of_order(m: int, q: int) -> list[int]:
    """All units of multiplicative order exactly q mod m (q an odd prime),
    ascending.

    By the CRT, x^q = 1 mod m iff it holds mod each prime power p^a of m,
    so the solutions are the combinations of the local ones
    (_local_torsion); every solution but 1 has order q.
    """
    sols, mod = [1], 1
    for p, a in factorize(m):
        pa = p**a
        lift = pow(mod, -1, pa)
        sols = [x + mod * ((y - x) * lift % pa) for x in sols for y in _local_torsion(p, a, q)]
        mod *= pa
    return sorted(sols)[1:]


# ---------------------------------------------------------------------------
# order-spectrum classification

TRIVIAL = "Trivial"
EVEN = "Even"
ODD_NONABELIAN = "OddNonabelianExists"
ODD_ONLY_ABELIAN = "OddOnlyAbelian"


@dataclass(frozen=True)
class Witness:
    """Construction parameters for one sequenceable group of the given order.

    pipeline "cyclic": Z_q acting on Z_m by an order-q unit.
    pipeline "non3": Z_q acting on Z_p^2 x B, p = -1 mod q, gcd(|B|, 6) = 1.
    pipeline "theorem3": as non3 but with a 3-part of 3 (nine=False) or
    9 (nine=True) folded into the base.  classify_order never chooses
    nine=True: every order with such a witness has a cyclic witness, or
    one with a 3-part of 3, first (tests/test_numtheory.py gives the
    argument).  The field stays for the witness JSON and the API.

    b_factors lists the prime-power orders of the cyclic factors of B,
    ascending; the 3-part of a theorem3 cofactor is excluded from it.
    """

    pipeline: str
    q: int
    m: Optional[int] = None
    p: Optional[int] = None
    k: Optional[int] = None
    b_factors: tuple[int, ...] = ()
    nine: bool = False

    def to_json(self) -> dict:
        out: dict = {"pipeline": self.pipeline, "q": self.q}
        if self.pipeline == "cyclic":
            out["m"] = self.m
        else:
            out["p"] = self.p
            out["k"] = self.k
            out["b"] = list(self.b_factors)
            if self.pipeline == "theorem3":
                out["nine"] = self.nine
        return out


@dataclass(frozen=True)
class OrderClassification:
    verdict: str
    witness: Optional[Witness] = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _prime_power_factors(n: int) -> tuple[int, ...]:
    return tuple(p**a for p, a in factorize(n))


def _nonabelian_exists(factors: Factorization) -> bool:
    primes = [p for p, _ in factors]
    for p, a in factors:
        if a >= 3:
            return True
        for k in range(1, a + 1):
            pk = p**k
            for q in primes:
                if q != p and pk % q == 1:
                    return True
    return False


def _cyclic_witness(n: int, factors: Factorization) -> Optional[Witness]:
    for q, _ in factors:
        m = n // q
        if m >= 5 and m % 2 == 1 and unit_of_order_exists(m, q):
            return Witness(pipeline="cyclic", q=q, m=m)
    return None


def _square_witness(n: int, factors: Factorization) -> Optional[Witness]:
    """Witness with base Z_p^2 x (rest): p^2 | n and p = -1 mod q."""
    primes = [p for p, _ in factors]
    for p, a in factors:
        if a < 2 or p == 3:
            continue
        for q in primes:
            if q == p or (p + 1) % q != 0:
                continue
            rest = n // (q * p * p)
            three = 1
            while rest % 3 == 0:
                rest //= 3
                three *= 3
            b_factors = _prime_power_factors(rest)
            if three == 1:
                return Witness(pipeline="non3", q=q, p=p, k=2, b_factors=b_factors)
            if three == 3:
                return Witness(pipeline="theorem3", q=q, p=p, k=2, b_factors=b_factors)
    return None


def classify_order(n: int) -> OrderClassification:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return OrderClassification(TRIVIAL)
    if n % 2 == 0:
        return OrderClassification(EVEN)
    factors = factorize(n)
    if not _nonabelian_exists(factors):
        return OrderClassification(ODD_ONLY_ABELIAN)
    witness = _cyclic_witness(n, factors) or _square_witness(n, factors)
    if witness is None:
        raise AssertionError(f"no pipeline covers order {n}")
    return OrderClassification(ODD_NONABELIAN, witness)
