"""Independent checks of the responses a benchmark run collected.

Nothing here calls the construction code.  Terraces go through the
oracle's naive checker, squares through its naive completeness test,
and negative verdicts through a brute-force reading of the order
condition written out below, so a bug in the classifier cannot vouch
for itself.  Every check returns None when the response is right and a
short reason when it is not.
"""

from __future__ import annotations

import json

# number of identity-first sequencings of Z_10 and Z_12 (OEIS A141599);
# the odd cyclic groups, S3, D8 and Q8 have none
KNOWN_SEQUENCINGS = {"Z9": 0, "Z10": 288, "Z11": 0, "Z12": 3856, "S3": 0, "D8": 0, "Q8": 0}


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def nonabelian_odd_order(n: int) -> bool:
    """Whether a nonabelian group of odd order n exists.

    True exactly when p^3 divides n for some prime p, or some prime
    power p^k dividing n is 1 mod another prime q dividing n.
    """
    fac = _prime_factors(n)
    for p, a in fac.items():
        if a >= 3:
            return True
        for k in range(1, a + 1):
            if any(q != p and (p**k - 1) % q == 0 for q in fac):
                return True
    return False


def _decode(group_doc: dict, rows):
    if "semidirect" in group_doc:
        return [(int(r[0]), tuple(int(x) for x in r[1:])) for r in rows]
    if "abelian" in group_doc:
        return [tuple(int(x) for x in r) for r in rows]
    return [int(r[0]) if isinstance(r, list) else int(r) for r in rows]


def check_certificate(sl, doc: dict, order: int):
    """A certificate's JSON form: right order, a terrace, and its own quotients."""
    group = sl.groups.group_from_descriptor(doc["group"])
    if group.order != order:
        return f"group of order {group.order}, expected {order}"
    terrace = _decode(doc["group"], doc["terrace"])
    if not sl.oracle.naive_directed_terrace(group, terrace):
        return "terrace rejected by the naive checker"
    steps = _decode(doc["group"], doc["sequencing"])
    if len(steps) != len(terrace) - 1 or any(
        group.mul(a, s) != b for a, s, b in zip(terrace, steps, terrace[1:])
    ):
        return "sequencing does not lead from each terrace entry to the next"
    return None


def check_order_answer(sl, n: int, kind: str, payload):
    """The answer to sequence_order(n) against the order condition."""
    if n == 1:
        return None if kind == "trivial" else f"order 1 answered {kind}"
    constructive = n % 2 == 0 or nonabelian_odd_order(n)
    if kind == "negative":
        if constructive:
            return f"order {n} admits a construction but got a negative verdict"
        return None if payload == "OddOnlyAbelian" else f"verdict {payload!r}"
    if kind != "certificate":
        return f"order {n} answered {kind}"
    if not constructive:
        return f"certificate for order {n}, where only abelian groups exist"
    return check_certificate(sl, json.loads(payload), n)


def check_square(sl, grid) -> str | None:
    return None if sl.oracle.naive_complete(grid) else "square rejected by naive_complete"


def check_verify_answer(expected_valid: bool, rc: int, stdout: str):
    doc = json.loads(stdout)
    if doc.get("valid") is not expected_valid or (rc == 0) is not expected_valid:
        return f"verify said valid={doc.get('valid')} rc={rc}, expected {expected_valid}"
    return None


def check_exhaustive(sl, group, name: str, result):
    if not result.exhausted or result.count != len(result.terraces):
        return "search not exhausted or count disagrees with the list"
    if result.count != KNOWN_SEQUENCINGS[name]:
        return f"{result.count} sequencings of {name}, known {KNOWN_SEQUENCINGS[name]}"
    if len(set(result.terraces)) != result.count:
        return "duplicate terraces"
    for t in result.terraces:
        if t[0] != group.identity or not sl.oracle.naive_directed_terrace(group, t):
            return "terrace rejected by the naive checker"
    return None
