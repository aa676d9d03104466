"""End-to-end sequencing constructions for the semidirect families.

Every pipeline returns a SequencingCertificate that passed one gate,
_certify: the definitional terrace check of the finished arrangement.
The constructions are theorems, so nothing before it is re-checked: a
pipeline validates its arguments, the cyclic scan solves the endpoint
conditions, the finisher keeps only order-p, in-block, independent
terrace pairs, and what they build reaches the gate as built.
Provenance carries all intermediate artifacts so a certificate can be
audited offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, product
from math import gcd
from typing import Optional, Sequence

from .desk import desk_cap
from .errors import (
    ConstructionFailed,
    DeskScaleExceeded,
    Diagonalisable,
    NoSuchUnit,
)
from .graceful import graceful_to_r_terrace, walecki_graceful
from .groups import (
    AbelianSpec,
    Automorphism,
    MatrixBlock,
    ScalarBlock,
    SdSpec,
    cyclic,
    extend_to_basis,
    group_to_descriptor,
    mat_inv,
    mat_mul,
    mat_pow,
)
from .harmonious import bghj_base, hash_for
from .latin import is_directed_terrace, walecki_terrace
from .numtheory import (
    classify_order,
    find_lambda,
    is_prime,
    mult_order,
    units_of_order,
)
from .rotational import (
    RTerrace,
    fgm_extend,
    fgm_extend_many,
    search_r_terrace_retry,
)
from .template import assemble, theorem4_assign


@dataclass(frozen=True)
class SequencingCertificate:
    """A directed terrace and its quotients, as element indices.

    indices is the terrace as the gate passed it and quotients[i] the
    index of a_i^-1 a_{i+1}, both in group.elements() order;
    .terrace and .sequencing decode them to group elements.
    """

    group: object  # SdSpec, or a cyclic AbelianSpec for the even orders
    indices: tuple[int, ...]
    quotients: tuple[int, ...]
    provenance: dict

    def _elements(self, idx) -> tuple:
        cols = self.group.columns(idx)
        if isinstance(self.group, SdSpec):
            return tuple(zip(cols[0], zip(*cols[1:])))
        if isinstance(self.group, AbelianSpec):
            return tuple(zip(*cols))
        return tuple(cols[0])

    @property
    def terrace(self) -> tuple:
        return self._elements(self.indices)

    @property
    def sequencing(self) -> tuple:
        return self._elements(self.quotients)

    def to_json(self) -> dict:
        # one flat row of coordinates per element, u first for a semidirect product
        columns = self.group.columns
        return {
            "group": group_to_descriptor(self.group),
            "terrace": _rows(columns(self.indices)),
            "sequencing": _rows(columns(self.quotients)),
            "provenance": self.provenance,
        }


def _rows(cols) -> list[list[int]]:
    return [[v] for v in cols[0]] if len(cols) == 1 else list(map(list, zip(*cols)))


@dataclass(frozen=True)
class TrivialOrder:
    """Order 1: the empty sequencing and the 1x1 square."""

    order: int = 1


@dataclass(frozen=True)
class NoGroupBasedCLS:
    """Negative verdict: no group of this order has a sequencing."""

    order: int
    verdict: str


def _check_order(q: int, base: int, p: int = 1, k: int = 0) -> None:
    """Refuse a direct pipeline whose order q * base * p^k exceeds the cap.

    It runs before any other work, on arguments not yet validated.  p^k
    is formed with k cut at the cap's bit length, past which it exceeds
    the cap whenever |p| >= 2, so a huge k costs nothing.
    """
    cap = desk_cap(5000)
    bits = cap.bit_length()
    order = q * base * p ** min(max(k, 0), bits)
    if order > cap:
        shown = order if k <= bits else f"{q * base}*{p}^{k}"
        raise DeskScaleExceeded(f"order {shown} exceeds pipeline cap {cap}")


def _certify(group, indices, provenance) -> Optional[SequencingCertificate]:
    """The certificate of a directed terrace given as element indices, or
    None when it is not one."""
    ok, quots = is_directed_terrace(group, indices)
    if not ok:
        return None
    return SequencingCertificate(group, tuple(indices), tuple(quots), provenance)


# ---------------------------------------------------------------------------
# cyclic pipeline: Z_q acting on Z_m by a unit of order q


def _unit_sending(a: int, b: int, x: int, y: int, m: int) -> Optional[int]:
    """A unit u of Z_m with ua = x and ub = y, or None.

    Solvable as a unit iff a and x generate the same subgroup; the
    solution mod m/g lifts to a unit of Z_m along the g-step coset.
    """
    g = gcd(a, m)
    if gcd(x, m) != g or x % g:
        return None
    mm = m // g
    u0 = (x // g) * pow((a // g) % mm, -1, mm) % mm
    for t in range(g):
        u = u0 + t * mm
        if gcd(u, m) == 1:
            break
    else:
        return None
    return u if u * b % m == y % m else None


def _end_pairs(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Every (entry, cyclic predecessor) of a value list, forward then reversed.

    Position i < n is position i of values, position n + j position j of
    the reversed list, so a scan in index order tries the forward
    arrangements first.  Built once per list and passed to every
    _cyclic_placement query on it.
    """
    fwd, rev = list(values), list(values[::-1])
    return fwd + rev, fwd[-1:] + fwd[:-1] + rev[-1:] + rev[:-1]


def _cyclic_placement(ends, m: int, first: int, last: int):
    """(u, start, reversed) arranging a cyclic value list to given ends.

    ends is the list's _end_pairs.  The arrangement scales by the unit u
    and re-anchors at `start`, so its first entry is u*values[start] and
    its last the cyclic predecessor; forward arrangements come first.
    When first is a unit, so is the entry a sent to it, and u = first/a
    is the only candidate: position j works iff its entry is a unit and
    its predecessor b = k*a, k = last/first.  That ratio test is one
    compare per position; a non-unit first tries _unit_sending at each.
    """
    cur, pred = ends
    pairs = zip(count(), cur, pred)
    if gcd(first, m) == 1:
        k = last * pow(first, -1, m) % m
        hits = (i for i, a, b in pairs if b == k * a % m and gcd(a, m) == 1)
    else:
        hits = (i for i, a, b in pairs if _unit_sending(a, b, first, last, m) is not None)
    i = next(hits, None)
    if i is None:
        return None
    n = len(cur) // 2
    return _unit_sending(cur[i], pred[i], first, last, m), i % n, i >= n


def _hash_ops(u: int, start: int, rev: bool) -> list:
    """Provenance of a hash scaled by u, reversed if rev, then rotated to start."""
    ops = [["scale", u]] if u != 1 else []
    if rev:
        ops.append(["reverse"])
    if start:
        ops.append(["rotate", start])
    return ops


def _arranged(ends, m: int, u: int, start: int, rev: bool) -> list[int]:
    """A value list, given by its _end_pairs, scaled by u, reversed if rev,
    then rotated to start."""
    n = len(ends[0]) // 2
    seq = ends[0][n:] if rev else ends[0][:n]
    return [u * v % m for v in seq[start:] + seq[:start]]


def _try_cyclic_candidate(sd, lam, hash_ends, terrace_ends, r, u, start, rev):
    """The arrangement and its provenance, or None; every list is Z_m ints."""
    q, m = sd.s, sd.base.order
    i = start + (len(hash_ends[0]) // 2 if rev else 0)
    c1 = u * hash_ends[0][i] % m
    clast = u * hash_ends[1][i] % m
    rq1, rl1 = pow(r, q - 1, m), pow(r, lam - 1, m)
    x = (c1 + clast - rq1 * c1) % m
    y = (x - rl1 * clast) % m
    if x == 0 or y == 0:
        return None
    pl = _cyclic_placement(terrace_ends, m, x, y)
    if pl is None:
        return None
    tu, tstart, trev = pl
    a = _arranged(terrace_ends, m, *pl)
    h = _arranged(hash_ends, m, u, start, rev)
    arr = assemble(theorem4_assign(a, h, sd, lam))
    detail = {
        "a1": x,
        "alast": y,
        "hash_ops": _hash_ops(u, start, rev),
        "terrace_ops": {"scale": tu, "rotate": tstart, "reversed": trev},
        "r_terrace": a,
        "hash": h,
    }
    return arr, detail


def sequence_cyclic(q: int, m: int) -> SequencingCertificate:
    """Sequencing of Z_q x| Z_m driven by the order-q unit action.

    The #-harmonious base sequence and the lifted Walecki R-terrace each
    admit a unit-scaling/rotation/reversal orbit.  Candidates allocate
    the hash endpoints (principal (-2s, s)-shaped ones first, then every
    reachable pair), and the terrace arrangement that realizes the two
    endpoint conditions is solved for, not searched: _cyclic_placement
    finds it by the ratio of its ends, on (entry, predecessor) tables of
    both lists built once per call.  Both lists stay Z_m ints, each its
    own base index, from the scan through theorem4_assign.  The first
    candidate that passes _certify is returned.
    """
    _check_order(q, m)
    if not is_prime(q) or q % 2 == 0:
        raise ValueError(f"q must be an odd prime, got {q}")
    if m % 2 == 0 or m < 5:
        raise ValueError(f"m must be odd and >= 5, got {m}")
    rs = units_of_order(m, q)
    if not rs:
        raise NoSuchUnit(f"no unit of order {q} mod {m}")
    A = cyclic(m)
    sds = {r: SdSpec(q, A, Automorphism((ScalarBlock(m, r),))) for r in rs}
    lam = find_lambda(q)
    k = (m - 1) // 2
    hash_vals = list(bghj_base(A).hash.entries)
    gperm = walecki_graceful(k)
    terrace_vals = list(graceful_to_r_terrace(gperm).entries)
    hash_ends, terrace_ends = _end_pairs(hash_vals), _end_pairs(terrace_vals)
    inv2 = pow(2, -1, m)

    def certify(sd, r, arr, detail, route, extra):
        prov = {
            "pipeline": "cyclic",
            "q": q,
            "m": m,
            "lam": lam,
            "k": k,
            "r": r,
            "route": route,
            "graceful": list(gperm),
            "hash_base": hash_vals,
            **extra,
            **detail,
        }
        return _certify(sd, arr, prov)

    # principal allocations: endpoints (-2s, s) and (-s/2, s), both signs
    for r, sd in sds.items():
        s0 = pow(pow(r, lam - 1, m), -1, m) * (k + 1) % m
        for sign in (1, -1):
            s = sign * s0 % m
            for role, c1 in (("A", -2 * s % m), ("B", -s * inv2 % m)):
                pl = _cyclic_placement(hash_ends, m, c1, s)
                if pl is None:
                    continue
                got = _try_cyclic_candidate(sd, lam, hash_ends, terrace_ends, r, *pl)
                cert = got and certify(sd, r, *got, "principal", {"sign": sign, "role": role})
                if cert:
                    return cert
    # extended scan over every reachable endpoint pair
    for r, sd in sds.items():
        for u in range(1, m):
            if gcd(u, m) != 1:
                continue
            for rev in (False, True):
                for start in range(m - 1):
                    got = _try_cyclic_candidate(
                        sd, lam, hash_ends, terrace_ends, r, u, start, rev
                    )
                    cert = got and certify(sd, r, *got, "extended", {})
                    if cert:
                        return cert
    raise ConstructionFailed(
        "sequence_cyclic",
        "orbit exhausted without a verified candidate -- treated as a bug; "
        "the exhaustive oracle remains available for small orders"
    )


# ---------------------------------------------------------------------------
# the non-diagonalisable automorphism on Z_p^k


@dataclass(frozen=True)
class NondiagAut:
    """Order-q automorphism of Z_p^k together with its canonical data.

    companion is the rational-canonical block equal to alpha^(lam-1).
    """

    alpha: Automorphism
    companion: tuple
    d: int


def _least_factor(p: int, q: int, d: int) -> tuple[int, ...]:
    """Least monic degree-d divisor of 1 + x + ... + x^(q-1) over F_p.

    Coefficients run from the leading 1 down to the constant term, and
    candidates are tried in lexicographic order of them, each by long
    division.
    """
    for low in product(range(p), repeat=d):
        c = (1,) + low
        rem = [1] * q
        for i in range(q - d):
            t = rem[i]
            if t:
                for j in range(1, d + 1):
                    rem[i + j] = (rem[i + j] - t * c[j]) % p
        if not any(rem[q - d :]):
            return c
    raise AssertionError(f"no monic degree-{d} factor of Phi_{q} over F_{p}")


def build_nondiag_aut(p: int, k: int, q: int) -> NondiagAut:
    """Non-diagonalisable order-q automorphism of Z_p^k.

    Takes the companion matrix N of the lexicographically least
    irreducible degree-d factor of (x^q - 1)/(x - 1) over F_p, pads with
    the identity, and returns alpha = N^(1/(lam-1) mod q) so that
    alpha^(lam-1) is exactly N.  Irreducibility of the factor with
    d >= 2 rules out eigenvalues in F_p, hence diagonalisability.  N is
    not the identity and its characteristic polynomial divides x^q - 1,
    so N, and alpha with it, has order exactly q.

    As p != q, (x^q - 1)/(x - 1) is squarefree over F_p and each of its
    irreducible factors has degree d = ord_q(p), so a monic degree-d
    divisor is exactly one of them, and the least of the at most p^d
    candidates is the least factor.
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")
    if not is_prime(q) or q % 2 == 0:
        raise ValueError(f"q must be an odd prime, got {q}")
    d = mult_order(p, q)
    if d == 1:
        raise Diagonalisable(
            f"every order-{q} automorphism over F_{p} is diagonalisable (d=1)"
        )
    if d > k:
        raise ValueError(f"need k >= {d} = ord_{q}({p}), got k={k}")
    coeffs = _least_factor(p, q, d)
    lows = [coeffs[i] for i in range(d, 0, -1)]  # constant term first
    n = tuple(
        tuple(
            (-lows[i]) % p if j == d - 1 else (1 if i == j + 1 else 0)
            for j in range(d)
        )
        for i in range(d)
    )
    lam = find_lambda(q)
    a_small = mat_pow(n, pow(lam - 1, -1, q), p)
    full = tuple(
        tuple(
            a_small[i][j] if i < d and j < d else (1 if i == j else 0)
            for j in range(k)
        )
        for i in range(k)
    )
    return NondiagAut(Automorphism((MatrixBlock(p, full),)), n, d)


def pair_transport(a: AbelianSpec, p: int, width: int, src: tuple, dst: tuple) -> Automorphism:
    """Automorphism mapping one independent order-p pair onto another.

    a's first `width` factors are Z_p and all four elements lie in
    them, as the finisher's filters ensure; completing each pair to a
    basis of that block and equating the bases gives the matrix,
    identity elsewhere.  A dependent pair raises NotIndependent.
    """
    (g1, h1), (g2, h2) = src, dst
    m1 = extend_to_basis([g1[:width], h1[:width]], width, p)
    m2 = extend_to_basis([g2[:width], h2[:width]], width, p)
    psi = mat_mul(m2, mat_inv(m1, p), p)
    blocks = (MatrixBlock(p, psi),) + tuple(
        ScalarBlock(mod, 1) for mod in a.factors[width:]
    )
    return Automorphism(blocks)


# ---------------------------------------------------------------------------
# shared finisher: arrange hash ends, transport a terrace pair, verify


def _spans_plane(u, v, p) -> bool:
    """Whether two digit vectors over Z_p are independent: a 2x2 minor is non-zero mod p."""
    return any((u[a] * v[b] - u[b] * v[a]) % p for a, b in combinations(range(len(u)), 2))


def _finish_template(sd, lam, rt: RTerrace, p: int, prefix: int, prov: dict):
    """Allocate hash endpoints, move a terrace pair onto the targets, certify.

    Both (c_1, c_last) allocations of {1, -2} (first slot) are tried;
    the endpoint conditions then pin the targets, and any adjacent
    independent order-p pair of the extended terrace can be carried
    onto them by an automorphism fixing the cofactors.  The terrace and
    hash_for(A) are base indices of A as they come: the targets come
    from twist and quot, the p-block is the non-zero multiples of
    |A| / p^prefix, and psi applies by its index table.  Only psi's
    inputs and the provenance are decoded.
    """
    A, q = sd.base, sd.s
    # psi acts on the whole leading run of Z_p factors, which outgrows
    # the prefix when B has Z_p factors of its own
    width = prefix
    while width < len(A.factors) and A.factors[width] == p:
        width += 1
    decode = A.decode
    tv, hv = rt.entries, hash_for(A).entries
    n = len(hv)
    digits = dict(zip(tv, zip(*A.columns(tv)[:prefix])))
    block = A.order // p**prefix  # the p-block is the non-zero multiples of this
    one = A.order // p  # (1, 0, ..., 0), as A starts with Z_p; -2 is (p - 2) * one
    failures = []
    for c1, clast in (((p - 2) * one, one), (one, (p - 2) * one)):
        # hv lists each non-zero index once, so c1 has one place to sit
        i = hv.index(c1)
        if hv[i - 1] == clast:
            start, hrev = i, False
        elif hv[(i + 1) % n] == clast:
            start, hrev = n - 1 - i, True
        else:
            failures.append("hash endpoints not adjacent")
            continue
        x = A.quot(sd.twist(q - 1)[c1], A.quot(A.quot(c1, 0), clast))
        y = A.quot(sd.twist(lam - 1)[clast], x)
        if x == 0 or y == 0:
            failures.append("degenerate endpoint targets")
            continue
        if x % block or y % block:
            failures.append("targets outside the p-block")
            continue
        if not _spans_plane(*zip(*A.columns([x, y])[:prefix]), p):
            failures.append("dependent targets")
            continue
        hops, ends = _hash_ops(1, start, hrev), (decode(x), decode(y))
        seq = hv[::-1] if hrev else hv
        cis = seq[start:] + seq[:start]
        for trev in (False, True):
            seq = tv[::-1] if trev else tv
            for j in range(len(seq)):
                fst, lst = seq[j], seq[j - 1]
                if fst % block or lst % block or not _spans_plane(digits[fst], digits[lst], p):
                    continue
                psi = pair_transport(A, p, width, (decode(fst), decode(lst)), ends)
                at = list(map(psi.table().__getitem__, seq[j:] + seq[:j]))
                arr = assemble(theorem4_assign(at, cis, sd, lam))
                cert = _certify(
                    sd,
                    arr,
                    {
                        **prov,
                        "lam": lam,
                        "hash_ops": hops,
                        "allocation": {"c1": decode(c1), "clast": decode(clast)},
                        "targets": {"a1": ends[0], "alast": ends[1]},
                        "pair": {"reversed": trev, "rotate": j},
                        "psi": [list(r) for r in psi.blocks[0].mat],
                        "r_terrace": _rows(A.columns(at)),
                        "hash": _rows(A.columns(cis)),
                    },
                )
                if cert:
                    return cert
        failures.append("no adjacent independent pair matched")
    raise ConstructionFailed("finish_template", f"finisher exhausted: {failures}", failures)


def _pk_base(p: int, k: int, seed: int) -> tuple[RTerrace, str]:
    """Standard R*-terrace of Z_p^k for the product chain.

    Small elementary-abelian squares are searched directly; larger ranks
    climb the product construction one Z_p factor at a time (the ladder
    leaves the endpoints dependent, which the finisher tolerates by
    scanning interior pairs).
    """
    seeds = range(seed, seed + 8)
    if p in (5, 7):
        cur = search_r_terrace_retry(
            AbelianSpec((p, p)), star=True, independent_ends=True, seeds=seeds
        )
        done, src = 2, "searched square"
    else:
        cur = search_r_terrace_retry(AbelianSpec((p,)), star=True, seeds=seeds)
        done, src = 1, "searched line"
    while done < k:
        cur = fgm_extend(cur, p)
        done += 1
        src += " + ladder"
    return cur, src


def _sequence_product(
    naut: NondiagAut, q: int, t: int, b: AbelianSpec, base: RTerrace, seed: int, prov: dict
) -> SequencingCertificate:
    """Sequencing of Z_q x| (Z_p^k x Z_t x B) from a standard R*-terrace base.

    naut acts on Z_p^k.  base is of Z_p^k when t = 1, or of Z_tp when t
    is 3 or 9, and then extended by Z_p first; B's factors fold in after.
    The CRT split of Z_tp runs on indices: (x, y, r) at (x*p + y)*|B| + r
    goes to (x mod p, y, x mod t, r).  prov holds the pipeline's own keys.
    """
    block = naut.alpha.blocks[0]
    p, k = block.p, block.width
    entries = fgm_extend_many(fgm_extend(base, p) if t > 1 else base, b).entries
    if t > 1:  # the CRT split of Z_tp, two divmods per entry
        nb, split = b.order, []
        for e in entries:
            xy, r = divmod(e, nb)
            x, y = divmod(xy, p)
            split.append((((x % p) * p + y) * t + x % t) * nb + r)
        entries = tuple(split)
    cofactors = ((t,) if t > 1 else ()) + b.factors
    a = AbelianSpec((p,) * k + cofactors)
    alpha = Automorphism((block,) + tuple(ScalarBlock(mod, 1) for mod in cofactors))
    shared = {"p": p, "q": q, "b": list(b.factors), "d": naut.d, "seed": seed}
    prov = {**prov, **shared, "alpha_block": [list(r) for r in block.mat]}
    sd = SdSpec(q, a, alpha)
    return _finish_template(sd, find_lambda(q), RTerrace(a, entries), p, k, prov)


def sequence_non3(
    p: int, k: int, q: int, b: Optional[AbelianSpec] = None, seed: int = 0
) -> SequencingCertificate:
    """Sequencing of Z_q x| (Z_p^k x B) for p != 3, odd B with 3 not | |B|."""
    b = b if b is not None else AbelianSpec(())
    _check_order(q, b.order, p, k)
    if not is_prime(p) or p == 3 or p < 5:
        raise ValueError(f"p must be a prime other than 3, got {p}")
    if pow(p, k, q) != 1:
        raise ValueError(f"p^k = {p}^{k} must be 1 mod q={q}")
    if b.order % 2 == 0 or b.order % 3 == 0:
        raise ValueError(f"|B| = {b.order} must be odd and coprime to 3")
    naut = build_nondiag_aut(p, k, q)
    base, src = _pk_base(p, k, seed)
    prov = {
        "pipeline": "non3",
        "k": k,
        "base_source": src,
        "base": _rows(base.group.columns(base.entries)),
    }
    return _sequence_product(naut, q, 1, b, base, seed, prov)


def sequence_theorem3(
    p: int,
    q: int,
    b: Optional[AbelianSpec] = None,
    nine: bool = False,
    seed: int = 0,
) -> SequencingCertificate:
    """Sequencing of Z_q x| (Z_p^2 x Z_3 x B), or with Z_9 when nine is set.

    The 3-part rides inside the leading cyclic factor of the product
    chain (Z_3p from the Walecki lift, Z_9p from a constrained search)
    and _sequence_product splits it off by CRT on the indices, so the
    FGM extension never sees a width divisible by 3.
    """
    b = b if b is not None else AbelianSpec(())
    _check_order(q, (9 if nine else 3) * b.order, p, 2)
    if not is_prime(p) or p == 3 or p < 5:
        raise ValueError(f"p must be a prime other than 3, got {p}")
    if (p * p) % q != 1:
        raise ValueError(f"p^2 = {p * p} must be 1 mod q={q}")
    if b.order % 2 == 0 or b.order % 3 == 0:
        raise ValueError(f"|B| = {b.order} must be odd and coprime to 3")
    naut = build_nondiag_aut(p, 2, q)
    if not nine:
        kg = (3 * p - 1) // 2
        lift = graceful_to_r_terrace(walecki_graceful(kg))
        j = 2 * p - 1  # the star of the lift
        base = RTerrace(lift.group, lift.entries[j:] + lift.entries[:j], 0)
        prov = {"walecki_k": kg, "star_index": j}
    else:
        base = search_r_terrace_retry(
            cyclic(9 * p),
            star=True,
            element_orders=[(0, p), (1, p), (-1, p)],
            seeds=range(seed, seed + 8),
        )
        prov = {
            "searched_base": list(base.entries),
            "order_constraints": [[0, p], [1, p], [-1, p]],
        }
    prov.update(pipeline="theorem3", nine=nine)
    return _sequence_product(naut, q, 9 if nine else 3, b, base, seed, prov)


# ---------------------------------------------------------------------------
# the spectrum driver


def sequence_order(n: int, seed: int = 0):
    """Certificate for some group of order n, or the negative verdict.

    Even orders take the Walecki terrace on Z_n; odd orders dispatch on
    the classification witness (cyclic preferred, then the product
    pipelines).  Returns TrivialOrder for n=1 and NoGroupBasedCLS when
    only abelian groups of odd order exist.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    cap = desk_cap(5000)
    if n > cap:
        raise DeskScaleExceeded(f"order {n} exceeds pipeline cap {cap}")
    if n == 1:
        return TrivialOrder()
    if n % 2 == 0:
        cert = _certify(cyclic(n), walecki_terrace(n), {"pipeline": "walecki", "n": n})
        if cert is None:
            raise ConstructionFailed("sequence_order", "Walecki terrace failed the checker")
        return cert
    cls = classify_order(n)
    if cls.witness is None:
        return NoGroupBasedCLS(n, cls.verdict)
    w = cls.witness
    if w.pipeline == "cyclic":
        return sequence_cyclic(w.q, w.m)
    if w.pipeline == "non3":
        return sequence_non3(w.p, w.k, w.q, AbelianSpec(w.b_factors), seed=seed)
    return sequence_theorem3(
        w.p, w.q, AbelianSpec(w.b_factors), nine=w.nine, seed=seed
    )
