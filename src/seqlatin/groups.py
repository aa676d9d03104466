"""Finite groups used throughout the package.

Three group classes, one per kind, share one protocol:

    .order          number of elements
    .identity       the identity element
    .elements()     iterator over all elements in a fixed canonical order
    .mul(a, b)      group product
    .inv(a)         group inverse

* AbelianSpec   -- direct product of cyclic groups, elements are int tuples
* SdSpec        -- semidirect product of Z_s acting on an AbelianSpec
* TableGroup    -- arbitrary finite group given by its Cayley table

Abelian elements are plain tuples of ints, one coordinate per cyclic
factor, always reduced mod the factor.  Semidirect elements are pairs
(u, v) with u an int mod s and v an abelian element.  Table elements are
the indices 0..n-1 into the table itself.

Each class also owns the group's integer encoding: an element is its
position in elements(), and for indices g, h, i and j

    .indices(es)    strict positions of outside input, or None when
                    some entry is not an element
    .quot(i, j)     index of inv(g_i) * g_j
    .quots(idx)     quot of every consecutive pair of an index list
    .decode(i)      the element at index i
    .columns(idx)   coordinate k of the element at each index, for
                    every k: u first for a semidirect product
    .row(g)         row(g)[h] is the index of g * h

with .diffs and .subgroups on an AbelianSpec and .twist on an SdSpec.
An Automorphism's .table() lists index(alpha(v)) for every index v, as
the twist table and the product finisher's psi read it.
The constructions of the certificate path, the terrace gate,
certificates, squares and the exhaustive oracle work on indices.  A
group builds each of its tables, O(n) ints, on first use and keeps it
out of its dataclass fields, so repr, == and hash see the fields alone;
each row is built on demand in O(n) list operations.

The JSON descriptor for a group is one of

    {"abelian": [n1, n2, ...]}
    {"semidirect": {"s": q, "base": [n1, ...], "alpha": {"blocks": [...]}}}
    {"table": {"n": n, "mul": [[...], ...], "id": i}}

where an alpha block is {"kind": "scalar", "modulus": m, "unit": r} or
{"kind": "matrix", "p": p, "rows": [[...], ...]}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .errors import (
    GroupFormatError,
    NotIndependent,
    OrderMismatch,
    ShapeMismatch,
)
from .numtheory import is_prime

AbElem = tuple[int, ...]
SdElem = tuple[int, AbElem]

# the widest matrix block read: the pipelines build width 4 at most, and
# the automorphism check costs width^3 per step
MATRIX_WIDTH_LIMIT = 8


# ---------------------------------------------------------------------------
# modular matrix helpers (used by matrix automorphism blocks)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int):
    """Product of two square matrices over Z_p, returned as tuple rows."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n))
        for i in range(n)
    )


def mat_identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(m: Sequence[Sequence[int]], e: int, p: int):
    """m^e over Z_p; a negative e powers the inverse."""
    result = mat_identity(len(m))
    base = tuple(tuple(row) for row in m) if e >= 0 else mat_inv(m, p)
    e = abs(e)
    while e > 0:
        if e & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return result


def mat_vec(m: Sequence[Sequence[int]], v: Sequence[int], p: int) -> tuple[int, ...]:
    n = len(m)
    if len(v) != n:
        raise ShapeMismatch(f"matrix is {n}x{n} but vector has length {len(v)}")
    return tuple(sum(m[i][j] * v[j] for j in range(n)) % p for i in range(n))


def mat_inv(m: Sequence[Sequence[int]], p: int):
    """Inverse of a square matrix over Z_p by Gauss-Jordan elimination.

    Raises ShapeMismatch if the matrix is singular mod p.
    """
    n = len(m)
    aug = [
        [x % p for x in row] + [1 if i == j else 0 for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p != 0), None)
        if pivot is None:
            raise ShapeMismatch(f"matrix singular mod {p}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_piv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv_piv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def extend_to_basis(vectors: Sequence[Sequence[int]], k: int, p: int):
    """Extend independent vectors in F_p^k to a full basis.

    Returns a k x k matrix whose first columns are the given vectors.
    Raises NotIndependent if the given vectors are already dependent.
    """
    basis: list[tuple[int, ...]] = []
    # row-echelon bookkeeping: pivots[i] = leading column of reduced basis[i]
    reduced: list[list[int]] = []
    pivots: list[int] = []

    def try_add(vec, required):
        row = [x % p for x in vec]
        for lead, red in zip(pivots, reduced):
            if row[lead]:
                factor = row[lead]
                row = [(x - factor * y) % p for x, y in zip(row, red)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            if required:
                raise NotIndependent("given vectors are linearly dependent")
            return False
        inv_lead = pow(row[lead], -1, p)
        reduced.append([(x * inv_lead) % p for x in row])
        pivots.append(lead)
        basis.append(tuple(x % p for x in vec))
        return True

    for vec in vectors:
        try_add(vec, required=True)
    for j in range(k):
        if len(basis) == k:
            break
        unit = tuple(1 if i == j else 0 for i in range(k))
        try_add(unit, required=False)
    if len(basis) != k:
        raise NotIndependent("could not complete basis")
    # columns of the result are the basis vectors
    return tuple(tuple(basis[j][i] for j in range(k)) for i in range(k))


# ---------------------------------------------------------------------------
# abelian groups


@dataclass(frozen=True)
class AbelianSpec:
    """Direct product Z_{m_1} x ... x Z_{m_k} with m_i >= 2.

    An empty factor list is the trivial group with single element ().
    Elements enumerate in mixed-radix order, leftmost coordinate most
    significant, so an element's index is its mixed-radix value.

    row(g) lists index(g + h) for every h in elements() order.  Translating
    by g rotates the last coordinate inside each run of equal leading
    coordinates, and moves the runs as the leading coordinates' own row
    says, so a row is a concatenation of slices of doubled runs; no cell
    is computed on its own.  quot works on the same split: the last
    coordinate by arithmetic, the rest by the lead.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))
        for m in self.factors:
            if not isinstance(m, int) or m < 2:
                raise GroupFormatError(f"cyclic factor {m!r} must be an int >= 2")

    @cached_property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def identity(self) -> AbElem:
        return (0,) * len(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors) if self.factors else 1

    def elements(self) -> Iterator[AbElem]:
        return itertools.product(*(range(m) for m in self.factors))

    def add(self, a: Sequence[int], b: Sequence[int]) -> AbElem:
        self._check(a), self._check(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def neg(self, a: Sequence[int]) -> AbElem:
        self._check(a)
        return tuple((-x) % m for x, m in zip(a, self.factors))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> AbElem:
        self._check(a), self._check(b)
        return tuple((x - y) % m for x, y, m in zip(a, b, self.factors))

    # protocol aliases so abelian groups plug into generic group code
    def mul(self, a, b):
        return self.add(a, b)

    def inv(self, a):
        return self.neg(a)

    def element_order(self, a: Sequence[int]) -> int:
        self._check(a)
        if not self.factors:
            return 1
        return math.lcm(*(m // math.gcd(m, x) for x, m in zip(a, self.factors)))

    def _check(self, a):
        if len(a) != len(self.factors):
            raise ShapeMismatch(
                f"element of length {len(a)} in group with {len(self.factors)} factors"
            )

    # integer encoding

    @cached_property
    def _last(self) -> int:
        return self.factors[-1] if self.factors else 1

    @cached_property
    def _lead(self) -> Optional[AbelianSpec]:
        """The group of every coordinate but the last, or None when that is trivial."""
        return AbelianSpec(self.factors[:-1]) if len(self.factors) > 1 else None

    def _run_table(self, span: int) -> list[list[int]]:
        """The doubled runs of last-coordinate indices that cover 0..span-1."""
        last = self._last
        return [list(range(lo, lo + last)) * 2 for lo in range(0, span, last)]

    @cached_property
    def _runs(self) -> list[list[int]]:
        return self._run_table(self.order)

    def indices(self, elems) -> Optional[list[int]]:
        """index(e) for every e, or None when one is not an element.

        The strict map for outside input: a coordinate outside 0..m-1 is
        not an element and is not reduced mod m, and an element of the
        wrong length raises ShapeMismatch.
        """
        elems = list(elems)
        factors = self.factors
        k = len(factors)
        if list(map(len, elems)).count(k) != len(elems):
            raise ShapeMismatch(f"element of the wrong length in group with {k} factors")
        cols = list(zip(*elems))
        if not cols:  # the trivial group, or no elements
            return [0] * len(elems)
        for col, m in zip(cols, factors):
            if min(col) < 0 or max(col) >= m:
                return None
        idx = list(cols[0])
        for col, m in zip(cols[1:], factors[1:]):
            idx = [i * m + x for i, x in zip(idx, col)]
        return idx

    def quot(self, i: int, j: int) -> int:
        """index(g_j - g_i): digitwise subtraction."""
        last = self._last
        if self._lead is None:
            return (j - i) % last
        return self._lead.quot(i // last, j // last) * last + (j - i) % last

    def diffs(self, xs, ys) -> list[int]:
        """quot(x, y) for every pair, one loop per factor."""
        last = self._last
        tail = [(j - i) % last for i, j in zip(xs, ys)]
        if self._lead is None:
            return tail
        head = self._lead.diffs([i // last for i in xs], [j // last for j in ys])
        return [h * last + t for h, t in zip(head, tail)]

    def quots(self, idx) -> list[int]:
        """quot(idx[k], idx[k + 1]) for every k of an index list."""
        return self.diffs(idx, idx[1:])

    def columns(self, idx) -> list[list[int]]:
        """Coordinate k of the element at each index, for every factor k."""
        factors = self.factors
        cols = []
        for m in reversed(factors[1:]):
            cols.append([i % m for i in idx])
            idx = [i // m for i in idx]
        return [list(idx), *reversed(cols)] if factors else []

    def decode(self, i: int) -> AbElem:
        return tuple(col[0] for col in self.columns([i]))

    @cached_property
    def subgroups(self) -> list[int]:
        """The cyclic subgroup of each element as a bitmask of indices.

        Bit h of subgroups[g] is set when g_h is a multiple of g_g, so two
        elements' subgroups meet only in 0 when their masks share bit 0
        alone, and a mask's bit count is its element's order.
        """
        masks = []
        for g in range(self.order):
            step, mask, cur = self.row(g), 0, 0
            while not mask >> cur & 1:
                mask |= 1 << cur
                cur = step[cur]
            masks.append(mask)
        return masks

    def row(self, g: int) -> list[int]:
        """index(g + h) for every h, in elements() order."""
        return self._row(g, self._runs, 0)

    def _row(self, g: int, runs: list[list[int]], first: int) -> list[int]:
        """row(g) read from `runs` starting at run `first`: an SdSpec passes
        its own run table, which spans its order, to offset a base row."""
        last = self._last
        lead, c = divmod(g, last)
        stop = c + last
        if self._lead is None:
            return runs[first][c:stop]
        out: list[int] = []
        for p in self._lead.row(lead):
            out += runs[first + p][c:stop]
        return out


def cyclic(n: int) -> AbelianSpec:
    return AbelianSpec((n,))


# ---------------------------------------------------------------------------
# automorphisms of abelian groups


@dataclass(frozen=True)
class ScalarBlock:
    """Coordinate multiplied by a fixed unit mod its factor."""

    modulus: int
    unit: int

    def __post_init__(self):
        if self.modulus < 2:
            raise GroupFormatError(f"scalar block modulus {self.modulus} must be >= 2")
        if math.gcd(self.unit, self.modulus) != 1:
            raise GroupFormatError(
                f"scalar {self.unit} is not a unit mod {self.modulus}"
            )
        object.__setattr__(self, "unit", self.unit % self.modulus)

    @property
    def width(self) -> int:
        return 1

    def is_identity_power(self, e: int) -> bool:
        return pow(self.unit, e, self.modulus) == 1

    def apply_power(self, e: int, v: Sequence[int]) -> tuple[int, ...]:
        return ((pow(self.unit, e, self.modulus) * v[0]) % self.modulus,)


@dataclass(frozen=True)
class MatrixBlock:
    """A run of coordinates mod the same prime p, acted on by a matrix.

    The width is at most MATRIX_WIDTH_LIMIT and p a prime that
    numtheory.is_prime decides (above its factoring limit it raises
    DeskScaleExceeded), so every power costs a bounded number of steps.
    """

    p: int
    mat: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.p < 2:
            raise GroupFormatError(f"matrix block modulus {self.p} must be >= 2")
        rows = tuple(tuple(x % self.p for x in row) for row in self.mat)
        object.__setattr__(self, "mat", rows)
        if any(len(row) != len(rows) for row in rows):
            raise GroupFormatError("matrix block must be square")
        if len(rows) > MATRIX_WIDTH_LIMIT:
            raise GroupFormatError(
                f"matrix block width {len(rows)} exceeds {MATRIX_WIDTH_LIMIT}"
            )
        if not is_prime(self.p):
            raise GroupFormatError(f"matrix block modulus {self.p} is not a prime")
        try:
            mat_inv(rows, self.p)
        except ShapeMismatch:
            raise GroupFormatError(f"matrix block is singular mod {self.p}") from None

    @property
    def width(self) -> int:
        return len(self.mat)

    def is_identity_power(self, e: int) -> bool:
        """Whether mat^e = 1, with e reduced mod |GL(width, p)|, which every
        invertible matrix's order divides."""
        p, w = self.p, self.width
        gl_order = math.prod(p**w - p**i for i in range(w))
        return mat_pow(self.mat, e % gl_order, p) == mat_identity(w)

    @cached_property
    def _powers(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {0: mat_identity(self.width), 1: self.mat}

    def apply_power(self, e: int, v: Sequence[int]) -> tuple[int, ...]:
        powers = self._powers
        if e not in powers:
            powers[e] = mat_pow(self.mat, e, self.p)
        return mat_vec(powers[e], v, self.p)


@dataclass(frozen=True)
class Automorphism:
    """Blockwise automorphism of an AbelianSpec.

    Blocks cover the coordinates in order; each is a ScalarBlock or a
    MatrixBlock.  This covers every action the constructions need
    (diagonal scalings and matrix actions on elementary abelian layers).
    """

    blocks: tuple[ScalarBlock | MatrixBlock, ...]

    def __post_init__(self):
        if not isinstance(self.blocks, tuple):
            object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def width(self) -> int:
        return sum(b.width for b in self.blocks)

    def matches(self, spec: AbelianSpec) -> bool:
        moduli: list[int] = []
        for b in self.blocks:
            if isinstance(b, ScalarBlock):
                moduli.append(b.modulus)
            else:
                moduli.extend([b.p] * b.width)
        return tuple(moduli) == spec.factors

    def apply_power(self, e: int, v: Sequence[int]) -> AbElem:
        if len(v) != self.width:
            raise ShapeMismatch(
                f"element of length {len(v)} under automorphism of width {self.width}"
            )
        out: list[int] = []
        pos = 0
        for b in self.blocks:
            out.extend(b.apply_power(e, v[pos : pos + b.width]))
            pos += b.width
        return tuple(out)

    def apply(self, v: Sequence[int]) -> AbElem:
        return self.apply_power(1, v)

    def table(self) -> list[int]:
        """index(alpha(v)) for every index v: the mixed-radix product of the
        blocks' tables.  Digit k of a matrix block's image is linear in v,
        sum_j mat[k][j] * v_j mod p, built a column at a time in O(w * p^w)."""
        out = [0]
        for b in self.blocks:
            if isinstance(b, ScalarBlock):
                images = [b.unit * x % b.modulus for x in range(b.modulus)]
            else:
                p, images = b.p, [0] * b.p**b.width
                for row in b.mat:
                    digit = [0]
                    for c in row:
                        digit = [(t + c * x) % p for t in digit for x in range(p)]
                    images = [i * p + t for i, t in zip(images, digit)]
            out = [i * len(images) + t for i in out for t in images]
        return out


# ---------------------------------------------------------------------------
# semidirect products Z_q acting on an abelian group


@dataclass(frozen=True)
class SdSpec:
    """Semidirect product of Z_s acting on `base` through `alpha`.

    Elements are pairs (u, v), u in Z_s and v in base.  The product is
        (u, v) * (x, y) = (u + x, alpha^x(v) + y)
    so alpha twists the left factor by how far the right one moves.

    (u, v) sits at index u * |A| + index(v), so the row of (u, v) is, for
    each x, the base row of alpha^x(v) offset by ((u + x) mod s) * |A|,
    and the quotient inv(u, v) * (x, y) is (d, y - alpha^d(v)) with
    d = x - u.  Besides the base's own tables, the group keeps the base
    runs spanning its order, which offset base rows with no per-cell
    arithmetic, and index(alpha^x(v)) for every x and v: s * |A| ints.
    """

    s: int
    base: AbelianSpec
    alpha: Automorphism

    def __post_init__(self):
        if self.s < 2:
            raise GroupFormatError(f"s must be >= 2, got {self.s}")
        if not self.alpha.matches(self.base):
            raise GroupFormatError("automorphism blocks do not match the base group")
        # alpha^s = 1 by fast powering, O(log s)
        if not all(b.is_identity_power(self.s) for b in self.alpha.blocks):
            raise OrderMismatch(f"automorphism order does not divide s={self.s}")

    @property
    def order(self) -> int:
        return self.s * self.base.order

    @property
    def identity(self) -> SdElem:
        return (0, self.base.identity)

    def elements(self) -> Iterator[SdElem]:
        for u in range(self.s):
            for v in self.base.elements():
                yield (u, v)

    def mul(self, g: SdElem, h: SdElem) -> SdElem:
        (u, v), (x, y) = g, h
        return (
            (u + x) % self.s,
            self.base.add(self.alpha.apply_power(x % self.s, v), y),
        )

    def inv(self, g: SdElem) -> SdElem:
        u, v = g
        nu = (-u) % self.s
        return (nu, self.base.neg(self.alpha.apply_power(nu, v)))

    # integer encoding

    @cached_property
    def _runs(self) -> list[list[int]]:
        return self.base._run_table(self.order)

    @cached_property
    def _twists(self) -> list[list[int]]:
        once = self.alpha.table()
        twists = [list(range(self.base.order))]
        for _ in range(1, self.s):
            twists.append([once[i] for i in twists[-1]])
        return twists

    def indices(self, elems) -> Optional[list[int]]:
        """Strict index of every (u, v), or None when one is not an element.

        u must lie in 0..s-1 and v in the base as AbelianSpec.indices
        reads it.
        """
        elems = list(elems)
        if not elems:
            return []
        if list(map(len, elems)).count(2) != len(elems):
            raise ShapeMismatch("a semidirect element is a pair (u, v)")
        us, vs = zip(*elems)
        vs = self.base.indices(vs)
        if vs is None or min(us) < 0 or max(us) >= self.s:
            return None
        na = self.base.order
        return [u * na + i for u, i in zip(us, vs)]

    def twist(self, e: int) -> list[int]:
        """index(alpha^e(v)) for every base index v."""
        return self._twists[e % self.s]

    def quot(self, i: int, j: int) -> int:
        """index(inv(g_i) * g_j) = d * |A| + index(y - alpha^d(v))."""
        na = self.base.order
        d = (j // na - i // na) % self.s
        return d * na + self.base.quot(self._twists[d][i % na], j % na)

    def quots(self, idx) -> list[int]:
        """quot(idx[k], idx[k + 1]) for every k of an index list."""
        s, na, twists = self.s, self.base.order, self._twists
        nxt = idx[1:]
        ds = [(j // na - i // na) % s for i, j in zip(idx, nxt)]
        if self.base._lead is None:  # one factor: subtract mod |A| inline
            return [d * na + (j - twists[d][i % na]) % na for d, i, j in zip(ds, idx, nxt)]
        vs = [twists[d][i % na] for d, i in zip(ds, idx)]
        diffs = self.base.diffs(vs, [j % na for j in nxt])
        return [d * na + b for d, b in zip(ds, diffs)]

    def columns(self, idx) -> list[list[int]]:
        """u, then each base coordinate, of the element at each index."""
        na = self.base.order
        return [[i // na for i in idx], *self.base.columns([i % na for i in idx])]

    def decode(self, i: int) -> SdElem:
        na = self.base.order
        return (i // na, self.base.decode(i % na))

    def row(self, g: int) -> list[int]:
        s, na, base, runs = self.s, self.base.order, self.base, self._runs
        u, iv = divmod(g, na)
        per = na // base._last  # base runs per coset of the base
        out: list[int] = []
        for x, twist in enumerate(self._twists):
            out += base._row(twist[iv], runs, ((u + x) % s) * per)
        return out


# ---------------------------------------------------------------------------
# table groups


class TableGroup:
    """Finite group presented by its Cayley table.

    Elements are the indices 0..n-1; rows[i][j] is the index of the
    product i*j.  Validation checks the Latin property, identity,
    inverses and, by Light's test over a generating set, associativity
    in O(n^2 log n).
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise GroupFormatError("table must be square and non-empty")
        self._rows = [list(r) for r in rows]
        for row in self._rows:
            for x in row:
                if type(x) is not int or not 0 <= x < n:
                    raise GroupFormatError(f"table entry {x!r} is not an index < {n}")
        self._identity = self._find_identity()
        self._validate()
        ident = self._identity
        self._inv = [-1] * n
        for i in range(n):
            for j in range(n):
                if self._rows[i][j] == ident:
                    self._inv[i] = j
                    break
            if self._inv[i] < 0:
                raise GroupFormatError(f"element {i} has no inverse")

    def _find_identity(self) -> int:
        n = len(self._rows)
        for e in range(n):
            if self._rows[e] == list(range(n)) and all(
                self._rows[j][e] == j for j in range(n)
            ):
                return e
        raise GroupFormatError("table has no identity element")

    def _validate(self):
        n = len(self._rows)
        rows = self._rows
        for i in range(n):
            if len(set(rows[i])) != n:
                raise GroupFormatError(f"row {i} repeats an element")
            if len({rows[j][i] for j in range(n)}) != n:
                raise GroupFormatError(f"column {i} repeats an element")
        # Light's test: in a Latin table the j with (i*j)*k == i*(j*k) for
        # all i, k are closed under products, so a generating set suffices.
        # Each greedy generator of a group at least doubles the subgroup reached.
        gens: list[int] = []
        reached = {self._identity}
        for g in range(n):
            if g in reached:
                continue
            gens.append(g)
            if len(gens) >= n.bit_length():
                raise GroupFormatError(f"no group of order {n} needs {len(gens)} generators")
            reached, todo = {self._identity}, [self._identity]
            for x in todo:
                new = {rows[x][j] for j in gens} - reached
                reached |= new
                todo.extend(new)
        for j in gens:
            # (i*j)*k == i*(j*k) for all k collapses to a row comparison
            for i in range(n):
                ri = rows[i]
                if rows[ri[j]] != [ri[x] for x in rows[j]]:
                    raise GroupFormatError(f"not associative at ({i}, {j})")

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def identity(self) -> int:
        return self._identity

    def elements(self):
        return iter(range(len(self._rows)))

    def _element(self, a) -> int:
        """a itself, or GroupFormatError when a is not an int in 0..n-1."""
        n = len(self._rows)
        if type(a) is not int or not 0 <= a < n:
            raise GroupFormatError(f"{a!r} is not an element of a table group of order {n}")
        return a

    def mul(self, a: int, b: int) -> int:
        return self._rows[self._element(a)][self._element(b)]

    def inv(self, a: int) -> int:
        return self._inv[self._element(a)]

    # integer encoding: a table group is already encoded, its rows are
    # the product rows

    def indices(self, elems) -> Optional[list[int]]:
        """The elements themselves, or None when one is not an int in 0..n-1."""
        n = len(self._rows)
        idx = list(elems)
        return idx if all(type(e) is int and 0 <= e < n for e in idx) else None

    def quot(self, i: int, j: int) -> int:
        return self._rows[self._inv[i]][j]

    def quots(self, idx) -> list[int]:
        rows, inv = self._rows, self._inv
        return [rows[inv[i]][j] for i, j in zip(idx, idx[1:])]

    def columns(self, idx) -> list[list[int]]:
        return [list(idx)]

    def decode(self, i: int) -> int:
        return i

    def row(self, g: int) -> list[int]:
        return list(self._rows[g])


# ---------------------------------------------------------------------------
# descriptors (JSON-friendly dicts)


def automorphism_to_descriptor(alpha: Automorphism) -> dict:
    blocks = []
    for b in alpha.blocks:
        if isinstance(b, ScalarBlock):
            blocks.append({"kind": "scalar", "modulus": b.modulus, "unit": b.unit})
        else:
            blocks.append({"kind": "matrix", "p": b.p, "rows": [list(r) for r in b.mat]})
    return {"blocks": blocks}


def _field(body, key: str, what: str):
    if not isinstance(body, dict) or key not in body:
        raise GroupFormatError(f"{what} needs a {key!r} field")
    return body[key]


def _int(x, what: str) -> int:
    """x itself when it is a JSON integer (not a float, string or bool)."""
    if type(x) is not int:
        raise GroupFormatError(f"{what} must be an integer, got {x!r}")
    return x


def _list(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise GroupFormatError(f"{what} must be a list")
    return raw


def _ints(raw, what: str) -> tuple[int, ...]:
    return tuple(_int(x, what) for x in _list(raw, what))


def automorphism_from_descriptor(obj: dict) -> Automorphism:
    raw = _list(_field(obj, "blocks", "automorphism descriptor"), "'blocks'")
    blocks: list[ScalarBlock | MatrixBlock] = []
    for item in raw:
        kind = _field(item, "kind", "automorphism block")
        if kind == "scalar":
            modulus = _int(_field(item, "modulus", "scalar block"), "modulus")
            unit = _int(_field(item, "unit", "scalar block"), "unit")
            blocks.append(ScalarBlock(modulus, unit))
        elif kind == "matrix":
            rows = _list(_field(item, "rows", "matrix block"), "matrix rows")
            mat = tuple(_ints(r, "matrix row") for r in rows)
            blocks.append(MatrixBlock(_int(_field(item, "p", "matrix block"), "p"), mat))
        else:
            raise GroupFormatError(f"unknown automorphism block kind {kind!r}")
    return Automorphism(tuple(blocks))


def group_to_descriptor(group) -> dict:
    if isinstance(group, AbelianSpec):
        return {"abelian": list(group.factors)}
    if isinstance(group, SdSpec):
        return {
            "semidirect": {
                "s": group.s,
                "base": list(group.base.factors),
                "alpha": automorphism_to_descriptor(group.alpha),
            }
        }
    if isinstance(group, TableGroup):
        return {
            "table": {
                "n": group.order,
                "mul": [group.row(g) for g in group.elements()],
                "id": group.identity,
            }
        }
    raise GroupFormatError(f"cannot describe group of type {type(group).__name__}")


def group_from_descriptor(obj: dict):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise GroupFormatError(
            "group descriptor must be an object with exactly one of "
            "'abelian', 'semidirect', 'table'"
        )
    if "abelian" in obj:
        return AbelianSpec(_ints(obj["abelian"], "'abelian'"))
    if "semidirect" in obj:
        body = obj["semidirect"]
        what = "semidirect descriptor"
        return SdSpec(
            s=_int(_field(body, "s", what), "'s'"),
            base=AbelianSpec(_ints(_field(body, "base", what), "'base'")),
            alpha=automorphism_from_descriptor(_field(body, "alpha", what)),
        )
    if "table" in obj:
        body = obj["table"]
        rows = _list(_field(body, "mul", "table descriptor"), "'mul'")
        grp = TableGroup([_list(r, "table row") for r in rows])
        if "n" in body and _int(body["n"], "'n'") != grp.order:
            raise GroupFormatError("table descriptor 'n' does not match the table")
        if "id" in body and _int(body["id"], "'id'") != grp.identity:
            raise GroupFormatError("table descriptor 'id' is not the identity")
        return grp
    raise GroupFormatError(f"unknown group descriptor keys {sorted(obj)!r}")
