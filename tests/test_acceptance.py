"""Acceptance gate: ten independent criteria, one timed pass line each.

Every test re-derives its expectations from first principles (brute-force
condition evaluators, combinatorial checkers) rather than trusting the
construction code, and asserts the runtime budget it was promised.
Run with `-s` to see the per-criterion lines.
"""

import time

import sympy

from seqlatin.graceful import (
    graceful_to_r_terrace,
    graceful_with_first,
    is_graceful,
    walecki_graceful,
)
from seqlatin.groups import AbelianSpec, cyclic
from seqlatin.harmonious import bghj_base, hash_for
from seqlatin.latin import (
    LatinSquare,
    completeness_report,
    is_directed_terrace,
    terrace_to_complete_square,
    walecki_terrace,
)
from seqlatin.numtheory import classify_order, unit_of_order_exists
from seqlatin.oracle import (
    d8_table,
    enumerate_graceful,
    exhaustive_sequencings,
    naive_harmonious,
    naive_hash_harmonious,
    q8_table,
    s3_table,
)
from seqlatin.pipelines import (
    sequence_cyclic,
    sequence_non3,
    sequence_order,
    sequence_theorem3,
)
from seqlatin.rotational import RTerrace, check_r_terrace, fgm_extend, make_r_terrace


def _line(num: int, budget: float, elapsed: float, detail: str) -> None:
    cap = f" / {budget:.0f}s" if budget else ""
    print(f"criterion {num:2d}: PASS  {elapsed:6.2f}s{cap}  {detail}")


# --- 1: spectrum agreement -------------------------------------------------


def _independent_verdict(n: int) -> str:
    """Brute-force reading of the order condition, kept apart from the
    package's own factor walk on purpose."""
    if n == 1:
        return "Trivial"
    if n % 2 == 0:
        return "Even"
    f = sympy.factorint(n)
    cube = any(a >= 3 for a in f.values())
    cross = any(
        pow(p, k, q) == 1
        for p, a in f.items()
        for q in f
        if q != p
        for k in range(1, a + 1)
    )
    return "OddNonabelianExists" if cube or cross else "OddOnlyAbelian"


def test_criterion_01_spectrum():
    spots = {
        1: "Trivial",
        2: "Even",
        9: "OddOnlyAbelian",
        15: "OddOnlyAbelian",
        21: "OddNonabelianExists",
        27: "OddNonabelianExists",
        33: "OddOnlyAbelian",
        63: "OddNonabelianExists",
        75: "OddNonabelianExists",
    }
    t0 = time.perf_counter()
    for n in range(1, 1001):
        assert classify_order(n).verdict == _independent_verdict(n), n
    for n, want in spots.items():
        assert classify_order(n).verdict == want, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, 1, elapsed, "all n <= 1000 match the brute-force condition")


# --- 2: cyclic pipeline sweep ----------------------------------------------


def test_criterion_02_cyclic_sweep():
    pairs = [
        (q, m)
        for q in (3, 5, 7)
        for m in range(3, 201, 2)
        if unit_of_order_exists(m, q)
    ]
    for need in ((3, 7), (3, 9), (3, 13), (5, 11), (7, 29)):
        assert need in pairs
    t0 = time.perf_counter()
    for q, m in pairs:
        cert = sequence_cyclic(q, m)
        ok, _ = is_directed_terrace(cert.group, cert.indices)
        assert ok, (q, m)
        rep = completeness_report(terrace_to_complete_square(cert.group, cert.terrace))
        assert rep.is_complete, (q, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(2, 30, elapsed, f"{len(pairs)} unit-bearing (q, m) pairs, terrace + square")


# --- 3 and 4: fixed-product pipelines --------------------------------------


def test_criterion_03_orders_75_525():
    for b, order, budget in ((None, 75, 10.0), (cyclic(7), 525, 10.0)):
        t0 = time.perf_counter()
        cert = sequence_non3(5, 2, 3, b=b)
        ok, _ = is_directed_terrace(cert.group, cert.indices)
        elapsed = time.perf_counter() - t0
        assert cert.group.order == order
        assert ok
        assert elapsed < budget
        _line(3, budget, elapsed, f"order {order} certificate verified")


def test_criterion_04_orders_225_675():
    t0 = time.perf_counter()
    for nine, order in ((False, 225), (True, 675)):
        cert = sequence_theorem3(5, 3, nine=nine)
        ok, _ = is_directed_terrace(cert.group, cert.indices)
        assert cert.group.order == order
        assert ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(4, 60, elapsed, "orders 225 and 675, searches included")


# --- 5: square round-trip and mutation sensitivity -------------------------


def _mutation_breaks(grid, n: int, r: int, c: int, w: int) -> bool:
    row = list(grid[r])
    row[c] = w
    if len(set(row)) != n:
        return True
    col = [grid[i][c] if i != r else w for i in range(n)]
    if len(set(col)) != n:
        return True
    mutated = [list(rw) for rw in grid]
    mutated[r][c] = w
    rep = completeness_report(LatinSquare(n, tuple(tuple(rw) for rw in mutated)))
    return not (rep.is_latin and rep.is_row_complete and rep.is_column_complete)


def test_criterion_05_gordon_round_trip():
    t0 = time.perf_counter()
    for order in (2, 4, 6, 8, 21, 27, 55, 75):
        cert = sequence_order(order)
        sq = terrace_to_complete_square(cert.group, cert.terrace)
        rep = completeness_report(sq)
        assert rep.is_latin and rep.is_row_complete and rep.is_column_complete, order
        n = sq.n
        for r in range(n):
            for c in range(n):
                v = sq.grid[r][c]
                for w in range(n):
                    if w != v:
                        assert _mutation_breaks(sq.grid, n, r, c, w), (order, r, c, w)
    elapsed = time.perf_counter() - t0
    _line(5, 0, elapsed, "8 orders round-trip; every single-cell rewrite breaks")


# --- 6: exhaustive oracle --------------------------------------------------


def test_criterion_06_oracle():
    t0 = time.perf_counter()
    for g in (cyclic(3), cyclic(5), cyclic(7), cyclic(9), s3_table(), d8_table(), q8_table()):
        res = exhaustive_sequencings(g)
        assert res.count == 0 and res.exhausted, g
    for n in (2, 4, 6, 8, 10):
        g = cyclic(n)
        res = exhaustive_sequencings(g, limit=1)
        assert res.count >= 1
        ok, _ = is_directed_terrace(g, g.indices(res.terraces[0]))
        assert ok, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(6, 60, elapsed, "7 empty spectra exhausted, 5 even orders witnessed")


# --- 7: matched-pair bases -------------------------------------------------


def test_criterion_07_matched_pairs():
    t0 = time.perf_counter()

    def elems(seq):  # base indices decoded for the naive checkers
        return list(zip(*seq.group.columns(seq.entries)))

    for m in range(5, 100, 2):
        mp = bghj_base(cyclic(m))
        assert naive_hash_harmonious(mp.hash.group, elems(mp.hash)), m
        assert naive_harmonious(mp.harm.group, elems(mp.harm)), m
    g33 = AbelianSpec((3, 3))
    mp = bghj_base(g33)
    assert naive_hash_harmonious(g33, elems(mp.hash)) and naive_harmonious(g33, elems(mp.harm))
    for g in (cyclic(15), cyclic(21), AbelianSpec((5, 5)), AbelianSpec((3, 3, 3)),
              AbelianSpec((3, 3, 5))):
        assert naive_hash_harmonious(g, elems(hash_for(g))), g.factors
    for m in range(5, 200, 2):
        ints = bghj_base(cyclic(m)).hash.entries
        assert abs(ints.index(1) - ints.index(m - 2)) == 1, m
    elapsed = time.perf_counter() - t0
    _line(7, 0, elapsed, "bases 5..99 and Z_3^2; products; 1/-2 stay adjacent to 199")


# --- 8: graceful coverage --------------------------------------------------


def test_criterion_08_graceful():
    t0 = time.perf_counter()
    for k in range(1, 9):
        firsts = {p[0] for p in enumerate_graceful(k)}
        assert firsts == set(range(1, k + 1)), k
    worst = 0.0
    for k in range(1, 21):
        for x in range(1, k + 1):
            t1 = time.perf_counter()
            g = graceful_with_first(k, x)
            dt = time.perf_counter() - t1
            assert is_graceful(g) and g[0] == x, (k, x)
            assert dt < 1.0, (k, x, dt)
            worst = max(worst, dt)
    elapsed = time.perf_counter() - t0
    _line(8, 0, elapsed, f"k <= 8 full spectra; k <= 20 prescribed firsts, worst {worst:.3f}s")


# --- 9: product extension and the zig-zag star -----------------------------


def test_criterion_09_extension_and_star():
    t0 = time.perf_counter()
    lift = graceful_to_r_terrace(walecki_graceful(3))
    j = make_r_terrace(lift.group, lift.entries, require_star=True).star_index
    base = RTerrace(lift.group, lift.entries[j:] + lift.entries[:j], 0)
    assert base.group.order == 7 and base.is_standard
    ext = fgm_extend(base, 5)
    res = check_r_terrace(ext.group, ext.entries)
    assert len(ext.entries) == 34
    assert ext.group.order == 35
    assert res.is_r and 0 in res.star_indices and ext.is_standard
    for p in (5, 7):
        t = graceful_to_r_terrace(walecki_graceful((3 * p - 1) // 2))
        stars = check_r_terrace(t.group, t.entries).star_indices
        # position 2p in 1-based counting
        assert (2 * p - 1) in stars, (p, stars)
    elapsed = time.perf_counter() - t0
    _line(9, 0, elapsed, "34-entry standard extension; star at position 2p for p in {5, 7}")


# --- 10: zig-zag scaling ---------------------------------------------------


def test_criterion_10_walecki_scaling():
    t0 = time.perf_counter()
    for n in range(2, 513, 2):
        g = cyclic(n)
        t = walecki_terrace(n)
        ok, _ = is_directed_terrace(g, t)
        assert ok, n
        if n <= 256:
            rep = completeness_report(terrace_to_complete_square(g, [(x,) for x in t]))
            assert rep.is_complete, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _line(10, 5, elapsed, "terraces to 512, squares to 256")
