"""Walecki terraces, the Gordon square construction, completeness checks and the square cache."""

import dataclasses
import json
import random
import sys
import threading
import tracemalloc
from collections import OrderedDict
from itertools import islice, permutations, product

import pytest

from seqlatin import latin
from seqlatin.cli import main
from seqlatin.errors import NotATerrace, OddOrder
from seqlatin.groups import (
    AbelianSpec,
    SdSpec,
    TableGroup,
    cyclic,
    group_from_descriptor,
    group_to_descriptor,
)
from seqlatin.latin import (
    LatinSquare,
    completeness_report,
    is_directed_terrace,
    sequencing_square,
    terrace_to_complete_square,
    walecki_terrace,
)
from seqlatin.pipelines import sequence_cyclic, sequence_non3, sequence_order, sequence_theorem3


def _walecki(n):
    """Walecki's terrace of Z_n as elements, the outside form."""
    return tuple((x,) for x in walecki_terrace(n))


def _gate(group, elems):
    """The gate on outside input: the strict map first, None not a terrace."""
    idx = group.indices(elems)
    return (False, []) if idx is None else is_directed_terrace(group, idx)


def test_walecki_examples():
    assert walecki_terrace(2) == (0, 1)
    assert walecki_terrace(6) == (0, 5, 1, 4, 2, 3)
    assert walecki_terrace(8) == (0, 7, 1, 6, 2, 5, 3, 4)


def test_walecki_rejects_odd():
    with pytest.raises(OddOrder):
        walecki_terrace(5)
    with pytest.raises(OddOrder):
        walecki_terrace(0)


def test_walecki_is_terrace():
    for n in (2, 4, 10, 48):
        ok, quots = is_directed_terrace(cyclic(n), walecki_terrace(n))
        assert ok
        assert len(quots) == n - 1


def test_directed_terrace_negatives():
    z5 = cyclic(5)
    ok, _ = _gate(z5, tuple((x,) for x in range(5)))
    assert not ok  # all quotients equal 1
    z3 = cyclic(3)
    ok, _ = _gate(z3, ((0,), (1,), (2,)))
    assert not ok
    ok, _ = _gate(z5, ((0,), (1,), (1,), (3,), (4,)))
    assert not ok  # repeated element


def test_directed_terrace_multifactor():
    g = AbelianSpec((2, 2))
    ok, _ = _gate(g, ((0, 0), (0, 1), (1, 1), (1, 0)))
    # Z_2 x Z_2 has no terrace at all; quotient (0,1) repeats
    assert not ok


def test_square_shape_and_orders():
    n = 6
    sq = terrace_to_complete_square(cyclic(n), _walecki(n))
    assert sq.n == n
    assert len(sq.grid) == n and all(len(row) == n for row in sq.grid)


def test_square_rejects_non_terrace():
    with pytest.raises(NotATerrace):
        terrace_to_complete_square(cyclic(5), tuple((x,) for x in range(5)))


def test_walecki_squares_complete():
    for n in (2, 4, 6, 8, 12, 20):
        sq = terrace_to_complete_square(cyclic(n), _walecki(n))
        rep = completeness_report(sq)
        assert rep.is_latin and rep.is_row_complete and rep.is_column_complete
        assert rep.is_complete and rep.witness is None


def test_semidirect_square_complete():
    from seqlatin.pipelines import sequence_cyclic

    cert = sequence_cyclic(3, 7)
    sq = terrace_to_complete_square(cert.group, cert.terrace)
    assert sq.n == 21
    assert completeness_report(sq).is_complete


def test_fast_grid_matches_generic():
    # the integer-encoded builders must agree with index[mul(g, h)]
    from seqlatin.pipelines import sequence_cyclic

    cases = []
    cert = sequence_cyclic(3, 9)
    cases.append((cert.group, cert.terrace))
    cases.append((cyclic(10), _walecki(10)))
    for group, terrace in cases:
        sq = terrace_to_complete_square(group, terrace)
        seq = [tuple(e) for e in terrace]
        index = {e: i for i, e in enumerate(group.elements())}
        ref = tuple(
            tuple(index[group.mul(group.inv(g), h)] for h in seq) for g in seq
        )
        assert sq.grid == ref


def test_single_mutation_breaks_a_property():
    sq = terrace_to_complete_square(cyclic(8), _walecki(8))
    base = [list(row) for row in sq.grid]
    for r in range(8):
        for c in range(8):
            g = [row[:] for row in base]
            g[r][c] = (g[r][c] + 1) % 8
            mutated = dataclasses.replace(sq, grid=tuple(tuple(row) for row in g))
            rep = completeness_report(mutated)
            assert not (rep.is_latin and rep.is_complete)


def test_mutation_witness_reported():
    sq = terrace_to_complete_square(cyclic(6), _walecki(6))
    g = [list(row) for row in sq.grid]
    g[0][0], g[0][1] = g[0][1], g[0][0]
    rep = completeness_report(
        dataclasses.replace(sq, grid=tuple(tuple(row) for row in g))
    )
    assert not rep.is_complete
    assert rep.witness is not None


def test_report_on_out_of_range_symbols():
    # pair keys a*n + b once indexed past an n^2 list here
    rep = completeness_report(LatinSquare(2, ((0, 5), (0, 5))))
    assert (rep.is_latin, rep.is_row_complete, rep.is_column_complete) == (False, False, True)
    assert rep.witness == (0, 5, 1, 0)


def test_report_keeps_colliding_pair_keys_apart():
    # (0, 2) and (1, 0) share the key a*n + b = 2 at n = 2, yet differ
    rep = completeness_report(LatinSquare(2, ((0, 2), (1, 0))))
    assert not rep.is_latin
    assert rep.is_row_complete and rep.is_column_complete
    assert rep.witness is None


def test_report_needs_an_n_by_n_grid_to_be_latin():
    # each row and each of the three zipped columns holds {0, 1}
    rep = completeness_report(LatinSquare(2, ((0, 1, 0), (1, 0, 1))))
    assert not rep.is_latin and not rep.is_complete


# ---------------------------------------------------------------------------
# the report against the key-set report it replaced


def _keyset_row_complete(grid, n):
    seen = [False] * (n * n)
    for r, row in enumerate(grid):
        for j in range(n - 1):
            a, b = row[j], row[j + 1]
            key = a * n + b
            if seen[key]:
                return False, (a, b, r, j)
            seen[key] = True
    return True, None


def _keyset_distinct(key_rows):
    seen, total = set(), 0
    for keys in key_rows:
        seen.update(keys)
        total += len(keys)
    return len(seen) == total


def keyset_report(square):
    """The report as computed with a*n + b pair keys: valid for symbols in 0..n-1."""
    n, grid = square.n, square.grid
    symbols = set(range(n))
    cols = list(zip(*grid))
    is_latin = all(set(row) == symbols for row in grid) and all(
        set(col) == symbols for col in cols
    )
    row_ok = _keyset_distinct(
        [a * n + b for a, b in zip(row, islice(row, 1, None))] for row in grid
    )
    col_ok = _keyset_distinct(
        [a * n + b for a, b in zip(col, islice(col, 1, None))] for col in cols
    )
    witness = None
    if not row_ok:
        _, witness = _keyset_row_complete(grid, n)
    elif not col_ok:
        _, witness = _keyset_row_complete(cols, n)
    return latin.CompletenessReport(
        is_latin, row_ok, col_ok, is_latin and row_ok and col_ok, witness
    )


COMPLETE_DESIGNS = {
    "even": lambda: sequence_order(12),
    "cyclic": lambda: sequence_cyclic(3, 7),
    "non3": lambda: sequence_non3(5, 2, 3, AbelianSpec(())),
    "theorem3": lambda: sequence_theorem3(5, 3),
}


def _variants(grid):
    """The grid, its row and column swaps, and in-range non-Latin mutations."""
    n = len(grid)
    rows = [list(row) for row in grid]
    yield rows
    for i, j in ((0, 1), (1, n - 1), (2, 5)):
        swapped = rows[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield swapped
        yield [[row[j] if k == i else row[i] if k == j else x for k, x in enumerate(row)]
               for row in rows]
    rng = random.Random(n)
    for _ in range(4):
        mutated = [row[:] for row in rows]
        mutated[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        yield mutated
    yield [rows[0]] * n


def _report_fields(grid):
    n = len(grid)
    square = LatinSquare(n, tuple(map(tuple, grid)))
    return completeness_report(square), keyset_report(square)


@pytest.mark.parametrize("design", sorted(COMPLETE_DESIGNS))
def test_report_matches_keyset_report(design):
    cert = COMPLETE_DESIGNS[design]()
    grid = sequencing_square(cert.group, cert.quotients).grid
    kinds = set()
    for variant in _variants(grid):
        rep, ref = _report_fields(variant)
        assert rep == ref
        kinds.add((rep.is_latin, rep.is_complete))
    assert kinds == {(True, True), (True, False), (False, False)}


def _latin_squares(n):
    perms = list(permutations(range(n)))
    stack = [[]]
    while stack:
        rows = stack.pop()
        if len(rows) == n:
            yield rows
            continue
        for p in perms:
            if all(p[k] != row[k] for row in rows for k in range(n)):
                stack.append(rows + [p])


def test_report_matches_keyset_report_on_small_orders():
    # every grid over 0..n-1 for n <= 3, and every Latin square of order 4
    count = 0
    for n in (1, 2, 3):
        for cells in product(range(n), repeat=n * n):
            grid = [cells[i * n : (i + 1) * n] for i in range(n)]
            rep, ref = _report_fields(grid)
            assert rep == ref, grid
            count += rep.is_latin
    assert count == 1 + 2 + 12
    complete = 0
    for grid in _latin_squares(4):
        rep, ref = _report_fields(grid)
        assert rep == ref, grid
        complete += rep.is_complete
        count += 1
    assert count == 1 + 2 + 12 + 576 and complete > 0


def test_report_of_order_512_peaks_below_8_mb():
    square = terrace_to_complete_square(cyclic(512), _walecki(512))
    fresh = dataclasses.replace(square, grid=tuple(list(square.grid)))  # not the cached grid
    tracemalloc.start()
    try:
        rep = completeness_report(fresh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.is_complete
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the square cache


@pytest.fixture
def cache(monkeypatch):
    """An empty square cache for the test, the process's own restored after."""
    monkeypatch.setattr(latin, "_squares", OrderedDict())
    monkeypatch.setattr(latin, "_held", 0)
    return monkeypatch


def _walecki_square(n, group=None):
    return terrace_to_complete_square(group or cyclic(n), _walecki(n))


def _cached_orders():
    return [entry[0].n for entry in latin._squares.values()]


def test_cache_repeat_returns_the_same_grid(cache):
    first, again = _walecki_square(10), _walecki_square(10)
    assert again.grid is first.grid
    assert completeness_report(again) is completeness_report(first)
    # a rebuilt spec is equal, so it hits too
    assert _walecki_square(10, AbelianSpec((10,))).grid is first.grid
    assert _cached_orders() == [10]


def test_cache_semidirect_from_descriptor_hits(cache):
    cert = sequence_cyclic(3, 7)
    square = terrace_to_complete_square(cert.group, cert.terrace)
    rebuilt = group_from_descriptor(group_to_descriptor(cert.group))
    assert rebuilt is not cert.group
    assert sequencing_square(rebuilt, cert.quotients).grid is square.grid
    assert _cached_orders() == [21]


def test_cache_left_translate_shares_grid_and_report(cache):
    n = 14
    quots = is_directed_terrace(cyclic(n), walecki_terrace(n))[1]
    translate = tuple(((x + 5) % n,) for x in walecki_terrace(n))
    built = terrace_to_complete_square(cyclic(n), translate)
    seq = sequencing_square(cyclic(n), quots)
    # a hit, through either builder, returns the cached square itself
    assert seq is built and _walecki_square(n) is built
    assert completeness_report(built) is completeness_report(seq)
    assert completeness_report(seq).is_complete
    assert _cached_orders() == [n]


def test_each_square_reports_once(cache):
    calls = []
    report = latin._report

    def counted(n, grid):
        calls.append(n)
        return report(n, grid)

    cache.setattr(latin, "_report", counted)
    square = _walecki_square(12)
    first = completeness_report(square)
    assert completeness_report(square) is first
    assert completeness_report(_walecki_square(12)) is first
    assert calls == [12]
    copy = dataclasses.replace(square, grid=tuple(list(square.grid)))
    assert copy is not square
    assert completeness_report(copy) == first and completeness_report(copy) is not first
    assert calls == [12, 12]


def test_semidirect_hit_neither_inverts_nor_decodes(cache):
    cert = sequence_cyclic(3, 7)
    square = terrace_to_complete_square(cert.group, cert.terrace)
    translate = [cert.group.mul((1, (2,)), a) for a in cert.terrace]

    def refuse(*args):
        raise AssertionError("a cache hit rebuilt part of its square")

    cache.setattr(SdSpec, "inv", refuse)
    cache.setattr(SdSpec, "decode", refuse)
    assert terrace_to_complete_square(cert.group, translate) is square
    assert sequencing_square(cert.group, cert.quotients) is square


def test_cache_still_runs_the_gate(cache):
    _walecki_square(6)
    with pytest.raises(NotATerrace):
        terrace_to_complete_square(cyclic(6), tuple((x,) for x in range(6)))


def test_cache_evicts_least_recently_used_within_the_bound(cache):
    cost = {n: n * n + latin._ENTRY_CELLS for n in (4, 6, 8, 10)}
    cache.setattr(latin, "_MAX_CELLS", cost[4] + cost[8] + cost[10] - 1)
    _walecki_square(6)
    _walecki_square(8)
    _walecki_square(10)  # over the bound: 6, the oldest, leaves
    assert _cached_orders() == [8, 10]
    _walecki_square(8)  # a hit makes 8 the newest
    _walecki_square(4)
    assert _cached_orders() == [8, 4]
    charged = [entry[1] for entry in latin._squares.values()]
    assert latin._held == sum(charged) <= latin._MAX_CELLS
    assert sum(n * n for n in _cached_orders()) <= latin._MAX_CELLS


def test_cache_does_not_store_an_over_bound_square(cache):
    _walecki_square(4)
    cache.setattr(latin, "_MAX_CELLS", 100)
    square = _walecki_square(12)
    assert _cached_orders() == [4]
    assert _walecki_square(12).grid is not square.grid
    assert completeness_report(square).is_complete
    seq = walecki_terrace(12)
    assert square.grid == tuple(tuple((b - a) % 12 for b in seq) for a in seq)


def test_cache_table_groups_hit_only_for_the_same_object(cache):
    def z6_table():
        return TableGroup([[(a + b) % 6 for b in range(6)] for a in range(6)])

    table = z6_table()
    terrace = list(walecki_terrace(6))
    square = terrace_to_complete_square(table, terrace)
    assert terrace_to_complete_square(table, terrace).grid is square.grid
    other = terrace_to_complete_square(z6_table(), terrace)
    assert other.grid is not square.grid and other.grid == square.grid
    # the key keeps the table alive, so its cells are charged twice
    assert [entry[1] for entry in latin._squares.values()] == [2 * 36 + latin._ENTRY_CELLS] * 2


def test_hand_built_square_gets_a_fresh_report(cache):
    square = _walecki_square(10)
    cached = completeness_report(square)
    copy = dataclasses.replace(square, grid=tuple(list(square.grid)))
    assert completeness_report(copy) == cached and completeness_report(copy) is not cached
    wrong_n = dataclasses.replace(square, n=9)
    assert not completeness_report(wrong_n).is_latin
    assert completeness_report(square) is cached


def test_cli_verify_twice_prints_identical_bytes(cache, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"certificate": sequence_order(63).to_json()}))
    outs = []
    for _ in range(2):
        assert main(["verify", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["checks"]["complete_square"] is True
    assert _cached_orders() == [63]


def test_cache_under_threads_keeps_its_books(cache):
    cache.setattr(latin, "_MAX_CELLS", 600)
    orders = (4, 6, 8, 10, 12, 14, 16)
    want = {n: _walecki_square(n).grid for n in orders}
    failures = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(300):
            n = rng.choice(orders)
            square = _walecki_square(n)
            if square.grid != want[n] or not completeness_report(square).is_complete:
                failures.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    charged = [entry[1] for entry in latin._squares.values()]
    assert latin._held == sum(charged) <= latin._MAX_CELLS
