"""Exhaustive searches, fixtures, and second-opinion checker agreement."""

import random

import pytest

from seqlatin import oracle
from seqlatin.errors import DeskScaleExceeded
from seqlatin.graceful import is_graceful, walecki_graceful
from seqlatin.groups import AbelianSpec, cyclic
from seqlatin.latin import (
    completeness_report,
    is_directed_terrace,
    terrace_to_complete_square,
    walecki_terrace,
)
from seqlatin.oracle import (
    d8_table,
    enumerate_graceful,
    exhaustive_sequencings,
    naive_complete,
    naive_directed_terrace,
    naive_graceful,
    naive_r_terrace,
    q8_table,
    s3_table,
)
from seqlatin.rotational import check_r_terrace

# complete identity-anchored counts, frozen from the exhaustive walk
KNOWN_COUNTS = {2: 1, 4: 2, 6: 4, 8: 24, 10: 288}
GRACEFUL_COUNTS = [1, 2, 4, 4, 8, 24, 32, 40]


def test_odd_cyclic_have_none():
    for n in (3, 5, 7, 9):
        res = exhaustive_sequencings(cyclic(n))
        assert res.count == 0 and res.exhausted
        assert res.terraces == ()


def test_nonabelian_small_have_none():
    for fixture in (s3_table, d8_table, q8_table):
        res = exhaustive_sequencings(fixture())
        assert res.count == 0 and res.exhausted


def test_even_cyclic_have_some():
    for n in (2, 4, 6, 8, 10):
        res = exhaustive_sequencings(cyclic(n), limit=1)
        assert res.count >= 1
        for t in res.terraces:
            ok, _ = is_directed_terrace(cyclic(n), cyclic(n).indices(t))
            assert ok


def test_full_counts():
    for n, want in KNOWN_COUNTS.items():
        res = exhaustive_sequencings(cyclic(n))
        assert res.exhausted
        assert res.count == want


def test_walecki_found_by_oracle():
    res = exhaustive_sequencings(cyclic(8))
    assert tuple((x,) for x in walecki_terrace(8)) in res.terraces


def test_limit_truncates():
    res = exhaustive_sequencings(cyclic(8), limit=5)
    assert len(res.terraces) == 5
    assert not res.exhausted


def test_sharded_matches_sequential():
    seq = exhaustive_sequencings(cyclic(8))
    par = exhaustive_sequencings(cyclic(8), jobs=2)
    assert par.exhausted
    assert par.count == seq.count
    assert par.terraces == seq.terraces


def test_pool_has_at_most_one_worker_per_shard(monkeypatch):
    """A pool forks all its workers up front, so --jobs must not outnumber the shards."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", InProcessPool)
    seq = exhaustive_sequencings(cyclic(8))
    for jobs, want in ((5000, 7), (2, 2)):
        par = exhaustive_sequencings(cyclic(8), jobs=jobs)
        assert sizes.pop() == want
        assert (par.count, par.terraces, par.exhausted) == (seq.count, seq.terraces, True)


def test_trivial_group():
    res = exhaustive_sequencings(cyclic(2), limit=None)
    assert res.count == 1
    one = exhaustive_sequencings(AbelianSpec(()))
    assert one.count == 1 and one.terraces == (((),),)


def test_exhaustive_desk_cap(monkeypatch):
    with pytest.raises(DeskScaleExceeded):
        exhaustive_sequencings(cyclic(18))
    monkeypatch.setenv("SEQLATIN_DESK_LIMIT", "6")
    with pytest.raises(DeskScaleExceeded):
        exhaustive_sequencings(cyclic(8))


def test_fixture_tables():
    s3, d8, q8 = s3_table(), d8_table(), q8_table()
    assert s3.order == 6 and d8.order == 8 and q8.order == 8
    # all three are non-abelian
    for g in (s3, d8, q8):
        assert any(
            g.mul(a, b) != g.mul(b, a)
            for a in g.elements()
            for b in g.elements()
        )
    # Q_8 has exactly one involution, D_8 five
    for g, want in ((q8, 1), (d8, 5)):
        involutions = [a for a in g.elements() if a != g.identity and g.mul(a, a) == g.identity]
        assert len(involutions) == want


def test_enumerate_graceful_counts():
    for k, want in enumerate(GRACEFUL_COUNTS, start=1):
        perms = enumerate_graceful(k)
        assert len(perms) == want
        assert all(is_graceful(p) for p in perms)
        assert {p[0] for p in perms} == set(range(1, k + 1))
    assert enumerate_graceful(1) == ((1,),)
    assert (2, 3, 1) in enumerate_graceful(3)
    assert (1, 3, 2) in enumerate_graceful(3)


def test_enumerate_graceful_caps(monkeypatch):
    with pytest.raises(DeskScaleExceeded):
        enumerate_graceful(9)
    with pytest.raises(ValueError):
        enumerate_graceful(0)
    monkeypatch.setenv("SEQLATIN_DESK_LIMIT", "9")
    assert len(enumerate_graceful(9)) > 0


def test_terrace_checkers_agree():
    rng = random.Random(0)
    group = cyclic(8)
    elems = [(x,) for x in range(8)]
    agree = 0
    for _ in range(400):
        arr = elems[:]
        rng.shuffle(arr)
        main, _ = is_directed_terrace(group, group.indices(arr))
        assert main == naive_directed_terrace(group, arr)
        agree += 1
    walecki = [(x,) for x in walecki_terrace(8)]
    assert naive_directed_terrace(group, walecki)
    from seqlatin.pipelines import sequence_cyclic

    cert = sequence_cyclic(3, 7)
    assert naive_directed_terrace(cert.group, cert.terrace)
    assert agree == 400


def test_r_terrace_checkers_agree():
    rng = random.Random(1)
    group = cyclic(9)
    elems = [(x,) for x in range(1, 9)]
    for _ in range(300):
        arr = elems[:]
        rng.shuffle(arr)
        assert check_r_terrace(group, arr).is_r == naive_r_terrace(group, arr)


def test_graceful_checkers_agree():
    rng = random.Random(3)
    vals = list(range(1, 8))
    for _ in range(300):
        rng.shuffle(vals)
        assert is_graceful(vals) == naive_graceful(vals)
    assert naive_graceful(walecki_graceful(9))


def test_completeness_checkers_agree():
    rng = random.Random(4)
    sq = terrace_to_complete_square(cyclic(6), [(x,) for x in walecki_terrace(6)])
    grid = [list(row) for row in sq.grid]
    assert naive_complete(grid)
    import dataclasses

    for _ in range(60):
        g = [row[:] for row in grid]
        r, c = rng.randrange(6), rng.randrange(6)
        g[r][c] = rng.randrange(6)
        mutated = dataclasses.replace(sq, grid=tuple(tuple(row) for row in g))
        rep = completeness_report(mutated)
        assert (rep.is_latin and rep.is_complete) == naive_complete(g)
