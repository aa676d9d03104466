"""The integer terrace gate against the naive checker.

Every group kind the gate reads (cyclic, multi-factor abelian, semidirect
with scalar and with matrix blocks, Cayley tables, one of them relabelled
so that its identity is not index 0) is given a valid terrace and its
mutations: a swap, a repeat, a cut, a coordinate raised by its modulus,
a negative coordinate and, for a semidirect group, u = s.  Each mutant is
read by the strict map first, as outside input is, and the gate's verdict
must equal oracle.naive_directed_terrace; an accepted arrangement's
quotient indices must decode to the pairwise group.quot.  The gate itself
refuses any index outside 0..n-1.
"""

import pytest

from seqlatin.errors import NotATerrace, ShapeMismatch
from seqlatin.groups import (
    AbelianSpec,
    Automorphism,
    ScalarBlock,
    SdSpec,
    TableGroup,
    cyclic,
)
from seqlatin.latin import (
    is_directed_terrace,
    sequencing_square,
    terrace_to_complete_square,
    walecki_terrace,
)
from seqlatin.oracle import exhaustive_sequencings, naive_complete, naive_directed_terrace, s3_table
from seqlatin.pipelines import sequence_cyclic, sequence_non3, sequence_theorem3


def _d10():
    sd = SdSpec(2, cyclic(5), Automorphism((ScalarBlock(5, 4),)))
    elems = list(sd.elements())
    return TableGroup([[elems.index(sd.mul(a, b)) for b in elems] for a in elems])


def _relabelled(table: TableGroup, perm):
    """The same group with element i called perm[i]."""
    n = table.order
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[table.mul(i, j)]
    return TableGroup(rows), perm


def _table_case(table):
    return table, list(exhaustive_sequencings(table, limit=1).terraces[0])


def _crt_walecki(factors):
    """Walecki's terrace of Z_n carried to the isomorphic Z_{m_1} x ... x Z_{m_k}."""
    n = AbelianSpec(factors).order
    return AbelianSpec(factors), [tuple(x % m for m in factors) for x in walecki_terrace(n)]


def _cert_case(cert):
    return cert.group, list(cert.terrace)


def _cases():
    d10 = _d10()
    shifted, perm = _relabelled(d10, [(i + 3) % 10 for i in range(10)])
    relabelled_terrace = [perm[e] for e in exhaustive_sequencings(d10, limit=1).terraces[0]]
    return {
        "Z12": (cyclic(12), [(x,) for x in walecki_terrace(12)]),
        "Z3xZ5xZ2": _crt_walecki((3, 5, 2)),
        "Z3|Z7 scalar": _cert_case(sequence_cyclic(3, 7)),
        "Z3|Z5^2 matrix": _cert_case(sequence_non3(5, 2, 3)),
        "Z3|Z5^2xZ3 matrix": _cert_case(sequence_theorem3(5, 3)),
        "D10 table": _table_case(d10),
        "D10 relabelled": (shifted, relabelled_terrace),
    }


CASES = _cases()


def _moduli(group):
    if isinstance(group, SdSpec):
        return [group.s, *group.base.factors]
    if isinstance(group, AbelianSpec):
        return list(group.factors)
    return [group.order]


def _coords(group, e):
    if isinstance(group, SdSpec):
        return [e[0], *e[1]]
    return list(e) if isinstance(group, AbelianSpec) else [e]


def _element(group, coords):
    if isinstance(group, SdSpec):
        return (coords[0], tuple(coords[1:]))
    return tuple(coords) if isinstance(group, AbelianSpec) else coords[0]


def _bumped(group, e, pos, by):
    coords = _coords(group, e)
    coords[pos] += by
    return _element(group, coords)


def _mutants(group, t):
    yield "valid", t
    yield "swap", [t[0], t[2], t[1], *t[3:]]
    yield "repeat", [*t[:-1], t[1]]
    yield "cut", t[:-1]
    for pos, m in enumerate(_moduli(group)):
        for name, by in (("plus modulus", m), ("negative", -m)):
            for at in (0, 3, len(t) - 1):
                yield f"{name} {pos}@{at}", [*t[:at], _bumped(group, t[at], pos, by), *t[at + 1 :]]
    if isinstance(group, SdSpec):
        yield "u = s", [*t[:2], (group.s, t[2][1]), *t[3:]]


def _gate(group, arr):
    """The gate on outside input: the strict map first, None not a terrace."""
    idx = group.indices(arr)
    return (False, []) if idx is None else is_directed_terrace(group, idx)


def test_relabelled_identity_is_not_index_zero():
    group, _ = CASES["D10 relabelled"]
    assert group.identity != 0


@pytest.mark.parametrize("name", list(CASES))
def test_gate_agrees_with_naive_checker(name):
    group, terrace = CASES[name]
    decode = group.decode
    verdicts = {}
    for how, arr in _mutants(group, terrace):
        ok, quots = _gate(group, arr)
        assert ok == naive_directed_terrace(group, arr), how
        verdicts[how] = ok
        if ok:
            pairs = zip(arr, arr[1:])
            assert [decode(q) for q in quots] == [group.mul(group.inv(a), b) for a, b in pairs], how
        else:
            assert quots == [], how
    assert verdicts.pop("valid")
    assert not any(verdicts.values())


@pytest.mark.parametrize("name", list(CASES))
def test_square_of_the_gate_quotients(name):
    group, terrace = CASES[name]
    ok, quots = _gate(group, terrace)
    assert ok
    assert naive_complete(sequencing_square(group, quots).grid)


@pytest.mark.parametrize("name", [n for n, (g, _) in CASES.items() if not isinstance(g, TableGroup)])
def test_wrong_length_element_raises(name):
    group, terrace = CASES[name]
    e = terrace[3]
    longer = (e[0], e[1] + (0,)) if isinstance(group, SdSpec) else e + (0,)
    with pytest.raises(ShapeMismatch):
        _gate(group, [*terrace[:3], longer, *terrace[4:]])
    with pytest.raises(ShapeMismatch):
        terrace_to_complete_square(group, [*terrace[:3], longer, *terrace[4:]])
    if isinstance(group, SdSpec):
        with pytest.raises(ShapeMismatch):
            _gate(group, [*terrace[:3], (*e, 0), *terrace[4:]])


def test_strict_map_does_not_reduce():
    group = AbelianSpec((3, 5))
    assert group.indices([(1, 2)]) == [7]
    assert group.indices([(1, 2), (4, 7)]) is None
    assert group.indices([(1, -1)]) is None


@pytest.mark.parametrize("name", ["Z12", "Z3|Z7 scalar", "D10 table"])
def test_index_gate_refuses_indices_outside_the_group(name):
    group, terrace = CASES[name]
    idx = group.indices(terrace)
    n = group.order
    assert is_directed_terrace(group, idx)[0]
    # -1 in place of n - 1 would mark n - 1's byte if it were not refused
    for bad in (-1, n):
        mutant = [bad if i == n - 1 else i for i in idx]
        assert is_directed_terrace(group, mutant) == (False, []), bad


def test_table_strict_map_refuses_bools():
    assert s3_table().indices([True, False]) is None
    group, terrace = CASES["D10 table"]
    assert terrace_to_complete_square(group, terrace).n == 10
    with pytest.raises(NotATerrace):
        terrace_to_complete_square(group, [True if e == 1 else e for e in terrace])
