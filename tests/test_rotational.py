"""R-terrace checking, the product construction, and search."""

import functools

import pytest

from seqlatin.errors import (
    DeskScaleExceeded,
    GroupFormatError,
    NoStarIndex,
    NotATerrace,
    NotFound,
)
from seqlatin.graceful import graceful_to_r_terrace, walecki_graceful
from seqlatin.groups import AbelianSpec, cyclic
from seqlatin.oracle import naive_r_terrace
from seqlatin.pipelines import _pk_base
from seqlatin.rotational import (
    RTerrace,
    check_r_terrace,
    fgm_extend,
    fgm_extend_many,
    make_r_terrace,
    search_r_terrace,
    search_r_terrace_retry,
)

Z7 = cyclic(7)
I7 = (1, 3, 2, 5, 6, 4)  # an R-terrace of Z_7 as base indices
T7 = tuple((x,) for x in I7)  # and as elements, for the checker


def elements(t):
    """A terrace's base indices decoded to elements, for the checkers."""
    return list(zip(*t.group.columns(t.entries)))


def test_check_examples():
    res = check_r_terrace(Z7, T7)
    assert res.is_r
    assert 1 in res.star_indices  # a_1 = 3 = 1 + 2 (0-based neighbors)
    res = check_r_terrace(Z7, tuple((x,) for x in (1, 2, 3, 4, 5, 6)))
    assert not res.is_r
    res = check_r_terrace(cyclic(3), ((1,), (2,)))
    assert res.is_r


def test_check_wrong_length():
    assert not check_r_terrace(Z7, T7[:-1]).is_r


def test_make_r_terrace():
    t = make_r_terrace(Z7, T7)
    assert t.star_index == 1
    assert t.entries == I7
    with pytest.raises(NotATerrace):
        make_r_terrace(Z7, tuple((x,) for x in (1, 2, 3, 4, 5, 6)))


def test_make_r_terrace_requires_star():
    # Z_5 has R-terraces but none with a star
    t = make_r_terrace(cyclic(5), ((1,), (2,), (4,), (3,)))
    assert t.star_index is None
    assert t.entries == (1, 2, 4, 3)
    with pytest.raises(NoStarIndex):
        make_r_terrace(t.group, elements(t), require_star=True)


# ---------------------------------------------------------------------------
# the product construction


def std7():
    """I7 rotated to its star at 1."""
    return RTerrace(Z7, I7[1:] + I7[:1], 0)


def test_fgm_extend_z7_w5():
    out = fgm_extend(std7(), 5)
    assert out.group.factors == (7, 5)
    assert len(out.entries) == 34
    res = check_r_terrace(out.group, elements(out))
    assert res.is_r
    assert out.is_standard


@functools.cache
def fgm_base(name):
    """Standard bases of the kinds the pipelines extend."""
    if name in ("Z5^2", "Z7^2"):
        return _pk_base(int(name[1]), 2, 0)[0]
    if name == "Z45 nine":
        return search_r_terrace_retry(
            cyclic(45), star=True, element_orders=[(0, 5), (1, 5), (-1, 5)]
        )
    p = int(name[1:]) // 3  # the Walecki lift of Z_3p, rotated to its star at 2p - 1
    lift = graceful_to_r_terrace(walecki_graceful((3 * p - 1) // 2))
    return RTerrace(lift.group, lift.entries[2 * p - 1 :] + lift.entries[: 2 * p - 1], 0)


@pytest.mark.parametrize("w", (5, 7, 11, 13))
@pytest.mark.parametrize("name", ("Z5^2", "Z7^2", "Z15", "Z21", "Z33", "Z45 nine"))
def test_fgm_extend_pipeline_bases(name, w):
    base = fgm_base(name)
    assert base.is_standard
    out = fgm_extend(base, w)
    assert out.group.factors == base.group.factors + (w,)
    assert naive_r_terrace(out.group, elements(out))
    assert out.is_standard and out.star_index == 0


def test_fgm_rejects_order_3_base():
    base = make_r_terrace(cyclic(3), ((1,), (2,)))
    assert base.is_standard
    with pytest.raises(GroupFormatError):
        fgm_extend(base, 5)


def test_fgm_rejects_order_1_base():
    with pytest.raises(GroupFormatError):
        fgm_extend(RTerrace(AbelianSpec(()), ()), 5)


def test_fgm_rejects_bad_w():
    base = std7()
    for w in (9, 4, 3, 15):
        with pytest.raises(GroupFormatError):
            fgm_extend(base, w)


def test_fgm_requires_standard_base():
    t = make_r_terrace(Z7, T7)  # star at 1, not standard
    with pytest.raises(GroupFormatError):
        fgm_extend(t, 5)


def test_fgm_first_coordinates_reproduce_base():
    base = std7()
    out = fgm_extend(base, 5)
    m = 7
    # first coordinates of the leading block reproduce the base; the
    # second coordinate stays zero up to the row straddle at m-2
    first, second = out.group.columns(out.entries)
    assert tuple(first[: m - 1]) == base.entries
    assert all(d == 0 for d in second[: m - 2])


def test_fgm_extend_larger_factors():
    base = std7()
    for w in (7, 11, 13):
        out = fgm_extend(base, w)
        assert check_r_terrace(out.group, elements(out)).is_r
        assert out.is_standard


def test_fgm_stacks():
    out = fgm_extend(fgm_extend(std7(), 5), 7)
    assert out.group.factors == (7, 5, 7)
    assert check_r_terrace(out.group, elements(out)).is_r


def test_fgm_extend_many():
    base = std7()
    assert fgm_extend_many(base, AbelianSpec(())) is base
    out = fgm_extend_many(base, AbelianSpec((5,)))
    assert out.entries == fgm_extend(base, 5).entries
    out = fgm_extend_many(base, AbelianSpec((5, 11)))
    assert out.group.factors == (7, 5, 11)
    assert check_r_terrace(out.group, elements(out)).is_r


def test_fgm_extend_many_order_385():
    base = std7()
    out = fgm_extend_many(base, AbelianSpec((5, 11)))
    assert out.group.order == 385


def test_fgm_extend_many_rejects_bad_b():
    with pytest.raises(GroupFormatError):
        fgm_extend_many(std7(), AbelianSpec((3,)))
    with pytest.raises(GroupFormatError):
        fgm_extend_many(std7(), AbelianSpec((4,)))


# ---------------------------------------------------------------------------
# search


def test_search_z9_star():
    t = search_r_terrace(cyclic(9), star=True)
    assert check_r_terrace(t.group, elements(t)).is_r
    assert t.is_standard
    assert t.star_index == 0


def test_search_without_star_has_no_star_index():
    t = search_r_terrace(cyclic(9))
    assert check_r_terrace(t.group, elements(t)).is_r
    assert t.star_index is None


@pytest.mark.parametrize("w", (5, 7, 11, 13))
def test_search_z3_product_star(w):
    # the R*-terraces of Z_3 x Z_w that fgm_extend cannot build from Z_3
    g = AbelianSpec((3, w))
    t = search_r_terrace(g, star=True)
    assert check_r_terrace(g, elements(t)).is_r
    assert t.is_standard


def test_search_z5sq_star_independent():
    g = AbelianSpec((5, 5))
    t = search_r_terrace(g, star=True, independent_ends=True)
    elems = elements(t)
    assert check_r_terrace(t.group, elems).is_r
    assert t.is_standard
    # the cyclic subgroups of the ends meet only in 0
    first, last = ({tuple(k * x % 5 for x in e) for k in range(5)} for e in (elems[0], elems[-1]))
    assert first & last == {(0, 0)}


def test_search_seeded_reproducible():
    a = search_r_terrace(cyclic(9), star=True, seed=3)
    b = search_r_terrace(cyclic(9), star=True, seed=3)
    assert a.entries == b.entries


def test_search_rejects_unknown_constraint():
    with pytest.raises(TypeError):
        search_r_terrace(cyclic(9), first=(2,))
    with pytest.raises(TypeError):
        search_r_terrace_retry(cyclic(9), wrap_difference=(4,))


def test_search_element_orders():
    g = AbelianSpec((45,))
    elems = elements(search_r_terrace(g, element_orders=[(0, 5), (1, 5), (-1, 5)]))
    assert g.element_order(elems[0]) == 5
    assert g.element_order(elems[1]) == 5
    assert g.element_order(elems[-1]) == 5


@pytest.mark.parametrize(
    "orders",
    [
        [(8, 3)],  # past the last position, not position 0 again
        [(-9, 3)],  # before the first
        [(0, 3), (0, 9)],  # one position twice
        [(0, 3), (-8, 3)],  # the same position twice
        [(0, 3.0)],
        [(0, True)],
        [(0, 0)],
        [(1.0, 3)],
    ],
)
def test_search_rejects_bad_element_orders(orders):
    with pytest.raises(ValueError):
        search_r_terrace(cyclic(9), element_orders=orders)


def test_search_element_orders_span_every_position():
    # -8 and 7 are the first and last of the 8 positions of Z_9
    elems = elements(search_r_terrace(cyclic(9), element_orders=[(-8, 3), (7, 9)]))
    assert cyclic(9).element_order(elems[0]) == 3
    assert cyclic(9).element_order(elems[7]) == 9


def test_search_z5_star_fails():
    # Z_5 has no R*-terrace at all
    with pytest.raises(NotFound, match=r"exhausted for order 5 under \['star'\]") as err:
        search_r_terrace(cyclic(5), star=True, max_nodes=10_000, seed=4)
    # the whole space is 17 nodes: a budget of 16 stops the search short
    assert (err.value.nodes, err.value.seed, err.value.seeds) == (17, 4, None)
    with pytest.raises(NotFound, match="within 16 nodes"):
        search_r_terrace(cyclic(5), star=True, max_nodes=16, seed=4)


def test_search_node_budget():
    with pytest.raises(NotFound, match="within 3 nodes") as err:
        search_r_terrace(cyclic(45), star=True, max_nodes=3)
    assert (err.value.nodes, err.value.seed) == (3, 0)


def test_search_retry_names_its_seeds():
    with pytest.raises(NotFound, match="within 3 nodes \\(seed 6\\)") as err:
        search_r_terrace_retry(cyclic(45), star=True, max_nodes=3, seeds=range(4, 7))
    assert (err.value.nodes, err.value.seed, err.value.seeds) == (3, 6, (4, 5, 6))
    with pytest.raises(NotFound, match="no seeds supplied") as err:
        search_r_terrace_retry(cyclic(45), seeds=())
    assert (err.value.nodes, err.value.seed, err.value.seeds) == (0, None, ())


def test_search_desk_cap(monkeypatch):
    monkeypatch.setenv("SEQLATIN_DESK_LIMIT", "250")
    with pytest.raises(DeskScaleExceeded):
        search_r_terrace(cyclic(251))


def test_search_rejects_even_order():
    with pytest.raises(GroupFormatError):
        search_r_terrace(cyclic(8))
