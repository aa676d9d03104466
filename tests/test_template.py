"""Template layout, checklist coverage families, and the terrace assignment."""

import pytest

from seqlatin.errors import ConditionsViolated, GroupFormatError, ShapeMismatch
from seqlatin.groups import Automorphism, ScalarBlock, SdSpec, cyclic
from seqlatin.latin import is_directed_terrace
from seqlatin.template import (
    TemplateInputs,
    assemble,
    checklist,
    first_coordinates,
    middle_segment,
    theorem4_assign,
)

Z7 = cyclic(7)
SD_3_7 = SdSpec(3, Z7, Automorphism((ScalarBlock(7, 2),)))
# verified instance over Z_3 x| Z_7: endpoint conditions hold with lam=2;
# a Z_7 element is its own index
TERRACE_3_7 = (5, 3, 4, 6, 2, 1)
HASH_3_7 = (6, 4, 5, 1, 3, 2)


def _inputs():
    return theorem4_assign(TERRACE_3_7, HASH_3_7, SD_3_7, 2)


def test_first_coordinates():
    assert first_coordinates(3, 2) == [1, 2]
    assert first_coordinates(5, 2) == [1, 3, 4, 2]
    assert first_coordinates(7, 3) == [1, 5, 4, 6, 2, 3]


def test_middle_segment_small():
    assert middle_segment(3, 2) == [2, 1]
    assert middle_segment(5, 2) == [2, 4, 3, 1]
    firsts = middle_segment(7, 3)
    assert firsts == [3, 1, 5, 4, 6, 2]
    diffs = {(firsts[i + 1] - firsts[i]) % 7 for i in range(5)}
    assert diffs == {2, 3, 4, 5, 6}


def test_middle_segment_base_zero():
    # after the prefix and the 6 blocks of 2 entries, second coordinate
    # zero: (2, 0) and (1, 0) sit at indices 2 * 7 and 1 * 7
    assert assemble(_inputs())[13:15] == (14, 7)


def test_assign_produces_passing_checklist():
    inputs = _inputs()
    rep = checklist(inputs)
    assert rep.all_pass, rep.failures()


def test_assign_shift_and_rows():
    inputs = _inputs()
    # shift = alpha^2(c_1) = 4 * 6 = 3; g_1 is the bare shift (a Z_7
    # element's index is its coordinate)
    assert inputs.gs[0] == 3
    assert inputs.gs[1:] == tuple((x + 3) % 7 for x in TERRACE_3_7)
    assert inputs.hss[0] == HASH_3_7
    # even rows carry -alpha^(lam-1)(c) = -2c
    assert inputs.hss[1] == tuple((-2 * x) % 7 for x in HASH_3_7)


def test_assign_row_parity_q5():
    from seqlatin.pipelines import sequence_cyclic

    cert = sequence_cyclic(5, 11)
    prov = cert.provenance  # Z_11 lists, already base indices
    inputs = theorem4_assign(prov["r_terrace"], prov["hash"], cert.group, prov["lam"])
    assert inputs.hss[0] == inputs.hss[2] == tuple(cert.provenance["hash"])
    assert inputs.hss[1] == inputs.hss[3]
    assert inputs.hss[1] != inputs.hss[0]


def test_assemble_is_terrace():
    arr = assemble(_inputs())
    assert len(arr) == 21
    assert arr[0] == 3  # (0, (3,))
    ok, quots = is_directed_terrace(SD_3_7, arr)
    assert ok
    assert SD_3_7.decode(quots[0]) == (1, (0,))


def test_assign_rejects_wrong_ends():
    rotated = (3, 4, 6, 2, 1, 5)
    with pytest.raises(ConditionsViolated) as exc:
        theorem4_assign(rotated, HASH_3_7, SD_3_7, 2)
    assert "condition 1" in str(exc.value)


def test_assign_rejects_wrong_group():
    # base indices carry no group: a list from another group shows as the
    # wrong length (a Z_9 sequence has 8 entries, not m - 1 = 6) or as an
    # index outside the base (-1 and |A| = 7 are not Z_7 indices)
    z9_hash = (1, 2, 4, 8, 7, 5, 3, 6)
    for ais, cis in (
        (TERRACE_3_7, z9_hash),
        (TERRACE_3_7[:-1], HASH_3_7),
        ((), ()),
        ((5, 3, 4, 6, 2, -1), HASH_3_7),
        (TERRACE_3_7, (6, 4, 5, 1, 3, 7)),
    ):
        with pytest.raises(ShapeMismatch):
            theorem4_assign(ais, cis, SD_3_7, 2)


def test_checklist_flags_broken_row():
    inputs = _inputs()
    rows = [list(row) for row in inputs.hss]
    rows[0][2] = rows[0][1]  # duplicate kills the coverage of row 1
    broken = TemplateInputs(inputs.sd, inputs.lam, inputs.gs, tuple(tuple(r) for r in rows))
    rep = checklist(broken)
    assert not rep.all_pass
    assert "c[1]" in rep.failures()
    ok, _ = is_directed_terrace(SD_3_7, assemble(broken))
    assert not ok


def test_checklist_flags_broken_gs():
    inputs = _inputs()
    gs = list(inputs.gs)
    gs[3] = gs[2]
    broken = TemplateInputs(inputs.sd, inputs.lam, gs=tuple(gs), hss=inputs.hss)
    rep = checklist(broken)
    assert not rep.b or not rep.d


def test_inputs_validate_lambda():
    # 3 is primitive mod 5 but 3/(3-1) = 4 is not: checklist names family g
    # without raising, and the gate refuses the arrangement
    from seqlatin.pipelines import sequence_cyclic

    cert = sequence_cyclic(5, 11)
    prov = cert.provenance
    inputs = theorem4_assign(prov["r_terrace"], prov["hash"], cert.group, prov["lam"])
    assert checklist(inputs).all_pass
    bad = TemplateInputs(inputs.sd, 3, inputs.gs, inputs.hss)
    assert "g" in checklist(bad).failures()
    ok, _ = is_directed_terrace(cert.group, assemble(bad))
    assert not ok


def test_lambda_one_has_no_middle_segment():
    # lam = 1 mod q leaves lam - 1 without an inverse: checklist reports
    # family g, and laying the template out raises GroupFormatError
    from seqlatin.pipelines import sequence_cyclic

    cert = sequence_cyclic(5, 11)
    prov = cert.provenance
    inputs = theorem4_assign(prov["r_terrace"], prov["hash"], cert.group, prov["lam"])
    for lam in (1, 6):
        bad = TemplateInputs(inputs.sd, lam, inputs.gs, inputs.hss)
        assert "g" in checklist(bad).failures()
        with pytest.raises(GroupFormatError):
            assemble(bad)
    with pytest.raises(GroupFormatError):
        middle_segment(5, 1)


def test_checklist_matches_checker_on_random_grids():
    # the equivalence goes both ways: scrambled grids that happen to pass
    # every family must assemble to genuine terraces, failures must not
    import random

    rng = random.Random(7)
    base = _inputs()
    for _ in range(25):
        rows = [list(row) for row in base.hss]
        i = rng.randrange(len(rows))
        j, k = rng.randrange(6), rng.randrange(6)
        rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
        cand = TemplateInputs(base.sd, base.lam, base.gs, tuple(tuple(r) for r in rows))
        ok, _ = is_directed_terrace(SD_3_7, assemble(cand))
        assert ok == checklist(cand).all_pass
