r"""Block template for directed terraces of semidirect products Z_q x| A.

The proposed terrace runs: a prefix (0, g_1), then m-1 blocks whose
first coordinates walk 1, lam^{q-2}, ..., lam while the second coordinates
read a grid h_{ij}, then a middle run with zero second coordinates whose
first coordinates burn through Z_q \ {0, 1}, then the suffix
(0, g_2..g_m).  A short checklist of coverage conditions on the g and
h families is equivalent to the assembled arrangement being a directed
terrace; the theorem-4 assignment fills the grid from an R-terrace of A
and a #-harmonious sequence so that the checklist passes by construction.
Its endpoint conditions and a guard on its inputs' shape are the only
checks made here: the template does not re-check its layout, the
pipelines certify the assembled arrangement at their one gate, and
checklist explains an arrangement family by family.

The assignment and the layout work on element indices: the inputs and
the g and h families are base indices (a Z_m element is its own), base
sums and differences are read from the base group's row and quot,
alpha^e from the semidirect group's twist table, and assemble emits
the index u * |A| + v of each (u, v).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ConditionsViolated, GroupFormatError, ShapeMismatch
from .groups import SdSpec


@dataclass(frozen=True)
class TemplateInputs:
    """The template's families, each entry a base index."""

    sd: SdSpec
    lam: int
    gs: tuple[int, ...]
    hss: tuple[tuple[int, ...], ...]


def first_coordinates(q: int, lam: int) -> list[int]:
    """Block first coordinates: 1, lam^{q-2}, lam^{q-3}, ..., lam."""
    return [1] + [pow(lam, q - i, q) for i in range(2, q)]


def middle_segment(q: int, lam: int) -> list[int]:
    """First coordinates of the q-1 entries between the blocks and the suffix.

    They are lam^i / (lam-1)^{i-1} for i = 1..q-2 followed by lam-1, and
    the entries' second coordinates are zero; for a doubly primitive lam
    the consecutive differences cover Z_q \\ {0, 1} (checklist family g).
    A lam with lam - 1 not a unit mod q, such as lam = 1, has no middle
    segment: GroupFormatError.
    """
    lam %= q
    try:
        inv = pow(lam - 1, -1, q)
    except ValueError:
        raise GroupFormatError(f"lam - 1 = {lam - 1} is not a unit mod {q}") from None
    firsts = [pow(lam, i, q) * pow(inv, i - 1, q) % q for i in range(1, q - 1)]
    firsts.append((lam - 1) % q)
    return firsts


def assemble(inputs: TemplateInputs) -> tuple[int, ...]:
    """Lay the template out in order as indices of sd; makes no validity promise."""
    sd = inputs.sd
    q, m = sd.s, sd.base.order
    # block j holds (u_i, h_ij) for every row i, so row i fills every (q-1)-th slot
    blocks = [0] * ((q - 1) * (m - 1))
    for i, (u, row) in enumerate(zip(first_coordinates(q, inputs.lam), inputs.hss)):
        blocks[i :: q - 1] = map((u * m).__add__, row)
    middle = [x * m for x in middle_segment(q, inputs.lam)]  # the base's zero is index 0
    return (inputs.gs[0], *blocks, *middle, *inputs.gs[1:])


@dataclass(frozen=True)
class ChecklistReport:
    a: bool
    b: bool
    c: tuple[bool, ...]
    d: bool
    e: tuple[bool, ...]
    f: bool
    g: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.a and self.b and all(self.c) and self.d and all(self.e) and self.f and self.g
        )

    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.a:
            out.append("a")
        if not self.b:
            out.append("b")
        out.extend(f"c[{i + 1}]" for i, ok in enumerate(self.c) if not ok)
        if not self.d:
            out.append("d")
        out.extend(f"e[{i + 2}]" for i, ok in enumerate(self.e) if not ok)
        if not self.f:
            out.append("f")
        if not self.g:
            out.append("g")
        return tuple(out)


def checklist(inputs: TemplateInputs) -> ChecklistReport:
    """Explain an arrangement: evaluate every coverage family the template requires.

    (a) the first block entry continues the prefix with quotient (1, 0);
    (b) the g values cover A; (c) each h row covers A minus zero; (d) the
    g differences with -h_{q-1,m-1} substituted at the junction cover A
    minus zero; (e) each cross-row difference family covers A minus zero;
    (f) the block-to-block junctions closed by g_2 cover A minus
    zero; (g) the middle segment's first coordinates run through Z_q
    minus zero with consecutive differences covering Z_q minus {0, 1}.
    """
    sd = inputs.sd
    A = sd.base
    alpha = sd.alpha
    q = sd.s
    m, lam = A.order, inputs.lam % q
    decode = A.decode
    gs = tuple(map(decode, inputs.gs))
    hss = tuple(tuple(map(decode, row)) for row in inputs.hss)
    nonzero = Counter(e for e in A.elements() if e != A.identity)
    full = Counter(A.elements())

    fam_a = hss[0][0] == alpha.apply(gs[0])
    fam_b = Counter(gs) == full
    fam_c = tuple(Counter(row) == nonzero for row in hss)

    dvals = [A.neg(hss[q - 2][m - 2])]
    dvals.extend(A.sub(gs[i + 1], gs[i]) for i in range(1, m - 1))
    fam_d = Counter(dvals) == nonzero

    fcs = first_coordinates(q, lam)
    fam_e = []
    for i in range(1, q - 1):
        exp = (fcs[i] - fcs[i - 1]) % q
        vals = [A.sub(hss[i][j], alpha.apply_power(exp, hss[i - 1][j])) for j in range(m - 1)]
        fam_e.append(Counter(vals) == nonzero)

    exp_f = (1 - lam) % q
    fvals = [A.sub(hss[0][j + 1], alpha.apply_power(exp_f, hss[q - 2][j])) for j in range(m - 2)]
    fvals.append(gs[1])
    fam_f = Counter(fvals) == nonzero

    try:
        mids = middle_segment(q, lam)
    except GroupFormatError:
        fam_g = False
    else:
        diffs = {(mids[i + 1] - mids[i]) % q for i in range(q - 2)}
        fam_g = set(mids) == set(range(1, q)) and diffs == set(range(2, q))

    return ChecklistReport(fam_a, fam_b, fam_c, fam_d, tuple(fam_e), fam_f, fam_g)


def _unmet(decode, condition: str, name: str, got: int, want: int):
    """A ConditionsViolated entry, its base indices shown as elements."""
    return condition, f"{name} = {decode(got)}, needs {decode(want)}"


def theorem4_assign(ais, cis, sd: SdSpec, lam: int) -> TemplateInputs:
    """Fill the template from an R-terrace and a #-harmonious sequence of A.

    ais and cis are the R-terrace a and the sequence c as base indices,
    m-1 of them each in 0..|A|-1; another length or index raises
    ShapeMismatch.  Requires the two endpoint conditions:
        a_1 = c_1 + c_{m-1} - alpha^{q-1}(c_1)
        a_{m-1} = a_1 - alpha^{lam-1}(c_{m-1})
    The g values are the terrace shifted by alpha^{q-1}(c_1); odd h rows
    copy c and even rows carry -alpha^{lam-1}(c).  On base indices, y - x
    is quot(x, y), -x is quot(x, 0), and the g values are row(shift) read
    at the terrace's indices.
    """
    q = sd.s
    m = sd.base.order
    for xs in (ais, cis):
        if len(xs) != m - 1 or min(xs) < 0 or max(xs) >= m:
            raise ShapeMismatch(f"need {m - 1} base indices below {m} in both inputs")
    base, twist = sd.base, sd.twist
    quot = base.quot
    c1, clast = cis[0], cis[-1]
    shift = twist(q - 1)[c1]
    lam_twist = twist(lam - 1)
    failures = []
    want1 = quot(shift, quot(quot(c1, 0), clast))
    if ais[0] != want1:
        failures.append(_unmet(base.decode, "condition 1", "a_1", ais[0], want1))
    want2 = quot(lam_twist[clast], ais[0])
    if ais[-1] != want2:
        failures.append(_unmet(base.decode, "condition 2", "a_last", ais[-1], want2))
    if failures:
        raise ConditionsViolated(failures)
    gs = (shift, *map(base.row(shift).__getitem__, ais))
    odd = tuple(cis)
    even = tuple(base.diffs([lam_twist[cj] for cj in cis], [0] * len(cis)))
    return TemplateInputs(sd, lam, gs, tuple(odd if i % 2 else even for i in range(1, q)))
