"""Property tests: outside input gets an answer or exit 0/1/2, within a deadline.

Group descriptors and certificate files are generated near the valid
shapes (right keys, small or huge integers) and as arbitrary JSON, so
both the validation and the checking paths are reached.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from seqlatin.cli import main
from seqlatin.errors import SeqLatinError
from seqlatin.groups import (
    Automorphism,
    ScalarBlock,
    SdSpec,
    TableGroup,
    cyclic,
    group_from_descriptor,
)
from seqlatin.latin import is_directed_terrace
from seqlatin.oracle import exhaustive_sequencings
from seqlatin.pipelines import SequencingCertificate, sequence_order

# fixed examples keep the suite deterministic; the deadline bounds each one
FUZZ = settings(
    max_examples=150,
    deadline=timedelta(seconds=2),
    derandomize=True,
    database=None,
)

small = st.integers(-2, 12)
wide = small | st.integers(-(10**30), 10**30)
leaf = st.none() | st.booleans() | wide | st.floats(allow_nan=False) | st.text(max_size=4)
any_json = st.recursive(
    leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def shaped(values):
    """A value of the expected shape, or anything at all."""
    return values | any_json


blocks = st.lists(
    st.fixed_dictionaries({"kind": st.just("scalar"), "modulus": shaped(wide), "unit": shaped(wide)})
    | st.fixed_dictionaries(
        {
            "kind": st.just("matrix"),
            "p": shaped(wide),
            "rows": shaped(st.lists(st.lists(small, max_size=3), max_size=3)),
        }
    ),
    max_size=3,
)
descriptors = st.one_of(
    st.fixed_dictionaries({"abelian": shaped(st.lists(wide, max_size=4))}),
    st.fixed_dictionaries(
        {
            "semidirect": st.fixed_dictionaries(
                {
                    "s": shaped(wide),
                    "base": shaped(st.lists(wide, max_size=3)),
                    "alpha": shaped(st.fixed_dictionaries({"blocks": shaped(blocks)})),
                }
            )
        }
    ),
    st.fixed_dictionaries(
        {
            "table": st.fixed_dictionaries(
                {"mul": shaped(st.lists(st.lists(small, max_size=6), max_size=6))},
                optional={"n": shaped(small), "id": shaped(small)},
            )
        }
    ),
    any_json,
)

def _d10_certificate() -> dict:
    """D10 written as a Cayley table, with the oracle's first terrace."""
    sd = SdSpec(2, cyclic(5), Automorphism((ScalarBlock(5, 4),)))
    elems = list(sd.elements())
    d10 = TableGroup([[elems.index(sd.mul(a, b)) for b in elems] for a in elems])
    terrace = d10.indices(exhaustive_sequencings(d10, limit=1).terraces[0])
    ok, quots = is_directed_terrace(d10, terrace)
    assert ok
    return SequencingCertificate(d10, tuple(terrace), tuple(quots), {}).to_json()


def moduli(group_doc: dict) -> list[int]:
    """The modulus of each coordinate of an element row."""
    if "semidirect" in group_doc:
        return [group_doc["semidirect"]["s"]] + group_doc["semidirect"]["base"]
    if "abelian" in group_doc:
        return group_doc["abelian"]
    return [group_doc["table"]["n"]]


# valid certificates to start from: cyclic, Walecki, cyclic-semidirect,
# product and table
VALID = [sequence_order(n).to_json() for n in (2, 6, 21, 39, 75)] + [_d10_certificate()]
rows = st.lists(st.lists(small, max_size=4), max_size=8)


@st.composite
def certificate_texts(draw):
    cert = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    how = draw(
        st.sampled_from(["valid", "group", "swap", "junk row", "cut", "range", "fields", "any"])
    )
    if how == "group":
        cert["group"] = draw(descriptors)
    elif how == "swap":
        t = cert["terrace"]
        i = draw(st.integers(0, len(t) - 1))
        j = draw(st.integers(0, len(t) - 1))
        t[i], t[j] = t[j], t[i]
    elif how == "junk row":
        key = draw(st.sampled_from(["terrace", "sequencing"]))
        seq = cert[key]
        if seq:
            seq[draw(st.integers(0, len(seq) - 1))] = draw(any_json)
    elif how == "range":
        # one coordinate raised to its modulus or beyond: not an element
        seq = cert[draw(st.sampled_from(["terrace", "sequencing"]))]
        row = seq[draw(st.integers(0, len(seq) - 1))]
        pos = draw(st.integers(0, len(row) - 1))
        row[pos] = moduli(cert["group"])[pos] + draw(st.integers(0, 3))
    elif how == "cut":
        cert["terrace"] = cert["terrace"][: draw(st.integers(0, len(cert["terrace"])))]
    elif how == "fields":
        cert = {
            "group": draw(descriptors),
            "terrace": draw(shaped(rows)),
            "sequencing": draw(shaped(rows)),
        }
    elif how == "any":
        return draw(any_json.map(json.dumps) | st.text(max_size=40))
    doc = {"certificate": cert} if draw(st.booleans()) else cert
    return json.dumps(doc)


@FUZZ
@given(descriptors)
def test_group_from_descriptor_answers_or_refuses(obj):
    try:
        group_from_descriptor(obj)
    except (SeqLatinError, ValueError):
        pass


@FUZZ
@given(certificate_texts())
def test_verify_exit_code_on_generated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (0, 1, 2), err.getvalue()
