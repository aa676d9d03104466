"""Exit codes, JSON output shape, determinism, and verify round-trips."""

import json
import time

import pytest

from seqlatin.cli import main
from seqlatin.groups import AbelianSpec, group_to_descriptor
from seqlatin.oracle import s3_table


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_exit_and_shape(capsys):
    code, out, err = run(capsys, ["classify", "21"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["verdict"] == "OddNonabelianExists"
    assert doc["witness"]["pipeline"] == "cyclic"
    assert "21" in err


def test_classify_negative_orders(capsys):
    code, out, _ = run(capsys, ["classify", "15"])
    assert code == 0  # classification itself succeeded
    assert json.loads(out)["verdict"] == "OddOnlyAbelian"
    code, out, _ = run(capsys, ["classify", "2"])
    assert json.loads(out)["verdict"] == "Even"


def test_sequence_negative_order(capsys):
    code, out, _ = run(capsys, ["sequence", "--order", "15"])
    assert code == 1
    doc = json.loads(out)
    assert doc["sequenceable"] is False


def test_sequence_trivial(capsys):
    code, out, _ = run(capsys, ["sequence", "--order", "1"])
    assert code == 0
    assert json.loads(out)["trivial"] is True


def test_sequence_byte_deterministic(capsys):
    code1, out1, _ = run(capsys, ["sequence", "--q", "3", "--m", "9"])
    code2, out2, _ = run(capsys, ["sequence", "--q", "3", "--m", "9"])
    assert code1 == code2 == 0
    assert out1 == out2
    # keys come out sorted
    doc = json.loads(out1)
    assert out1 == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_sequence_seed_threads(capsys):
    code, out, _ = run(capsys, ["sequence", "--order", "75", "--seed", "2"])
    assert code == 0
    assert json.loads(out)["certificate"]["provenance"]["seed"] == 2
    code, out, _ = run(capsys, ["sequence", "--p", "5", "--q", "3", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["certificate"]["provenance"]["seed"] == 1


def test_sequence_seed_defaults_to_zero(capsys):
    flags = ["sequence", "--p", "5", "--k", "2", "--q", "3"]
    default = run(capsys, flags)
    assert default[0] == 0
    assert run(capsys, [*flags, "--seed", "0"]) == default


def test_sequence_explicit_product_flags(capsys):
    code, out, _ = run(capsys, ["sequence", "--p", "5", "--k", "2", "--q", "3"])
    assert code == 0
    assert json.loads(out)["certificate"]["provenance"]["pipeline"] == "non3"
    code, out, _ = run(capsys, ["sequence", "--p", "5", "--q", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["provenance"]["pipeline"] == "theorem3"
    assert doc["certificate"]["provenance"]["nine"] is False


def test_sequence_b_flag(capsys):
    code, out, _ = run(capsys, ["sequence", "--p", "5", "--k", "2", "--q", "3", "--b", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["provenance"]["b"] == [7]


def test_usage_errors(capsys):
    assert run(capsys, ["sequence"])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["sequence", "--p", "5"])[0] == 2  # --p without --q
    assert run(capsys, ["sequence", "--order", "5001"])[0] == 2  # over desk cap


@pytest.mark.parametrize("command", ["sequence", "latin"])
@pytest.mark.parametrize(
    "flags, ignored",
    [
        (["--order", "75", "--q", "3"], "--q is ignored with --order"),
        (["--order", "75", "--nine"], "--nine is ignored with --order"),
        (["--q", "3", "--m", "7", "--p", "5"], "--m is ignored with --p"),
        (["--p", "5", "--q", "3", "--k", "2", "--nine"], "--nine is ignored with --k"),
        (["--q", "3", "--m", "7", "--b", "5"], "--b is ignored without --p"),
        (["--q", "3", "--m", "7", "--k", "2"], "--k is ignored without --p"),
        (["--q", "3", "--m", "7", "--seed", "5"], "--seed is ignored with --m"),
        (["--q", "3", "--m", "7", "--seed", "0"], "--seed is ignored with --m"),
    ],
)
def test_group_flags_the_route_ignores_exit_2(capsys, command, flags, ignored):
    code, out, err = run(capsys, [command, *flags])
    assert code == 2
    assert out == "" and ignored in err


def test_direct_pipelines_over_the_cap_exit_2(capsys):
    # orders 42021 and 7575: refused like --order is, before any search
    for argv in (
        ["sequence", "--q", "3", "--m", "14007"],
        ["sequence", "--p", "5", "--k", "2", "--q", "3", "--b", "101"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "" and "exceeds pipeline cap 5000" in err


def test_classify_huge_order_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["classify", str(10**111 + 57)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and "factoring limit" in err


def test_negative_exit_for_missing_unit(capsys):
    code, _, err = run(capsys, ["sequence", "--q", "3", "--m", "5"])
    assert code == 1
    assert "no unit" in err


def test_verify_round_trip(tmp_path, capsys):
    for argv in (
        ["sequence", "--q", "3", "--m", "7"],
        ["sequence", "--order", "6"],
        ["sequence", "--order", "75"],
        ["sequence", "--p", "5", "--q", "3"],
    ):
        path = tmp_path / "cert.json"
        code, out, _ = run(capsys, argv + ["--out", str(path)])
        assert code == 0
        assert out == ""  # --out suppresses stdout
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["checks"]["complete_square"] is True


def test_verify_rejects_tampering(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, ["sequence", "--q", "3", "--m", "7", "--out", str(path)])
    doc = json.loads(path.read_text())
    t = doc["certificate"]["terrace"]
    t[1], t[2] = t[2], t[1]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_verify_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["verify", str(bad)])[0] == 2
    bad.write_text(json.dumps({"certificate": {"group": {"abelian": [6]}}}))
    assert run(capsys, ["verify", str(bad)])[0] == 2
    assert run(capsys, ["verify", str(tmp_path / "missing.json")])[0] == 2
    bad.write_text(json.dumps([{"group": {"abelian": [2]}}]))
    assert run(capsys, ["verify", str(bad)])[0] == 2
    entries = {"terrace": [[0, 0], [1, 0]], "sequencing": [[1, 0]]}
    zero_scalar = {"kind": "scalar", "modulus": 0, "unit": 1}
    zero_matrix = {"kind": "matrix", "p": 0, "rows": [[1]]}
    for group in (
        {"semidirect": {"s": 3}},
        {"semidirect": {"s": 3, "base": 7, "alpha": {"blocks": []}}},
        {"semidirect": {"s": 3, "base": [7], "alpha": {"blocks": [{"kind": "scalar"}]}}},
        {"semidirect": {"s": 3, "base": [7], "alpha": {"blocks": [7]}}},
        {"semidirect": {"s": 2, "base": [7], "alpha": {"blocks": [zero_scalar]}}},
        {"semidirect": {"s": 2, "base": [7], "alpha": {"blocks": [zero_matrix]}}},
        {"abelian": [[2]]},
        {"table": {"mul": 5}},
        {"table": {"mul": [1, 0]}},
    ):
        bad.write_text(json.dumps(dict(entries, group=group)))
        assert run(capsys, ["verify", str(bad)])[0] == 2, group
    bad.write_text(json.dumps({"group": {"abelian": [2]}, "terrace": 5, "sequencing": []}))
    assert run(capsys, ["verify", str(bad)])[0] == 2
    for group in ({"abelian": [2]}, {"semidirect": {"s": 2, "base": [], "alpha": {"blocks": []}}}):
        bad.write_text(json.dumps({"group": group, "terrace": [{}, [1]], "sequencing": [[1]]}))
        assert run(capsys, ["verify", str(bad)])[0] == 2, group


def test_verify_accepts_only_integer_coordinates(tmp_path, capsys):
    path = tmp_path / "cert.json"
    run(capsys, ["sequence", "--order", "21", "--out", str(path)])
    doc = json.loads(path.read_text())
    cert = doc["certificate"]
    assert run(capsys, ["verify", str(path)])[0] == 0
    floats = dict(cert, terrace=[[x + 0.9 for x in e] for e in cert["terrace"]])
    strings = dict(cert, sequencing=[[str(x) for x in e] for e in cert["sequencing"]])
    bools = dict(cert, terrace=[[bool(x) for x in e] for e in cert["terrace"]])
    for bad in (floats, strings, bools, dict(floats, sequencing=strings["sequencing"])):
        path.write_text(json.dumps(dict(doc, certificate=bad)))
        assert run(capsys, ["verify", str(path)])[0] == 2


def test_verify_wrong_length_skips_the_group(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("enumerated the declared group")

    monkeypatch.setattr(AbelianSpec, "elements", refuse)
    path = tmp_path / "huge.json"
    doc = {
        "group": {"abelian": [1000000, 1000000]},
        "terrace": [[0, 0], [0, 1]],
        "sequencing": [[0, 1]],
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert json.loads(out)["checks"] == {"terrace": False, "sequencing": False}


def test_verify_huge_semidirect_modulus_answers_at_once(tmp_path, capsys):
    path = tmp_path / "sd.json"
    unit = {"kind": "scalar", "modulus": 1000000007, "unit": 5}
    doc = {
        "group": {"semidirect": {"s": 2, "base": [1000000007], "alpha": {"blocks": [unit]}}},
        "terrace": [[0, 0], [1, 0]],
        "sequencing": [[1, 0]],
    }
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 1
    assert "does not divide s=2" in err


def test_verify_wide_matrix_block_answers_at_once(tmp_path, capsys):
    # a 30x30 cyclic shift over Z_3 and a 4001-digit s cost 30 s of
    # matrix powers before the width was bounded
    path = tmp_path / "wide.json"
    shift = [[int(j == (i + 1) % 30) for j in range(30)] for i in range(30)]
    block = {"kind": "matrix", "p": 3, "rows": shift}
    doc = {
        "group": {"semidirect": {"s": 10**4000 + 1, "base": [3] * 30, "alpha": {"blocks": [block]}}},
        "terrace": [[0] * 31, [1] + [0] * 30],
        "sequencing": [[1] + [0] * 30],
    }
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "width 30 exceeds 8" in err


def test_verify_nested_json_is_not_json(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 2 and out == ""
    assert "not JSON" in err


def test_verify_table_entry_outside_the_table(tmp_path, capsys):
    # 9 is not an element of S3: invalid, not an internal failure
    path = tmp_path / "s3.json"
    doc = {
        "group": group_to_descriptor(s3_table()),
        "terrace": [0, 1, 2, 3, 4, 9],
        "sequencing": [1, 1, 1, 1, 1],
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert json.loads(out)["checks"] == {"terrace": False, "sequencing": False}


@pytest.mark.parametrize("order", [21, 75])
def test_verify_coordinate_raised_by_its_modulus(tmp_path, capsys, order):
    path = tmp_path / "cert.json"
    run(capsys, ["sequence", "--order", str(order), "--out", str(path)])
    doc = json.loads(path.read_text())
    group = doc["certificate"]["group"]["semidirect"]
    moduli = [group["s"]] + group["base"]
    for key in ("terrace", "sequencing"):
        for pos, m in enumerate(moduli):
            bad = json.loads(json.dumps(doc))
            bad["certificate"][key][3][pos] += m
            path.write_text(json.dumps(bad))
            code, out, _ = run(capsys, ["verify", str(path)])
            assert code == 1, (key, pos)
            assert json.loads(out)["checks"][key] is False


@pytest.mark.parametrize("order", [6, 21])
def test_verify_ragged_element(tmp_path, capsys, order):
    # order 6 is a Walecki certificate on Z_6, order 21 a semidirect one; a
    # terrace element of the wrong length is not a terrace, a sequencing
    # element of the wrong length is not the sequencing
    path = tmp_path / "cert.json"
    run(capsys, ["sequence", "--order", str(order), "--out", str(path)])
    doc = json.loads(path.read_text())
    for key, want in (
        ("terrace", {"terrace": False, "sequencing": False}),
        ("sequencing", {"terrace": True, "sequencing": False, "complete_square": True}),
    ):
        bad = json.loads(json.dumps(doc))
        bad["certificate"][key][3].append(0)
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 1, key
        assert json.loads(out)["checks"] == want, key


def test_latin_csv_file(tmp_path, capsys):
    path = tmp_path / "s.csv"
    code, _, err = run(capsys, ["latin", "--order", "6", "--out", str(path)])
    assert code == 0
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    assert len(rows) == 6 and all(len(r) == 6 for r in rows)
    assert str(path) in err


def test_latin_json_grid(capsys):
    code, out, _ = run(capsys, ["latin", "--q", "3", "--m", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 21
    assert len(doc["grid"]) == 21
    assert "semidirect" in doc["group"]


def test_latin_csv_stdout(capsys):
    code, out, _ = run(capsys, ["latin", "--order", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].count(",") == 3


def test_latin_negative_and_trivial(capsys):
    assert run(capsys, ["latin", "--order", "15"])[0] == 1
    code, out, _ = run(capsys, ["latin", "--order", "1"])
    assert code == 0
    assert json.loads(out)["grid"] == [[0]]


def test_graceful_commands(capsys):
    code, out, _ = run(capsys, ["graceful", "9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["construction"] == "zigzag"
    assert sorted(doc["permutation"]) == list(range(1, 10))
    code, out, _ = run(capsys, ["graceful", "12", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["permutation"][0] == 5
    assert doc["construction"] == "prescribed-first"


def test_graceful_over_cap(capsys):
    assert run(capsys, ["graceful", "50", "3"])[0] == 2


def test_graceful_zigzag_over_cap(capsys, monkeypatch):
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["graceful", str(10**12)])
    assert code == 2 and out == "" and "cap 5000" in err
    assert time.perf_counter() - t0 < 1.0
    assert run(capsys, ["graceful", "5000"])[0] == 0
    monkeypatch.setenv("SEQLATIN_DESK_LIMIT", "9")
    assert run(capsys, ["graceful", "10"])[0] == 2


def test_search_exhaustive(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"abelian": [8]}))
    code, out, _ = run(capsys, ["search", "--group", str(gpath), "--exhaustive"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 24 and doc["exhausted"] is True
    code, out, _ = run(capsys, ["search", "--group", str(gpath)])
    assert code == 0
    assert json.loads(out)["count"] == 1  # default stops at the first hit


def test_search_zero_exit(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"abelian": [3, 3]}))
    code, out, _ = run(capsys, ["search", "--group", str(gpath), "--exhaustive"])
    assert code == 1
    assert json.loads(out)["count"] == 0


def test_search_nested_json_exits_2(tmp_path, capsys):
    gpath = tmp_path / "nested.json"
    gpath.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, ["search", "--group", str(gpath)])
    assert code == 2 and out == ""
    assert "recursion" in err


def test_search_jobs_flag(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"abelian": [8]}))
    code1, out1, _ = run(capsys, ["search", "--group", str(gpath), "--exhaustive"])
    code2, out2, _ = run(
        capsys, ["search", "--group", str(gpath), "--exhaustive", "--jobs", "2"]
    )
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("extra", [["--exhaustive"], []])
@pytest.mark.parametrize("limit", ["0", "-1"])
def test_search_limit_below_one(tmp_path, capsys, extra, limit):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"abelian": [8]}))
    code, out, err = run(capsys, ["search", "--group", str(gpath), *extra, "--limit", limit])
    assert code == 2 and out == ""
    assert "limit must be >= 1" in err


def test_search_missing_file(capsys):
    assert run(capsys, ["search", "--group", "/nonexistent.json"])[0] == 2


def test_desk_limit_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEQLATIN_DESK_LIMIT", "6")
    assert run(capsys, ["sequence", "--order", "8"])[0] == 2
    monkeypatch.delenv("SEQLATIN_DESK_LIMIT")
    assert run(capsys, ["sequence", "--order", "8"])[0] == 0
