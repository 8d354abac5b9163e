"""CLI surface: JSON envelopes, golden outputs, exit codes, caps."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from rootinv import cli
from rootinv.errors import GroupCapExceeded
from rootinv.monoids import graded_lex_sorted, hilbert_basis_box
from rootinv.reports import family_monoid, report
from rootinv.rootsystem import build

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,fname",
    [
        (("info", "E6"), "info_e6.json"),
        (
            ("invariants", "A", "3", "--relations", "--hironaka"),
            "invariants_a3_relations_hironaka.json",
        ),
        (("classgroup", "D", "5"), "classgroup_d5.json"),
        (("hilbert", "--ker", "1 2 -3"), "hilbert_ker_1_2_m3.json"),
    ],
)
def test_golden_outputs(capsys, argv, fname):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / fname).read_text()


def test_envelope_and_determinism(capsys):
    code1, out1 = run_cli(capsys, "info", "E6")
    code2, out2 = run_cli(capsys, "info", "E6")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"schema_version", "command", "payload"}
    assert doc["schema_version"] == "1"
    assert doc["command"] == "info E6"


def test_invariants_e7_payload(capsys):
    code, out = run_cli(capsys, "invariants", "E7")
    assert code == 0
    p = json.loads(out)["payload"]
    assert p["generator_count"] == 10
    assert p["free_coordinates"] == [1, 3, 4, 6]
    assert p["residual"] == {
        "dim": 3,
        "congruences": [{"coefficients": [1, 1, 1], "modulus": 2}],
    }
    assert p["class_group"] == "Z/2"


def test_expand_a2(capsys):
    code, out = run_cli(capsys, "invariants", "A", "2", "--expand")
    assert code == 0
    p = json.loads(out)["payload"]
    by_name = {e["name"]: e for e in p["expansion"]}
    assert by_name["q1"]["terms"] == 7  # six roots plus the constant 3
    assert by_name["p1"]["terms"] == 10
    assert by_name["p2"]["terms"] == 10
    assert "expansion_truncated" not in p


@pytest.mark.parametrize(
    "argv,digest",
    [
        # exponent scale 2: half-integral exponents render as x^(k/2)
        (("invariants", "C", "6", "--expand"), "059afe190f10489674601bfedd692885c266174e2f4113fbffc4dc9b29acb34b"),
        # scale 3, coefficients up to 8,640
        (("invariants", "E", "6", "--expand"), "67b5cb68a632956132c39982237a0c99f34d3f9cd85f2154ff658449d4919bbc"),
    ],
)
def test_expansion_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expand_orbit_cap_truncation(capsys):
    code, out = run_cli(capsys, "invariants", "A", "2", "--expand", "--orbit-cap", "2")
    assert code == 0
    p = json.loads(out)["payload"]
    assert p["expansion_truncated"] is True


def test_usage_errors(capsys):
    assert run_cli(capsys, "info", "H", "3")[0] == 2
    assert run_cli(capsys, "info", "A")[0] == 2
    assert run_cli(capsys, "info", "E", "9")[0] == 2
    assert run_cli(capsys, "hilbert", "--ker", "1 a")[0] == 2
    assert run_cli(capsys, "hilbert", "--ker", "")[0] == 2
    assert run_cli(capsys, "hilbert", "--monoid", "/nonexistent/file")[0] == 2
    assert run_cli(capsys, "invariants", "A", "3", "--relations", "--degree-bound", "0")[0] == 2
    assert run_cli(capsys, "invariants", "A", "3", "--relations", "--degree-bound", "-1")[0] == 2
    with pytest.raises(SystemExit) as ei:
        cli.main(["bogus-command"])
    assert ei.value.code == 2
    capsys.readouterr()
    negative = "a cap must be nonnegative"
    for argv, message in (
        (["invariants", "A", "3", "--box-cap", "-1"], negative),
        (["invariants", "A", "2", "--expand", "--orbit-cap", "-1"], negative),
        (["hilbert", "--ker", "1 -1", "--box-cap", "-1"], negative),
        (["classgroup", "A", "3", "--group-cap", "-5"], negative),
        (["selfcheck", "--group-cap", "-1"], negative),
        (["invariants", "A", "3", "--box-cap", "abc"], "invalid cap value: 'abc'"),
    ):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 2
        assert f"argument {argv[-2]}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["2\n1 x mod 3\n", "2\n1 1 mod 1\n", "2\n1 1 3\n", "ker: 1 2\n", "\n"])
def test_malformed_monoid_file_is_a_usage_error(capsys, tmp_path, text):
    path = tmp_path / "bad.monoid"
    path.write_text(text)
    assert cli.main(["hilbert", "--monoid", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_value_error_in_the_mathematics_is_an_internal_error(capsys, monkeypatch):
    def broken(rs):
        raise ValueError("reflection does not preserve the root lattice")

    monkeypatch.setattr("rootinv.weyl.root_reflections", broken)
    code = cli.main(["classgroup", "A", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "internal error: reflection does not preserve the root lattice\n"


def test_hilbert_monoid_file(capsys, tmp_path):
    m = family_monoid(build("C", 3))
    path = tmp_path / "c3.monoid"
    path.write_text(m.serialize())
    code, out = run_cli(capsys, "hilbert", "--monoid", str(path))
    assert code == 0
    p = json.loads(out)["payload"]
    assert p["kind"] == "congruence"
    assert p["count"] == 4
    assert sorted(map(tuple, p["basis"])) == sorted(
        [(0, 1, 0), (0, 0, 2), (1, 0, 1), (2, 0, 0)]
    )


def test_hilbert_monoid_modulus_beyond_int64(capsys, tmp_path):
    path = tmp_path / "big.monoid"
    path.write_text("2\n50000000000000000000 0 mod 100000000000000000000\n")
    code, out = run_cli(capsys, "hilbert", "--monoid", str(path))
    assert code == 0
    assert json.loads(out)["payload"]["basis"] == [[0, 1], [2, 0]]


def test_classgroup_fallback(capsys):
    code, out = run_cli(capsys, "classgroup", "B", "7", "--group-cap", "1000")
    assert code == 0
    p = json.loads(out)["payload"]
    assert p["class_group"] == "0"
    assert p["method"] == "family-fallback"
    assert p["toric_cross_check"] == "agree"


def test_invariants_honours_box_cap(capsys):
    code = cli.main(["invariants", "A", "3", "--box-cap", "3"])
    assert code == 1
    assert "cap is 3" in capsys.readouterr().err


def test_selfcheck_weyl_order_honours_the_group_cap():
    checks = dict(cli._selfcheck_list(False, 1000))
    with pytest.raises(GroupCapExceeded, match="exceeds cap 1000"):
        checks["weyl-order-e6"]()


def test_report_never_enumerates_the_group(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the report path enumerated W")

    monkeypatch.setattr("rootinv.weyl._group_levels", refuse)
    code, out = run_cli(capsys, "invariants", "E", "7")
    assert code == 0
    assert json.loads(out)["payload"]["class_group"] == "Z/2"


@pytest.mark.parametrize("bound", ["1", "3"])
def test_fixture_equivalence_needs_every_fixture_degree(capsys, bound):
    # a3_magma has relations up to degree 4: a lower bound checks too little
    code, out = run_cli(capsys, "invariants", "A", "3", "--relations", "--degree-bound", bound)
    assert code == 1
    assert json.loads(out)["payload"]["relations"]["fixture"]["equivalent"] is False


# Every type among A1-A7, B2-B7, C2-C9, D4-D9, E6-E8, F4 and G2 whose monoid splits off a residual.
_RESIDUAL_TYPES = (
    [f"B{n}" for n in range(2, 8)] + [f"C{n}" for n in range(2, 10)]
    + [f"D{n}" for n in range(4, 10)] + ["E6", "E7"]
)


@pytest.mark.parametrize("name", _RESIDUAL_TYPES)
def test_relation_generators_are_the_residual_basis(name):
    # M = Z+^free x M_res: the residual's basis is read off the report's basis
    rep = report(build(name))
    assert rep.residual is not None
    want = graded_lex_sorted(hilbert_basis_box(rep.residual))
    assert cli._relations_block(name, rep, 1)["generators"] == [list(v) for v in want]
