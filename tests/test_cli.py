"""CLI surface: JSON envelopes, golden outputs, exit codes, caps."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootinv import classgroup, cli, intlinalg, monoids, relations, reports, rootsystem, selfcheck
from rootinv.errors import GroupCapExceeded
from rootinv.monoids import Congruence, CongruenceMonoid, graded_lex_sorted, hilbert_basis_box
from rootinv.reports import report
from rootinv.rootsystem import ROOT_TABLE_LIMIT, RootSystemType, build

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
        (("info", "F4"), "info_f4.json"),
        (("info", "D5"), "info_d5.json"),
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
        # scale 2; p5's 34,455 terms come from banded products
        (("invariants", "C", "7", "--expand"), "a1084a4a065e7853dfa5590caf6f16be972a2ca178b4eb9cbaa5814ebea98557"),
        # scale 2; with C7, the perfbench expand jobs of the largest peak memory
        (("invariants", "D", "6", "--expand"), "02f4ed731d00650b17ec463fd4c2d2c29e9bbf08dbea8b79f457b382ed249824"),
    ],
)
def test_expansion_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "name,digest",
    [
        # 1,640 roots, from the one orbit of theta
        ("A40", "5bfa5493a4bd9f73e0a4f0faee84c3ba8914ad18d3f3721ec22db1089b452ce2"),
        # two root lengths, so two orbits
        ("B8", "dfb293ac4cbcf3a649b90ab4608114f87eab91f88aa3428c1c483d9b0d12417a"),
        ("D8", "d4141fd0ad418eae0923e264ae2003f99d43046d9890f7cb07282f47c993383f"),
        # 240 roots; highest-root coefficients up to 6
        ("E8", "e4774a6cabcb4cfb8f714ef83edf87a8033c53a588ca95e92a8ceff673cd575e"),
        ("F4", "c3fddb88c3c66d994ea9027f7d68c51ee8ec2a2688e2446f48c6f4380514f5c6"),
        ("G2", "d8b2046061f13b1edd3f76037da213132b222d939b2e353d8ab26249d38ba071"),
    ],
)
def test_info_bytes_are_pinned(capsys, name, digest):
    code, out = run_cli(capsys, "info", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        # 19 generators, 115 binomials up to degree 4
        (("invariants", "A", "5", "--relations", "--degree-bound", "4"), "de45d3ac1dd812881da64aaf49bb5f8c2e2a074f6b74b1c80cbdea6b64988362"),
        # 14 generators, 79 binomials up to degree 5
        (("invariants", "A", "4", "--relations", "--degree-bound", "5"), "18f384a429812f1bf047bd68ac76ac19b890ca4a7697bbfb9403fffc58230d52"),
        # 14 generators, 84 binomials up to degree 6
        (("invariants", "A", "4", "--relations", "--degree-bound", "6"), "1b6ac1b604990806edb8773beeb27d58804b9ff53cb72098b8d113e780c58b8f"),
        # 12 generators, the 35 binomials of bound 3, equivalent to the fixture
        (("invariants", "E", "6", "--relations", "--degree-bound", "4"), "cd821a9b3f77f82125d880527e144dc23b9af27c39b38902cc1d92dca93662d6"),
    ],
)
def test_relations_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fiber_cap_message_names_the_count_the_cap_and_the_way_out(capsys):
    code = cli.main(["invariants", "A", "7", "--relations", "--degree-bound", "9"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    [line] = captured.err.splitlines()
    for part in ("97082021464 factorizations", "bound 9", "fiber cap is 2000000", "lower --degree-bound"):
        assert part in line


def test_fiber_cap_is_checked_in_time_independent_of_the_bound(capsys):
    # summing the factorization count degree by degree would take years at this bound
    code = cli.main(["invariants", "A", "2", "--relations", "--degree-bound", str(10**15)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"{comb(10**15 + 3, 3) - 1} factorizations at bound {10**15}" in captured.err


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

    for module in ("rootinv.weyl", "rootinv.classgroup"):  # every module that holds the pairing table
        monkeypatch.setattr(f"{module}.coroot_pairings", broken)
    code = cli.main(["classgroup", "A", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "internal error: reflection does not preserve the root lattice\n"


@pytest.mark.parametrize(
    "target,wrong,message",
    [
        # orders (3, 3) as for A2, but the simple root (2, -1) fails k1 + k2 = 0 mod 3
        (
            "rootinv.reports.family_monoid",
            lambda rs: CongruenceMonoid(2, (Congruence((1, 1), 3),)),
            "a simple root fails a congruence of the family monoid",
        ),
        (
            "rootinv.monoids.CongruenceMonoid.lattice_index",
            lambda m: 1,
            "the congruence lattice's index differs from |P/Q|",
        ),
    ],
)
def test_a_wrong_family_monoid_is_a_verification_failure(capsys, monkeypatch, target, wrong, message):
    monkeypatch.setattr(target, wrong)
    code = cli.main(["invariants", "A", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"verification failure: {message}\n"


def test_hilbert_monoid_file(capsys, tmp_path):
    path = tmp_path / "c3.monoid"
    path.write_text("3\n1 0 1 mod 2\n")  # the family monoid of C3
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


def test_hilbert_refuses_a_row_of_too_high_a_degree_bound():
    # Lambert's bound is 2 + (10^20 - 1): run, the completion would not end
    proc = subprocess.run(
        [sys.executable, "-m", "rootinv.cli", "hilbert", "--ker", "1 2 -99999999999999999999"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},  # finds rootinv as we do
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: the row's minimal solutions may reach degree 100000000000000000001 (max a+ + max |a-| "
        "over the row's gcd), past the limit of 10000\n"
    )


def test_classgroup_fallback(capsys):
    code, out = run_cli(capsys, "classgroup", "B", "7", "--group-cap", "1000")
    assert code == 0
    p = json.loads(out)["payload"]
    assert p["class_group"] == "0"
    assert p["method"] == "family-fallback"
    assert p["toric_cross_check"] == "agree"


# classgroup T --group-cap 0 for every type of the sweep: the route that never scans W
_FALLBACK_DIGESTS = {
    "A1": "42b4ef4ea47d5c93906df218a74ee9f7826805c10a8150a01ca3d987eadfcb53",
    "A2": "4fc5256864b5f2170bc11643df2b66fb8db71face4c337746103bfff18d18e73",
    "A3": "22d8958e30ddd071130c146bc124124f6f716c58df2bb837aaac9170e35aab0b",
    "A4": "28cd0bd63ead772543771626d496cde34b04340c175d36834705ac16a22249f2",
    "A5": "1f42499ef6e9a8de105686341e904ceefda36ca23cf7fb13795baef56ba63aa2",
    "A6": "d009f35e640820362a95b3d8a5aea208820541ec83a02e1bb7f26301b421f59c",
    "A7": "ee9ec0050c198e24fc042090341c71d8fd664c6cc4a9fa8c413db1b30e65e32e",
    "A8": "b28021b0536ff7b2c4a3167d727cadb898113b9cc4fc2e0acfffc6d55a8787ed",
    "A9": "edafa53f7c7879b72ee303b0a27fe3303e3028e51d6a855b1e4da6e12cbd67fb",
    "B2": "119496de8d342b30b20ae3ff9839486358c536da0aded67dbd9d775db4dc5fda",
    "B3": "5be6a436e7af9c5a8efcb57654e61156a843aa8f04282ade1c82f8ca320ae496",
    "B4": "50480b341433dee7a9563c3503ed95584189443610adba5ae2f611b548c9bdd0",
    "B5": "a3e7af6119129bf943eb1d4617c43c5c9df60948de7077c3cc604b7e23a10023",
    "B6": "5e8692fc69c6dbead8d7ae887ecca34333500b5a271a07cec5976f553fd06e4b",
    "B7": "05ba2a6992bb952296580cc487f98581c9fe97893eab2488fc30f206e002ec5f",
    "B8": "1fef6013b9c44bc214ef763e38f3c2cb0f7b78200fc4ba87baac5bb8bbd332d9",
    "B9": "b9195f5ddb515286e4febad40c37ef998a0b9d8efb545516eeb40b0f98bd4e06",
    "C2": "bdf23e01db84a662674097bf11d5fc13313d89619f5b3a476700823079838f89",
    "C3": "95bed220ce8b31af4427ab1437b92b46308d79497f0880fb9505a0aa4ff01c99",
    "C4": "5f851ffc74e0aa784b7d82f559956b6b96b6fc5d09d902d4a11fd24c216739d9",
    "C5": "72be9f43bc0d8c7808bf4c63e0af982cbb52c4671c3412af61ae7c9a8f06939f",
    "C6": "494abf09d28c93f95b866de0191503ac020f9f2baa6ce56152c3eb8c54813f23",
    "C7": "3c72c28808595c14ad8411b237b51c2a6d2c402f3f3d325ff9ac683c3793f77f",
    "C8": "9dfe7698484d74fdb180ac5602390f09b35b2b93ba886a297d98b696c9747019",
    "C9": "7fc8e3d9c6e892470ae2024938febdb8c12feca516ff46cf30de9a07691df772",
    "D3": "32f86bd396a28a410bcce8e6b2891fde5180853b82ec2673873450d6928496bf",
    "D4": "2ee4d20552ca6407513746b674176f007c003f074cbbd19d98778c9d3dfcdebb",
    "D5": "7ad176bb61338930ebc6bae9de9000a7acfd3f4dd91130c67478e5de9a52dfbc",
    "D6": "425700bb1a5a1a407e096464436d1dd8727f8b568d25cd2829702bace6443268",
    "D7": "16b5e451d223b141c6c05a39bf69c821ee915f2d191cc4fe4e16527ade5a94f5",
    "D8": "607a4f1341c188efce1ffadabdd833ce1157fd44ba42496124be2e6d73c9d59a",
    "D9": "7671e8874309e2e1b65de252636ee9df908f558b06eb857244e12c3f23f81b78",
    "E6": "011804f3abdcfdd655d401c40a1f32f79d073a57a6a6fd16be0bb9712b8a78dc",
    "E7": "a2e2cccd79bf1c1c634bc53ac197a05e41ab2c7adcefaa909fc4713438bdb779",
    "E8": "477fc7027589dd8dcd58153e79bd83dc1c82b0b10c51ec9bea4e3be63cc5a8ca",
    "F4": "5e7bfa8e318a3566345d4268db485bae3206a561df403d94fe54606fcdef4da5",
    "G2": "70eecb3e7a3ab78a1a110b50ab77ec6d284355bda7fa75e7b635ef5caca38ff6",
}
_ALIASES = {"C2": "C_2 is isomorphic to B_2", "D3": "D_3 is isomorphic to A_3"}


@pytest.mark.parametrize("name", _FALLBACK_DIGESTS)
def test_class_group_fallback_bytes_are_pinned(capsys, name):
    with pytest.warns(UserWarning, match=_ALIASES[name]) if name in _ALIASES else nullcontext():
        code, out = run_cli(capsys, "classgroup", name, "--group-cap", "0")
    assert code == 0
    assert json.loads(out)["payload"]["method"] == "family-fallback"
    assert hashlib.sha256(out.encode()).hexdigest() == _FALLBACK_DIGESTS[name]


def test_class_group_fallback_builds_no_reflection_matrix(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the fallback route built a Weyl group matrix")

    for target in ("classgroup.root_reflections", "classgroup.reflections", "weyl._group_levels"):
        monkeypatch.setattr(f"rootinv.{target}", refuse)
    code, out = run_cli(capsys, "classgroup", "A", "80")
    assert code == 0
    p = json.loads(out)["payload"]
    assert (p["class_group"], p["diagonalizable_reflection_rank"], p["method"]) == ("Z/81", 0, "family-fallback")


@pytest.mark.parametrize(
    "argv,forms",
    [
        # build's (it gives |P/Q|, the invariant factors and f * omega_i), the congruence row's kernel,
        # and the toric route's cokernel
        (("classgroup", "A", "80"), 3),
        (("info", "A", "150"), 1),  # build's alone
    ],
    ids=["classgroup-A80", "info-A150"],
)
def test_smith_forms_per_command(capsys, monkeypatch, argv, forms):
    calls = []
    original = intlinalg.smith_normal_form

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in (classgroup, intlinalg, monoids, reports, rootsystem):  # every module that the command runs
        if hasattr(mod, "smith_normal_form"):
            monkeypatch.setattr(mod, "smith_normal_form", counted)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["payload"]["weight_quotient"] == f"Z/{int(argv[2]) + 1}"
    assert len(calls) == forms


@pytest.mark.parametrize(
    "argv,entries",
    [
        (("info", "A", str(10**20)), 10**60 + 10**40),
        (("invariants", "A", str(10**20)), 10**60 + 10**40),
        (("classgroup", "A", str(10**20)), 10**60 + 10**40),
        (("info", "A", "256"), 256 * 257 * 256),
        (("classgroup", "B", "204"), 2 * 204**3),
        (("info", "C", "204"), 2 * 204**3),
        (("invariants", "D", "204"), 2 * 204 * 203 * 204),
    ],
)
def test_a_root_table_beyond_the_limit_is_refused_before_it_is_built(capsys, argv, entries):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: {argv[1]}_{argv[2]}: its root table holds |Phi| * rank = {entries} entries, "
        f"beyond the limit {ROOT_TABLE_LIMIT}\n"
    )


def test_the_largest_types_within_the_root_table_limit_are_accepted():
    for family, rank in (("A", 255), ("B", 203), ("C", 203), ("D", 203), ("E", 8)):
        RootSystemType(family, rank)  # validated only: building A255 takes 16.6 million table entries


def test_invariants_honours_box_cap(capsys):
    # the streamed arrays too: the cap fails before the first byte
    for flags in ((), ("--hironaka",), ("--expand",), ("--hironaka", "--expand", "--relations")):
        code = cli.main(["invariants", "A", "3", "--box-cap", "3", *flags])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: box has 32 points, box cap is 3; raise it with --box-cap\n"


def test_box_scan_of_32_axes_runs(capsys):
    code, out = run_cli(capsys, "invariants", "B", "32")
    assert code == 0
    assert json.loads(out)["payload"]["generator_count"] == 32


@pytest.mark.parametrize("family,dim", [("B", 33), ("D", 40), (None, 33), (None, 70)])
def test_box_scan_skips_the_axes_of_order_1(capsys, tmp_path, family, dim):
    # a generator of order 1 adds a one-point axis, and its unit vector is a basis element
    if family is None:
        path = tmp_path / "wide.monoid"
        path.write_text(f"{dim}\n")  # Z+^dim: a one-point box on dim axes
        code, out = run_cli(capsys, "hilbert", "--monoid", str(path))
        assert code == 0
        assert json.loads(out)["payload"]["basis"] == [[int(i == j) for j in range(dim)] for i in reversed(range(dim))]
    else:
        code, out = run_cli(capsys, "invariants", family, str(dim))  # boxes of 2 and 2^21 points
        assert code == 0
        assert json.loads(out)["payload"]["generator_count"] == {"B": 33, "D": 230}[family]


def test_box_scan_beyond_32_long_axes_is_an_error_before_it_allocates(capsys, tmp_path):
    path = tmp_path / "wide.monoid"
    path.write_text("40\n" + "1 " * 40 + "mod 2\n")  # 40 axes of 2 points: a box of 2^40 points
    code = cli.main(["hilbert", "--monoid", str(path), "--box-cap", str(2**40)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: box has 40 axes longer than 1, the box scan handles at most 32\n"


def test_degree_bound_needs_relations(capsys):
    code = cli.main(["invariants", "A", "3", "--degree-bound", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --degree-bound applies only with --relations\n"


def test_selfcheck_weyl_order_honours_the_group_cap():
    checks = dict(selfcheck._selfcheck_list(False, 1000))
    with pytest.raises(GroupCapExceeded, match="exceeds cap 1000"):
        checks["weyl-order-e6"]()


def test_selfcheck_builds_each_type_once(capsys, monkeypatch):
    built = []

    def counting(t):
        built.append(t)
        return build(t)

    monkeypatch.setattr(selfcheck, "build", counting)
    code, out = run_cli(capsys, "selfcheck")
    assert code == 0 and out.endswith("selfcheck: 15 passed, 0 failed\n")
    assert len(built) == len(set(built)) == 39


def test_selfcheck_cap_failure_names_the_flag(capsys):
    code, out = run_cli(capsys, "selfcheck", "--group-cap", "10")
    assert code == 1
    assert "FAIL  weyl-order-e6: GroupCapExceeded: |W| = 51840 exceeds cap 10; raise it with --group-cap\n" in out
    assert out.endswith("selfcheck: 14 passed, 1 failed\n")


# the class-group route (reflection scan, H^1 on the root reflections) and the widest box scan that runs
@pytest.mark.parametrize(
    "argv,digest",
    [
        (("selfcheck",), "439cdb5d6f019bad89a999d74eb7a045c7f59dfbd4e871fd5048699c11f04cf3"),
        (("classgroup", "A", "7"), "988539ea13ca936d0aaa00f0dcd715418e11fddb98b7e7f30777779733c1d8a5"),
        (("classgroup", "B", "6"), "a2fe8d75d04dbfcd1477013d8ca85201f75c5eb33ae1018350de07f33ba1cd4a"),
        (("classgroup", "D", "7"), "279851e0ec7c0171498e7026772bc5903b6934bf7cc40ca69c0579bb7b280664"),
        (("classgroup", "E", "6"), "59264cb8123bcf6160035a5ad80088c9f56d426e03c034d2b89cf9800cdab32f"),
        (("classgroup", "E", "8"), "477fc7027589dd8dcd58153e79bd83dc1c82b0b10c51ec9bea4e3be63cc5a8ca"),
        (("classgroup", "B", "7", "--group-cap", "1000"), "05ba2a6992bb952296580cc487f98581c9fe97893eab2488fc30f206e002ec5f"),
        (("invariants", "B", "32"), "99121182e073d98561e65acbd569b86c22649e506bbe33b65aa5f8ada448f54a"),
    ],
)
def test_class_group_and_box_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    with pytest.warns(UserWarning, match="C_2 is isomorphic to B_2") if name == "C2" else nullcontext():
        rep = report(build(name))
    assert rep.residual is not None
    want = graded_lex_sorted(hilbert_basis_box(rep.residual))
    assert relations._relations_block(name, rep, 1)["generators"] == [list(v) for v in want]


# The streamed writer against json.dumps.  A drawn document comes as (lazy, plain): the lazy
# one holds iterators (of items and of _Block runs) where the plain one holds lists, and _Text
# chunks where the plain one holds their string, beside an "expansion" array and, when
# truncated, the "expansion_truncated" flag that follows it.
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(['"', "\\", "\n\t", "\x00\x1f", "é", "😀", "a\u2028b"]))
_LEAF = st.one_of(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT).map(lambda v: (v, v)),
    st.lists(_TEXT, max_size=4).map(lambda chunks: (cli._Text(iter(chunks)), "".join(chunks))),
)


def _lazy_array(pairs, runs):
    """An iterator of the lazy items, with the runs chosen by runs (sizes; 0 is one lazy item) as _Blocks."""
    out, i = [], 0
    for size in runs:
        if size == 0 and i < len(pairs):
            out.append(pairs[i][0])
            i += 1
        elif size:
            out.append(cli._Block(plain for _, plain in pairs[i : i + size]))
            i += size
    out += [lazy for lazy, _ in pairs[i:]]
    return iter(out)


@st.composite
def _arrays(draw, children):
    pairs = draw(st.lists(children, max_size=5))
    plain = [v for _, v in pairs]
    how = draw(st.sampled_from(("list", "iter")))
    if how == "list":
        return plain, plain
    return _lazy_array(pairs, draw(st.lists(st.integers(0, 3), max_size=6))), plain


@st.composite
def _objects(draw, children):
    pairs = draw(st.dictionaries(_TEXT, children, max_size=5))
    return {k: v for k, (v, _) in pairs.items()}, {k: v for k, (_, v) in pairs.items()}


_DOCS = st.recursive(_LEAF, lambda children: st.one_of(_arrays(children), _objects(children)), max_leaves=20)


@settings(deadline=None, max_examples=300)
@given(_DOCS, st.lists(_DOCS, max_size=3), st.booleans())
def test_streamed_document_equals_json_dumps(doc, entries, truncate):
    lazy, plain = doc
    outer = {"payload": lazy, "expansion": iter([entry for entry, _ in entries])}
    want = {"payload": plain, "expansion": [v for _, v in entries]}
    if truncate:
        outer["expansion_truncated"] = want["expansion_truncated"] = True
    with redirect_stdout(io.StringIO()) as out:
        cli._emit(outer)
    assert out.getvalue() == json.dumps(want, sort_keys=True, indent=2) + "\n"


class _Writes(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


@pytest.mark.parametrize(
    "argv,key",
    [(("invariants", "C", "7", "--expand"), "expansion"), (("invariants", "A", "7", "--hironaka"), "hironaka_cells")],
)
def test_the_large_arrays_are_written_in_pieces(monkeypatch, argv, key):
    stdout = _Writes()
    monkeypatch.setattr("sys.stdout", stdout)
    assert cli.main(list(argv)) == 0
    text = stdout.getvalue()
    assert len(json.loads(text)["payload"][key]) > 1
    assert max(stdout.sizes) <= len(text) // 2


@pytest.mark.parametrize("rows", [1, 3])
def test_expansions_rendered_in_pieces_are_the_whole_document(capsys, monkeypatch, rows):
    whole = run_cli(capsys, "invariants", "C", "3", "--expand")
    monkeypatch.setattr("rootinv.laurent._ROWS", rows)  # pieces of 1 and 3 terms
    code, out = run_cli(capsys, "invariants", "C", "3", "--expand")
    assert (code, out) == whole
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert all(entry["terms"] > rows for entry in json.loads(out)["payload"]["expansion"])


def test_a_failure_after_the_first_expansion_exits_1_with_its_message(capsys, monkeypatch):
    expand, made = reports.omega_expand, []

    def failing(*args):
        if made:
            raise ValueError("the second expansion failed")
        made.append(args)
        return expand(*args)

    monkeypatch.setattr(reports, "omega_expand", failing)
    code = cli.main(["invariants", "A", "2", "--expand"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "internal error: the second expansion failed\n"
    assert captured.out.count('"laurent": ') == 1  # the first expansion was written
    with pytest.raises(json.JSONDecodeError):
        json.loads(captured.out)
