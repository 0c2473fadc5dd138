import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conjsep import cli, finite, selftest, separability
from conjsep.errors import LocalCheckFailed
from conjsep.finite import FiniteGroup, cyclic
from conjsep.groupspec import (
    congruence_quotient,
    coords_to_element,
    heisenberg_spec,
    load_spec,
    preset,
)
from conjsep.intlin import IntMatrix, Membership, is_column_hnf, mod_inverse
from conjsep.selftest import run_selftest
from conjsep.separability import (
    make_witness,
    scan_tower,
    verify_witness_global,
    verify_witness_local,
)

from _oracles import reference_witness_report

HEIS_DOC = {
    "name": "custom-heis",
    "n": 3,
    "generators": [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    ],
    "center_gens": [[[1, 0, 1], [0, 1, 0], [0, 0, 1]]],
    "z2_rep": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    "declared_class": 2,
    "finite_part": None,
}

# Generators I+E01, I+E12 and I+E03 with declared centre I+E02 and
# representative I+E03: the spec verifies, but I+E03 is central, so it
# commutes with every generator and gives no witness pair.
NO_B_DOC = {
    "name": "no-b",
    "n": 4,
    "generators": [
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ],
    "center_gens": [[[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
    "z2_rep": [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "declared_class": 2,
}


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_classify_ok(self, capsys):
        assert cli.main(["classify", "--preset", "zxq8", "-p", "2"]) == 0
        capsys.readouterr()

    def test_witness_ok(self, capsys):
        assert cli.main(["witness", "--preset", "heisenberg", "-p", "2", "-K", "4"]) == 0
        capsys.readouterr()

    def test_spec_rejected_is_2(self, tmp_path, capsys):
        doc = dict(HEIS_DOC)
        doc["center_gens"] = [HEIS_DOC["generators"][0]]  # non-central declaration
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", "--spec", str(path), "-p", "2"]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_witness_spec_rejected_is_2(self, tmp_path, capsys):
        doc = dict(HEIS_DOC)
        doc["center_gens"] = [HEIS_DOC["generators"][0]]  # non-central declaration
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["witness", "--spec", str(path), "-p", "2", "-K", "2"]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_parse_error_is_3(self, capsys):
        assert cli.main(["classify", "--spec", "/no/such/file.json", "-p", "2"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["n", "declared_class"])
    def test_boolean_spec_integer_is_3(self, tmp_path, capsys, key):
        doc = {"name": "x", "n": 1, "generators": [[[1]]], "center_gens": [], "declared_class": 1}
        doc[key] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", "--spec", str(path), "-p", "2"]) == 3
        assert "positive integer" in capsys.readouterr().err

    def test_nonprime_is_3(self, capsys):
        assert cli.main(["classify", "--preset", "z2", "-p", "6"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("p", [3317044064679887385961981, 2**89 - 1])
    def test_prime_past_the_bound_is_3_at_once(self, capsys, p):
        cli.main(["classify", "--preset", "z2", "-p", "6"])  # the parser is built once
        capsys.readouterr()
        start = time.perf_counter()
        assert cli.main(["classify", "--preset", "z2", "-p", str(p)]) == 3
        assert time.perf_counter() - start < 0.01
        assert "must be below 3317044064679887385961981" in capsys.readouterr().err

    def test_abelian_witness_is_4(self, capsys):
        assert cli.main(["witness", "--preset", "z2", "-p", "2"]) == 4
        err = capsys.readouterr().err
        assert "abelian" in err and "separable" in err

    def test_representative_commuting_with_every_generator_is_4(self, tmp_path, capsys):
        path = tmp_path / "no-b.json"
        path.write_text(json.dumps(NO_B_DOC))
        assert cli.main(["witness", "--spec", str(path), "-p", "2"]) == 4
        assert "declared representative 'z2' commutes with every generator" in (
            capsys.readouterr().err)

    def test_abelian_witness_with_non_p_torsion_names_the_torsion_clause(self, capsys):
        assert cli.main(["witness", "--preset", "zxc6", "-p", "2"]) == 4
        err = capsys.readouterr().err
        assert "torsion clause fails" in err and "order 6" in err and "classify" in err
        assert "hence conjugacy separable" not in err
        assert cli.main(["classify", "--preset", "zxc6", "-p", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["separable"] is False

    def test_abelian_witness_with_p_torsion_keeps_the_separable_sentence(self, capsys):
        assert cli.main(["witness", "--preset", "zxq8", "-p", "2"]) == 4
        err = capsys.readouterr().err
        assert "'z' is abelian, hence conjugacy separable in finite 2-groups" in err
        assert "torsion clause" not in err

    def test_inapplicable_separation_is_5(self, capsys):
        assert (
            cli.main(["separate", "--preset", "zxc3", "-p", "2", "-a", "0|g", "-b", "0|e"])
            == 5
        )
        capsys.readouterr()

    def test_bad_element_is_3(self, capsys):
        assert (
            cli.main(["separate", "--preset", "zxd4", "-p", "2", "-a", "zzz", "-b", "0"])
            == 3
        )
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("-K", ["witness", "--preset", "heisenberg", "-p", "2", "-K", "0"]),
            ("-K", ["witness", "--preset", "heisenberg", "-p", "2", "-K", "-3"]),
            ("-K", ["scan", "--preset", "heisenberg", "-p", "2", "-K", "0",
                    "-x", "1,0,0", "-y", "1,0,1"]),
            ("--max-order", ["witness", "--preset", "heisenberg", "-p", "2", "--max-order", "0"]),
            ("--max-order", ["scan", "--preset", "heisenberg", "-p", "2", "--max-order", "-1",
                             "-x", "1,0,0", "-y", "1,0,1"]),
            ("--max-order", ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|s",
                             "--max-order", "0"]),
            ("--max-order", ["classify", "--preset", "zxd4", "-p", "2", "--max-order", "0"]),
        ],
    )
    def test_nonpositive_depth_or_cap_is_3(self, capsys, flag, argv):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be >= 1" in captured.err

    def test_depth_and_cap_of_one_accepted(self, capsys):
        argv = ["witness", "--preset", "heisenberg", "-p", "2", "-K", "1", "--max-order", "1"]
        assert cli.main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["classify", "--spec", "", "-p", "2"],
             "parse error: cannot read spec file '': [Errno 21] Is a directory: '.'\n"),
            (["scan", "--preset", "heisenberg", "-p", "2", "-x", "a,b,c", "-y", "1,0,0"],
             "parse error: bad coordinate tuple: invalid literal for int() with base 10: 'a'\n"),
            (["separate", "--preset", "zxd4", "-p", "2", "-a", "0|zz", "-b", "0|r"],
             "parse error: no element labelled 'zz' in D4\n"),
        ],
    )
    def test_parse_error_line(self, capsys, argv, err):
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", err)

    def test_unknown_finite_preset_line(self, tmp_path, capsys):
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(dict(HEIS_DOC, finite_part={"kind": "preset", "name": "A5"})))
        assert cli.main(["classify", "--spec", str(path), "-p", "2"]) == 3
        assert capsys.readouterr() == ("", (
            "parse error: unknown finite group preset 'A5'; known: "
            "['1', 'c2', 'c3', 'c6', 'd4', 'd4xc2', 'q8', 's3', 'trivial']\n"))

    def test_closure_over_the_cap_is_1_with_nothing_on_stdout(self, capsys):
        # A budget outcome: the benchmark reads exit 1 with an empty stdout as one.
        argv = ["separate", "--preset", "zxd4", "-p", "2", "-a", "65536|r", "-b", "0|r",
                "--max-order", "16384", "--json"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "size limit: closure exceeded 16384 elements (UT(2) mod 2^17)\n"


class TestWitnessReportPayload:
    def test_json_schema_and_values(self, capsys):
        code, report = run_json(
            capsys, ["witness", "--preset", "heisenberg", "-p", "2", "-K", "6", "--json"]
        )
        assert code == 0
        assert set(report) == {"command", "inputs", "result", "checks", "timing_ms"}
        assert report["command"] == "witness"
        result = report["result"]
        assert result["q"] == 3 and result["n"] == 1
        assert result["u"]["coords"] == [3, 0, 0]
        assert result["v"]["coords"] == [3, 0, 1]
        assert result["tower"]["summary"] == "conjugate at all 6 levels"
        assert all(check["pass"] for check in report["checks"])

    def test_report_reverifies_offline(self, capsys):
        code, report = run_json(
            capsys, ["witness", "--preset", "heisenberg", "-p", "2", "-K", "5", "--json"]
        )
        assert code == 0
        result = report["result"]
        p, q, n = result["p"], result["q"], result["n"]
        e = q**n
        assert result["divisibility"]["exponent"] == e
        # each level's conjugator exponent re-derives from scratch
        assert [loc["m"] for loc in result["local_checks"]] == [1, 2, 3, 4, 5]
        for loc in result["local_checks"]:
            assert loc["k"] == mod_inverse(e, p ** loc["m"])
            assert loc["conjugator"] == f"{result['b']}^{loc['k']}"
        # the divisibility certificate: no e-th root of c in the scaled lattice
        c_vec = tuple(result["divisibility"]["c_vector"])
        scaled = [tuple(col) for col in result["divisibility"]["scaled_basis"]]
        from conjsep.intlin import Lattice

        assert not Lattice(len(c_vec), scaled).contains(c_vec).member
        # u and v differ by c exactly
        from conjsep.unitri import UTMatrix

        u = UTMatrix(result["u"]["matrix"])
        v = UTMatrix(result["v"]["matrix"])
        c = UTMatrix(result["c"]["matrix"])
        a = UTMatrix(result["a"]["matrix"])
        assert v == u * c
        assert u == a**e

    def test_determinism_modulo_timing(self, capsys):
        argv = ["witness", "--preset", "heisenberg", "-p", "3", "-K", "4", "--json"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second


class TestCheckNames:
    """A report lists only checks whose name or outcome can vary.  Every
    other check raises when it fails, so it never reaches a report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--preset", "heisenberg", "-p", "2"],
            ["scan", "--preset", "heis5", "-p", "2", "-K", "3",
             "-x", "4,0,0,0,1", "-y", "4,0,0,0,3"],
            # every level skipped, so the tower is not complete
            ["scan", "--preset", "ut4", "-p", "2", "-K", "2", "--max-order", "1",
             "-x", "1,0,0,0,0,0", "-y", "1,0,0,0,0,1"],
            ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|r3"],
            ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|s"],
        ],
    )
    def test_no_check_printed(self, capsys, argv):
        code, report = run_json(capsys, argv + ["--json"])
        assert code == 0
        assert report["checks"] == []

    @pytest.mark.parametrize("name,p,depth", [("heisenberg", 2, 6), ("heis5", 3, 3),
                                              ("ut4", 3, 2), ("heisxc2", 2, 1)])
    def test_witness_prints_global_then_local_names(self, capsys, name, p, depth):
        argv = ["witness", "--preset", name, "-p", str(p), "-K", str(depth), "--json"]
        code, report = run_json(capsys, argv)
        assert code == 0
        spec = preset(name).matrix_part
        glob = verify_witness_global(spec, make_witness(spec, p)).checks
        assert report["checks"] == (
            [{"name": f"global:{check}", "pass": True} for check in glob]
            + [{"name": f"local:m={m}", "pass": True} for m in range(1, depth + 1)]
        )


class TestClassifyAndSeparate:
    def test_classify_json(self, capsys):
        code, report = run_json(capsys, ["classify", "--preset", "zxc3", "-p", "2", "--json"])
        assert code == 0
        assert report["result"]["separable"] is False
        assert report["result"]["torsion_is_p_group"] is False

    def test_classify_human_verdict(self, capsys):
        cli.main(["classify", "--preset", "heisenberg", "-p", "2"])
        out = capsys.readouterr().out
        assert "NOT conjugacy F_2-separable" in out
        assert "non-abelian" in out

    def test_separate_certificate(self, capsys):
        code, report = run_json(
            capsys,
            ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|s", "--json"],
        )
        assert code == 0
        result = report["result"]
        assert result["outcome"] == "separated"
        assert result["quotient"]["order"] == 16
        assert result["branch"] == "torsion-part"

    def test_separate_conjugate_pair(self, capsys):
        code, report = run_json(
            capsys,
            ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|r3", "--json"],
        )
        assert code == 0
        assert report["result"]["outcome"] == "conjugate"
        assert report["checks"] == []

    def test_separate_report_reruns_identically(self, capsys):
        # a report's inputs echo is enough to reproduce its result payload;
        # values starting with a minus sign use the -a=VALUE form
        argv = ["separate", "--preset", "zxd4", "-p", "2", "-a", "2|rs", "-b=-2|rs", "--json"]
        _, report = run_json(capsys, argv)
        inputs = report["inputs"]
        rerun_argv = [
            "separate", "--preset", inputs["source"], "-p", str(inputs["p"]),
            f"-a={inputs['a']}", f"-b={inputs['b']}", "--json",
        ]
        _, rerun = run_json(capsys, rerun_argv)
        assert rerun["result"] == report["result"]
        assert rerun["checks"] == report["checks"]

    def test_custom_spec_file(self, tmp_path, capsys):
        path = tmp_path / "heis.json"
        path.write_text(json.dumps(HEIS_DOC))
        code, report = run_json(capsys, ["classify", "--spec", str(path), "-p", "2", "--json"])
        assert code == 0
        assert report["result"]["separable"] is False

    def test_z2_rep_override(self, tmp_path, capsys):
        override = tmp_path / "rep.json"
        override.write_text("[[1, 0, 0], [0, 1, 1], [0, 0, 1]]")  # use b instead of a
        code, report = run_json(
            capsys,
            ["witness", "--preset", "heisenberg", "-p", "2", "-K", "3", "--json",
             "--z2-rep", str(override)],
        )
        assert code == 0
        assert report["result"]["b"] == "a"  # now the first non-commuting generator is a

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5", "--z2-rep file must be a list of 3 lists of 3 integers"),
            ("[[1, 1, 0], [0, 1, 0], [0, 0, 1.5]]", "--z2-rep file has a non-integer entry 1.5"),
            ("[[1, 1], [0, 1]]", "--z2-rep file must be a list of 3 lists of 3 integers"),
            ("[[1, 1, 0], [0, 1, 0], [0, 0, 1]", "cannot use --z2-rep file"),
        ],
    )
    def test_bad_z2_rep_file_is_3(self, tmp_path, capsys, text, message):
        override = tmp_path / "rep.json"
        override.write_text(text)
        argv = ["witness", "--preset", "heisenberg", "-p", "2", "-K", "2",
                "--z2-rep", str(override)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestWitnessVerifiesSpecOnce:
    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        for module in (cli, separability):
            original = getattr(module, "verify_spec", None)
            if original is None:
                continue

            def counted(spec, original=original):
                calls.append(spec.name)
                return original(spec)

            monkeypatch.setattr(module, "verify_spec", counted)
        return calls

    @pytest.mark.parametrize("name", ["heisenberg", "heis5", "ut4"])
    def test_preset(self, capsys, verify_calls, name):
        argv = ["witness", "--preset", name, "-p", "2", "-K", "2", "--json"]
        assert run_json(capsys, argv)[0] == 0
        assert len(verify_calls) == 1

    def test_z2_rep_override(self, tmp_path, capsys, verify_calls):
        override = tmp_path / "rep.json"
        override.write_text("[[1, 0, 0], [0, 1, 1], [0, 0, 1]]")
        argv = ["witness", "--preset", "heisenberg", "-p", "2", "-K", "2", "--json",
                "--z2-rep", str(override)]
        assert run_json(capsys, argv)[0] == 0
        assert len(verify_calls) == 1


class TestScan:
    def test_scan_witness_pair(self, capsys):
        code, report = run_json(
            capsys,
            ["scan", "--preset", "heisenberg", "-p", "2", "-K", "3",
             "-x", "3,0,0", "-y", "3,0,1", "--json"],
        )
        assert code == 0
        assert report["result"]["summary"] == "conjugate at all 3 levels"

    def test_scan_separating_pair(self, capsys):
        code, report = run_json(
            capsys,
            ["scan", "--preset", "heisenberg", "-p", "2", "-K", "3",
             "-x", "0,0,0", "-y", "0,0,4", "--json"],
        )
        assert code == 0
        assert report["result"]["separated_at"] == 3

    @pytest.mark.parametrize("depth", [0, -3])
    def test_scan_tower_rejects_depth_below_one(self, depth):
        heis = heisenberg_spec()
        x = coords_to_element(heis, (1, 0, 0))
        with pytest.raises(ValueError, match="depth"):
            scan_tower(heis, x, x, 2, depth)


# Generators 2 mod 2 on the superdiagonal, so the group mod 2 is trivial, while
# the declared second-centre representative has a 1 there.
OFF_GROUP_DOC = {
    "name": "off-group",
    "n": 3,
    "generators": [
        [[1, 2, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 2], [0, 0, 1]],
    ],
    "center_gens": [[[1, 0, 2], [0, 1, 0], [0, 0, 1]]],
    "z2_rep": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    "declared_class": 2,
}


class TestDeferredQuotients:
    """Levels that are all of UT(n, Z/p^k), and products with them, are
    searched by orbit without building their element lists."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        for name in ("_form_elements", "_product_elements"):
            original = getattr(finite, name)

            def counted(*args, original=original, name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(finite, name, counted)
        congruence_quotient.cache_clear()
        yield calls
        congruence_quotient.cache_clear()

    def test_witness_builds_no_element_list(self, capsys, builds):
        argv = ["witness", "--preset", "heisenberg", "-p", "2", "-K", "8",
                "--max-order", "4096", "--json"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert [lv["orbit_checked"] for lv in report["result"]["local_checks"]] == [True] * 4 + [False] * 4
        assert congruence_quotient.cache_info().misses == 1
        assert builds == []

    def test_ut4_scan_builds_no_element_list(self, capsys, builds):
        argv = ["scan", "--preset", "ut4", "-p", "2", "-K", "3", "--max-order", "4096",
                "-x", "1,0,0,0,0,0", "-y", "1,0,0,0,1,1", "--json"]
        code, report = run_json(capsys, argv)
        assert code == 0
        methods = [lv["method"] for lv in report["result"]["levels"]]
        assert methods == ["orbit", "separated-below", "separated-below"]
        assert report["result"]["levels"][2]["note"] == "separated at level 1"
        assert builds == []

    def test_heis5_witness_builds_no_element_list(self, capsys, builds):
        argv = ["witness", "--preset", "heis5", "-p", "2", "-K", "8", "--max-order", "4096",
                "--json"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert [lv["orbit_checked"] for lv in report["result"]["local_checks"]] == [True] * 2 + [False] * 6
        assert builds == []

    def test_heis5_scan_builds_no_element_list(self, capsys, builds):
        argv = ["scan", "--preset", "heis5", "-p", "3", "-K", "3",
                "-x", "1,0,0,0,0", "-y", "1,0,0,0,1", "--json"]
        code, report = run_json(capsys, argv)
        assert code == 0
        methods = [lv["method"] for lv in report["result"]["levels"]]
        assert methods == ["orbit", "class2-smith", "class2-smith"]
        assert report["result"]["summary"] == "conjugate at all 3 levels"
        assert builds == []

    @pytest.mark.parametrize("argv, methods, summary", [
        (["heisenberg", "-p", "2", "-K", "8", "-x", "3,0,0", "-y", "3,0,1"],
         ["orbit"] * 3 + ["class2-smith"] * 5, "conjugate at all 8 levels"),
        (["heisenberg", "-p", "3", "-K", "8", "-x", "3,0,0", "-y", "3,0,1"],
         ["identity-image"] + ["separated-below"] * 7, "separated at level 1"),
        (["heis5", "-p", "2", "-K", "5", "-x", "1,0,0,0,0", "-y", "1,0,0,0,1"],
         ["orbit"] + ["class2-smith"] * 4, "conjugate at all 5 levels"),
    ])
    def test_class2_scan_decides_every_level(self, capsys, builds, argv, methods, summary):
        code, report = run_json(capsys, ["scan", "--preset", *argv, "--json"])
        assert code == 0
        assert [lv["method"] for lv in report["result"]["levels"]] == methods
        assert report["result"]["summary"] == summary
        assert builds == []

    def test_separate_reports_product_order_without_building_it(self, capsys, builds):
        argv = ["separate", "--preset", "zxq8", "-p", "2", "-a", "8192|i", "-b", "0|i", "--json"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["result"]["quotient"] == {"name": "(z mod 2^14) x Q8", "order": 131072}
        assert report["result"]["images"] == ["((8192),i)", "((0),i)"]
        assert builds == []

    def test_witness_images_outside_the_group_name_the_level(self, tmp_path, capsys):
        path = tmp_path / "off.json"
        path.write_text(json.dumps(OFF_GROUP_DOC))
        assert cli.main(["witness", "--spec", str(path), "-p", "2", "-K", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "check failed: witness images lie outside the generated group at level 1\n"
        )


class TestOnePassWitness:
    """A witness run decides each level once, in its tower scan, and reports
    what the older two-pass run (local checks, then a scan) reported."""

    @pytest.mark.parametrize("max_order", [1, 512, 4096])
    @pytest.mark.parametrize("depth", [1, 4, 8])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["heisenberg", "heis5", "ut4", "heisxc2"])
    def test_report_matches_two_pass_reference(self, capsys, name, p, depth, max_order):
        argv = ["witness", "--preset", name, "-p", str(p), "-K", str(depth),
                "--max-order", str(max_order), "--json"]
        code, report = run_json(capsys, argv)
        assert code == 0
        del report["timing_ms"]
        assert report == reference_witness_report(name, p, depth, max_order)

    def test_each_level_is_decided_once(self, capsys, monkeypatch):
        local_calls, orbit_calls = [], []
        original_local = separability.verify_witness_local
        original_orbit = separability.conjugate_in_finite

        def local(*args, **kwargs):
            local_calls.append(args[2])
            return original_local(*args, **kwargs)

        def orbit(*args):
            orbit_calls.append(args)
            return original_orbit(*args)

        for module in (cli, separability):
            monkeypatch.setattr(module, "verify_witness_local", local, raising=False)
        monkeypatch.setattr(separability, "conjugate_in_finite", orbit)
        argv = ["witness", "--preset", "heisenberg", "-p", "2", "-K", "8",
                "--max-order", "4096", "--json"]
        assert run_json(capsys, argv)[0] == 0
        assert local_calls == list(range(1, 9))
        assert len(orbit_calls) == 1

    @pytest.mark.parametrize("name,p,cap", [("heisenberg", 2, 512), ("ut4", 3, 4096),
                                            ("heis5", 2, 64)])
    def test_levels_carry_their_witness_check(self, name, p, cap):
        spec = preset(name).matrix_part
        w = make_witness(spec, p)
        scan = scan_tower(spec, w.u, w.v, p, 5, witness=w, max_order=cap)
        for lv in scan.levels:
            assert lv.check == verify_witness_local(spec, w, lv.level, bfs_cap=cap)
        assert any(lv.check.bfs_checked for lv in scan.levels)
        assert not all(lv.check.bfs_checked for lv in scan.levels)
        other = scan_tower(spec, w.u, w.a, p, 5, witness=w, max_order=cap)
        assert all(lv.check is None for lv in other.levels)

    def test_scan_on_off_group_witness_raises_at_level_one(self):
        spec = load_spec(OFF_GROUP_DOC).matrix_part
        w = make_witness(spec, 2)
        with pytest.raises(LocalCheckFailed, match="outside the generated group at level 1"):
            scan_tower(spec, w.u, w.v, 2, 3, witness=w)

    def test_failed_check_prints_no_traceback(self, tmp_path):
        path = tmp_path / "off.json"
        path.write_text(json.dumps(OFF_GROUP_DOC))
        src = Path(__file__).resolve().parent.parent / "src"
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-m", "conjsep.cli", "witness", "--spec", str(path),
             "-p", "2", "-K", "3"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert "check failed:" in done.stderr
        assert "outside the generated group at level 1" in done.stderr


class TestSelftest:
    def test_lattice_only(self, capsys):
        assert cli.main(["selftest", "--no-corpus"]) == 0
        out = capsys.readouterr().out
        assert "all passed" in out

    def test_full(self, capsys):
        assert cli.main(["selftest"]) == 0
        capsys.readouterr()

    def test_corrupted_corpus_names_closure(self):
        c3 = cyclic(3)
        broken = FiniteGroup(
            name="C3corrupt",
            elements=c3.elements,
            mul=lambda x, y: 77 if (x, y) == (1, 2) else (x + y) % 3,
            identity=0,
            generators=(1,),
        )
        outcomes = run_selftest(corpus=[("C3corrupt", broken)])
        failures = [name for name, ok, _ in outcomes if not ok]
        assert failures
        assert failures[0].startswith("closure:")

    @staticmethod
    def _lattice_run(monkeypatch, binding=None, wrong=None):
        """The lattice suite, with selftest's `binding` replaced by
        wrong(real binding) when given; also returns the (target, e) of
        every power_solvable call, in order."""
        real_power = selftest.power_solvable
        calls = []

        def recording_power(lat, target, e):
            calls.append((target, e))
            return real_power(lat, target, e)

        monkeypatch.setattr(selftest, "power_solvable", recording_power)
        if binding is not None:
            monkeypatch.setattr(selftest, binding, wrong(getattr(selftest, binding)))
        return run_selftest(include_corpus=False), calls

    # The number of power_solvable calls and the first two.
    PASSING_DRAWS = (60, [((15,), 3), ((-4,), 1)])

    def test_passing_lattice_suite_draws_in_seeded_order(self, monkeypatch):
        outcomes, calls = self._lattice_run(monkeypatch)
        assert all(ok and not detail for _, ok, detail in outcomes)
        assert (len(calls), calls[:2]) == self.PASSING_DRAWS

    # The first matrices the seeded generator hands the Hermite-form and
    # Smith-form checks.
    FIRST_HNF_INPUT = "IntMatrix([[-9], [-7], [9], [-8]])"
    FIRST_SNF_INPUT = "IntMatrix([[-8], [4], [6], [-9], [0]])"
    # The power_solvable calls when a matrix check stops at its first input.
    SHIFTED_DRAWS = (60, [((-3,), 4), ((-4, 0, -1), 4)])

    @pytest.mark.parametrize(
        "binding, wrong, check, detail, draws",
        [
            # H off by one in its first entry: A*U != H.
            ("hnf", lambda real: lambda a: (lambda h, u: (
                IntMatrix(h.rows, h.cols, (h.entries[0] + 1,) + h.entries[1:]), u))(*real(a)),
             "hnf-identities", "hnf identity broke on " + FIRST_HNF_INPUT, SHIFTED_DRAWS),
            # Right on every matrix but a Hermite form, which it sends to 0.
            ("hnf", lambda real: lambda a: (
                (IntMatrix.zero(a.rows, a.cols), IntMatrix.identity(a.cols))
                if is_column_hnf(a) else real(a)),
             "hnf-identities", "hnf is not idempotent on " + FIRST_HNF_INPUT, SHIFTED_DRAWS),
            # D off by one in its first entry: U*A*V != D.
            ("snf", lambda real: lambda a: (lambda d, u, v: (
                IntMatrix(d.rows, d.cols, (d.entries[0] + 1,) + d.entries[1:]), u, v))(*real(a)),
             "snf-identities", "snf identity broke on " + FIRST_SNF_INPUT, SHIFTED_DRAWS),
            # -D with -U: the identity holds, but the diagonal is negative.
            ("snf", lambda real: lambda a: (lambda d, u, v: (
                IntMatrix(d.rows, d.cols, [-x for x in d.entries]),
                IntMatrix(u.rows, u.cols, [-x for x in u.entries]), v))(*real(a)),
             "snf-identities", "snf shape broke on " + FIRST_SNF_INPUT, SHIFTED_DRAWS),
            # An inverse off by the modulus: a*k = 1 mod m, but k >= m.
            ("mod_inverse", lambda real: lambda a, m: real(a, m) + m,
             "mod-inverse-exhaustive", "mod_inverse(1, 2) = 3", PASSING_DRAWS),
            # The opposite verdict on every call.
            ("power_solvable", lambda real: lambda lat, target, e: (
                lambda answer: answer._replace(solvable=not answer.solvable))(real(lat, target, e)),
             "power-solvable-rank1", "rank-1 power solvability disagrees with 3 | 5",
             (1, [((15,), 3)])),
            # A lattice that denies every membership; `in` still answers right.
            ("Lattice", lambda real: type("NoMember", (real,), {
                "__slots__": (), "contains": lambda self, v: Membership(False)}),
             "lattice-membership-certificates", "membership certificate broke on [(-4,)] -> (20,)",
             PASSING_DRAWS),
        ],
        ids=["hnf-wrong-h", "hnf-not-idempotent", "snf-wrong-d", "snf-negative-diagonal",
             "mod-inverse-not-reduced", "power-solvable-negated", "lattice-denies-members"],
    )
    def test_wrong_binding_fails_only_its_check(self, monkeypatch, binding, wrong, check,
                                                detail, draws):
        outcomes, calls = self._lattice_run(monkeypatch, binding, wrong)
        assert [name for name, _, _ in outcomes] == [
            "hnf-identities",
            "snf-identities",
            "mod-inverse-exhaustive",
            "power-solvable-rank1",
            "lattice-membership-certificates",
        ]
        assert [(name, d) for name, ok, d in outcomes if not ok] == [(check, detail)]
        assert all(not d for name, ok, d in outcomes if ok)
        # A check stops at its first failure, so the later checks draw from
        # the seeded generator right after it.
        assert (len(calls), calls[:2]) == draws


class TestParserBuiltOnce:
    # witness with -K, a scan missing -x (argparse exits 2), witness with the
    # default -K, then classify with another prime and no --json.
    CALLS = [
        ["witness", "--preset", "heisenberg", "-p", "2", "-K", "3", "--json"],
        ["scan", "--preset", "heisenberg", "-p", "2", "-y", "1,0,0"],
        ["witness", "--preset", "heisenberg", "-p", "3", "--json"],
        ["classify", "--preset", "zxq8", "-p", "3"],
    ]

    @staticmethod
    def _outcome(capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if out.startswith("{"):
            report = json.loads(out)
            report.pop("timing_ms")
            out = report
        return code, out, err

    def test_reused_parser_matches_fresh_parsers(self, capsys):
        cli._build_parser.cache_clear()
        reused = [self._outcome(capsys, argv) for argv in self.CALLS]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            fresh.append(self._outcome(capsys, argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 0]
        assert (reused[0][1]["inputs"]["K"], reused[2][1]["inputs"]["K"]) == (3, 6)
        assert "-x" in reused[1][2]


@pytest.mark.parametrize("argv", [
    ["separate", "--preset", "zxd4", "-p", "2", "-a", "0", "-b", "0|r", "--json"],
    ["separate", "--preset", "zxd4", "-p", "2", "-a", "0", "-b", "0|r"],
    ["scan", "--preset", "heisenberg", "-p", "2", "-K", "5", "-x", "3,0,0", "-y", "3,0,1"],
], ids=["separate-json", "separate-text", "scan-text"])
def test_closed_pipe_prints_no_traceback(argv):
    # `conjsep ... | head`: the reader closes its end before the report is
    # written.  The run keeps its own exit code and writes nothing to stderr.
    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = [sys.executable, "-m", "conjsep.cli", *argv]
    whole = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert whole.stdout and whole.stderr == ""
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    try:
        stderr = child.stderr.read()
    finally:
        child.stderr.close()
        child.wait(timeout=60)
    assert stderr == ""
    assert child.returncode == whole.returncode


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every command is one process, so each stdlib module the package pulls
    # in is paid at every start-up; `dataclasses` and the `inspect` it
    # imports cost about 6 ms.  -S keeps site's own imports out.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, conjsep.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


SPEC_DIR = Path(__file__).resolve().parent.parent / "demos" / "specs"

# (argv, the exact human-readable text printed); each exits 0.
HUMAN_REPORTS = {
    "scan-through-class2-smith": (
        ["scan", "--preset", "heisenberg", "-p", "2", "-K", "5", "-x", "3,0,0", "-y", "3,0,1"],
        """\
group heisenberg, p = 2
x = (3,0,0), y = (3,0,1)
  level 1: conjugate [orbit]
  level 2: conjugate [orbit]
  level 3: conjugate [orbit]
  level 4: conjugate [class2-smith]
  level 5: conjugate [class2-smith]
summary: conjugate at all 5 levels
"""),
    "scan-separated-below": (
        ["scan", "--preset", "heis5", "-p", "2", "-K", "3", "-x", "4,0,0,0,1", "-y", "4,0,0,0,3"],
        """\
group heis5, p = 2
x = (4,0,0,0,1), y = (4,0,0,0,3)
  level 1: conjugate [equal-images]
  level 2: separated [class2-smith] (functional [1] vanishes on the commutator lattice mod 2^2, \
not on x^-1 y)
  level 3: separated [separated-below] (separated at level 2)
summary: separated at level 2
"""),
    "scan-skipped": (
        ["scan", "--preset", "ut4", "-p", "2", "-K", "2", "-x", "1,0,0,0,0,0", "-y", "1,0,0,0,0,1"],
        """\
group ut4, p = 2
x = (1,0,0,0,0,0), y = (1,0,0,0,0,1)
  level 1: conjugate [orbit]
  level 2: undecided [skipped] (size limit: UT(4) mod 2^2 has 4096 elements > cap 2048)
summary: conjugate at every decided level; undecided at [2]
"""),
    "separate-conjugate": (
        ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|r3"],
        """\
group zxd4, p = 2: elements are CONJUGATE
conjugator: matrix part (0), finite part s
"""),
    "separate-separated": (
        ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|s"],
        """\
group zxd4, p = 2: separated (torsion-part branch)
quotient at level 1: (z mod 2^1) x D4, order 16
images: ((0),r) vs ((0),s)
"""),
    "witness-spec-matrices": (
        ["witness", "--spec", str(SPEC_DIR / "heisenberg_x_q8.json"), "-p", "3", "-K", "2"],
        """\
group heisenberg-x-q8, p = 3: q = 2, n = 1
a = [[1, 1, 0], [0, 1, 0], [0, 0, 1]], b = g1, c = [a,b] = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
pair: u = a^2 = [[1, 2, 0], [0, 1, 0], [0, 0, 1]], v = u*c = [[1, 2, 1], [0, 1, 0], [0, 0, 1]]
global non-conjugacy: no 2-th root of c_vec (1,) in the centre lattice
  level m=1: conjugator g1^2, orbit-checked
  level m=2: conjugator g1^5, orbit-checked
tower: conjugate at all 2 levels
[ok ] global:divisibility
[ok ] global:class2-lattice
[ok ] global:structure
[ok ] local:m=1
[ok ] local:m=2
"""),
}


@pytest.mark.parametrize("name", HUMAN_REPORTS)
def test_human_report_text(capsys, name):
    argv, text = HUMAN_REPORTS[name]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == text
