import json

import pytest

from conjsep import cli
from conjsep.finite import FiniteGroup, cyclic
from conjsep.groupspec import coords_to_element, heisenberg_spec
from conjsep.intlin import mod_inverse
from conjsep.selftest import run_selftest
from conjsep.separability import scan_tower

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

    def test_parse_error_is_3(self, capsys):
        assert cli.main(["classify", "--spec", "/no/such/file.json", "-p", "2"]) == 3
        capsys.readouterr()

    def test_nonprime_is_3(self, capsys):
        assert cli.main(["classify", "--preset", "z2", "-p", "6"]) == 3
        capsys.readouterr()

    def test_abelian_witness_is_4(self, capsys):
        assert cli.main(["witness", "--preset", "z2", "-p", "2"]) == 4
        err = capsys.readouterr().err
        assert "abelian" in err and "separable" in err

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
        # conjugator exponents re-derive from scratch
        for m_str, k in result["conjugator_exponents"].items():
            m = int(m_str)
            assert k == mod_inverse(e, p**m)
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
        assert report["checks"] == [{"name": "conjugator-verifies", "pass": True}]

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
