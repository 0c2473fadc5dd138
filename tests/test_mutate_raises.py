"""The mutation gate's own edits: which raises it finds and how it cuts them."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate_raises.py"
_spec = importlib.util.spec_from_file_location("mutate_raises", TOOL)
mutate_raises = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate_raises)

SOURCE = '''def f(x, exc):
    if x: raise SpecRejected("x ≠ 0"); x = 0
    if x > 1:
        raise VerificationFailed(
            "multi-line", f"x = {x}",
        ) from exc
    if x > 2:
        raise ValueError("not a check")
    raise LocalCheckFailed
'''.encode()


def test_finds_only_the_checked_exceptions():
    sites = mutate_raises.raise_sites(SOURCE)
    assert [node.lineno for node in sites] == [2, 4, 9]


def test_each_mutant_replaces_one_raise_by_pass():
    mutants = [mutate_raises.mutate(SOURCE, node) for node in mutate_raises.raise_sites(SOURCE)]
    for mutant in mutants:
        ast.parse(mutant)
        assert mutant.count(b"pass") == 1
    assert b"    if x: pass; x = 0\n" in mutants[0]
    assert b"    if x > 1:\n        pass\n    if x > 2:" in mutants[1]
    assert mutants[2].endswith(b"        raise ValueError(\"not a check\")\n    pass\n")
    for mutant, kept in zip(mutants, (b"VerificationFailed", b"SpecRejected", b"SpecRejected")):
        assert kept in mutant


def test_own_tests_run_first_when_the_module_has_them(tmp_path):
    (tmp_path / "src" / "conjsep").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_finite.py").write_text("")
    finite, selftest = (tmp_path / "src" / "conjsep" / f"{m}.py" for m in ("finite", "selftest"))
    assert mutate_raises.own_tests(tmp_path, finite) == [str(Path("tests") / "test_finite.py")]
    assert mutate_raises.own_tests(tmp_path, selftest) == []
