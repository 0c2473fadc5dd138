"""The CLI's JSON writer against the stdlib: `cli._dump(obj)` must equal
`json.dumps(obj, indent=2, default=str)` byte for byte, on generated trees
and on the reports the CLI prints."""

import enum
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsep import cli
from conjsep.unitri import UTMatrix


class Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


class Tag(str):
    def __str__(self):
        return "not what the encoder writes"


def oracle(obj):
    return json.dumps(obj, indent=2, default=str)


SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é ü 中 \U0001f600", "</script>"]),
    st.integers(),
    st.sampled_from([-(2**200), 2**70, -1, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
    st.booleans(),
    st.none(),
    st.sampled_from([Level.LOW, Level.HIGH, Tag("tag"), Tag('q"\\')]),
    st.sampled_from([Fraction(-3, 7), UTMatrix([[1, 2], [0, 1]])]),
)
KEYS = st.one_of(
    st.text(max_size=5),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from([Level.HIGH, Tag("k")]),
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_stdlib_on_trees(obj):
    assert cli._dump(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], {"a": {}}, [(), [[], {}]],
    {1: "int", 2.5: "float", True: "t", False: "f", None: "n", Level.HIGH: "enum"},
    {float("nan"): 0, float("inf"): 1, float("-inf"): 2, -0.0: 3},
    [Tag("sub"), Level.LOW, Fraction(1, 2), UTMatrix([[1, 5, 0], [0, 1, 3], [0, 0, 1]])],
    Level.HIGH, Tag("top"), Fraction(2, 3), -0.0, None,
])
def test_writer_matches_stdlib_on_edge_cases(obj):
    assert cli._dump(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, [{"ok": 1, (): 2}], {Fraction(1, 2): 0}])
def test_unsupported_key_raises_like_stdlib(obj):
    with pytest.raises(TypeError) as stdlib_error:
        oracle(obj)
    with pytest.raises(TypeError) as writer_error:
        cli._dump(obj)
    assert str(writer_error.value) == str(stdlib_error.value)


WITNESS = [
    ["witness", "--preset", name, "-p", p, "-K", "5"]
    for name in ("heisenberg", "heis5", "ut4", "heisxc2")
    for p in ("2", "3")
]
SCAN = [
    ["scan", "--preset", "heisenberg", "-p", "2", "-K", "8", "-x", "3,0,0", "-y", "3,0,1"],
    ["scan", "--preset", "heisenberg", "-p", "2", "-K", "6", "-x", "16,0,1", "-y", "16,0,9"],
    ["scan", "--preset", "heisenberg", "-p", "2", "-K", "5", "-x", "16,0,1", "-y", "16,8,1"],
    ["scan", "--preset", "heisenberg", "-p", "2", "-K", "4", "-x", "8,0,0", "-y", "8,0,1"],
    ["scan", "--preset", "heis5", "-p", "2", "-K", "5", "-x", "1,0,0,0,0", "-y", "1,0,0,0,1"],
    ["scan", "--preset", "heis5", "-p", "2", "-K", "4", "-x", "4,0,0,0,1", "-y", "4,0,0,0,3"],
]
SEPARATE = [
    ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|r3"],
    ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|s"],
    ["separate", "--preset", "zxq8", "-p", "2", "-a", "0|i", "-b", "0|-i"],
    ["separate", "--preset", "zxq8", "-p", "2", "-a", "0|i", "-b", "0|j"],
]
OTHER = [["classify", "--preset", "heisenberg", "-p", "2"], ["classify", "--preset", "zxq8", "-p", "3"],
         ["selftest", "--no-corpus"]]


@pytest.mark.parametrize("argv", WITNESS + SCAN + SEPARATE + OTHER, ids=" ".join)
def test_printed_report_is_the_stdlib_layout(capsys, argv):
    assert cli.main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_live_reports_cover_both_outcomes(capsys):
    """The cases above reach the outcomes they are meant to pin."""
    def result(argv):
        cli.main(argv + ["--json"])
        return json.loads(capsys.readouterr().out)["result"]

    scans = [result(argv) for argv in SCAN]
    methods = [(lv["method"], lv["conjugate"]) for r in scans for lv in r["levels"]]
    assert ("class2-smith", True) in methods and ("class2-smith", False) in methods
    assert any(r["separated_at"] for r in scans if r["group"] == "heis5")
    assert {result(argv)["outcome"] for argv in SEPARATE} == {"conjugate", "separated"}
