"""The CLI's JSON writer against the stdlib.  A report holds dicts with str
keys, lists, str, int, bool and None, each of exactly that type: on trees of
those `cli._dump(obj)` must equal `json.dumps(obj, indent=2)` byte for byte,
and any other value or key must raise TypeError naming its type.  Every
report the CLI prints is checked to hold only those six types."""

import collections
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
    return json.dumps(obj, indent=2)


def report_types(obj):
    """The types of every value and key in a tree, containers included."""
    found = {type(obj)}
    if isinstance(obj, dict):
        found.update(map(type, obj))
        for value in obj.values():
            found |= report_types(value)
    elif isinstance(obj, list):
        for value in obj:
            found |= report_types(value)
    return found


REPORT_TYPES = {dict, list, str, int, bool, type(None)}
ODD_STRINGS = ['"', "\\", "\n\t\x00\x1f", "é ü 中 \U0001f600", "</script>"]
SCALARS = st.one_of(
    st.text(),
    st.sampled_from(ODD_STRINGS),
    st.integers(),
    st.sampled_from([-(2**200), 2**70, -1, 0]),
    st.booleans(),
    st.none(),
)
KEYS = st.one_of(st.text(max_size=5), st.sampled_from(ODD_STRINGS))
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_stdlib_on_trees(obj):
    assert report_types(obj) <= REPORT_TYPES
    assert cli._dump(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], {"a": {}}, [[], [[], {}]],
    {"": "", '"': "\\", "é": "\x00", "\U0001f600": "</script>"},
    {"t": True, "f": False, "n": None, "0": 0, "e": [], "d": {}},
    [2**200, -(2**200), 2**70, -1, 0, True, False],
    [ODD_STRINGS, {"k": ODD_STRINGS}],
    -7, None,
    {"nested": [{"deep": [[{"x": [True, None, "s"]}]]}]},
    "top-level string", True, 0,
])
def test_writer_matches_stdlib_on_edge_cases(obj):
    assert cli._dump(obj) == oracle(obj)


OTHER_TYPES = {
    "float": 1.5,
    "negative-zero": -0.0,
    "nan": float("nan"),
    "inf": float("inf"),
    "tuple": (1, 2),
    "empty-tuple": (),
    "IntEnum": Level.LOW,
    "str-subclass": Tag("tag"),
    "Fraction": Fraction(-3, 7),
    "UTMatrix": UTMatrix([[1, 2], [0, 1]]),
    "dict-subclass": collections.OrderedDict(a=1),
}


@pytest.mark.parametrize("obj", OTHER_TYPES.values(), ids=OTHER_TYPES)
@pytest.mark.parametrize("place", ["top", "in-list", "in-dict"])
def test_writer_rejects_other_types(obj, place):
    tree = {"top": obj, "in-list": [1, obj], "in-dict": {"ok": 1, "bad": obj}}[place]
    with pytest.raises(TypeError, match=type(obj).__name__):
        cli._dump(tree)


@pytest.mark.parametrize("key", [1, 2.5, True, None], ids=["int", "float", "bool", "None"])
def test_writer_rejects_scalar_keys(key):
    """The stdlib writes these keys as strings; a report never holds one."""
    for tree in ({key: 0}, [{"ok": 1, key: 2}]):
        with pytest.raises(TypeError, match=type(key).__name__):
            cli._dump(tree)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, [{"ok": 1, (): 2}], {Fraction(1, 2): 0}])
def test_unsupported_key_raises_like_stdlib(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    with pytest.raises(TypeError, match="keys are str, not (tuple|Fraction)"):
        cli._dump(obj)


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
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    assert report_types(report) <= REPORT_TYPES


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
