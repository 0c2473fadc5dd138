"""Golden CLI reports and demo output: fixed runs whose output must not change.

Each call's ``--json`` report is compared byte for byte, as ``cli.main``
prints it, with a stored file under ``tests/golden/``: only the report's last
member, the run-dependent ``timing_ms``, is cut from the text.  So are
the human-readable ``selftest`` text and the stdout of every ``demos/*.py``.
A change that is meant to alter an output regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and shows the difference in
review.
"""

import contextlib
import io
import re
import runpy
from pathlib import Path

from conjsep import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# The report's last member, cut from the printed text before the closing brace.
TIMING = re.compile(r',\n  "timing_ms": \d+(?=\n\}\n\Z)')

# (file name, argv); names ending in .json are --json reports.
CALLS = (
    ("witness-heisenberg-p2-K6.json", ["witness", "--preset", "heisenberg", "-p", "2", "-K", "6"]),
    ("scan-heisenberg-p2-K4.json",
     ["scan", "--preset", "heisenberg", "-p", "2", "-K", "4", "-x", "1,2,0", "-y", "1,2,5"]),
    ("separate-zxd4-r-r3.json", ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|r3"]),
    ("separate-zxd4-r-s.json", ["separate", "--preset", "zxd4", "-p", "2", "-a", "0|r", "-b", "0|s"]),
    ("separate-zxq8-i-minus-i.json",
     ["separate", "--preset", "zxq8", "-p", "2", "-a", "0|i", "-b", "0|-i"]),
    ("selftest.json", ["selftest"]),
    ("selftest.txt", ["selftest"]),
)


def render(name, argv):
    """The exit code and the stored form of one call's output."""
    json_mode = name.endswith(".json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"] if json_mode else argv)
    out = out.getvalue()
    if json_mode:
        out, cuts = TIMING.subn("", out)
        assert cuts == 1 and '"timing_ms"' not in out, f"{name}: no single trailing timing_ms"
    return code, out


def render_demo(path):
    """A demo script's stdout, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def demo_golden(path):
    return GOLDEN / f"demo-{path.stem}.txt"


def test_cli_reports_match_golden_files():
    for name, argv in CALLS:
        code, out = render(name, argv)
        assert code == 0, f"{name}: exit {code}"
        assert out == (GOLDEN / name).read_text(), f"{name} differs from its golden file"


def test_demo_output_matches_golden_files():
    assert len(DEMOS) == 5
    for path in DEMOS:
        assert render_demo(path) == demo_golden(path).read_text(), (
            f"{path.name} differs from its golden file"
        )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CALLS:
        code, out = render(name, argv)
        (GOLDEN / name).write_text(out)
        print(f"wrote {name} (exit {code})")
    for path in DEMOS:
        demo_golden(path).write_text(render_demo(path))
        print(f"wrote {demo_golden(path).name}")
