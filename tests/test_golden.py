"""Golden CLI reports: fixed calls whose output must not change.

Each call's ``--json`` report, minus the run-dependent ``timing_ms``, is
compared byte for byte with a stored file under ``tests/golden/``, and so is
the human-readable ``selftest`` text.  A change that is meant to alter a
report regenerates the files with ``PYTHONPATH=src python tests/test_golden.py``
and shows the difference in review.
"""

import contextlib
import io
import json
from pathlib import Path

from conjsep import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

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
        report = json.loads(out)
        del report["timing_ms"]
        out = json.dumps(report, indent=2, default=str) + "\n"
    return code, out


def test_cli_reports_match_golden_files():
    for name, argv in CALLS:
        code, out = render(name, argv)
        assert code == 0, f"{name}: exit {code}"
        assert out == (GOLDEN / name).read_text(), f"{name} differs from its golden file"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CALLS:
        code, out = render(name, argv)
        (GOLDEN / name).write_text(out)
        print(f"wrote {name} (exit {code})")
