"""Mutation gate: every explicit check in src/ must be load-bearing.

Each `raise VerificationFailed`, `raise LocalCheckFailed` and
`raise SpecRejected` under src/ is replaced in turn by `pass` in a temporary
copy of the checkout, and the tier-1 tests run there with -x.  A mutant that
passes them is a check that no test reaches.  To keep the run short, the
mutated module's own tests/test_<module>.py runs first, with -x, and all of
tier-1 runs only when that passes.

    python tools/mutate_raises.py

Exit 0 when tier-1 fails on every mutant; 1 when some mutant passes it (each
is named); 2 when tier-1 already fails on the unmutated copy, so that no
mutant can be judged.  Needs only the standard library and the test
dependencies.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKS = frozenset({"VerificationFailed", "LocalCheckFailed", "SpecRejected"})
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# A mutant that hangs the suite has changed what it observes: it counts as caught.
TIMEOUT_S = 900
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def raised(node: ast.Raise):
    """The name of the class that `raise X` or `raise X(...)` raises, or None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def raise_sites(source: bytes) -> list:
    """The `raise` statements of a checked exception in source, in order."""
    return sorted(
        (node for node in ast.walk(ast.parse(source))
         if isinstance(node, ast.Raise) and raised(node) in CHECKS),
        key=lambda node: (node.lineno, node.col_offset),
    )


def mutate(source: bytes, node: ast.Raise) -> bytes:
    """source with the statement `node` replaced by `pass`.  The node's
    columns are UTF-8 byte offsets, so the cut is made in bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return source[:begin] + b"pass" + source[end:]


def own_tests(copy: Path, module: Path) -> list:
    """The tests/test_<module>.py of a module under src/, as a path relative
    to the copy, when the copy has one; else no file."""
    tests = Path("tests") / f"test_{module.stem}.py"
    return [str(tests)] if (copy / tests).is_file() else []


def tier1(copy: Path, files: list = ()) -> tuple:
    """(passed, first failing test or how the run ended) for the copy: all
    of tier-1, or only the given test files."""
    path = os.pathsep.join(filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH"))))
    # No bytecode cache: two mutants of one file can share its size and mtime.
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, *TIER1, *files], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, failed[0] if failed else f"exit {proc.returncode}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutate-raises-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        passed, detail = tier1(copy)
        if not passed:
            print(f"tier-1 fails without any mutation ({detail}); no mutant can be judged")
            return 2
        mutants, survivors = 0, []
        for path in sorted((copy / "src").rglob("*.py")):
            original, first = path.read_bytes(), own_tests(copy, path)
            for node in raise_sites(original):
                mutants += 1
                site = f"{path.relative_to(copy)}:{node.lineno}"
                path.write_bytes(mutate(original, node))
                start = time.perf_counter()
                passed, detail = tier1(copy, first)  # all of tier-1 when first is empty
                if passed and first:
                    passed, detail = tier1(copy)
                outcome = "SURVIVED: tier-1 passes" if passed else f"killed by {detail}"
                print(f"{site} {raised(node)}: {outcome} "
                      f"({time.perf_counter() - start:.0f} s)", flush=True)
                if passed:
                    survivors.append(site)
            path.write_bytes(original)
    print(f"{mutants} mutants, {len(survivors)} survived")
    for site in survivors:
        print(f"surviving mutant: {site}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
