"""Command-line front end.

Commands: classify, witness, separate, scan, selftest.  Groups come from
named presets or JSON spec files; every report embeds the data needed to
re-verify its claims offline and is printed as text or, with --json, as a
single JSON object with the shape
{"command", "inputs", "result", "checks": [{"name", "pass"}], "timing_ms"}.
That text is `json.dumps(report, indent=2, default=str)` byte for byte,
written by `_dump`, which keeps the stdlib's layout without its
pure-Python indented encoder.

Exit codes: 0 all checks pass, 1 a check failed, 2 rejected spec,
3 parse error (also -K or --max-order below 1), 4 witness inapplicable
(abelian group), 5 separation inapplicable (hypotheses fail).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path

from .errors import (
    AbelianGroup,
    AreConjugate,
    LocalCheckFailed,
    NotApplicable,
    NoZ2Rep,
    SizeLimit,
    SpecParseError,
    SpecRejected,
    VerificationFailed,
)
from .groupspec import (
    ProductGroupSpec,
    _parse_matrix,
    coords_to_element,
    element_coords,
    load_spec,
    parse_element,
    preset,
    preset_names,
)
from .intlin import require_prime
from .selftest import run_selftest
from .separability import (
    ORBIT_CAP,
    classify,
    make_witness,
    scan_tower,
    separate_elements,
    verify_witness_global,
)
from .unitri import UTMatrix


_INF = float("inf")


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


# The stdlib's spelling of each scalar, keyed by exact type: a scalar in a
# container costs one lookup and one call of C code, not a call of `_write`.
_LEAVES = {
    str: _ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float_text,
}
_leaf = _LEAVES.get


def _scalar(obj) -> str | None:
    """obj's text when the stdlib writes it as a scalar, subclasses in the
    stdlib's isinstance order; None otherwise."""
    leaf = _leaf(type(obj)) or next(
        (_LEAVES[base] for base in (str, int, float) if isinstance(obj, base)), None)
    return leaf and leaf(obj)


def _key_text(key) -> str:
    """A dict key that is no str, as the stdlib quotes it; a key of no
    scalar type raises TypeError."""
    if isinstance(key, (int, float)) or key is None:
        return _ascii(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _dump(report) -> str:
    """report as `json.dumps(report, indent=2, default=str)` writes it, byte
    for byte, without the stdlib's pure-Python indented encoder."""
    out = []
    _write(report, "\n", out.append)
    return "".join(out)


def _write(obj, pad: str, put) -> None:
    """Write obj in pieces through put; pad is the newline and indent that
    put obj's closing bracket on its own line.  An object of no JSON type
    is written as str(obj)."""
    cls = type(obj)
    if cls is not dict and cls is not list and cls is not tuple:
        if (text := _scalar(obj)) is not None:
            return put(text)
        if not isinstance(obj, (list, tuple, dict)):
            return put(_ascii(str(obj)))
    if not obj:
        return put("{}" if isinstance(obj, dict) else "[]")
    inner = pad + "  "
    comma = "," + inner
    if isinstance(obj, dict):
        sep = "{" + inner
        for key, value in obj.items():
            put(sep + (_ascii(key) if isinstance(key, str) else _key_text(key)) + ": ")
            sep = comma
            if (leaf := _leaf(type(value))) is not None:
                put(leaf(value))
            else:
                _write(value, inner, put)
        return put(pad + "}")
    sep = "[" + inner
    for value in obj:
        put(sep)
        sep = comma
        if (leaf := _leaf(type(value))) is not None:
            put(leaf(value))
        else:
            _write(value, inner, put)
    put(pad + "]")


def _matrix_rows(u: UTMatrix) -> list:
    return [list(r) for r in u.rows]


def _element_view(spec, u: UTMatrix) -> dict:
    coords = element_coords(spec, u)
    view = {"matrix": _matrix_rows(u)}
    if coords is not None:
        view["coords"] = list(coords)
    return view


def _resolve(args) -> ProductGroupSpec:
    if args.preset:
        return preset(args.preset)
    if args.spec:
        return load_spec(args.spec)
    raise SpecParseError("one of --preset or --spec is required")


def _require_prime(p: int) -> int:
    try:
        require_prime(p)
    except ValueError as exc:
        raise SpecParseError(f"-p: {exc}") from exc
    return p


def _require_positive(args) -> None:
    for flag, value in (("-K", getattr(args, "K", None)),
                        ("--max-order", getattr(args, "max_order", None))):
        if value is not None and value < 1:
            raise SpecParseError(f"{flag} must be >= 1, got {value}")


def _add_common(sub, with_prime=True):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=preset_names(), help="named built-in group")
    src.add_argument("--spec", help="path to a JSON group-spec document")
    if with_prime:
        sub.add_argument("-p", type=int, required=True, help="the prime p")
    sub.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub.add_argument(
        "--max-order",
        type=int,
        default=None,
        help=f"cap on the order of the quotients searched (default: {ORBIT_CAP} for orbit "
        "searches, 10^6 for separation)",
    )


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="conjsep",
        description=(
            "Conjugacy separability of finitely generated nilpotent groups in "
            "finite p-quotients: classification, inseparability witnesses, and "
            "constructive separation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="apply the torsion/abelian criterion")
    _add_common(c)

    w = sub.add_parser("witness", help="build and verify an inseparability witness pair")
    _add_common(w)
    w.add_argument("-K", type=int, default=6, help="tower depth for local checks (default 6)")
    w.add_argument("--z2-rep", help="JSON matrix file overriding the declared representative")

    s = sub.add_parser("separate", help="separate a non-conjugate pair in a finite p-quotient")
    _add_common(s)
    s.add_argument("-a", required=True, help="first element, 'coords|finite-label'")
    s.add_argument("-b", required=True, help="second element, 'coords|finite-label'")

    t = sub.add_parser("scan", help="scan conjugacy of a pair through the congruence tower")
    _add_common(t)
    t.add_argument("-K", type=int, default=6, help="tower depth (default 6)")
    t.add_argument("-x", required=True, help="first element's coordinate tuple")
    t.add_argument("-y", required=True, help="second element's coordinate tuple")

    st = sub.add_parser("selftest", help="run the built-in verification suites")
    st.add_argument("--no-corpus", action="store_true", help="run only the lattice suites")
    st.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


def _report(command: str, inputs: dict, result: dict, checks: list, t0: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "checks": [{"name": name, "pass": bool(ok)} for name, ok in checks],
        "timing_ms": int((time.perf_counter() - t0) * 1000),
    }


def run_classify(args) -> dict:
    t0 = time.perf_counter()
    group = _resolve(args)
    p = _require_prime(args.p)
    verdict = classify(group, p)
    result = {
        "group": group.name,
        "p": p,
        "torsion_order": verdict.torsion_order,
        "torsion_is_p_group": verdict.torsion_is_p_group,
        "quotient_abelian": verdict.quotient_abelian,
        "abelian_witness": list(verdict.abelian_witness) if verdict.abelian_witness else None,
        "separable": verdict.separable,
        "reason": verdict.reason,
    }
    inputs = {"source": args.preset or args.spec, "p": p}
    return _report("classify", inputs, result, [("spec-verified", True)], t0)


def run_witness(args) -> dict:
    t0 = time.perf_counter()
    group = _resolve(args)
    p = _require_prime(args.p)
    depth = args.K
    orbit_cap = args.max_order if args.max_order is not None else ORBIT_CAP
    spec = group.matrix_part
    if args.z2_rep:
        try:
            data = json.loads(Path(args.z2_rep).read_text())
        except (OSError, ValueError) as exc:
            raise SpecParseError(f"cannot use --z2-rep file: {exc}") from exc
        spec = spec.with_z2_rep(_parse_matrix(data, spec.n, "--z2-rep file"))
    witness = make_witness(spec, p)
    glob = verify_witness_global(spec, witness)
    tower = scan_tower(spec, witness.u, witness.v, p, depth, witness=witness,
                       max_order=orbit_cap)
    checks = [(f"global:{name}", True) for name in glob.checks]
    checks += [(f"local:m={lv.level}", True) for lv in tower.levels]
    checks.append(("tower:conjugate-at-all-levels", tower.separated_at is None))
    result = {
        "group": spec.name,
        "p": p,
        "q": witness.q,
        "n": witness.n,
        "b": witness.b_name,
        "a": _element_view(spec, witness.a),
        "c": _element_view(spec, witness.c),
        "u": _element_view(spec, witness.u),
        "v": _element_view(spec, witness.v),
        "divisibility": {
            "exponent": witness.divisibility.exponent,
            "c_vector": list(witness.divisibility.c_vector),
            "scaled_basis": [list(col) for col in witness.divisibility.scaled_basis],
            "member": witness.divisibility.member,
        },
        "conjugator_exponents": {str(m): k for m, k in witness.conjugator_exponents},
        "local_checks": [
            {"m": lv.level, "k": lv.check.k, "conjugator": f"{witness.b_name}^{lv.check.k}",
             "orbit_checked": lv.check.bfs_checked}
            for lv in tower.levels
        ],
        "tower": {
            "summary": tower.summary,
            "levels": [
                {"level": lv.level, "method": lv.method, "conjugate": lv.conjugate}
                for lv in tower.levels
            ],
        },
    }
    inputs = {"source": args.preset or args.spec, "p": p, "K": depth,
              "max_order": orbit_cap}
    return _report("witness", inputs, result, checks, t0)


def run_separate(args) -> dict:
    t0 = time.perf_counter()
    group = _resolve(args)
    p = _require_prime(args.p)
    elt_a = parse_element(group, args.a)
    elt_b = parse_element(group, args.b)
    inputs = {"source": args.preset or args.spec, "p": p, "a": args.a, "b": args.b}
    spec = group.matrix_part
    closure_cap = args.max_order if args.max_order is not None else 10**6
    try:
        cert = separate_elements(group, elt_a, elt_b, p, max_order=closure_cap)
    except AreConjugate as exc:
        mpart, fpart = exc.conjugator
        result = {
            "group": group.name,
            "p": p,
            "outcome": "conjugate",
            "conjugator": {
                "matrix_part": _element_view(spec, mpart),
                "finite_part": group.finite_part.label(fpart),
            },
        }
        return _report("separate", inputs, result, [("conjugator-verifies", True)], t0)
    quot = cert.quotient
    result = {
        "group": group.name,
        "p": p,
        "outcome": "separated",
        "branch": cert.branch,
        "level": cert.level,
        "quotient": {"name": quot.name, "order": quot.order},
        "images": [quot.label(img) for img in cert.images],
    }
    checks = [
        ("quotient-is-p-group", True),
        ("images-nonconjugate-orbit", cert.nonconjugacy_reverified),
    ]
    return _report("separate", inputs, result, checks, t0)


def run_scan(args) -> dict:
    t0 = time.perf_counter()
    group = _resolve(args)
    p = _require_prime(args.p)
    spec = group.matrix_part
    try:
        x = coords_to_element(spec, [int(t) for t in args.x.split(",")])
        y = coords_to_element(spec, [int(t) for t in args.y.split(",")])
    except ValueError as exc:
        raise SpecParseError(f"bad coordinate tuple: {exc}") from exc
    orbit_cap = args.max_order if args.max_order is not None else ORBIT_CAP
    tower = scan_tower(spec, x, y, p, args.K, max_order=orbit_cap)
    result = {
        "group": spec.name,
        "p": p,
        "x": _element_view(spec, x),
        "y": _element_view(spec, y),
        "summary": tower.summary,
        "separated_at": tower.separated_at,
        "levels": [
            {"level": lv.level, "method": lv.method, "conjugate": lv.conjugate,
             "note": lv.note}
            for lv in tower.levels
        ],
    }
    inputs = {"source": args.preset or args.spec, "p": p, "K": args.K,
              "max_order": orbit_cap}
    return _report("scan", inputs, result, [("tower-complete", True)], t0)


def run_selftest_cmd(args) -> dict:
    t0 = time.perf_counter()
    outcomes = run_selftest(include_corpus=not args.no_corpus)
    checks = [(name, ok) for name, ok, _ in outcomes]
    failures = [
        {"name": name, "detail": detail} for name, ok, detail in outcomes if not ok
    ]
    result = {
        "total": len(outcomes),
        "passed": sum(1 for _, ok, _ in outcomes if ok),
        "failures": failures,
        "first_failure": failures[0]["name"] if failures else None,
    }
    inputs = {"corpus": not args.no_corpus}
    return _report("selftest", inputs, result, checks, t0)


def _fmt_view(view: dict) -> str:
    if "coords" in view:
        return "(" + ",".join(str(v) for v in view["coords"]) + ")"
    return "[" + ", ".join(str(r) for r in view["matrix"]) + "]"


def _print_checks(report: dict) -> None:
    for check in report["checks"]:
        status = "ok " if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}")


def _print_human(report: dict) -> None:
    cmd = report["command"]
    r = report["result"]
    if cmd == "classify":
        print(f"group {r['group']}, p = {r['p']}")
        t = "a p-group" if r["torsion_is_p_group"] else f"NOT a {r['p']}-group"
        print(f"torsion subgroup: order {r['torsion_order']}, {t}")
        q = "abelian" if r["quotient_abelian"] else (
            f"non-abelian, witness pair {tuple(r['abelian_witness'])}"
        )
        print(f"quotient by torsion: {q}")
        verdict = (
            f"conjugacy F_{r['p']}-separable"
            if r["separable"]
            else f"NOT conjugacy F_{r['p']}-separable: {r['reason']}"
        )
        print(f"verdict: {verdict}")
    elif cmd == "witness":
        print(f"group {r['group']}, p = {r['p']}: q = {r['q']}, n = {r['n']}")
        print(
            f"a = {_fmt_view(r['a'])}, b = {r['b']}, c = [a,b] = {_fmt_view(r['c'])}"
        )
        print(
            f"pair: u = a^{r['divisibility']['exponent']} = {_fmt_view(r['u'])}, "
            f"v = u*c = {_fmt_view(r['v'])}"
        )
        print(
            f"global non-conjugacy: no {r['divisibility']['exponent']}-th root of "
            f"c_vec {tuple(r['divisibility']['c_vector'])} in the centre lattice"
        )
        for loc in r["local_checks"]:
            extra = ", orbit-checked" if loc["orbit_checked"] else ""
            print(f"  level m={loc['m']}: conjugator {loc['conjugator']}{extra}")
        print(f"tower: {r['tower']['summary']}")
    elif cmd == "separate":
        if r["outcome"] == "conjugate":
            print(f"group {r['group']}, p = {r['p']}: elements are CONJUGATE")
            conj = r["conjugator"]
            print(
                f"conjugator: matrix part {_fmt_view(conj['matrix_part'])}, "
                f"finite part {conj['finite_part']}"
            )
        else:
            print(f"group {r['group']}, p = {r['p']}: separated ({r['branch']} branch)")
            print(
                f"quotient at level {r['level']}: {r['quotient']['name']}, "
                f"order {r['quotient']['order']}"
            )
            print(f"images: {r['images'][0]} vs {r['images'][1]}")
    elif cmd == "scan":
        print(f"group {r['group']}, p = {r['p']}")
        print(f"x = {_fmt_view(r['x'])}, y = {_fmt_view(r['y'])}")
        for lv in r["levels"]:
            state = {True: "conjugate", False: "separated", None: "undecided"}[lv["conjugate"]]
            note = f" ({lv['note']})" if lv.get("note") else ""
            print(f"  level {lv['level']}: {state} [{lv['method']}]{note}")
        print(f"summary: {r['summary']}")
    elif cmd == "selftest":
        _print_checks(report)
        if r["first_failure"]:
            print(f"selftest: FIRST FAILURE: {r['first_failure']}")
        else:
            print(f"selftest: {r['total']} checks, all passed")
        return
    _print_checks(report)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    runner = {
        "classify": run_classify,
        "witness": run_witness,
        "separate": run_separate,
        "scan": run_scan,
        "selftest": run_selftest_cmd,
    }[args.command]
    try:
        _require_positive(args)
        report = runner(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except SpecRejected as exc:
        print(f"spec rejected: {exc}", file=sys.stderr)
        return 2
    except (AbelianGroup, NoZ2Rep) as exc:
        print(f"witness not applicable: {exc}", file=sys.stderr)
        return 4
    except NotApplicable as exc:
        print(f"separation not applicable: {exc}", file=sys.stderr)
        return 5
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 1
    except (LocalCheckFailed, VerificationFailed) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_dump(report))
    else:
        _print_human(report)
    return 0 if all(check["pass"] for check in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
