"""Built-in verification suites, shared by the CLI selftest command and tests.

Each suite returns (name, passed, detail) triples.  The finite-group corpus
is validated first; structural suites only run on groups that pass, so a
corrupted multiplication table fails loudly at its closure check instead of
crashing deeper machinery.
"""

from __future__ import annotations

import random

from .conjugacy import is_conjugacy_p_separable, quotient_coset_equivalence
from .finite import FiniteGroup, cyclic, dihedral4, direct_product, quaternion8, sym3
from .groupspec import preset, preset_names, verify_spec
from .intlin import (
    IntMatrix,
    Lattice,
    det,
    hnf,
    is_column_hnf,
    mod_inverse,
    power_solvable,
    snf,
    xgcd,
)

Check = tuple[str, bool, str]

# Fixed inputs, so the selftest report is the same on every run.
LATTICE_SEED = 1234
LATTICE_ROUNDS = 60
SELFTEST_PRIMES = (2, 3)


def default_corpus() -> list[tuple[str, FiniteGroup]]:
    return [
        ("S3", sym3()),
        ("D4", dihedral4()),
        ("Q8", quaternion8()),
        ("C6", cyclic(6)),
        ("D4xC2", direct_product(dihedral4(), cyclic(2), name="D4xC2")),
    ]


def _random_matrix(rng, max_dim=5, span=9) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix(
        rows, cols, [rng.randint(-span, span) for _ in range(rows * cols)]
    )


def lattice_suite() -> list[Check]:
    rng = random.Random(LATTICE_SEED)
    checks: list[Check] = []

    ok = True
    detail = ""
    for _ in range(LATTICE_ROUNDS):
        a = _random_matrix(rng)
        h, u = hnf(a)
        if a @ u != h or abs(det(u)) != 1 or not is_column_hnf(h):
            ok, detail = False, f"hnf identity broke on {a!r}"
            break
        h2, _ = hnf(h)
        if h2 != h:
            ok, detail = False, f"hnf is not idempotent on {a!r}"
            break
    checks.append(("hnf-identities", ok, detail))

    ok = True
    detail = ""
    for _ in range(LATTICE_ROUNDS):
        a = _random_matrix(rng)
        d, u, v = snf(a)
        if (u @ a) @ v != d or abs(det(u)) != 1 or abs(det(v)) != 1:
            ok, detail = False, f"snf identity broke on {a!r}"
            break
        diag = [d.at(i, i) for i in range(min(d.rows, d.cols))]
        off = any(
            d.at(i, j) for i in range(d.rows) for j in range(d.cols) if i != j
        )
        zeros_trail = all(x == 0 for x in diag[diag.index(0) :]) if 0 in diag else True
        chain = zeros_trail and all(
            diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i]
        )
        if off or any(x < 0 for x in diag) or not chain:
            ok, detail = False, f"snf shape broke on {a!r}"
            break
    checks.append(("snf-identities", ok, detail))

    ok = True
    detail = ""
    for m in range(2, 301):
        for a in range(1, m):
            g, _, _ = xgcd(a, m)
            if g != 1:
                continue
            k = mod_inverse(a, m)
            if not (1 <= k < m and (a * k) % m == 1):
                ok, detail = False, f"mod_inverse({a}, {m}) = {k}"
                break
        if not ok:
            break
    checks.append(("mod-inverse-exhaustive", ok, detail))

    ok = True
    detail = ""
    for _ in range(LATTICE_ROUNDS):
        ambient = rng.randint(1, 3)
        w = tuple(rng.randint(-4, 4) for _ in range(ambient))
        if not any(w):
            w = (1,) + w[1:]
        lat = Lattice(ambient, (w,))
        t = rng.randint(-6, 6)
        e = rng.randint(1, 5)
        target = tuple(t * x for x in w)
        sol = power_solvable(lat, target, e)
        if sol.solvable != (t % e == 0):
            ok, detail = False, f"rank-1 power solvability disagrees with {e} | {t}"
            break
    checks.append(("power-solvable-rank1", ok, detail))

    ok = True
    detail = ""
    for _ in range(LATTICE_ROUNDS):
        ambient = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        cols = [
            tuple(rng.randint(-4, 4) for _ in range(ambient)) for _ in range(ncols)
        ]
        lat = Lattice(ambient, cols)
        coeffs = [rng.randint(-5, 5) for _ in range(ncols)]
        vec = tuple(
            sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(ambient)
        )
        hit = lat.contains(vec)
        good = hit.member and tuple(
            sum(x * col[i] for x, col in zip(hit.coefficients, cols))
            for i in range(ambient)
        ) == vec
        if not good:
            ok, detail = False, f"membership certificate broke on {cols} -> {vec}"
            break
    checks.append(("lattice-membership-certificates", ok, detail))
    return checks


def corpus_suite(corpus: list[tuple[str, FiniteGroup]] | None = None) -> list[Check]:
    groups = corpus if corpus is not None else default_corpus()
    checks: list[Check] = []
    healthy = []
    for name, group in groups:
        outcomes = group.validate()
        bad = False
        for cname, ok, detail in outcomes:
            checks.append((f"{cname}:{name}", ok, detail))
            bad = bad or not ok
        if not bad:
            healthy.append((name, group))
    for name, group in healthy:
        for p in SELFTEST_PRIMES:
            holds = True
            detail = ""
            for i, nsub in enumerate(group.normal_subgroups()):
                report = quotient_coset_equivalence(group, nsub, p)
                if not report.holds:
                    holds = False
                    detail = f"N{i}: {report.detail}"
                    break
            checks.append((f"coset-equivalence:{name}:p{p}", holds, detail))
    for name, group in healthy:
        if not group.is_p_group(2):
            continue
        ok = True
        detail = ""
        for i, nsub in enumerate(group.normal_subgroups()):
            quot, _ = group.quotient(nsub)
            separable, pair = is_conjugacy_p_separable(quot, 2)
            if not separable:
                ok = False
                detail = f"quotient by N{i} fails at pair {pair}"
                break
        checks.append((f"quotient-separability:{name}:p2", ok, detail))
    return checks


def preset_suite() -> list[Check]:
    checks: list[Check] = []
    for name in preset_names():
        try:
            verify_spec(preset(name).matrix_part)
            checks.append((f"spec:{name}", True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            checks.append((f"spec:{name}", False, str(exc)))
    return checks


def run_selftest(
    corpus: list[tuple[str, FiniteGroup]] | None = None, include_corpus: bool = True
) -> list[Check]:
    checks = lattice_suite()
    if include_corpus:
        checks.extend(preset_suite())
        checks.extend(corpus_suite(corpus))
    return checks
