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


def _check(name: str, failures) -> Check:
    """The check named `name`, failed with the first detail that `failures`
    yields.  The rest of the generator never runs, so a check that fails
    stops drawing from the seeded generator at its first failure."""
    detail = next(failures, None)
    return (name, detail is None, detail or "")


def _hnf_failures(rng):
    for _ in range(LATTICE_ROUNDS):
        a = _random_matrix(rng)
        h, u = hnf(a)
        if a @ u != h or abs(det(u)) != 1 or not is_column_hnf(h):
            yield f"hnf identity broke on {a!r}"
        elif hnf(h)[0] != h:
            yield f"hnf is not idempotent on {a!r}"


def _snf_failures(rng):
    for _ in range(LATTICE_ROUNDS):
        a = _random_matrix(rng)
        d, u, v = snf(a)
        if (u @ a) @ v != d or abs(det(u)) != 1 or abs(det(v)) != 1:
            yield f"snf identity broke on {a!r}"
            continue
        diag = [d.at(i, i) for i in range(min(d.rows, d.cols))]
        off = any(
            d.at(i, j) for i in range(d.rows) for j in range(d.cols) if i != j
        )
        zeros_trail = all(x == 0 for x in diag[diag.index(0) :]) if 0 in diag else True
        chain = zeros_trail and all(
            diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i]
        )
        if off or any(x < 0 for x in diag) or not chain:
            yield f"snf shape broke on {a!r}"


def _mod_inverse_failures():
    for m in range(2, 301):
        for a in range(1, m):
            if xgcd(a, m)[0] == 1:
                k = mod_inverse(a, m)
                if not (1 <= k < m and (a * k) % m == 1):
                    yield f"mod_inverse({a}, {m}) = {k}"


def _power_solvable_failures(rng):
    for _ in range(LATTICE_ROUNDS):
        ambient = rng.randint(1, 3)
        w = tuple(rng.randint(-4, 4) for _ in range(ambient))
        if not any(w):
            w = (1,) + w[1:]
        lat = Lattice(ambient, (w,))
        t = rng.randint(-6, 6)
        e = rng.randint(1, 5)
        target = tuple(t * x for x in w)
        if power_solvable(lat, target, e).solvable != (t % e == 0):
            yield f"rank-1 power solvability disagrees with {e} | {t}"


def _membership_failures(rng):
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
            yield f"membership certificate broke on {cols} -> {vec}"


def lattice_suite() -> list[Check]:
    rng = random.Random(LATTICE_SEED)
    return [
        _check("hnf-identities", _hnf_failures(rng)),
        _check("snf-identities", _snf_failures(rng)),
        _check("mod-inverse-exhaustive", _mod_inverse_failures()),
        _check("power-solvable-rank1", _power_solvable_failures(rng)),
        _check("lattice-membership-certificates", _membership_failures(rng)),
    ]


def _equivalence_failures(group: FiniteGroup, p: int):
    for i, nsub in enumerate(group.normal_subgroups()):
        report = quotient_coset_equivalence(group, nsub, p)
        if not report.holds:
            yield f"N{i}: {report.detail}"


def _quotient_failures(group: FiniteGroup, p: int):
    for i, nsub in enumerate(group.normal_subgroups()):
        separable, pair = is_conjugacy_p_separable(group.quotient(nsub)[0], p)
        if not separable:
            yield f"quotient by N{i} fails at pair {pair}"


def _spec_failures(name: str):
    try:
        verify_spec(preset(name).matrix_part)
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        yield str(exc)


def corpus_suite(corpus: list[tuple[str, FiniteGroup]] | None = None) -> list[Check]:
    groups = corpus if corpus is not None else default_corpus()
    checks: list[Check] = []
    healthy = []
    for name, group in groups:
        outcomes = group.validate()
        checks.extend((f"{cname}:{name}", ok, detail) for cname, ok, detail in outcomes)
        if all(ok for _, ok, _ in outcomes):
            healthy.append((name, group))
    checks.extend(
        _check(f"coset-equivalence:{name}:p{p}", _equivalence_failures(group, p))
        for name, group in healthy
        for p in SELFTEST_PRIMES
    )
    checks.extend(
        _check(f"quotient-separability:{name}:p2", _quotient_failures(group, 2))
        for name, group in healthy
        if group.is_p_group(2)
    )
    return checks


def preset_suite() -> list[Check]:
    return [_check(f"spec:{name}", _spec_failures(name)) for name in preset_names()]


def run_selftest(
    corpus: list[tuple[str, FiniteGroup]] | None = None, include_corpus: bool = True
) -> list[Check]:
    checks = lattice_suite()
    if include_corpus:
        checks.extend(preset_suite())
        checks.extend(corpus_suite(corpus))
    return checks
