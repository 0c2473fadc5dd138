"""End-to-end acceptance suite.

Each test pins one headline capability at its stated budget and prints a
single pass line; every expected number here was derived independently
(hand computation, brute-force search, or a stdlib oracle) before being
frozen.
"""

import json
import random
import time

from conjsep import cli
from conjsep.conjugacy import (
    class2_conjugate,
    conjugate_in_finite,
    conjugate_in_product,
    is_conjugacy_p_separable,
    quotient_coset_equivalence,
)
from conjsep.finite import cyclic, dihedral4, direct_product, finite_closure, quaternion8
from conjsep.groupspec import coords_to_element, heisenberg_spec, preset, ut4_spec
from conjsep.intlin import (
    IntMatrix,
    Lattice,
    hnf,
    is_column_hnf,
    prime_power_exponent,
    snf,
    valuation,
)
from conjsep.selftest import default_corpus
from conjsep.separability import (
    classify,
    make_witness,
    residual_depth,
    separate_elements,
    verify_witness_global,
    verify_witness_local,
)
from conjsep.unitri import reduce_mod

from _oracles import CayleyTable, brute_lattice_member, naive_normal, sympy_det

HEIS = heisenberg_spec()


def _finish(label, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{label}: {elapsed:.2f}s exceeded the {limit}s budget"
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s < {limit}s)")


def test_witness_pipeline_heisenberg_p2(capsys):
    t0 = time.perf_counter()
    code = cli.main(["witness", "--preset", "heisenberg", "-p", "2", "-K", "6", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    result = report["result"]
    assert result["q"] == 3 and result["n"] == 1
    assert result["u"]["coords"] == [3, 0, 0]
    assert result["v"]["coords"] == [3, 0, 1]
    names = {check["name"] for check in report["checks"] if check["pass"]}
    assert {"global:divisibility", "global:class2-lattice", "global:structure"} <= names
    assert {f"local:m={m}" for m in range(1, 7)} <= names
    # each level's conjugator exponent is the exact modular inverse of 3
    for m in range(1, 7):
        assert result["local_checks"][m - 1]["k"] == pow(3, -1, 2**m)
    # independent orbit confirmation in the materialized quotients
    w = make_witness(HEIS, 2)
    for k, expected_order in ((1, 8), (2, 64), (3, 512)):
        quot = finite_closure([reduce_mod(g, 2, k) for g in HEIS.generators])
        assert quot.order == expected_order
        assert conjugate_in_finite(
            quot, reduce_mod(w.u, 2, k), reduce_mod(w.v, 2, k)
        ).conjugate
    with capsys.disabled():
        _finish("witness pipeline, Heisenberg p=2", t0, 2.0)


def test_witness_pipeline_swapped_prime_and_higher_class(capsys):
    t0 = time.perf_counter()
    code = cli.main(["witness", "--preset", "heisenberg", "-p", "3", "-K", "6", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out)["result"]
    assert result["q"] == 2 and result["n"] == 1
    assert result["u"]["coords"] == [2, 0, 0]
    assert result["v"]["coords"] == [2, 0, 1]
    for p in (2, 3):
        code = cli.main(["witness", "--preset", "ut4", "-p", str(p), "-K", "6", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert all(check["pass"] for check in report["checks"])
        ut4 = ut4_spec()
        w = make_witness(ut4, p)
        assert w.a == ut4.z2_rep
        assert verify_witness_global(ut4, w).passed
        for m in range(1, 7):
            verify_witness_local(ut4, w, m)
    with capsys.disabled():
        _finish("witness pipeline, p=3 and UT(4)", t0, 5.0)


def test_classifier_table(capsys):
    t0 = time.perf_counter()
    expectations = [
        ("z2", 2, True, None),
        ("zxq8", 2, True, None),
        ("zxd4", 2, True, None),
        ("zxc2", 2, True, None),
        ("heisenberg", 2, False, "abelian"),
        ("heisenberg", 3, False, "abelian"),
        ("heisenberg", 5, False, "abelian"),
        ("zxc3", 2, False, "torsion"),
        ("heisxc2", 2, False, "abelian"),
    ]
    for name, p, separable, clause in expectations:
        verdict = classify(preset(name), p)
        assert verdict.separable == separable, (name, p)
        if clause == "abelian":
            assert not verdict.quotient_abelian and verdict.torsion_is_p_group
        elif clause == "torsion":
            assert not verdict.torsion_is_p_group and verdict.quotient_abelian
    with capsys.disabled():
        _finish("classifier table", t0, 1.0)


def test_constructive_separation_exhaustive(capsys):
    t0 = time.perf_counter()
    group = preset("zxd4")
    spec = group.matrix_part
    d4 = group.finite_part
    separated = conjugate = 0
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            ma = coords_to_element(spec, (m1,))
            mb = coords_to_element(spec, (m2,))
            for f1 in d4.elements:
                for f2 in d4.elements:
                    a, b = (ma, f1), (mb, f2)
                    answer = conjugate_in_product(group, a, b)
                    if answer.conjugate:
                        g = answer.conjugator
                        assert d4.mul(d4.inverse(g[1]), d4.mul(f1, g[1])) == f2
                        assert m1 == m2
                        conjugate += 1
                        continue
                    cert = separate_elements(group, a, b, 2)
                    assert prime_power_exponent(cert.quotient.order, 2) is not None
                    assert not conjugate_in_finite(cert.quotient, *cert.images).conjugate
                    separated += 1
    assert separated + conjugate == 49 * 64
    assert separated > 0 and conjugate > 0
    with capsys.disabled():
        _finish(
            f"constructive separation ({separated} separated, {conjugate} conjugate)",
            t0,
            10.0,
        )


def test_coset_equivalence_over_corpus(capsys):
    t0 = time.perf_counter()
    combos = 0
    for name, group in default_corpus():
        for p in (2, 3):
            for nsub in group.normal_subgroups():
                report = quotient_coset_equivalence(group, nsub, p)
                assert report.holds, (name, p, sorted(group.label(x) for x in nsub))
                combos += 1
    assert combos == 2 * (3 + 6 + 6 + 4 + 19)
    with capsys.disabled():
        _finish(f"coset-separability equivalence ({combos} combinations)", t0, 30.0)


def test_two_group_quotients_stay_separable(capsys):
    t0 = time.perf_counter()
    checked = 0
    for name, group in default_corpus():
        if not group.is_p_group(2):
            continue
        for nsub in group.normal_subgroups():
            quot, _ = group.quotient(nsub)
            separable, pair = is_conjugacy_p_separable(quot, 2)
            assert separable, (name, pair)
            checked += 1
    assert checked == 6 + 6 + 19
    with capsys.disabled():
        _finish(f"2-group quotient separability ({checked} quotients)", t0, 10.0)


def test_normal_subgroups_of_order_32_and_64(capsys):
    groups = [
        (direct_product(direct_product(quaternion8(), cyclic(2)), cyclic(2)), 78),
        (direct_product(dihedral4(), quaternion8()), 91),
        (finite_closure([reduce_mod(g, 2, 2) for g in HEIS.generators]), 27),
    ]
    t0 = time.perf_counter()
    found = [group.normal_subgroups() for group, _ in groups]
    with capsys.disabled():
        _finish("normal subgroups of Q8xC2xC2, D4xQ8, heisenberg mod 4", t0, 2.0)
    for (group, count), normals in zip(groups, found):
        assert len(normals) == count, group.name
        assert len(set(normals)) == count
        assert all(naive_normal(group, sub) for sub in normals)


def test_normal_subgroups_of_heisenberg_mod_8(capsys):
    group = finite_closure([reduce_mod(g, 2, 3) for g in HEIS.generators])
    t0 = time.perf_counter()
    normals = group.normal_subgroups()
    with capsys.disabled():
        _finish("88 normal subgroups of heisenberg mod 8 (order 512)", t0, 2.0)
    assert len(normals) == len(set(normals)) == 88
    table = CayleyTable(group)
    assert all(naive_normal(table, table.positions(sub)) for sub in normals)


def test_coset_equivalence_on_heisenberg_mod_4(capsys):
    group = finite_closure([reduce_mod(g, 2, 2) for g in HEIS.generators])
    t0 = time.perf_counter()
    normals = group.normal_subgroups()
    for nsub in normals:
        report = quotient_coset_equivalence(group, nsub, 2)
        assert report.holds and report.all_cosets_separable and report.quotient_separable, (
            len(nsub), report.detail)
    assert len(normals) == 27
    with capsys.disabled():
        _finish("coset equivalence on heisenberg mod 4 (27 normal subgroups, p = 2)", t0, 5.0)


def test_coset_equivalence_on_heisenberg_mod_8(capsys):
    group = finite_closure([reduce_mod(g, 2, 3) for g in HEIS.generators])
    t0 = time.perf_counter()
    normals = [nsub for nsub in group.normal_subgroups() if len(nsub) == 32]
    assert len(normals) == 19
    for nsub in normals:
        report = quotient_coset_equivalence(group, nsub, 2)
        assert report.holds and report.all_cosets_separable and report.quotient_separable, (
            report.detail)
    with capsys.disabled():
        _finish("coset equivalence on heisenberg mod 8 (19 normal subgroups of order 32, p = 2)",
                t0, 20.0)


def test_residuality_witness(capsys):
    t0 = time.perf_counter()
    rng = random.Random(77)
    for _ in range(100):
        coords = [rng.randint(-64, 64) for _ in range(3)]
        if not any(coords):
            coords[2] = 1
        g = coords_to_element(HEIS, coords)
        for p in (2, 3):
            depth = residual_depth(g, p)
            entries = [v for _, v in g.strict_upper_items()]
            assert depth == 1 + min(valuation(v, p) for v in entries)
            assert not reduce_mod(g, p, depth).is_identity()
            for k in range(1, depth):
                assert reduce_mod(g, p, k).is_identity()
    with capsys.disabled():
        _finish("residuality witness depths", t0, 1.0)


def test_oracle_equivalence_suites(capsys):
    t0 = time.perf_counter()
    rng = random.Random(31337)

    # lattice membership vs bounded brute force, rank <= 3
    for _ in range(120):
        ambient = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        cols = [
            tuple(rng.randint(-4, 4) for _ in range(ambient)) for _ in range(ncols)
        ]
        lat = Lattice(ambient, cols)
        if rng.random() < 0.5:
            coeffs = [rng.randint(-10, 10) for _ in range(ncols)]
            vec = tuple(
                sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(ambient)
            )
        else:
            vec = tuple(rng.randint(-8, 8) for _ in range(ambient))
        brute = brute_lattice_member(cols, vec, bound=10)
        hit = lat.contains(vec)
        if brute is not None:
            assert hit.member
        if hit.member:
            rebuilt = tuple(
                sum(c * col[i] for c, col in zip(hit.coefficients, cols))
                for i in range(ambient)
            )
            assert rebuilt == vec

    # class-2 criterion vs orbit search in the congruence quotients 2^3, 3^3
    quot8 = finite_closure([reduce_mod(g, 2, 3) for g in HEIS.generators])
    quot27 = finite_closure([reduce_mod(g, 3, 3) for g in HEIS.generators])
    c = HEIS.center_gens[0]
    agreements = 0
    for trial in range(200):
        x = coords_to_element(
            HEIS, (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        )
        if trial % 2 == 0:
            y = x * c ** rng.randint(-6, 6)
        else:
            y = coords_to_element(
                HEIS, (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            )
        ans = class2_conjugate(HEIS, x, y)
        if ans.conjugate:
            assert conjugate_in_finite(
                quot8, reduce_mod(x, 2, 3), reduce_mod(y, 2, 3)
            ).conjugate
            assert conjugate_in_finite(
                quot27, reduce_mod(x, 3, 3), reduce_mod(y, 3, 3)
            ).conjugate
            agreements += 1
        else:
            separated = False
            for q, kmax in ((2, 4), (3, 3)):
                for k in range(1, kmax + 1):
                    quot = finite_closure([reduce_mod(g, q, k) for g in HEIS.generators])
                    if not conjugate_in_finite(
                        quot, reduce_mod(x, q, k), reduce_mod(y, q, k)
                    ).conjugate:
                        separated = True
                        break
                if separated:
                    break
            assert separated
    assert agreements > 0

    # Hermite/Smith identities on 500 random matrices
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
        h, u = hnf(a)
        assert a @ u == h and abs(sympy_det(u)) == 1 and is_column_hnf(h)
        d, uu, vv = snf(a)
        assert (uu @ a) @ vv == d
        assert abs(sympy_det(uu)) == 1 and abs(sympy_det(vv)) == 1
        diag = [d.at(i, i) for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
    with capsys.disabled():
        _finish("oracle equivalence suites", t0, 30.0)
