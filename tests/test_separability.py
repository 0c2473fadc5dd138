import json
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsep import cli
from conjsep.conjugacy import ConjugacyAnswer, conjugate_in_finite, conjugate_in_product
from conjsep.errors import (
    AbelianGroup,
    AreConjugate,
    IdentityElement,
    LocalCheckFailed,
    NotApplicable,
    NoZ2Rep,
    VerificationFailed,
)
from conjsep import intlin, separability
from conjsep.finite import cyclic, direct_product, finite_closure
from conjsep.groupspec import (
    MatrixGroupSpec,
    ProductGroupSpec,
    center_lattice,
    center_vector,
    congruence_quotient,
    coords_to_element,
    element_coords,
    free_abelian_rank1_spec,
    heis5_spec,
    heisenberg_spec,
    is_abelian,
    load_spec,
    preset,
    preset_names,
    ut4_spec,
    verify_spec,
)
from conjsep.intlin import mod_inverse, prime_power_exponent, valuation
from conjsep.separability import (
    classify,
    make_witness,
    residual_depth,
    scan_tower,
    separate_elements,
    verify_witness_global,
    verify_witness_local,
)
from conjsep.unitri import UTMatrix, reduce_mod

from _oracles import reference_witness_exponent
from test_cli import NO_B_DOC, OFF_GROUP_DOC
from test_conjugacy import double_heisenberg_spec

HEIS = heisenberg_spec()


def heis(x, y, z):
    return coords_to_element(HEIS, (x, y, z))


ZXC4 = ProductGroupSpec("zxc4", free_abelian_rank1_spec(), cyclic(4))
T = ZXC4.matrix_part.generators[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda p: classify(ZXC4, p),
        lambda p: make_witness(HEIS, p),
        lambda p: scan_tower(HEIS, heis(1, 0, 0), heis(0, 1, 0), p, 2),
        lambda p: separate_elements(ZXC4, (T**16, 0), (T**0, 0), p),
        lambda p: finite_closure([reduce_mod(g, p, 1) for g in HEIS.generators]),
    ],
    ids=["classify", "make_witness", "scan_tower", "separate_elements", "finite_closure"],
)
@pytest.mark.parametrize("p", [1, 4, 6])
def test_non_prime_p_is_rejected(call, p):
    with pytest.raises(ValueError, match=f"p must be (>= 2|prime), got {p}"):
        call(p)


class TestClassify:
    @pytest.mark.parametrize(
        "name,p,separable",
        [
            ("z2", 2, True),
            ("z2", 5, True),
            ("z", 3, True),
            ("zxq8", 2, True),
            ("zxq8", 3, False),
            ("zxd4", 2, True),
            ("zxc2", 2, True),
            ("zxc3", 2, False),
            ("zxc6", 2, False),
            ("zxc6", 3, False),
            ("heisenberg", 2, False),
            ("heisenberg", 3, False),
            ("heisxc2", 2, False),
            ("ut4", 2, False),
            ("heis5", 2, False),
        ],
    )
    def test_verdicts(self, name, p, separable):
        verdict = classify(preset(name), p)
        assert verdict.separable == separable
        assert verdict.separable == (
            verdict.torsion_is_p_group and verdict.quotient_abelian
        )

    def test_failure_clauses(self):
        torsion_case = classify(preset("zxc3"), 2)
        assert not torsion_case.torsion_is_p_group
        assert torsion_case.quotient_abelian
        assert "torsion" in torsion_case.reason

    def test_abelian_clause(self):
        heis_case = classify(preset("heisenberg"), 2)
        assert heis_case.torsion_is_p_group
        assert not heis_case.quotient_abelian
        assert heis_case.abelian_witness == ("a", "b")

    def test_both_clauses_fail(self):
        verdict = classify(preset("heisxc2"), 3)
        assert not verdict.torsion_is_p_group
        assert not verdict.quotient_abelian


class TestMakeWitness:
    def test_heisenberg_p2(self):
        w = make_witness(HEIS, 2)
        assert (w.q, w.n) == (3, 1)
        assert w.b_name == "b"
        assert element_coords(HEIS, w.u) == (3, 0, 0)
        assert element_coords(HEIS, w.v) == (3, 0, 1)
        assert w.conjugator_exponent(3) == 3

    def test_heisenberg_p3(self):
        w = make_witness(HEIS, 3)
        assert (w.q, w.n) == (2, 1)
        assert element_coords(HEIS, w.u) == (2, 0, 0)
        assert element_coords(HEIS, w.v) == (2, 0, 1)

    def test_minimal_failing_exponent(self):
        # overriding a -> a^9 makes c = [a, b]^9, whose first failing power
        # of 3 is 3^3
        spec = HEIS.with_z2_rep(HEIS.generators[0] ** 9, "a9")
        w = make_witness(spec, 2)
        assert w.q == 3 and w.n == 3
        assert element_coords(HEIS, w.c) == (0, 0, 9)

    def test_abelian_group_rejected(self):
        with pytest.raises(AbelianGroup):
            make_witness(preset("z2").matrix_part, 2)

    def test_missing_z2_rep(self):
        spec = HEIS._replace(z2_rep=None)
        with pytest.raises(NoZ2Rep):
            make_witness(spec, 2)

    def test_representative_commuting_with_every_generator(self):
        spec = load_spec(NO_B_DOC).matrix_part
        assert verify_spec(spec).passed
        with pytest.raises(NoZ2Rep, match="'z2' commutes with every generator"):
            make_witness(spec, 2)

    @pytest.mark.parametrize("spec", [HEIS, heis5_spec(), ut4_spec()],
                             ids=["heisenberg", "heis5", "ut4"])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_conjugator_exponent_at_every_level(self, spec, p):
        # Checked from its definition, not through verify_witness_local:
        # k inverts q^n mod p^m, and b^k conjugates u to v mod p^m.
        w = make_witness(spec, p)
        e = w.q**w.n
        for m in range(1, 41):
            k = w.conjugator_exponent(m)
            assert 1 <= k < p**m and e * k % p**m == 1, m
            g = reduce_mod(w.b, p, m) ** k
            assert reduce_mod(w.u, p, m) * g == g * reduce_mod(w.v, p, m), m


def _witness_specs():
    specs = [
        preset(name).matrix_part
        for name in preset_names()
        if preset(name).matrix_part.z2_rep is not None
        and not is_abelian(preset(name).matrix_part).abelian
    ]
    double = double_heisenberg_spec()
    a1, b1, a2, b2 = double.generators
    for name, rep in [("a1", a1), ("b2", b2), ("a1^4a2^2", a1**4 * a2**2),
                      ("a2^6", a2**6), ("a1^9b2^-4", a1**9 * b2**-4)]:
        specs.append(double.with_z2_rep(rep, name))
    e = UTMatrix.from_entries
    # c = [a, b] = I + 2E02 has coordinate 2 = 2^1 * 1, so n = 2 for q = 2
    specs.append(MatrixGroupSpec(
        name="heis-b2", n=3, generators=(e(3, {(0, 1): 1}), e(3, {(1, 2): 2})),
        gen_names=("a", "b"), center_gens=(e(3, {(0, 2): 1}),), center_names=("c",),
        z2_rep=e(3, {(0, 1): 1}), z2_name="a", declared_class=2,
    ))
    return specs


class TestWitnessExponent:
    """n read off the canonical coordinates of c equals the exponent loop."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_exponent_loop(self, p):
        for spec in _witness_specs():
            w = make_witness(spec, p)
            c_vec = center_vector(spec, w.c)
            assert w.n == reference_witness_exponent(center_lattice(spec), c_vec, w.q), spec.name
            assert verify_witness_global(spec, w).passed

    def test_exponent_two(self):
        spec = _witness_specs()[-1]
        w = make_witness(spec, 3)
        assert (w.q, center_vector(spec, w.c), w.n) == (2, (2,), 2)

    def test_make_witness_calls_no_power_solvable(self, monkeypatch):
        calls = []
        for module in (intlin, separability):
            original = module.power_solvable

            def counted(*args, original=original):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(module, "power_solvable", counted)
        for spec in _witness_specs():
            make_witness(spec, 2)
        assert calls == []


    def test_make_witness_reduces_no_new_lattice(self, monkeypatch, capsys):
        # n is read off the centre lattice's stored Hermite form, and
        # make_witness reduces no e * L; the printed scaled basis must still
        # be the Hermite form of e * L.
        calls = []
        original = intlin.hnf

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(intlin, "hnf", counted)
        specs = _witness_specs()
        for spec in specs:
            center_lattice(spec).canonical()
            calls.clear()
            make_witness(spec, 2)
            assert calls == [], spec.name
        for name in preset_names():
            spec = preset(name).matrix_part
            if spec not in specs:
                continue
            assert cli.main(["witness", "--preset", name, "-p", "2", "-K", "1", "--json"]) == 0
            printed = json.loads(capsys.readouterr().out)["result"]["divisibility"]
            e = printed["exponent"]
            assert printed["scaled_basis"] == [
                list(col) for col in center_lattice(spec).scale(e).canonical().basis], name


def witness_for_q(w, q):
    """The heisenberg witness w with q replaced, and u and v rebuilt for it."""
    u = w.a ** (q**w.n)  # c = [a, b] has coordinate 1, so n = 1 for every q
    return w._replace(q=q, u=u, v=u * w.c)


class TestVerifyWitnessGlobal:
    def test_passes_for_fresh_witness(self):
        w = make_witness(HEIS, 2)
        report = verify_witness_global(HEIS, w)
        assert report.passed
        assert report.checks == ("divisibility", "class2-lattice", "structure")

    def test_ut4_skips_class2_route(self):
        ut4 = ut4_spec()
        w = make_witness(ut4, 2)
        report = verify_witness_global(ut4, w)
        assert report.checks == ("divisibility", "structure")

    def test_tampered_exponent_zero(self):
        w = make_witness(HEIS, 2)._replace(n=0)
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, w)
        assert err.value.check == "divisibility"

    def test_tampered_cube_c(self):
        w = make_witness(HEIS, 2)
        tampered = w._replace(c=w.c**3)
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, tampered)
        assert err.value.check == "divisibility"

    def test_tampered_pair(self):
        w = make_witness(HEIS, 2)
        tampered = w._replace(v=w.u * w.c**2)
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, tampered)
        assert err.value.check in ("class2-lattice", "structure")

    def test_c_outside_the_centre(self):
        w = make_witness(HEIS, 2)
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, w._replace(c=w.b))
        assert err.value.check == "divisibility"
        assert err.value.detail == "c lies outside the declared centre"

    def test_conjugate_pair_fails_the_class2_check(self):
        # u = a^3 and [a^3, b] = c^3, so u and u c^3 are conjugate by b.
        w = make_witness(HEIS, 2)
        assert w.u == HEIS.generators[0] ** 3
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, w._replace(v=w.u * w.c**3))
        assert err.value.check == "class2-lattice"

    @pytest.mark.parametrize("q", [2**89 - 1, 5])
    def test_crafted_q_refused_at_once(self, q):
        # Only the rule that q is the least prime other than p can tell;
        # a primality test of 2^89 - 1 would not return.
        w = make_witness(HEIS, 2)
        assert w.n == 1
        start = time.perf_counter()
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, witness_for_q(w, q))
        assert time.perf_counter() - start < 0.01
        assert (err.value.check, err.value.detail) == (
            "structure", "q is not the least prime other than p")

    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_q_below_two_fails_divisibility(self, q):
        # No least exponent exists for such q; the verifier must not let
        # the valuation's ValueError escape.
        w = make_witness(HEIS, 2)._replace(q=q)
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, w)
        assert err.value.check == "divisibility"

    def test_huge_n_refused_before_its_power(self):
        # 3^(10^8) would take seconds to compute.
        w = make_witness(HEIS, 2)._replace(n=10**8)
        start = time.perf_counter()
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(HEIS, w)
        assert time.perf_counter() - start < 0.01
        assert err.value.check == "divisibility"

    @pytest.mark.parametrize("spec", [HEIS, ut4_spec()], ids=["heisenberg", "ut4"])
    def test_root_check_refuses_a_pair_built_one_exponent_short(self, monkeypatch, spec):
        # make_witness and the n check both take n one below the least
        # rootless exponent, so the report is consistent and only the root
        # check can tell that c has a q^n-th root.  ut4 has no class-2
        # check behind it.
        real = separability._least_rootless_exponent
        monkeypatch.setattr(separability, "_least_rootless_exponent",
                            lambda *args: real(*args) - 1)
        w = make_witness(spec, 2)
        with pytest.raises(VerificationFailed) as err:
            verify_witness_global(spec, w)
        assert (err.value.check, err.value.detail) == (
            "divisibility", f"c has a {w.q**w.n}-th root in the centre; the pair is conjugate")


class TestVerifyWitnessLocal:
    def test_heisenberg_p2_levels(self):
        w = make_witness(HEIS, 2)
        for m in range(1, 9):
            check = verify_witness_local(HEIS, w, m)
            assert check.k == mod_inverse(3, 2**m)
            assert check.k == pow(3, -1, 2**m)
            assert check.bfs_checked == (m <= 3)

    def test_level_one_uses_b_itself(self):
        w = make_witness(HEIS, 2)
        check = verify_witness_local(HEIS, w, 1)
        assert check.k == 1
        assert check.conjugator == w.b

    def test_level_three_exponent(self):
        w = make_witness(HEIS, 2)
        assert verify_witness_local(HEIS, w, 3).k == 3

    def test_p3_level_two(self):
        w = make_witness(HEIS, 3)
        check = verify_witness_local(HEIS, w, 2)
        assert check.k == mod_inverse(2, 9) == 5

    def test_conjugation_identity_exact(self):
        w = make_witness(HEIS, 2)
        for m in (1, 2, 3, 4):
            check = verify_witness_local(HEIS, w, m)
            g = check.conjugator
            assert reduce_mod(g.inverse() * w.u * g, 2, m) == reduce_mod(w.v, 2, m)

    def test_witness_builds_only_the_top_orbit_checked_level(self, capsys):
        # Levels 1-3 of heisenberg mod 2^m fit the default cap of 2048.  Only
        # level 3 is built and searched; levels 1 and 2 are cross-checked by
        # its conjugator, reduced.
        congruence_quotient.cache_clear()
        argv = ["witness", "--preset", "heisenberg", "-p", "2", "-K", "6", "--json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        info = congruence_quotient.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_max_order_is_not_a_parameter(self):
        w = make_witness(HEIS, 2)
        with pytest.raises(TypeError):
            verify_witness_local(HEIS, w, 1, max_order=10**6)

    def test_exponent_from_a_wrong_n_fails_the_explicit_conjugator(self):
        # With n = 2 the exponent is 9^-1 mod 2^m, but u = a^3, so b^k takes
        # u to u c^(3k), which is v mod 2 and not mod 4.
        tampered = make_witness(HEIS, 2)._replace(n=2)
        verify_witness_local(HEIS, tampered, 1)
        with pytest.raises(LocalCheckFailed, match="explicit conjugator fails at level 2"):
            verify_witness_local(HEIS, tampered, 2)

    @pytest.mark.parametrize("m", [0, -1])
    def test_level_below_one_raises(self, m):
        w = make_witness(HEIS, 2)
        with pytest.raises(ValueError, match=f"level must be >= 1, got {m}"):
            verify_witness_local(HEIS, w, m)

    @pytest.mark.parametrize("spec_maker,p", [(ut4_spec, 2), (ut4_spec, 3), (heis5_spec, 2)])
    def test_higher_rank_groups(self, spec_maker, p):
        spec = spec_maker()
        w = make_witness(spec, p)
        assert verify_witness_global(spec, w).passed
        for m in range(1, 7):
            verify_witness_local(spec, w, m)


def _thrice_the_order(group):
    group.order *= 3
    return group


class TestSeparateElements:
    def test_torsion_branch(self):
        group = preset("zxd4")
        zero = coords_to_element(group.matrix_part, (0,))
        cert = separate_elements(group, (zero, (1, 0)), (zero, (0, 1)), 2)
        assert cert.branch == "torsion-part"
        assert cert.level == 1
        assert cert.quotient.order == 16
        assert prime_power_exponent(cert.quotient.order, 2) is not None

    def test_abelian_branch(self):
        group = preset("z")
        one = coords_to_element(group.matrix_part, (1,))
        three = coords_to_element(group.matrix_part, (3,))
        f = group.finite_part.identity
        cert = separate_elements(group, (one, f), (three, f), 2)
        assert cert.branch == "abelian-part"
        assert cert.level == 2
        assert cert.quotient.order == 4

    def test_conjugate_pair_raises_with_conjugator(self):
        group = preset("zxd4")
        five = coords_to_element(group.matrix_part, (5,))
        with pytest.raises(AreConjugate) as err:
            separate_elements(group, (five, (1, 0)), (five, (3, 0)), 2)
        mpart, fpart = err.value.conjugator
        d4 = group.finite_part
        assert d4.mul(d4.inverse(fpart), d4.mul((1, 0), fpart)) == (3, 0)

    def test_torsion_not_p_group(self):
        group = preset("zxc3")
        zero = coords_to_element(group.matrix_part, (0,))
        with pytest.raises(NotApplicable):
            separate_elements(group, (zero, 0), (zero, 1), 2)

    def test_nonabelian_matrix_part(self):
        group = preset("heisxc2")
        ident = UTMatrix.identity(3)
        with pytest.raises(NotApplicable):
            separate_elements(group, (ident, 0), (ident, 1), 2)

    @pytest.mark.parametrize("name, wrong, detail", [
        ("direct_product", lambda *args, **kwargs: _thrice_the_order(direct_product(*args, **kwargs)),
         "quotient order is not a p-power"),
        ("conjugate_in_finite", lambda group, x, y: ConjugacyAnswer(True, group.identity),
         "images are conjugate in the quotient"),
    ], ids=["order", "search"])
    def test_certificate_rechecks(self, monkeypatch, name, wrong, detail):
        # A quotient of the wrong order, or an orbit search that calls the
        # images conjugate, must not make a certificate.
        monkeypatch.setattr(separability, name, wrong)
        group = preset("zxd4")
        zero = coords_to_element(group.matrix_part, (0,))
        with pytest.raises(VerificationFailed) as err:
            separate_elements(group, (zero, (1, 0)), (zero, (0, 1)), 2)
        assert (err.value.check, err.value.detail) == ("certificate", detail)

    def test_image_outside_the_quotient_raises(self):
        # <I+2E01> over Z: I+E01 lies outside it, and its image mod 2 lies
        # outside the trivial level-1 quotient.
        twice = [[1, 2], [0, 1]]
        group = load_spec({"name": "2Z", "n": 2, "generators": [twice],
                           "center_gens": [twice], "declared_class": 1})
        e = group.finite_part.identity
        a, b = (UTMatrix([[1, 1], [0, 1]]), e), (UTMatrix.identity(2), e)
        with pytest.raises(ValueError, match="^matrix coordinates lie outside the generated group$"):
            separate_elements(group, a, b, 2)


class TestScanTower:
    def test_witness_pair_conjugate_everywhere(self):
        w = make_witness(HEIS, 2)
        scan = scan_tower(HEIS, w.u, w.v, 2, 6, witness=w)
        assert scan.separated_at is None
        assert scan.summary == "conjugate at all 6 levels"
        methods = [lv.method for lv in scan.levels]
        assert methods[:3] == ["orbit", "orbit", "orbit"]
        assert set(methods[3:]) == {"witness-conjugator"}

    def test_witness_pair_scans_alike_in_either_order(self):
        # Levels 1-3 fit the default cap; the level-3 conjugator, reduced,
        # checks levels 1 and 2.  It takes u to v, so a scan of (v, u) must
        # not hand it over as if it took v to u: c^2 is not 1 mod 4.
        w = make_witness(HEIS, 2)
        forward = scan_tower(HEIS, w.u, w.v, 2, 4, witness=w)
        backward = scan_tower(HEIS, w.v, w.u, 2, 4, witness=w)
        assert [lv.method for lv in forward.levels] == ["orbit"] * 3 + ["witness-conjugator"]
        assert backward == forward

    def test_witness_pair_at_another_prime_is_scanned_as_a_plain_pair(self, monkeypatch):
        # The witness's conjugator works mod 2^m; scanned mod 3^k the pair is
        # an ordinary pair, and u = I + 3*E01 is the identity mod 3.
        w = make_witness(HEIS, 2)
        assert w.q == 3
        calls = []
        real = separability.verify_witness_local
        monkeypatch.setattr(
            separability,
            "verify_witness_local",
            lambda *a, **kw: calls.append(a) or real(*a, **kw),
        )
        scan = scan_tower(HEIS, w.u, w.v, 3, 2, witness=w)
        plain = scan_tower(HEIS, w.u, w.v, 3, 2)
        assert calls == []
        assert scan.separated_at == 1
        assert scan.levels[0].method == "identity-image"
        assert all(lv.check is None for lv in scan.levels)
        assert scan == plain

    def test_central_element_separates_at_residual_depth(self):
        c = HEIS.center_gens[0]
        ident = UTMatrix.identity(3)
        scan = scan_tower(HEIS, ident, c, 2, 3)
        assert scan.separated_at == 1 == residual_depth(c, 2)
        scan8 = scan_tower(HEIS, ident, c**8, 2, 6)
        assert scan8.separated_at == 4 == residual_depth(c**8, 2)
        assert scan8.summary == "separated at level 4"

    def test_equal_elements(self):
        x = heis(1, 2, 3)
        scan = scan_tower(HEIS, x, x, 2, 4)
        assert scan.separated_at is None
        assert all(lv.method == "equal-images" for lv in scan.levels)

    def test_size_limited_levels_reported(self):
        # Over the cap a class-2 pair is decided by its Smith form; a class-3
        # pair stays skipped, with the level's size against the cap.
        scan = scan_tower(HEIS, heis(1, 0, 0), heis(0, 1, 0), 2, 3, max_order=1)
        assert [lv.method for lv in scan.levels] == ["class2-smith"] + ["separated-below"] * 2
        assert scan.separated_at == 1
        ut4 = ut4_spec()
        x = coords_to_element(ut4, (1, 0, 0, 0, 0, 0))
        scan = scan_tower(ut4, x, coords_to_element(ut4, (1, 0, 0, 0, 0, 1)), 2, 3, max_order=1)
        assert [(lv.method, lv.note) for lv in scan.levels] == [
            ("skipped", f"size limit: UT(4) mod 2^{k} has {2 ** (6 * k)} elements > cap 1")
            for k in (1, 2, 3)
        ]
        assert scan.summary == "conjugate at every decided level; undecided at [1, 2, 3]"

    def test_inputs_outside_the_group_stay_skipped_over_the_cap(self):
        # x has an entry at (1, 2), which no element of heis5 has, so it
        # does not sift along the Mal'cev basis; the double Heisenberg spec
        # has no basis to sift along.  Neither gets a Smith verdict.
        heis5 = heis5_spec()
        x = UTMatrix.from_entries(4, {(0, 1): 1, (1, 2): 1})
        double = double_heisenberg_spec()
        a1 = double.generators[0]
        for spec, x, y in ((heis5, x, x * heis5.center_gens[0]),
                           (double, a1, a1 * double.center_gens[0])):
            scan = scan_tower(spec, x, y, 2, 2, max_order=1)
            assert [lv.method for lv in scan.levels] == ["skipped", "skipped"]
            assert all(lv.note.endswith(
                "; no class-2 verdict: x and y are not both shown to lie in the group")
                for lv in scan.levels)

    def test_baseline_pairs_conjugate_at_every_level(self):
        x, y = heis(3, 0, 0), heis(3, 0, 1)
        scan = scan_tower(HEIS, x, y, 2, 8)
        assert [lv.method for lv in scan.levels] == ["orbit"] * 3 + ["class2-smith"] * 5
        assert scan.summary == "conjugate at all 8 levels"
        # the paper's phenomenon: never separated at 2, separated at 3
        assert scan_tower(HEIS, x, y, 3, 8).separated_at == 1
        heis5 = heis5_spec()
        x = coords_to_element(heis5, (1, 0, 0, 0, 0))
        scan = scan_tower(heis5, x, coords_to_element(heis5, (1, 0, 0, 0, 1)), 2, 5)
        assert [lv.method for lv in scan.levels] == ["orbit"] + ["class2-smith"] * 4
        assert scan.summary == "conjugate at all 5 levels"

    def test_separated_level_states_its_certificate(self):
        scan = scan_tower(HEIS, heis(4, 4, 1), heis(4, 4, 3), 2, 3, max_order=8)
        assert scan.levels[1] == separability.TowerLevel(
            2, "class2-smith", False,
            "functional [-1] vanishes on the commutator lattice mod 2^2, not on x^-1 y",
        )
        scan = scan_tower(HEIS, heis(1, 0, 0), heis(1, 2, 0), 2, 3, max_order=8)
        assert scan.levels[1] == separability.TowerLevel(
            2, "class2-smith", False, "x^-1 y has entry (1, 2) nonzero mod 2^2, off the centre"
        )

    def test_smith_form_taken_once_and_only_past_what_else_decides(self, monkeypatch):
        calls = []
        real = separability.class2_tower
        monkeypatch.setattr(
            separability, "class2_tower", lambda *a: calls.append(a) or real(*a)
        )
        w = make_witness(HEIS, 2)
        scan_tower(HEIS, w.u, w.v, 2, 8, witness=w)
        scan_tower(HEIS, heis(1, 0, 0), heis(0, 1, 0), 2, 8)
        scan_tower(HEIS, heis(3, 0, 0), heis(3, 0, 1), 2, 3)
        assert calls == []
        scan_tower(HEIS, heis(3, 0, 0), heis(3, 0, 1), 2, 8)
        assert len(calls) == 1

    def test_smith_form_disagreeing_with_orbit_search_raises(self, monkeypatch):
        real = separability.class2_tower
        monkeypatch.setattr(
            separability, "class2_tower",
            lambda *a: real(*a)._replace(level=2, separator=("entry", (0, 1))),
        )
        with pytest.raises(LocalCheckFailed, match="disagree at level 2"):
            scan_tower(HEIS, heis(3, 0, 0), heis(3, 0, 1), 2, 5)

    def test_nonconjugate_pair_separates(self):
        scan = scan_tower(HEIS, heis(1, 0, 0), heis(0, 1, 0), 2, 3)
        assert scan.separated_at == 1

    def test_images_outside_the_generated_group_under_the_cap(self):
        # <I+2E01, I+2E12> is trivial mod 2 and small mod 4; the images of
        # I+E01 and I+E01+E02 lie outside both, so neither level is decided.
        spec = load_spec(OFF_GROUP_DOC).matrix_part
        x = UTMatrix.from_entries(3, {(0, 1): 1})
        y = UTMatrix.from_entries(3, {(0, 1): 1, (0, 2): 1})
        scan = scan_tower(spec, x, y, 2, 2)
        assert scan.levels == tuple(
            separability.TowerLevel(k, "skipped", None, "images outside the generated group")
            for k in (1, 2)
        )
        assert scan.summary == "conjugate at every decided level; undecided at [1, 2]"


def corner_closed_form(x, y, m) -> bool:
    """Conjugacy mod m in heisenberg and heis5, whose centre is the corner
    entry: [x, G] is spanned by the gcd of x's other entries, so x ~ y iff
    those agree mod m and the corners differ by a multiple of gcd(them, m)."""
    corner = (0, x.n - 1)
    others = [(i, j) for i in range(x.n) for j in range(i + 1, x.n) if (i, j) != corner]
    if any((x[pos] - y[pos]) % m for pos in others):
        return False
    return (y[corner] - x[corner]) % gcd(m, *(x[pos] for pos in others)) == 0


def reference_scan(spec, x, y, p, depth, cap):
    """Each level decided on its own: equal images, an identity image, orbit
    search when UT(n) mod p^k has order at most cap and both images lie in
    the quotient, the closed form over the cap in class 2, and None for a
    level it leaves undecided."""
    out = []
    for k in range(1, depth + 1):
        rx, ry = reduce_mod(x, p, k), reduce_mod(y, p, k)
        if rx == ry:
            out.append(True)
        elif rx.is_identity() or ry.is_identity():
            out.append(False)
        elif p ** (k * spec.n * (spec.n - 1) // 2) > cap:
            out.append(corner_closed_form(x, y, p**k) if spec.declared_class <= 2 else None)
        else:
            quot, _ = congruence_quotient(spec, p, k, max(cap, 2))
            in_quot = rx in quot and ry in quot
            out.append(conjugate_in_finite(quot, rx, ry).conjugate if in_quot else None)
    return out


@st.composite
def scan_cases(draw):
    name = draw(st.sampled_from(["heisenberg", "heis5", "ut4"]))
    spec = preset(name).matrix_part
    p = draw(st.sampled_from([2, 3]))
    size = len(spec.malcev_basis)
    coords = st.lists(st.integers(-9, 9), min_size=size, max_size=size)
    x = coords_to_element(spec, draw(coords))
    kind = draw(st.sampled_from(["conjugate", "near", "near", "random"]))
    if kind == "random":
        y = coords_to_element(spec, draw(coords))
    else:
        # A conjugate of x, or one times h^(p^e), which is often conjugate to
        # x at the low levels and not above them.
        g = coords_to_element(spec, draw(coords))
        y = g.inverse() * x * g
        if kind == "near":
            y = y * coords_to_element(spec, draw(coords)) ** (p ** draw(st.integers(1, 2)))
    depth = draw(st.integers(1, 4))
    cap = draw(st.sampled_from([1, 64, 512, 4096, 20000]))
    return spec, x, y, p, depth, cap


class TestScanAgainstEveryLevelSearch:
    """The scan searches the top level under the cap first and derives the
    others from it where it can, and decides class-2 levels over the cap by
    one Smith form; each level must say what searching every level under
    the cap, and the closed form over it, say."""

    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_scan_agrees_level_by_level(self, case):
        spec, x, y, p, depth, cap = case
        scan = scan_tower(spec, x, y, p, depth, max_order=cap)
        reference = reference_scan(spec, x, y, p, depth, cap)
        for lv, expected in zip(scan.levels, reference):
            if expected is not None:
                assert lv.conjugate == expected, (lv, expected)
            elif lv.conjugate is not None:
                assert lv.method == "separated-below" and lv.conjugate is False
                assert scan.separated_at < lv.level
                assert reference[scan.separated_at - 1] is False
        first = next((k for k, v in enumerate(reference, 1) if v is False), None)
        assert scan.separated_at == first


class TestResidualDepth:
    def test_unit_entry(self):
        assert residual_depth(heis(1, 0, 0), 2) == 1

    def test_central_power(self):
        c = HEIS.center_gens[0]
        assert residual_depth(c**8, 2) == 4

    def test_identity_rejected(self):
        with pytest.raises(IdentityElement):
            residual_depth(UTMatrix.identity(3), 2)

    def test_random_elements_match_valuation(self):
        rng = random.Random(5)
        for _ in range(100):
            coords = [rng.randint(-64, 64) for _ in range(3)]
            if not any(coords):
                coords[0] = 1
            g = heis(*coords)
            for p in (2, 3):
                depth = residual_depth(g, p)
                entries = [v for _, v in g.strict_upper_items()]
                assert depth == 1 + min(valuation(v, p) for v in entries)
                assert reduce_mod(g, p, depth) != reduce_mod(
                    UTMatrix.identity(3), p, depth
                )
                if depth > 1:
                    assert reduce_mod(g, p, depth - 1).is_identity()


class TestCriterionConsistency:
    """Every verdict must be backed by constructive evidence."""

    @pytest.mark.parametrize("name", sorted(preset_names()))
    @pytest.mark.parametrize("p", [2, 3])
    def test_evidence(self, name, p):
        group = preset(name)
        verdict = classify(group, p)
        if not verdict.separable:
            if not verdict.quotient_abelian:
                w = make_witness(group.matrix_part, p)
                assert verify_witness_global(group.matrix_part, w).passed
            else:
                assert prime_power_exponent(group.finite_part.order, p) is None
        else:
            spec = group.matrix_part
            torsion = group.finite_part
            rng = random.Random(hash((name, p)) & 0xFFFF)
            rank = len(spec.malcev_basis)
            for _ in range(25):
                ca = [rng.randint(-3, 3) for _ in range(rank)]
                cb = [rng.randint(-3, 3) for _ in range(rank)]
                fa = torsion.elements[rng.randrange(torsion.order)]
                fb = torsion.elements[rng.randrange(torsion.order)]
                a = (coords_to_element(spec, ca), fa)
                b = (coords_to_element(spec, cb), fb)
                if conjugate_in_product(group, a, b).conjugate:
                    continue
                cert = separate_elements(group, a, b, p)
                assert prime_power_exponent(cert.quotient.order, p) is not None
                assert not conjugate_in_finite(cert.quotient, *cert.images).conjugate
