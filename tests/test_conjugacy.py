import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsep.conjugacy import (
    CosetAnswer,
    CosetDecision,
    CosetQuery,
    class2_conjugate,
    class2_tower,
    conjugate_in_finite,
    conjugate_in_product,
    coset_conjugacy_separable,
    enumerate_p_quotient_kernels,
    is_conjugacy_p_separable,
    quotient_coset_equivalence,
)
from conjsep import conjugacy, separability
from conjsep.errors import ClassTooHigh, NonAbelianPart, SizeLimit, VerificationFailed
from conjsep.finite import (
    FiniteGroup,
    cyclic,
    dihedral4,
    direct_product,
    finite_closure,
    quaternion8,
    sym3,
)
from conjsep.groupspec import (
    MatrixGroupSpec,
    congruence_quotient,
    coords_to_element,
    element_coords,
    heis5_spec,
    heisenberg_spec,
    preset,
    ut4_spec,
    verify_spec,
)
from conjsep.intlin import IntMatrix, valuation
from conjsep.unitri import ResidueUT, UTMatrix, reduce_mod

from _oracles import (
    brute_conjugate,
    reference_conjugate,
    reference_is_conjugacy_p_separable,
    reference_separate_from_coset,
)

HEIS = heisenberg_spec()


def heis(x, y, z):
    return coords_to_element(HEIS, (x, y, z))


def heis_quotient(p, k):
    return finite_closure([reduce_mod(g, p, k) for g in HEIS.generators])


class TestOrbitSearch:
    def test_equal_elements(self):
        d4 = dihedral4()
        ans = conjugate_in_finite(d4, (1, 0), (1, 0))
        assert ans.conjugate and ans.conjugator == d4.identity

    def test_ut3_mod8_central_shift(self):
        group = heis_quotient(2, 3)
        x = reduce_mod(heis(3, 0, 0), 2, 3)
        y = reduce_mod(heis(3, 0, 1), 2, 3)
        ans = conjugate_in_finite(group, x, y)
        assert ans.conjugate
        g = ans.conjugator
        assert g.inverse() * x * g == y

    def test_d4_rotation_vs_reflection(self):
        d4 = dihedral4()
        r, s = (1, 0), (0, 1)
        assert not conjugate_in_finite(d4, r, s).conjugate

    def test_matches_brute_force(self):
        for group in (sym3(), dihedral4(), quaternion8()):
            for x in group.elements:
                for y in group.elements:
                    ans = conjugate_in_finite(group, x, y)
                    assert ans.conjugate == brute_conjugate(group, x, y)
                    if ans.conjugate:
                        g = ans.conjugator
                        assert group.mul(group.inverse(g), group.mul(x, g)) == y

    def test_requires_membership(self):
        with pytest.raises(KeyError):
            conjugate_in_finite(dihedral4(), (1, 0), "nope")

    def test_y_outside_the_group_raises_on_a_miss_and_on_a_hit(self):
        group = heis_quotient(2, 2)
        x = reduce_mod(heis(1, 0, 0), 2, 2)
        # Mod 4 a c is conjugate to a, so the orbit of x reaches the rows of
        # a c mod 2; that y lives mod 2 and must not be taken for them.
        assert conjugate_in_finite(group, x, reduce_mod(heis(1, 0, 1), 2, 2)).conjugate
        hit = reduce_mod(heis(1, 0, 1), 2, 1)
        miss = reduce_mod(heis(0, 1, 0), 2, 1)
        for y in (hit, miss, "nope"):
            with pytest.raises(KeyError):
                conjugate_in_finite(group, x, y)
            assert separability._search(group, x, y) is None
        with pytest.raises(KeyError):
            conjugate_in_finite(group, hit, x)

    def test_y_of_another_size_modulus_kind_or_type_raises_key_error(self):
        group = heis_quotient(2, 2)
        x = reduce_mod(heis(1, 0, 0), 2, 2)
        hit = heis(1, 0, 1)  # its point (1, 1, 0) is in the orbit of x mod 4
        assert conjugate_in_finite(group, x, reduce_mod(hit, 2, 2)).conjugate
        others = [
            reduce_mod(UTMatrix.from_entries(4, {(0, 1): 1, (0, 3): 1}), 2, 2),
            ResidueUT([[1, 1], [0, 1]], 2, 2),
            reduce_mod(hit, 3, 1),
            reduce_mod(hit, 2, 3),
            hit,
            hit.upper_entries(),
            hit.rows,
            7,
            None,
        ]
        for y in others:
            with pytest.raises(KeyError):
                conjugate_in_finite(group, x, y)
            assert separability._search(group, x, y) is None

    def test_y_is_sifted_only_when_the_orbit_misses_it(self):
        group = finite_closure([reduce_mod(g, 2, 2) for g in heis5_spec().generators])
        sifted = []
        contains = group._contains
        group._contains = lambda e: sifted.append(e) or contains(e)
        x, y = group.generators[0], group.generators[1]
        g = x * y
        assert conjugate_in_finite(group, x, g.inverse() * x * g).conjugate
        assert sifted == [x]
        sifted.clear()
        assert not conjugate_in_finite(group, x, y).conjugate
        assert sifted == [x, y]


def seeded_pairs(group, seed, count=40):
    """(x, y) pairs of group elements: about half y = g^-1 x g for a random g,
    the rest y drawn at random."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        x = rng.choice(group.elements)
        if rng.random() < 0.5:
            g = rng.choice(group.elements)
            pairs.append((x, g.inverse() * x * g))
        else:
            pairs.append((x, rng.choice(group.elements)))
    return pairs


RESIDUE_QUOTIENTS = {
    "heisenberg-2^3": lambda: heis_quotient(2, 3),
    "heis5-3": lambda: finite_closure([reduce_mod(g, 3, 1) for g in heis5_spec().generators]),
    "ut4-2^2": lambda: finite_closure([reduce_mod(g, 2, 2) for g in ut4_spec().generators]),
}


class TestResidueOrbitSearch:
    """Orbit search in residue-matrix groups conjugates on flat points; it must
    answer exactly as a general-product search and keep the re-check."""

    @pytest.mark.parametrize("name", sorted(RESIDUE_QUOTIENTS))
    def test_matches_general_product_reference(self, name):
        group = RESIDUE_QUOTIENTS[name]()
        pairs = seeded_pairs(group, seed=sorted(RESIDUE_QUOTIENTS).index(name))
        flags = set()
        for x, y in pairs:
            ans = conjugate_in_finite(group, x, y)
            assert (ans.conjugate, ans.conjugator, ans.word) == reference_conjugate(group, x, y)
            flags.add(ans.conjugate)
        assert flags == {True, False}

    def test_products_are_the_recheck_only(self, monkeypatch):
        group = heis_quotient(2, 3)
        pairs = seeded_pairs(group, seed=7)
        general = ResidueUT.__mul__
        calls = []

        def counted(a, b):
            calls.append(1)
            return general(a, b)

        monkeypatch.setattr(ResidueUT, "__mul__", counted)
        seen = set()
        for x, y in pairs:
            calls.clear()
            ans = conjugate_in_finite(group, x, y)
            seen.add(ans.conjugate)
            if not ans.conjugate:
                assert calls == []
            else:
                path = ans.word.split("*") if ans.word else []
                assert len(calls) <= len(path) + 2
        assert seen == {True, False}


class TestClass2Criterion:
    def test_witness_pair_not_conjugate(self):
        # x^-1 y = c and [x, G] = 3Z inside the centre; 1 is not in 3Z
        ans = class2_conjugate(HEIS, heis(3, 0, 0), heis(3, 0, 1))
        assert not ans.conjugate
        assert ans.method == "class2-lattice"

    def test_generator_shift_conjugate(self):
        ans = class2_conjugate(HEIS, heis(1, 0, 0), heis(1, 0, 1))
        assert ans.conjugate
        assert ans.conjugator == HEIS.generators[1]
        assert ans.word == "b"

    def test_equal_elements(self):
        x = heis(2, -1, 5)
        ans = class2_conjugate(HEIS, x, x)
        assert ans.conjugate and ans.conjugator.is_identity()

    def test_class_too_high(self):
        ut4 = ut4_spec()
        with pytest.raises(ClassTooHigh):
            class2_conjugate(ut4, ut4.generators[0], ut4.generators[1])

    def test_conjugator_reverifies(self):
        rng = random.Random(7)
        for _ in range(50):
            x = heis(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            t = rng.randint(-6, 6)
            y = x * HEIS.center_gens[0] ** t
            ans = class2_conjugate(HEIS, x, y)
            if ans.conjugate:
                g = ans.conjugator
                assert g.inverse() * x * g == y

    def test_commutator_outside_center_raises(self):
        gen = UTMatrix.from_entries(4, {(0, 1): 1})
        spec = MatrixGroupSpec(
            name="line", n=4, generators=(gen,), center_gens=(gen,),
            z2_rep=None, declared_class=1,
        )
        stranger = UTMatrix.from_entries(4, {(1, 2): 1})
        with pytest.raises(ValueError):
            class2_conjugate(spec, stranger, stranger * UTMatrix.from_entries(4, {(0, 2): 1}))


class TestProductConjugacy:
    def test_same_coordinate_different_torsion(self):
        group = preset("zxd4")
        zero = coords_to_element(group.matrix_part, (0,))
        r, s = (1, 0), (0, 1)
        assert not conjugate_in_product(group, (zero, r), (zero, s)).conjugate

    def test_rotation_inverse_conjugate(self):
        group = preset("zxd4")
        five = coords_to_element(group.matrix_part, (5,))
        r, r3 = (1, 0), (3, 0)
        ans = conjugate_in_product(group, (five, r), (five, r3))
        assert ans.conjugate

    def test_identical_pair(self):
        group = preset("zxd4")
        elt = (coords_to_element(group.matrix_part, (2,)), (1, 1))
        assert conjugate_in_product(group, elt, elt).conjugate

    def test_nonabelian_part_rejected(self):
        group = preset("heisxc2")
        ident = UTMatrix.identity(3)
        with pytest.raises(NonAbelianPart):
            conjugate_in_product(group, (ident, 0), (ident, 1))

    def test_agrees_with_orbit_search_in_truncation(self):
        # reduce the free coordinate mod 3^5 (coprime to |D4|, no wraparound
        # for coordinates this small) and compare with plain orbit search
        group = preset("zxd4")
        d4 = group.finite_part
        spec = group.matrix_part
        truncated = direct_product(
            finite_closure([reduce_mod(g, 3, 5) for g in spec.generators]), d4
        )
        rng = random.Random(11)
        for _ in range(100):
            m1, m2 = rng.randint(-5, 5), rng.randint(-5, 5)
            f1 = d4.elements[rng.randrange(d4.order)]
            f2 = d4.elements[rng.randrange(d4.order)]
            a = (coords_to_element(spec, (m1,)), f1)
            b = (coords_to_element(spec, (m2,)), f2)
            expected = conjugate_in_product(group, a, b).conjugate
            ta = (reduce_mod(a[0], 3, 5), f1)
            tb = (reduce_mod(b[0], 3, 5), f2)
            assert conjugate_in_finite(truncated, ta, tb).conjugate == expected


class TestKernelEnumeration:
    def test_s3_p2(self):
        s3 = sym3()
        kernels = enumerate_p_quotient_kernels(s3, 2)
        assert sorted(len(k) for k in kernels) == [3, 6]

    def test_s3_p5(self):
        s3 = sym3()
        kernels = enumerate_p_quotient_kernels(s3, 5)
        assert [len(k) for k in kernels] == [6]

    def test_p_group_has_trivial_kernel(self):
        q8 = quaternion8()
        kernels = enumerate_p_quotient_kernels(q8, 2)
        assert frozenset({q8.identity}) in kernels
        assert frozenset(q8.elements) in kernels
        # Each call lists the same kernels again.
        assert enumerate_p_quotient_kernels(q8, 2) == kernels
        assert enumerate_p_quotient_kernels(q8, 3) == (frozenset(q8.elements),)

    def test_budget(self):
        with pytest.raises(SizeLimit):
            enumerate_p_quotient_kernels(cyclic(1024), 2)

    @pytest.mark.parametrize("p", [4, 6, 1, 0, -2])
    def test_non_prime_p_rejected(self, p):
        d4 = dihedral4()
        with pytest.raises(ValueError, match="prime"):
            enumerate_p_quotient_kernels(d4, p)
        with pytest.raises(ValueError, match="prime"):
            is_conjugacy_p_separable(d4, p)
        with pytest.raises(ValueError, match="prime"):
            quotient_coset_equivalence(d4, frozenset({d4.identity}), p)
        # A probe conjugate into its coset used to answer VACUOUS for any p.
        with pytest.raises(ValueError, match="prime"):
            CosetQuery(d4, frozenset({d4.identity}), d4.identity, d4.identity, p)
        assert p not in d4._residuals


class TestCosetSeparability:
    def test_s3_transposition_vs_a3(self):
        s3 = sym3()
        a3 = next(n for n in s3.normal_subgroups() if len(n) == 3)
        transposition = (1, 0, 2)
        ans = coset_conjugacy_separable(
            CosetQuery(s3, a3, s3.identity, transposition, 2)
        )
        assert ans.decision is CosetDecision.YES
        assert ans.kernel == a3

    def test_s3_three_cycle_vs_identity_coset(self):
        s3 = sym3()
        triv = frozenset({s3.identity})
        ans = coset_conjugacy_separable(
            CosetQuery(s3, triv, s3.identity, (1, 2, 0), 2)
        )
        assert ans.decision is CosetDecision.NO

    def test_vacuous_when_conjugate_into_coset(self):
        s3 = sym3()
        a3 = next(n for n in s3.normal_subgroups() if len(n) == 3)
        ans = coset_conjugacy_separable(
            CosetQuery(s3, a3, s3.identity, (1, 2, 0), 2)
        )
        assert ans.decision is CosetDecision.VACUOUS

    def test_rejects_non_normal_subgroup(self):
        d4 = dihedral4()
        with pytest.raises(ValueError):
            CosetQuery(d4, frozenset({d4.identity, (0, 1)}), d4.identity, (1, 0), 2)

    def test_a_modified_copy_is_checked_as_a_new_query(self):
        d4 = dihedral4()
        query = CosetQuery(d4, [d4.identity], d4.identity, (1, 0), 2)
        assert query._replace(probe=(0, 1)).subgroup_n == frozenset({d4.identity})
        with pytest.raises(ValueError, match="normal"):
            query._replace(subgroup_n={d4.identity, (0, 1)})
        with pytest.raises(ValueError, match="prime"):
            query._replace(p=4)


COSET_GROUPS = {
    "D4": dihedral4,
    "Q8": quaternion8,
    "D4xC2": lambda: direct_product(dihedral4(), cyclic(2)),
    "heisenberg mod 4": lambda: heis_quotient(2, 2),
}


def coset_answers(group, p):
    """The coset-separability answer of every (coset, probe) pair over every
    normal subgroup, cosets read off the cached quotients."""
    return [
        coset_conjugacy_separable(CosetQuery(group, nsub, rep, probe, p))
        for nsub in group.normal_subgroups()
        for rep in group.quotient(nsub)[1].section.values()
        for probe in group.elements
    ]


def reference_coset_answers(group, p):
    return [
        reference_separate_from_coset(group, coset, probe, p)
        for nsub in group.normal_subgroups()
        for coset in group.quotient(nsub)[0].elements
        for probe in group.elements
    ]


NON_P_GROUPS = {
    "S3xS3": lambda: direct_product(sym3(), sym3()),
    "D4xS3": lambda: direct_product(dihedral4(), sym3()),
    "C12": lambda: cyclic(12),
}


class TestTrivialKernelShortcut:
    """In a p-group O^p(G) is trivial, so every probe of the coset layer is
    decided by the trivial kernel or the vacuous test, with no kernel listed
    and no quotient built; the older kernel loop stays in the tests as the
    oracle."""

    @pytest.mark.parametrize("name", sorted(COSET_GROUPS))
    def test_answers_match_the_kernel_loop(self, name):
        group = COSET_GROUPS[name]()
        answers = coset_answers(group, 2)
        assert answers == reference_coset_answers(group, 2)
        assert {a.decision for a in answers} == {CosetDecision.YES, CosetDecision.VACUOUS}
        assert all(a.kernel == {group.identity} for a in answers if a.decision is CosetDecision.YES)
        assert is_conjugacy_p_separable(group, 2) == (True, None)

    def test_p_groups_list_no_normal_subgroups(self, monkeypatch):
        group = direct_product(direct_product(quaternion8(), cyclic(2)), cyclic(2))
        nsub = next(n for n in group.normal_subgroups() if len(n) == 2)
        quot, _ = group.quotient(nsub)
        coset = quot.elements[0]
        probe = next(x for x in group.elements if group.class_of(x).isdisjoint(coset))

        def unlisted(self):
            raise AssertionError(f"{self.name} listed its normal subgroups")

        monkeypatch.setattr(FiniteGroup, "normal_subgroups", unlisted)
        assert is_conjugacy_p_separable(quot, 2) == (True, None)
        answer = coset_conjugacy_separable(CosetQuery(group, nsub, next(iter(coset)), probe, 2))
        assert answer == CosetAnswer(CosetDecision.YES, frozenset({group.identity}))

    def test_p_group_decided_past_the_kernel_budget(self):
        # Only the kernel listing has a budget.
        big = cyclic(1024)
        assert is_conjugacy_p_separable(big, 2) == (True, None)
        answer = coset_conjugacy_separable(CosetQuery(big, frozenset({0}), 0, 1, 2))
        assert answer == CosetAnswer(CosetDecision.YES, frozenset({0}))

    @pytest.mark.parametrize("name", sorted(COSET_GROUPS))
    def test_p_group_equivalence_takes_no_coset_loop(self, name, monkeypatch):
        # The left side of a p-group is read off its order: the report is
        # the one a loop of the older kernel search over every (coset,
        # probe) pair gives, and no pair is asked.
        group = COSET_GROUPS[name]()

        def unasked(group, coset, probe, p):
            raise AssertionError(f"{group.name} asked a coset for a probe")

        for nsub in group.normal_subgroups():
            quot, _ = group.quotient(nsub)
            left = all(
                reference_separate_from_coset(group, coset, probe, 2).decision
                is not CosetDecision.NO
                for coset in quot.elements
                for probe in group.elements
            )
            right, _ = reference_is_conjugacy_p_separable(quot, 2)
            expected = conjugacy.EquivalenceReport(group.name, 2, left, right, left == right)
            with monkeypatch.context() as patch:
                patch.setattr(conjugacy, "_separate_from_coset", unasked)
                assert quotient_coset_equivalence(group, nsub, 2) == expected

    def test_equivalence_decided_past_the_kernel_budget(self):
        big = cyclic(1024)
        for nsub in ({0}, {0, 512}, big.elements):
            report = quotient_coset_equivalence(big, frozenset(nsub), 2)
            assert report.all_cosets_separable and report.quotient_separable and report.holds

    def test_equivalence_builds_no_trivial_quotient(self):
        # A p-group's equivalence only checks that N is normal: it builds
        # neither G/1 nor G/N, and a non-normal N raises as `quotient` does.
        group = heis_quotient(2, 2)
        nsub = next(n for n in group.normal_subgroups() if len(n) == 4)
        report = quotient_coset_equivalence(group, nsub, 2)
        assert report == conjugacy.EquivalenceReport(group.name, 2, True, True, True)
        assert frozenset({group.identity}) not in group._quotients
        assert nsub not in group._quotients
        involution = next(x for x in group.elements
                          if x != group.identity and group.mul(x, x) == group.identity
                          and not group.is_normal({group.identity, x}))
        with pytest.raises(ValueError, match="quotient requested by a non-normal subset"):
            quotient_coset_equivalence(group, {group.identity, involution}, 2)
        assert group._quotients == {}


class TestLargestPQuotient:
    """Every quotient of G of p-power order is a quotient of G/O^p(G), so in
    a group that is no p-group the coset layer decides each probe by O^p(G)
    alone, with no kernel listed and no quotient built; the older kernel
    loop stays in the tests as the oracle."""

    @pytest.mark.parametrize("name", sorted(NON_P_GROUPS))
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_one_quotient_matches_the_kernel_loop(self, name, p):
        group = NON_P_GROUPS[name]()
        assert coset_answers(group, p) == reference_coset_answers(group, p)
        assert group.p_residual(p) == enumerate_p_quotient_kernels(group, p)[0]
        assert is_conjugacy_p_separable(group, p) == reference_is_conjugacy_p_separable(group, p)

    @pytest.mark.parametrize("make", [sym3, lambda: cyclic(6)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_non_p_groups_decide_without_quotients(self, make, p, monkeypatch):
        # Each decision gives the older kernel loop's answer with no kernel
        # listed and no quotient built.
        group = make()
        assert len(enumerate_p_quotient_kernels(group, p)[0]) > 1
        cases = [(CosetQuery(group, nsub, rep, probe, p), coset, probe)
                 for nsub in group.normal_subgroups()
                 for coset, rep in group.quotient(nsub)[1].section.items()
                 for probe in group.elements]
        expected = [reference_separate_from_coset(group, coset, probe, p)
                    for _, coset, probe in cases]
        pair = reference_is_conjugacy_p_separable(group, p)

        def unbuilt(self, *args):
            raise AssertionError(f"{self.name} built a quotient or listed its normal subgroups")

        monkeypatch.setattr(FiniteGroup, "quotient", unbuilt)
        monkeypatch.setattr(FiniteGroup, "normal_subgroups", unbuilt)
        assert [coset_conjugacy_separable(query) for query, _, _ in cases] == expected
        assert CosetAnswer(CosetDecision.NO) in expected
        assert is_conjugacy_p_separable(group, p) == pair

    def test_decisions_past_the_kernel_budget(self):
        # Heisenberg mod 8 x S3, of order 3072, is no p-group: O^2 is 1 x A3.
        group = direct_product(heis_quotient(2, 3), sym3())
        e, h = group.identity, group.generators[0]
        separable, (x, y) = is_conjugacy_p_separable(group, 2)
        assert not separable and x == e
        assert y != e and group.mul(y, group.mul(y, y)) == e
        three_cycle, trivial = (e[0], (1, 2, 0)), frozenset({e})
        no = coset_conjugacy_separable(CosetQuery(group, trivial, e, three_cycle, 2))
        assert no == CosetAnswer(CosetDecision.NO)
        yes = coset_conjugacy_separable(CosetQuery(group, trivial, e, h, 2))
        assert yes.decision is CosetDecision.YES and len(yes.kernel) == 3
        with pytest.raises(SizeLimit):
            enumerate_p_quotient_kernels(group, 2)

    @pytest.mark.parametrize("make", [sym3, lambda: cyclic(6)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_other_groups_take_the_coset_loop(self, make, p, monkeypatch):
        group = make()
        calls = []
        general = conjugacy._separate_from_coset

        def counted(*args):
            calls.append(args)
            return general(*args)

        monkeypatch.setattr(conjugacy, "_separate_from_coset", counted)
        report = quotient_coset_equivalence(group, frozenset({group.identity}), p)
        assert calls
        assert report.holds


class TestEquivalence:
    def test_s3_mod_a3(self):
        s3 = sym3()
        a3 = next(n for n in s3.normal_subgroups() if len(n) == 3)
        report = quotient_coset_equivalence(s3, a3, 2)
        assert report.all_cosets_separable and report.quotient_separable
        assert report.holds

    def test_s3_mod_trivial_both_false(self):
        s3 = sym3()
        report = quotient_coset_equivalence(s3, frozenset({s3.identity}), 2)
        assert not report.all_cosets_separable and not report.quotient_separable
        assert report.holds

    def test_q8_mod_center(self):
        q8 = quaternion8()
        center = next(n for n in q8.normal_subgroups() if len(n) == 2)
        report = quotient_coset_equivalence(q8, center, 2)
        assert report.all_cosets_separable and report.quotient_separable
        assert report.holds

    @pytest.mark.parametrize("p", [2, 3])
    def test_second_call_takes_fewer_products_than_the_group_order(self, p):
        # Warm caches leave the coset equivalence nothing to multiply: each
        # coset is an element of the cached quotient, not rebuilt per probe.
        base = direct_product(dihedral4(), quaternion8(), name="D4xQ8")
        products = [0]

        def mul(x, y):
            products[0] += 1
            return base.mul(x, y)

        group = FiniteGroup(base.name, base.elements, mul, base.identity, base.generators,
                            inv=base.inverse)
        for nsub in [n for n in group.normal_subgroups() if len(n) in (2, 8)][:4]:
            first = quotient_coset_equivalence(group, nsub, p)
            products[0] = 0
            assert quotient_coset_equivalence(group, nsub, p) == first
            assert products[0] < group.order, (len(nsub), products[0])

    def test_p_group_always_separable(self):
        separable, _ = is_conjugacy_p_separable(dihedral4(), 2)
        assert separable

    def test_c6_not_2_separable(self):
        separable, pair = is_conjugacy_p_separable(cyclic(6), 2)
        assert not separable and pair is not None


def double_heisenberg_spec():
    """Two Heisenberg blocks on the diagonal of UT(6): class 2, rank-2 centre."""
    e = UTMatrix.from_entries
    return MatrixGroupSpec(
        name="heis-x-heis",
        n=6,
        generators=(
            e(6, {(0, 1): 1}),
            e(6, {(1, 2): 1}),
            e(6, {(3, 4): 1}),
            e(6, {(4, 5): 1}),
        ),
        gen_names=("a1", "b1", "a2", "b2"),
        center_gens=(e(6, {(0, 2): 1}), e(6, {(3, 5): 1})),
        center_names=("c1", "c2"),
        z2_rep=e(6, {(0, 1): 1}),
        z2_name="a1",
        declared_class=2,
    )


class TestRankTwoCentreLattice:
    """Conjugacy with a rank-2 centre, against a hand-derived closed form.

    For x = a1^p b1^q ... the commutators with the generators span
    gcd(p, q) Z x gcd(r, s) Z inside the centre, so x is conjugate to
    x c1^u c2^v exactly when each gcd divides the matching exponent.
    """

    @staticmethod
    def divides(g, t):
        return t == 0 if g == 0 else t % g == 0

    def test_verify_and_witness(self):
        from conjsep.groupspec import verify_spec
        from conjsep.separability import make_witness, verify_witness_global

        spec = double_heisenberg_spec()
        assert verify_spec(spec).passed
        w = make_witness(spec, 2)
        assert (w.q, w.n) == (3, 1)
        assert w.b_name == "b1"
        assert verify_witness_global(spec, w).passed

    def test_against_closed_form_and_orbit(self):
        from math import gcd

        spec = double_heisenberg_spec()
        a1, b1, a2, b2 = spec.generators
        c1, c2 = spec.center_gens
        quot = finite_closure([reduce_mod(g, 2, 2) for g in spec.generators])
        rng = random.Random(404)
        for _ in range(60):
            p_, q_, r_, s_ = (rng.randint(-3, 3) for _ in range(4))
            x = a1**p_ * b1**q_ * a2**r_ * b2**s_
            u, v = rng.randint(-4, 4), rng.randint(-4, 4)
            y = x * c1**u * c2**v
            expected = self.divides(gcd(p_, q_), u) and self.divides(gcd(r_, s_), v)
            ans = class2_conjugate(spec, x, y)
            assert ans.conjugate == expected, (p_, q_, r_, s_, u, v)
            if ans.conjugate:
                g = ans.conjugator
                assert g.inverse() * x * g == y
                assert conjugate_in_finite(
                    quot, reduce_mod(x, 2, 2), reduce_mod(y, 2, 2)
                ).conjugate


class TestClass2AgainstOrbitOracle:
    """The two conjugacy routes must agree where both are defined.

    YES in the full group pushes to YES in every congruence quotient; NO in
    the full group guarantees some congruence level of some prime separates
    the pair (which prime and level can be read off the coordinates).
    """

    @staticmethod
    def separating_level(x_coords, y_coords, d_central_exp):
        x1, y1, _ = x_coords
        dx = y_coords[0] - x_coords[0]
        dy = y_coords[1] - x_coords[1]
        if dx or dy:
            candidates = []
            for q in (2, 3):
                j = 1 + min(valuation(v, q) for v in (dx, dy) if v)
                candidates.append((q, j))
            return candidates
        gcd_xy = 0
        from math import gcd

        gcd_xy = gcd(x1, y1)
        t = d_central_exp
        assert t is not None
        if gcd_xy == 0:
            q = 2 if t % 2 else 3 if t % 3 else None
            if q is None:
                q = next(qq for qq in (2, 3, 5, 7) if valuation(t, qq) < 20 and t % qq**20)
            return [(q, valuation(t, q) + 1)]
        q = next(qq for qq in (2, 3, 5, 7) if valuation(gcd_xy, qq) > valuation(t, qq))
        return [(q, valuation(t, q) + 1)]

    def test_two_hundred_random_pairs(self):
        rng = random.Random(2024)
        quotients = {
            (2, 3): heis_quotient(2, 3),
            (3, 3): heis_quotient(3, 3),
        }
        c = HEIS.center_gens[0]
        for trial in range(200):
            x = heis(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            if trial % 2 == 0:
                y = x * c ** rng.randint(-6, 6)
            else:
                y = heis(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            ans = class2_conjugate(HEIS, x, y)
            if ans.conjugate:
                for (p, k), quot in quotients.items():
                    rx, ry = reduce_mod(x, p, k), reduce_mod(y, p, k)
                    assert conjugate_in_finite(quot, rx, ry).conjugate
            else:
                xc = element_coords(HEIS, x)
                yc = element_coords(HEIS, y)
                d = x.inverse() * y
                d_exp = d[0, 2] if d[0, 1] == 0 and d[1, 2] == 0 else None
                separated = False
                for q, j in self.separating_level(xc, yc, d_exp):
                    group = finite_closure(
                        [reduce_mod(g, q, j) for g in HEIS.generators]
                    )
                    rx, ry = reduce_mod(x, q, j), reduce_mod(y, q, j)
                    if not conjugate_in_finite(group, rx, ry).conjugate:
                        separated = True
                        break
                assert separated, (xc, yc)


def rank2_centre_spec():
    """<x12, x23, x24> in UT(4): class 2 with centre <x13, x14>, where the
    commutators of x = x12^a x23^b x24^c span (a, 0), (0, a) and (b, c), a
    lattice that is not diagonal."""
    basis = (("x12", (0, 1)), ("x23", (1, 2)), ("x24", (1, 3)), ("x13", (0, 2)), ("x14", (0, 3)))
    table = {name: UTMatrix.from_entries(4, {pos: 1}) for name, pos in basis}
    return MatrixGroupSpec(
        name="ut4-rank2-centre",
        n=4,
        generators=tuple(table[nm] for nm in ("x12", "x23", "x24")),
        gen_names=("x12", "x23", "x24"),
        center_gens=(table["x13"], table["x14"]),
        center_names=("x13", "x14"),
        z2_rep=table["x12"],
        z2_name="x12",
        declared_class=2,
        malcev_basis=tuple((nm, table[nm]) for nm, _ in basis),
    )


CLASS2_SPECS = (heisenberg_spec(), heis5_spec(), double_heisenberg_spec(), rank2_centre_spec())


def class2_element(spec, exponents):
    """The product of the generators' and centre generators' powers, in order."""
    out = UTMatrix.identity(spec.n)
    for gen, e in zip(spec.generators + spec.center_gens, exponents):
        out = out * gen**e
    return out


@st.composite
def class2_pairs(draw):
    spec = draw(st.sampled_from(CLASS2_SPECS))
    p = draw(st.sampled_from([2, 3]))
    size = len(spec.generators) + len(spec.center_gens)
    exponents = st.lists(st.integers(-12, 12), min_size=size, max_size=size)
    x = class2_element(spec, draw(exponents))
    kind = draw(st.sampled_from(["conjugate", "near", "near", "central", "random"]))
    if kind == "random":
        y = class2_element(spec, draw(exponents))
    else:
        # A conjugate of x, times a p-power, or times a central element: pairs
        # that are often conjugate at the low levels and not above them.
        g = class2_element(spec, draw(exponents))
        y = g.inverse() * x * g
        if kind == "near":
            y = y * class2_element(spec, draw(exponents)) ** (p ** draw(st.integers(1, 2)))
        elif kind == "central":
            y = y * class2_element(spec, [0] * len(spec.generators) + draw(exponents))
    return spec, p, x, y


class TestClass2TowerAgainstOrbit:
    """One Smith form decides every level up to the depth: the least level
    it separates and the checked conjugator it gives below that must say
    what orbit search in the congruence quotient says."""

    @settings(max_examples=200, deadline=None)
    @given(class2_pairs())
    def test_every_level_matches_orbit_search(self, case):
        spec, p, x, y = case
        first = None
        for k in range(1, 4):
            quot, _ = congruence_quotient(spec, p, k, p ** (k * spec.n**2))
            truth = conjugate_in_finite(quot, reduce_mod(x, p, k), reduce_mod(y, p, k)).conjugate
            if not truth and first is None:
                first = k
            tower = class2_tower(spec, x, y, p, k)
            assert tower.level == first, (spec.name, p, k, tower)
            g = tower.conjugator
            assert (g is None) == (first == 1)
            if g is not None:
                t = k if first is None else first - 1
                assert (g.p, g.k) == (p, t)
                assert reduce_mod(x, p, t) * g == g * reduce_mod(y, p, t)

    @pytest.mark.parametrize("spec", CLASS2_SPECS, ids=lambda spec: spec.name)
    def test_no_level_separates_a_conjugate_pair(self, spec):
        rng = random.Random(41)
        size = len(spec.generators) + len(spec.center_gens)
        for _ in range(20):
            x = class2_element(spec, [rng.randint(-50, 50) for _ in range(size)])
            g = class2_element(spec, [rng.randint(-50, 50) for _ in range(size)])
            y = g.inverse() * x * g
            assert class2_conjugate(spec, x, y).conjugate
            for p in (2, 3, 5):
                tower = class2_tower(spec, x, y, p, 12)
                assert tower.level is None and tower.conjugator.k == 12

    def test_witness_pair_separates_only_at_its_own_prime(self):
        # [a^3, G] = 3Z and x^-1 y = c: 1 has order 3 in Z/3Z, so exactly the
        # prime 3 separates the pair, at level 1, and no level of 2 or 5 does.
        x, y = heis(3, 0, 0), heis(3, 0, 1)
        assert not class2_conjugate(HEIS, x, y).conjugate
        three = class2_tower(HEIS, x, y, 3, 8)
        assert three == (3, 1, ("functional", (1,)), None)
        for p in (2, 5):
            assert class2_tower(HEIS, x, y, p, 8).level is None

    def test_entry_off_the_centre_decides(self):
        x, y = heis(1, 0, 0), heis(1, 12, 0)
        tower = class2_tower(HEIS, x, y, 2, 8)
        assert (tower.level, tower.separator) == (3, ("entry", (1, 2)))
        assert tower.conjugator.k == 2
        # Within a depth below the level nothing separates.
        assert class2_tower(HEIS, x, y, 2, 2) == (2, None, None, tower.conjugator)

    def test_rank2_lattice_is_not_diagonal(self):
        # x = x12^2 x23 x24: L = {(u, v): u = v mod 2}, so (1, 1) is in it and
        # (1, 0) is not, which only a functional mixing both entries shows.
        spec = rank2_centre_spec()
        assert verify_spec(spec).passed
        x = class2_element(spec, (2, 1, 1, 0, 0))
        assert class2_tower(spec, x, x * class2_element(spec, (0, 0, 0, 1, 1)), 2, 4).level is None
        tower = class2_tower(spec, x, x * class2_element(spec, (0, 0, 0, 1, 0)), 2, 4)
        kind, row = tower.separator
        assert tower.level == 1 and kind == "functional" and all(row)

    def test_inputs_the_criterion_does_not_cover(self):
        ut4 = ut4_spec()
        with pytest.raises(ClassTooHigh):
            class2_tower(ut4, ut4.generators[0], ut4.generators[1], 2, 3)
        stranger = UTMatrix.from_entries(4, {(1, 2): 1})
        with pytest.raises(ValueError):
            class2_tower(heis5_spec(), stranger, stranger, 2, 3)
        with pytest.raises(ValueError, match="prime"):
            class2_tower(HEIS, heis(1, 0, 0), heis(1, 0, 1), 4, 3)
        for depth in (0, -1):
            with pytest.raises(ValueError, match="depth"):
                class2_tower(HEIS, heis(1, 0, 0), heis(1, 0, 1), 2, depth)


class TestClass2TowerRejectsAWrongSmithForm:
    """`class2_tower` checks both of its verdicts itself, so a wrong Smith
    form fails there, without a scan around it."""

    @pytest.fixture
    def wrong_snf(self, monkeypatch):
        real = conjugacy.snf

        def install(wrong):
            monkeypatch.setattr(conjugacy, "snf", lambda a: wrong(*real(a)))

        return install

    def test_zero_v_fails_the_conjugator_check(self, wrong_snf):
        # a^3 and a^3 c are conjugate at every level mod 2^k: with V zeroed
        # the conjugator built from it is the identity, which is not one.
        a, _ = HEIS.generators
        c = HEIS.center_gens[0]
        wrong_snf(lambda d, u, v: (d, u, IntMatrix.zero(v.rows, v.cols)))
        for depth in (1, 4):
            with pytest.raises(VerificationFailed) as err:
                class2_tower(HEIS, a**3, a**3 * c, 2, depth)
            assert err.value.check == "conjugator"

    def test_identity_u_fails_the_certificate_check(self, wrong_snf):
        # With U replaced by the identity, the functional read off it no
        # longer vanishes on the commutator lattice of x = x12^2 x23 x24.
        spec = rank2_centre_spec()
        x = class2_element(spec, (2, 1, 1, 0, 0))
        y = x * class2_element(spec, (0, 0, 0, 1, 1))
        wrong_snf(lambda d, u, v: (d, IntMatrix.identity(u.rows), v))
        with pytest.raises(VerificationFailed) as err:
            class2_tower(spec, x, y, 2, 3)
        assert err.value.check == "certificate"


# Run under `python -O`, which strips assert statements: a conjugator that
# fails its re-check must still raise.
OPTIMIZED_RECHECKS = r"""
from conjsep.conjugacy import class2_conjugate, conjugate_in_finite
from conjsep.errors import VerificationFailed
from conjsep.finite import FiniteGroup, finite_closure
from conjsep.groupspec import heisenberg_spec
from conjsep.intlin import Lattice, Membership
from conjsep.unitri import reduce_mod

heis = heisenberg_spec()
a, b = heis.generators
c = heis.center_gens[0]
good = finite_closure([reduce_mod(g, 3, 2) for g in heis.generators])
# Inverses are right on the generators, which the orbit search uses, and
# wrong elsewhere, so only the conjugator's re-check can notice.
bad = FiniteGroup(
    "heisenberg mod 3^2, bad inverses", good.elements, good.mul, good.identity,
    good.generators, inv=lambda x: x.inverse() if x in good.generators else x,
)
ra, rc = reduce_mod(a, 3, 2), reduce_mod(c, 3, 2)
try:
    conjugate_in_finite(bad, ra, ra * rc**8)
except VerificationFailed:
    pass
else:
    raise SystemExit("orbit conjugator re-check did not raise")

# Orbit search that answers "not conjugate": the witness tower scan, the one
# per-level pass of a witness run, must still fail loudly at an orbit level.
import conjsep.separability
from conjsep.conjugacy import ConjugacyAnswer
from conjsep.errors import LocalCheckFailed
from conjsep.separability import make_witness, scan_tower

w = make_witness(heis, 2)
conjsep.separability.conjugate_in_finite = lambda group, x, y: ConjugacyAnswer(False)
try:
    scan_tower(heis, w.u, w.v, 2, 3, witness=w)
except LocalCheckFailed:
    pass
else:
    raise SystemExit("witness scan accepted a contradicting orbit search")
conjsep.separability.conjugate_in_finite = conjugate_in_finite

# A witness whose stored divisibility certificate differs from the
# recomputed one must fail the divisibility check, and one whose pair is
# conjugate (u = a^3 and [a^3, b] = c^3) must fail the class-2 check.  A separation certificate whose quotient has the wrong
# order, or whose images a search calls conjugate, must fail its re-check.
from conjsep.groupspec import coords_to_element, preset
from conjsep.separability import separate_elements, verify_witness_global

zxd4 = preset("zxd4")
zero = coords_to_element(zxd4.matrix_part, (0,))
product = conjsep.separability.direct_product


def wrong_order(*args, **kwargs):
    group = product(*args, **kwargs)
    group.order *= 3
    return group


tampered = w._replace(divisibility=w.divisibility._replace(c_vector=(7,)))
try:
    verify_witness_global(heis, tampered)
except VerificationFailed as failure:
    if failure.check != "divisibility":
        raise SystemExit(f"a tampered certificate failed the {failure.check!r} check")
else:
    raise SystemExit("a tampered divisibility certificate passed the global checks")
try:
    verify_witness_global(heis, w._replace(v=w.u * w.c**3))
except VerificationFailed as failure:
    if failure.check != "class2-lattice":
        raise SystemExit(f"a conjugate witness pair failed the {failure.check!r} check")
else:
    raise SystemExit("a conjugate witness pair passed the global checks")

# A witness whose q is a prime that no primality test here decides, with
# everything else rebuilt for it, must fail the structure check, and one
# whose n is 10^8 must fail the divisibility check before q^n is computed.
from conjsep.groupspec import center_lattice

q = 2**89 - 1
big_q = w._replace(
    q=q, u=w.a**q, v=w.a**q * w.c,
    divisibility=w.divisibility._replace(exponent=q,
                                         scaled_basis=center_lattice(heis).canonical().scale(q).basis),
)
for witness, check in ((big_q, "structure"), (w._replace(n=10**8), "divisibility")):
    try:
        verify_witness_global(heis, witness)
    except VerificationFailed as failure:
        if failure.check != check:
            raise SystemExit(f"a crafted witness failed the {failure.check!r} check, not {check!r}")
    else:
        raise SystemExit(f"a crafted witness passed the global checks, not the {check!r} one")

for name, wrong in (
    ("direct_product", wrong_order),
    ("conjugate_in_finite", lambda group, x, y: ConjugacyAnswer(True, group.identity)),
):
    real = getattr(conjsep.separability, name)
    setattr(conjsep.separability, name, wrong)
    try:
        separate_elements(zxd4, (zero, (1, 0)), (zero, (0, 1)), 2)
    except VerificationFailed as failure:
        if failure.check != "certificate":
            raise SystemExit(f"a wrong {name} failed the {failure.check!r} check")
    else:
        raise SystemExit(f"a wrong {name} passed the certificate re-check")
    setattr(conjsep.separability, name, real)

# A residue closure whose conjugation step is right multiplication, x -> x * s,
# on flat points: the search then reaches y, but the conjugator fails its re-check.
import conjsep.finite
from conjsep.unitri import _CODECS, _matmul


def right_product(s):
    point, rows = _CODECS[s.n]
    return lambda x: point(_matmul(rows(x), s.rows, s.n, s.mod))


conjsep.finite.conjugation_kernel = right_product
wrong_steps = finite_closure([reduce_mod(g, 3, 2) for g in heis.generators])
try:
    conjugate_in_finite(wrong_steps, ra, ra * rc**8)
except VerificationFailed:
    pass
else:
    raise SystemExit("orbit re-check missed a wrong conjugation step")

# Every lattice now claims membership with made-up coefficients, so the
# non-conjugate pair a^3, a^3 c gets a conjugator that fails its re-check.
Lattice.contains = lambda self, v: Membership(True, (1,) * len(self.basis))
try:
    class2_conjugate(heis, a**3, a**3 * c)
except VerificationFailed:
    pass
else:
    raise SystemExit("class-2 conjugator re-check did not raise")

# heis5 mod 3 (order 3^5) declared full (3^6): listing sifts its pcgs and
# must notice the declared order is wrong.  By a pcgs one entry short (3^4),
# listing must notice a broken relation.  With an entry repeated, two leads
# coincide, which construction must notice without listing a normal form.
from conjsep.groupspec import heis5_spec

heis5_gens = [reduce_mod(g, 3, 1) for g in heis5_spec().generators]
spans, pcgs = conjsep.finite._spans_mod_p, conjsep.finite._induced_pcgs
for name, wrong, check in (
    ("_spans_mod_p", lambda *args: True, "order"),
    ("_induced_pcgs", lambda *args: pcgs(*args)[:-1], "pcgs"),
):
    setattr(conjsep.finite, name, wrong)
    try:
        finite_closure(heis5_gens).elements
    except VerificationFailed as failure:
        if failure.check != check:
            raise SystemExit(f"a wrong pcgs failed the {failure.check!r} check, not {check!r}")
    else:
        raise SystemExit(f"the {check!r} check did not raise")
conjsep.finite._spans_mod_p = spans
conjsep.finite._induced_pcgs = lambda *args: pcgs(*args) + pcgs(*args)[-1:]
forms = conjsep.finite._normal_forms
conjsep.finite._normal_forms = None  # calling it would raise TypeError
try:
    finite_closure(heis5_gens)
except VerificationFailed as failure:
    if failure.check != "order":
        raise SystemExit(f"a repeated lead failed the {failure.check!r} check, not 'order'")
else:
    raise SystemExit("a repeated pcgs lead went unnoticed at construction")
conjsep.finite._induced_pcgs, conjsep.finite._normal_forms = pcgs, forms

# A pcgs out of key order would sift wrongly; construction must refuse it.
conjsep.finite._induced_pcgs = lambda *args: pcgs(*args)[::-1]
try:
    finite_closure(heis5_gens)
except VerificationFailed as failure:
    if failure.check != "order":
        raise SystemExit(f"a pcgs out of order failed the {failure.check!r} check, not 'order'")
else:
    raise SystemExit("a pcgs out of key order went unnoticed at construction")
conjsep.finite._induced_pcgs = pcgs

# A product whose listing drops a pair must notice it has fewer elements than
# its declared order on the first read of its element list.
from conjsep.finite import direct_product, dihedral4

product_elements = conjsep.finite._product_elements
conjsep.finite._product_elements = lambda *args: list(product_elements(*args))[1:]
short = direct_product(dihedral4(), dihedral4())
conjsep.finite._product_elements = product_elements
try:
    short.elements
except VerificationFailed as failure:
    if failure.check != "order":
        raise SystemExit(f"a short product failed the {failure.check!r} check, not 'order'")
else:
    raise SystemExit("a product listing short of its order went unnoticed")

# A top-level search whose conjugator does not conjugate the images: the
# scan reduces it to the lower levels and must fail there, on a witness
# pair and on a plain pair, not take it on trust in place of a search.
top_search = conjsep.separability._top_search


def wrong_top_search(spec, images, p, cap):
    top, answer = top_search(spec, images, p, cap)
    return top, ConjugacyAnswer(True, reduce_mod(a, p, top))


conjsep.separability._top_search = wrong_top_search
for x, y, witness in ((w.u, w.v, w), (w.u, w.v, None), (w.v, w.u, w)):
    try:
        scan_tower(heis, x, y, 2, 3, witness=witness)
    except LocalCheckFailed:
        pass
    else:
        raise SystemExit("a wrong top-level conjugator was accepted")
conjsep.separability._top_search = top_search

# Over the cap the Smith form decides a class-2 scan, and `class2_tower`
# checks it on its own.  With U replaced by the identity, the functional it
# reads no longer vanishes on the commutator lattice of x = x12^2 x23 x24 in
# <x12, x23, x24> <= UT(4); with V replaced by 0, the conjugator built from
# it is the identity, also for the heisenberg pair a^3, a^3 c at p = 2.
# Each must raise, in a scan and in the bare call.
import conjsep.conjugacy
from conjsep.conjugacy import class2_tower
from conjsep.groupspec import MatrixGroupSpec
from conjsep.intlin import IntMatrix
from conjsep.unitri import UTMatrix

basis = tuple((name, UTMatrix.from_entries(4, {pos: 1})) for name, pos in (
    ("x12", (0, 1)), ("x23", (1, 2)), ("x24", (1, 3)), ("x13", (0, 2)), ("x14", (0, 3))))
x12, x23, x24, x13, x14 = (m for _, m in basis)
rank2 = MatrixGroupSpec("ut4-rank2-centre", 4, (x12, x23, x24), (x13, x14), None, 2,
                        malcev_basis=basis)
smith = conjsep.conjugacy.snf
for check, wrong in (
    ("certificate", lambda d, u, v: (d, IntMatrix.identity(u.rows), v)),
    ("conjugator", lambda d, u, v: (d, u, IntMatrix.zero(v.rows, v.cols))),
):
    conjsep.conjugacy.snf = lambda a, wrong=wrong: wrong(*smith(a))
    x = x12**2 * x23 * x24
    calls = [lambda: scan_tower(rank2, x, x * x13 * x14, 2, 3, max_order=1),
             lambda: class2_tower(rank2, x, x * x13 * x14, 2, 3)]
    if check == "conjugator":
        calls.append(lambda: class2_tower(heis, a**3, a**3 * c, 2, 4))
    for call in calls:
        try:
            call()
        except VerificationFailed as failure:
            if failure.check != check:
                raise SystemExit(
                    f"a wrong Smith form failed the {failure.check!r} check, not {check!r}")
        else:
            raise SystemExit(f"a wrong Smith form passed the {check!r} check")
conjsep.conjugacy.snf = smith

# Unitriangular constructors and reduce_mod check their input with explicit raises.
from conjsep.unitri import ResidueUT, UTMatrix

for bad in (
    lambda: UTMatrix([[2, 0], [0, 1]]),
    lambda: ResidueUT([[1, 0], [0, 2]], 3, 1),
    lambda: UTMatrix([[1, 0], [3, 1]]),
    lambda: ResidueUT([[1, 0], [1, 1]], 3, 1),
    lambda: ResidueUT([[1, 1], [0, 1]], 2, 0),
    lambda: ResidueUT([[1, 1], [0, 1]], 1, 1),
    lambda: reduce_mod(UTMatrix([[1, 1], [0, 1]]), 1, 1),
    lambda: reduce_mod(UTMatrix([[1, 1], [0, 1]]), 2, 0),
    lambda: reduce_mod(ResidueUT([[1, 3], [0, 1]], 2, 2), 2, 3),
    lambda: reduce_mod(ResidueUT([[1, 3], [0, 1]], 2, 2), 3, 1),
):
    try:
        bad()
    except ValueError:
        pass
    else:
        raise SystemExit("a unitriangular constructor accepted bad input")

# A close-by-one join that forgets the subgroup it starts from reaches one
# mask from two parents; the enumeration must notice the repeat.
try:
    conjsep.finite._close_by_one(1, [(1, 0), (2, 1), (4, 2)], lambda current, j, lacking: 1 << j)
except VerificationFailed:
    pass
else:
    raise SystemExit("a normal subgroup listed twice went unnoticed")

# C5 with the one product 2*1 changed to 1 is no group: the powers of 1 cycle
# 1, 2, 1, ... and never reach 0, so the power walk must stop at the order.
from conjsep.finite import cyclic

c5 = cyclic(5)
not_a_group = FiniteGroup(
    "C5, 2*1 = 1", c5.elements, lambda x, y: 1 if (x, y) == (2, 1) else c5.mul(x, y),
    c5.identity, c5.generators,
)
try:
    not_a_group.normal_subgroups()
except VerificationFailed:
    pass
else:
    raise SystemExit("a power walk past the group order went unnoticed")
"""


def test_conjugator_rechecks_raise_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RECHECKS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
