import gc
import operator
import weakref
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsep import finite
from conjsep.errors import SizeLimit, VerificationFailed
from conjsep.finite import (
    FiniteGroup,
    cyclic,
    dihedral4,
    direct_product,
    finite_closure,
    finite_preset,
    orbit,
    quaternion8,
    sym3,
    trivial_group,
)
from conjsep.groupspec import free_abelian_rank1_spec, heis5_spec, heisenberg_spec, ut4_spec
from conjsep.selftest import default_corpus
from conjsep.unitri import ResidueUT, reduce_mod

from _oracles import (
    brute_conjugate,
    naive_normal,
    naive_subgroup,
    reference_classes,
    reference_closure,
    reference_normal_subgroups,
)


def heis_residue_gens(p, k):
    spec = heisenberg_spec()
    return [reduce_mod(g, p, k) for g in spec.generators]


# Generators of residue-matrix groups, sparse and dense, for comparison with
# the general-product references in _oracles.
RESIDUE_GENS = [
    heis_residue_gens(2, 3),
    [reduce_mod(g, 3, 1) for g in heis5_spec().generators],
    [reduce_mod(g, 2, 2) for g in ut4_spec().generators],
    [
        ResidueUT([[1, 2, 1, 0], [0, 1, 1, 2], [0, 0, 1, 1], [0, 0, 0, 1]], 3, 1),
        ResidueUT([[1, 0, 2, 1], [0, 1, 2, 0], [0, 0, 1, 2], [0, 0, 0, 1]], 3, 1),
    ],
]
RESIDUE_IDS = ["heisenberg-2^3", "heis5-3", "ut4-2^2", "dense-gens-3"]


def assert_normal_form_listing(elements, reference):
    """elements holds what `reference_closure` lists, with equal length, in
    the listing order of pcgs normal forms: the identity first, and each
    prefix of length p^j the group that the elements at positions 1, p, ...,
    p^(j-1) generate, as `reference_closure` finds it."""
    assert len(elements) == len(reference)
    assert set(elements) == set(reference)
    assert elements[0] == reference[0]  # the identity
    p, size, heads = elements[0].p, 1, []
    while size * p < len(elements):
        heads.append(elements[size])
        size *= p
        assert set(elements[:size]) == set(reference_closure(heads))


class TestPresets:
    @pytest.mark.parametrize(
        "name,order",
        [("trivial", 1), ("c2", 2), ("c3", 3), ("c6", 6), ("s3", 6), ("d4", 8),
         ("q8", 8), ("d4xc2", 16)],
    )
    def test_orders_and_axioms(self, name, order):
        group = finite_preset(name)
        assert group.order == order
        assert all(ok for _, ok, _ in group.validate())

    def test_is_p_group(self):
        assert quaternion8().is_p_group(2)
        assert not quaternion8().is_p_group(3)
        assert not cyclic(6).is_p_group(2)
        assert trivial_group().is_p_group(2)

    @pytest.mark.parametrize("p", [4, 6, 1, 0, -2])
    def test_is_p_group_rejects_non_prime(self, p):
        # D4xC2 has order 16 = 4^2, so p = 4 used to answer True.
        with pytest.raises(ValueError, match="prime"):
            direct_product(dihedral4(), cyclic(2)).is_p_group(p)

    def test_d4_conjugacy_classes(self):
        d4 = dihedral4()
        classes = {frozenset(d4.label(x) for x in cl) for cl in d4.conjugacy_classes()}
        assert classes == {
            frozenset({"e"}),
            frozenset({"r2"}),
            frozenset({"r", "r3"}),
            frozenset({"s", "r2s"}),
            frozenset({"rs", "r3s"}),
        }

    def test_q8_conjugacy_classes(self):
        q8 = quaternion8()
        classes = {frozenset(q8.label(x) for x in cl) for cl in q8.conjugacy_classes()}
        assert classes == {
            frozenset({"1"}),
            frozenset({"-1"}),
            frozenset({"i", "-i"}),
            frozenset({"j", "-j"}),
            frozenset({"k", "-k"}),
        }

    def test_classes_match_brute_force(self):
        for group in (sym3(), dihedral4(), quaternion8()):
            for x in group.elements:
                for y in group.elements:
                    assert (y in group.class_of(x)) == brute_conjugate(group, x, y)


class TestOrbit:
    def test_yields_a_breadth_first_schreier_tree(self):
        steps = (lambda x: (x + 2) % 6, lambda x: (x + 3) % 6)
        tree = orbit(0, steps)
        edges = [(0, (None, None)), (2, (0, 0)), (3, (0, 1)), (4, (2, 0)), (5, (2, 1)), (1, (4, 1))]
        assert list(tree.items()) == edges
        # With a target, the search stops as soon as it is reached.
        assert list(orbit(0, steps, 4).items()) == edges[:4]
        assert list(orbit(0, steps, 7).items()) == edges

    def test_conjugation_edges_conjugate_by_their_generator(self):
        for group in (sym3(), dihedral4(), quaternion8()):
            for x in group.elements:
                steps = list(group.conjugation_orbit(x).items())
                assert steps[0] == (x, (None, None))
                assert {point for point, _ in steps} == group.class_of(x)
                for point, (parent, i) in steps[1:]:
                    s = group.generators[i]
                    assert point == group.mul(group.inverse(s), group.mul(parent, s))

    def test_residue_conjugation_runs_on_flat_points(self):
        group = finite_closure(heis_residue_gens(3, 1))
        element = group.conjugation.element
        for x in group.elements[:9]:
            steps = list(group.conjugation_orbit(x).items())
            assert steps[0] == ((x[0, 1], x[0, 2], x[1, 2]), (None, None))
            assert {element(point) for point, _ in steps} == group.class_of(x)
            assert all(group.conjugation.point(element(point)) == point for point, _ in steps)
            for point, (parent, i) in steps[1:]:
                s = group.generators[i]
                assert element(point) == s.inverse() * element(parent) * s

    @pytest.mark.parametrize("gens", RESIDUE_GENS, ids=RESIDUE_IDS)
    def test_residue_classes_match_reference_in_order(self, gens):
        group = finite_closure(gens)
        assert group.conjugacy_classes() == reference_classes(group)


# Groups of order at most 32, each with a maker, for comparison with the
# reference enumeration in _oracles.
SMALL_GROUPS = [
    ("trivial", trivial_group),
    ("C2", lambda: cyclic(2)),
    ("S3", sym3),
    ("C6", lambda: cyclic(6)),
    ("D4", dihedral4),
    ("Q8", quaternion8),
    ("heisenberg-mod-2", lambda: finite_closure(heis_residue_gens(2, 1))),
    ("C2^4", lambda: direct_product(direct_product(cyclic(2), cyclic(2)),
                                    direct_product(cyclic(2), cyclic(2)))),
    ("D4xC2", lambda: direct_product(dihedral4(), cyclic(2))),
    ("Q8xC2", lambda: direct_product(quaternion8(), cyclic(2))),
    ("S3xC3", lambda: direct_product(sym3(), cyclic(3))),
    ("D4xC4", lambda: direct_product(dihedral4(), cyclic(4))),
    ("Q8xC2xC2", lambda: direct_product(direct_product(quaternion8(), cyclic(2)), cyclic(2))),
]


def assert_classes_match_reference(group):
    """The class partition is the reference orbit partition, in its order,
    and `class_of` gives each element its class.  A direct product's is read
    off its factors' classes, so it takes no product of its own."""
    calls = []
    mul = group.mul

    def counted(x, y):
        calls.append(1)
        return mul(x, y)

    group.mul = counted
    classes = group.conjugacy_classes()
    if group._factors is not None:
        assert calls == []
    assert classes == reference_classes(group)
    owner = {x: cls for cls in classes for x in cls}
    assert all(group.class_of(x) is owner[x] for x in group.elements)


class TestNormalSubgroups:
    @pytest.mark.parametrize(
        "maker,count",
        [(sym3, 3), (dihedral4, 6), (quaternion8, 6), (lambda: cyclic(6), 4),
         (lambda: direct_product(dihedral4(), cyclic(2)), 19)],
    )
    def test_counts(self, maker, count):
        group = maker()
        normals = group.normal_subgroups()
        assert len(normals) == count
        for sub in normals:
            assert naive_normal(group, sub)

    @pytest.mark.parametrize("maker", [m for _, m in SMALL_GROUPS], ids=[n for n, _ in SMALL_GROUPS])
    def test_matches_reference_in_content_and_order(self, maker):
        group = maker()
        assert group.order <= 32
        assert_classes_match_reference(group)
        assert group.normal_subgroups() == reference_normal_subgroups(group)

    def test_quotients_of_corpus_match_reference(self):
        checked = 0
        for _, group in default_corpus():
            for nsub in group.normal_subgroups():
                quot, _ = group.quotient(nsub)
                assert quot.normal_subgroups() == reference_normal_subgroups(quot), quot.name
                checked += 1
        assert checked == 3 + 6 + 6 + 4 + 19

    @pytest.mark.parametrize("spec", [heis5_spec, ut4_spec], ids=["heis5-2", "ut4-2"])
    def test_residue_groups_mod_2_match_reference(self, spec):
        group = finite_closure([reduce_mod(g, 2, 1) for g in spec().generators])
        assert group.normal_subgroups() == reference_normal_subgroups(group)

    @pytest.mark.parametrize(
        "maker,count",
        [(lambda: direct_product(sym3(), sym3()), 10),
         (lambda: direct_product(cyclic(6), sym3()), 14),
         (lambda: direct_product(dihedral4(), dihedral4()), 91),
         (lambda: cyclic(12), 6),
         (lambda: direct_product(direct_product(cyclic(2), cyclic(2)),
                                 direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))),
          374),
         (lambda: finite_closure(heis_residue_gens(2, 2)), 27),
         (lambda: direct_product(dihedral4(), quaternion8()), 91),
         (lambda: direct_product(finite_closure(heis_residue_gens(2, 1)), sym3()), 25),
         (lambda: direct_product(quaternion8(), sym3()), 25)],
        ids=["S3xS3", "C6xS3", "D4xD4", "C12", "C2^5", "heisenberg-mod-4", "D4xQ8",
             "heisenberg-mod-2xS3", "Q8xS3"],
    )
    def test_larger_groups_match_reference(self, maker, count):
        group = maker()
        assert_classes_match_reference(group)
        normals = group.normal_subgroups()
        assert len(normals) == count
        assert normals == reference_normal_subgroups(group)

    @pytest.mark.parametrize(
        "maker,joins",
        [(lambda: direct_product(direct_product(quaternion8(), cyclic(2)), cyclic(2)), 386),
         (lambda: direct_product(dihedral4(), quaternion8()), 514)],
        ids=["Q8xC2xC2", "D4xQ8"],
    )
    def test_close_by_one_joins(self, maker, joins, monkeypatch):
        # The breadth-first search this replaced joined every subgroup found
        # with every closure: 1,109 and 1,588 joins on these two groups.
        calls = []
        search = finite._close_by_one

        def counted(bottom, reps, join):
            def counted_join(current, j, lacking):
                calls.append(1)
                return join(current, j, lacking)

            return search(bottom, reps, counted_join)

        monkeypatch.setattr(finite, "_close_by_one", counted)
        group = maker()
        assert group.normal_subgroups() == reference_normal_subgroups(group)
        assert len(calls) <= joins

    @pytest.mark.parametrize(
        "maker",
        [sym3, dihedral4, quaternion8, lambda: cyclic(6),
         lambda: direct_product(dihedral4(), cyclic(2)),
         lambda: direct_product(direct_product(quaternion8(), cyclic(2)), cyclic(2)),
         lambda: direct_product(dihedral4(), quaternion8()),
         lambda: direct_product(quaternion8(), sym3()),
         lambda: direct_product(finite_closure(heis_residue_gens(2, 1)), sym3())],
        ids=["S3", "D4", "Q8", "C6", "D4xC2", "Q8xC2xC2", "D4xQ8", "Q8xS3",
             "heisenberg-mod-2xS3"],
    )
    def test_class_products_match_brute_force(self, maker):
        # Each entry against all |C_l| * |C_j| products, both ways round; a
        # direct product's entries come from its factors' tables.
        group = maker()
        classes = group.conjugacy_classes()
        size, table = len(classes), group._class_products()
        for l in range(size):
            for j in range(l, size):
                pairs = list(product(classes[l], classes[j]))
                met = {group._class_of[group.mul(x, y)] for x, y in pairs}
                met |= {group._class_of[group.mul(y, x)] for x, y in pairs}
                assert table[l * size + j] == sum(1 << c for c in met), (l, j)

    def test_close_by_one_lists_each_closed_mask_once(self):
        # Three classes whose closures are the classes themselves: every
        # mask over the identity class is closed.
        reps = [(1, 0), (2, 1), (4, 2)]
        found = finite._close_by_one(1, reps, lambda current, j, lacking: current | 1 << j)
        assert sorted(found) == [1, 3, 5, 7]
        # A join that forgets N reaches the mask 4 from both 1 and 2.
        with pytest.raises(VerificationFailed):
            finite._close_by_one(1, reps, lambda current, j, lacking: 1 << j)

    @pytest.mark.parametrize(
        "maker,bound",
        [(lambda: direct_product(dihedral4(), quaternion8()), 1600),
         (lambda: finite_closure(heis_residue_gens(2, 3)), 47104)],
        ids=["D4xQ8", "heisenberg-mod-8"],
    )
    def test_products_bounded_by_classes_times_order(self, maker, bound, monkeypatch):
        # Once the classes are known, the class products and the power walks
        # stay within |classes| * |G| products.  D4xQ8 reads its class
        # products from D4's and Q8's tables, so each product it takes is a
        # step x^e * x of a power walk: 58, where the class products took 704.
        group = maker()
        assert len(group.conjugacy_classes()) * group.order == bound
        calls = []
        if isinstance(group.identity, ResidueUT):
            general = ResidueUT.__mul__

            def counted(x, y):
                calls.append((x, y))
                return general(x, y)

            monkeypatch.setattr(ResidueUT, "__mul__", counted)
        else:
            mul = group.mul

            def counted(x, y):
                calls.append((x, y))
                return mul(x, y)

            group.mul = counted
        group.normal_subgroups()
        assert 0 < len(calls) <= bound
        if group._factors is not None:
            group.mul = mul  # the closures below take uncounted products
            assert len(calls) == 58
            assert all(x in group.subgroup_closure([y]) for x, y in calls)

    @pytest.mark.parametrize(
        "maker",
        [lambda: direct_product(cyclic(4), cyclic(8)),
         lambda: direct_product(direct_product(cyclic(2), cyclic(4)), cyclic(8)),
         lambda: direct_product(cyclic(3), cyclic(12))],
        ids=["C4xC8", "C2xC4xC8", "C3xC12"],
    )
    def test_abelian_groups_match_reference(self, maker):
        # Every element is its own class: the most classes a group can have.
        group = maker()
        assert len(group.conjugacy_classes()) == group.order
        assert group.normal_subgroups() == reference_normal_subgroups(group)

    def test_table_that_is_no_group_law_is_rejected(self):
        # C5 with 2*1 changed to 1: the powers of 1 cycle 1, 2, 1, ... and
        # never reach 0.  The product count bounds the test if the walk runs on.
        c5, calls = cyclic(5), []

        def mul(x, y):
            calls.append(1)
            if len(calls) > 10_000:
                raise RuntimeError("the power walk did not stop")
            return 1 if (x, y) == (2, 1) else c5.mul(x, y)

        group = FiniteGroup("C5, 2*1 = 1", c5.elements, mul, c5.identity, c5.generators)
        with pytest.raises(VerificationFailed, match="group law"):
            group.normal_subgroups()

    def test_cyclic_512_takes_few_products(self):
        # A full table of its 512 classes' products would take 131,328.
        group = cyclic(512)
        group.conjugacy_classes()
        mul, calls = group.mul, []

        def counted(x, y):
            calls.append(1)
            return mul(x, y)

        group.mul = counted
        normals = group.normal_subgroups()
        assert [len(sub) for sub in normals] == [2**a for a in range(10)]
        assert len(calls) <= 4 * group.order

    def test_s3_normal_structure(self):
        s3 = sym3()
        sizes = sorted(len(n) for n in s3.normal_subgroups())
        assert sizes == [1, 3, 6]

    def test_enumeration_deterministic(self):
        a = dihedral4().normal_subgroups()
        b = dihedral4().normal_subgroups()
        assert a == b

    def test_is_normal_after_enumeration(self):
        d4 = dihedral4()
        reflection_pair = frozenset({d4.identity, (0, 1)})
        not_closed = frozenset({d4.identity, (1, 0)})
        no_identity = frozenset({(2, 0)})
        for _ in range(2):  # before and after the enumeration
            assert not d4.is_normal(reflection_pair)
            assert not d4.is_normal(not_closed)
            assert not d4.is_normal(no_identity)
            assert d4.is_normal({d4.identity, (2, 0)})
            assert d4.is_normal(d4.elements)
            d4.normal_subgroups()
        assert not naive_normal(d4, reflection_pair)

    def test_is_subgroup_matches_brute_force(self):
        d4 = dihedral4()
        subsets = [
            {d4.identity, (0, 1)}, {d4.identity, (1, 0)}, {(2, 0)}, {d4.identity, (2, 0)},
            d4.elements,
        ]
        verdicts = [d4.is_subgroup(sub) for sub in subsets]
        assert verdicts == [naive_subgroup(d4, sub) for sub in subsets]
        group = finite_closure(heis_residue_gens(2, 2))
        subsets = [group.subgroup_closure([x]) for x in group.elements[::5]]
        subsets += [frozenset(group.elements[:4]), frozenset(group.elements)]
        a = group.generators[0]  # of order 4, so {1, a} is no subgroup
        subsets += [frozenset({group.identity, a})]
        verdicts = [group.is_subgroup(sub) for sub in subsets]
        assert verdicts == [naive_subgroup(group, sub) for sub in subsets]
        assert False in verdicts

    def test_is_subgroup_grows_an_orbit(self, monkeypatch):
        # <b, c> has order 256 in heisenberg mod 2^4: the all-pairs check
        # takes 256^2 products, the orbit at most 2 * 256 * log2(256).
        group = finite_closure(heis_residue_gens(2, 4))
        a, b = group.generators
        sub = group.subgroup_closure([b, b.inverse() * a.inverse() * b * a])
        outside = sub - {b} | {a}
        calls = []
        general = ResidueUT.__mul__

        def counted(x, y):
            calls.append(1)
            return general(x, y)

        monkeypatch.setattr(ResidueUT, "__mul__", counted)
        assert len(sub) == 256 and group.is_subgroup(sub)
        assert not group.is_subgroup(outside)
        assert len(calls) <= 2 * 256 * 8

    def test_quotient_after_enumeration_rejects_non_normal(self):
        d4 = dihedral4()
        d4.normal_subgroups()
        with pytest.raises(ValueError):
            d4.quotient({d4.identity, (0, 1)})
        with pytest.raises(ValueError):
            d4.quotient({d4.identity, (1, 0)})


class TestQuotients:
    def test_s3_mod_a3(self):
        s3 = sym3()
        a3 = next(n for n in s3.normal_subgroups() if len(n) == 3)
        quot, hom = s3.quotient(a3)
        assert quot.order == 2
        assert all(ok for _, ok, _ in quot.validate())
        pairs = [(x, y) for x in s3.elements for y in s3.elements]
        assert all(hom(s3.mul(x, y)) == hom.codomain.mul(hom(x), hom(y)) for x, y in pairs)

    def test_d4_mod_center_is_klein(self):
        d4 = dihedral4()
        center = next(n for n in d4.normal_subgroups() if len(n) == 2)
        quot, _ = d4.quotient(center)
        assert quot.order == 4
        assert all(quot.mul(x, x) == quot.identity for x in quot.elements)

    def test_residue_is_normal_matches_naive(self):
        group = finite_closure(heis_residue_gens(2, 2))
        subsets = [group.subgroup_closure([x]) for x in group.elements[::5]]
        subsets += [frozenset(group.elements[:4]), frozenset(group.elements)]
        a = group.generators[0]  # of order 4, so {1, a} is no subgroup
        subsets += [frozenset({group.identity, a})]
        verdicts = [group.is_normal(sub) for sub in subsets]
        assert verdicts == [naive_normal(group, sub) for sub in subsets]
        assert True in verdicts and False in verdicts

    def test_rejects_non_normal(self):
        d4 = dihedral4()
        s = (0, 1)
        reflection_pair = frozenset({d4.identity, s})
        with pytest.raises(ValueError):
            d4.quotient(reflection_pair)

    def test_discarded_group_freed_without_cycle_collector(self):
        # A product of tables, a closure and a product with a closure factor:
        # none may hold a reference cycle through its quotients, its
        # membership predicate or its element listing.
        makes = [
            lambda: direct_product(dihedral4(), quaternion8()),
            lambda: finite_closure(heis_residue_gens(2, 2)),
            lambda: direct_product(finite_closure(heis_residue_gens(2, 2)), cyclic(2)),
        ]
        gc.disable()
        try:
            for make in makes:
                group = make()
                member = group.generators[-1] in group
                element = group.elements[5]
                quot, hom = group.quotient(group.normal_subgroups()[1])
                ref = weakref.ref(group)
                del group
                assert ref() is None
                assert member and hom(element) in quot
                ref = weakref.ref(quot)
                del quot, hom
                assert ref() is None
        finally:
            gc.enable()


class TestProducts:
    def test_order_and_axioms(self):
        prod = direct_product(sym3(), cyclic(2))
        assert prod.order == 12
        assert all(ok for _, ok, _ in prod.validate())

    def test_componentwise_multiplication(self):
        a, b = dihedral4(), cyclic(3)
        prod = direct_product(a, b)
        x = (a.elements[3], 1)
        y = (a.elements[5], 2)
        assert prod.mul(x, y) == (a.mul(x[0], y[0]), (x[1] + y[1]) % 3)


class TestFiniteClosure:
    def test_identity_generator(self):
        ident = ResidueUT.identity(3, 2, 1)
        group = finite_closure([ident])
        assert group.order == 1

    def test_heisenberg_mod_2(self):
        group = finite_closure(heis_residue_gens(2, 1))
        assert group.order == 8

    def test_heisenberg_mod_8(self):
        group = finite_closure(heis_residue_gens(2, 3))
        assert group.order == 512

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_congruence_orders(self, p, k):
        group = finite_closure(heis_residue_gens(p, k))
        assert group.order == p ** (3 * k)

    @pytest.mark.parametrize("gens", RESIDUE_GENS, ids=RESIDUE_IDS)
    def test_matches_reference_closure_in_order(self, gens):
        assert_normal_form_listing(finite_closure(gens).elements, reference_closure(gens))

    @pytest.mark.parametrize("gens", RESIDUE_GENS[:3], ids=RESIDUE_IDS[:3])
    def test_listing_searches_no_orbit(self, gens, monkeypatch):
        steps = []

        def counted(*args):
            steps.append(1)
            return orbit(*args)

        monkeypatch.setattr(finite, "orbit", counted)
        group = finite_closure(gens)
        assert len(group.elements) == group.order
        assert steps == []

    def test_makes_no_general_products(self, monkeypatch):
        gens = heis_residue_gens(2, 3)
        calls = []
        general = ResidueUT.__mul__

        def counted(x, y):
            calls.append(1)
            return general(x, y)

        monkeypatch.setattr(ResidueUT, "__mul__", counted)
        group = finite_closure(gens)
        assert group.order == 512
        assert calls == []

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            finite_closure(heis_residue_gens(2, 3), max_order=100)

    def test_closure_group_axioms(self):
        group = finite_closure(heis_residue_gens(2, 2))
        assert all(ok for _, ok, _ in group.validate())


# (n, p, k) for which |UT(n, Z/p^k)| = p^(k n(n-1)/2) is small enough for
# `reference_closure`; every n from 2 to 5 occurs.
SHAPES = [
    (n, p, k) for n in range(2, 6) for p in (2, 3, 5) for k in range(1, 4)
    if p ** (k * n * (n - 1) // 2) <= 4096
]
TABLES = [trivial_group, lambda: cyclic(2), lambda: cyclic(3), sym3, dihedral4, quaternion8]


@st.composite
def residue_matrices(draw, n, p, k, superdiagonal=None):
    """A residue matrix of shape (n, p, k): random above the superdiagonal,
    and on it the given entries, or random ones."""
    mod = p**k
    if superdiagonal is None:
        superdiagonal = [draw(st.integers(0, mod - 1)) for _ in range(n - 1)]
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        if i < n - 1:
            rows[i][i + 1] = superdiagonal[i] % mod
        for j in range(i + 2, n):
            rows[i][j] = draw(st.integers(0, mod - 1))
    return ResidueUT(rows, p, k)


@st.composite
def generator_sets(draw):
    """Residue generators of one kind: a full set (the superdiagonals mod p
    span F_p^(n-1)), a set in the Frattini subgroup (every superdiagonal
    entry 0 mod p), a set missing one superdiagonal position mod p, heis5's
    generators, or random matrices."""
    kind = draw(st.sampled_from(["full", "frattini", "missing", "heis5", "random"]))
    shapes = [s for s in SHAPES if s[0] == 4] if kind == "heis5" else SHAPES
    n, p, k = draw(st.sampled_from(shapes))
    if kind == "heis5":
        return [reduce_mod(g, p, k) for g in heis5_spec().generators]
    entry = st.integers(0, p**k - 1)
    multiple = st.integers(0, p ** (k - 1) - 1).map(lambda v: p * v)
    unit = st.builds(lambda u, v: u + p * v, st.integers(1, p - 1), st.integers(0, p ** (k - 1) - 1))
    count = draw(st.integers(1, 3))
    if kind == "full":
        # Generator i has a unit at position i, multiples of p before it:
        # a triangular system of rank n - 1 mod p, shuffled, maybe one more.
        diagonals = [[draw(multiple if j < i else unit if j == i else entry) for j in range(n - 1)]
                     for i in range(n - 1)]
        diagonals += [[draw(entry) for _ in range(n - 1)] for _ in range(count - 1)]
        diagonals = draw(st.permutations(diagonals))
    elif kind == "frattini":
        diagonals = [[draw(multiple) for _ in range(n - 1)] for _ in range(count)]
    elif kind == "missing":
        gap = draw(st.integers(0, n - 2))
        diagonals = [[draw(multiple if j == gap else entry) for j in range(n - 1)]
                     for _ in range(count)]
    else:
        diagonals = [None] * count
    return [draw(residue_matrices(n, p, k, d)) for d in diagonals]


def spans_superdiagonal(gens) -> bool:
    """The Burnside test of `finite_closure`: whether the superdiagonals of
    gens span F_p^(n-1), so that they generate all of UT(n, Z/p^k)."""
    n, p = gens[0].n, gens[0].p
    return finite._spans_mod_p([[g.rows[i][i + 1] for i in range(n - 1)] for g in gens], p, n - 1)


def foreign_values(n, p, k):
    """Values that are never residue matrices of shape (n, p, k)."""
    return [ResidueUT.identity(n, p, k + 1), ResidueUT.identity(n + 1, p, k), 0, "e", (1, 2)]


class TestDeferredGroups:
    """Groups whose order and membership are known before their elements."""

    @settings(max_examples=80, deadline=None)
    @given(generator_sets(), st.data())
    def test_full_image_shortcut_matches_reference_closure(self, gens, data):
        n, p, k = gens[0].n, gens[0].p, gens[0].k
        reference = reference_closure(gens)
        full = p ** (k * n * (n - 1) // 2)
        assert spans_superdiagonal(gens) == (len(reference) == full)
        pcgs = finite._induced_pcgs(ResidueUT.identity(n, p, k), gens, 10**6)
        assert len(reference) == p ** len(pcgs)
        group = finite_closure(gens)
        assert "elements" not in vars(group)
        probes = [data.draw(residue_matrices(n, p, k)) for _ in range(4)]
        probes += [reference[data.draw(st.integers(0, len(reference) - 1))]]
        probes += foreign_values(n, p, k)
        declared = group.order
        answers = [x in group for x in probes]
        assert_normal_form_listing(group.elements, reference)
        assert declared == len(group.elements)
        built = set(group.elements)
        assert answers == [x in built for x in probes]

    @settings(max_examples=40, deadline=None)
    @given(generator_sets(), st.sampled_from(TABLES), st.booleans(), st.data())
    def test_direct_product_order_and_membership(self, gens, table, swap, data):
        a, b = finite_closure(gens), table()
        if swap:
            a, b = b, a
        prod = direct_product(a, b)
        assert "elements" not in vars(prod)
        n, p, k = gens[0].n, gens[0].p, gens[0].k
        parts = [data.draw(st.sampled_from(g.elements)) for g in (a, b) for _ in range(2)]
        parts += [data.draw(residue_matrices(n, p, k)), 1, (0, 1), "i"]
        probes = [(x, y) for x in parts for y in parts]
        probes += [parts[0], (parts[0], parts[2], parts[2]), foreign_values(n, p, k)[-1]]
        declared = prod.order
        answers = [x in prod for x in probes]
        assert prod.elements == tuple((x, y) for x in a.elements for y in b.elements)
        assert declared == len(prod.elements) == a.order * b.order
        built = set(prod.elements)
        assert answers == [x in built for x in probes]
        assert any(answers) and not all(answers)

    def test_size_limit_before_any_orbit_step(self, monkeypatch):
        # Z mod 2^15 has 32768 elements: the cap is known to be exceeded
        # from the generator alone.
        steps = []

        def counted(*args):
            steps.append(1)
            return orbit(*args)

        monkeypatch.setattr(finite, "orbit", counted)
        gens = [reduce_mod(g, 2, 15) for g in free_abelian_rank1_spec().generators]
        with pytest.raises(SizeLimit, match=r"closure exceeded 16384 elements \(UT\(2\) mod 2\^15\)"):
            finite_closure(gens, max_order=16384)
        assert steps == []
        assert finite_closure(gens, max_order=32768).order == 32768
        # heis5 mod 2^3 has 2^15 elements, which its pcgs counts.
        gens = [reduce_mod(g, 2, 3) for g in heis5_spec().generators]
        with pytest.raises(SizeLimit, match=r"closure exceeded 4096 elements \(UT\(4\) mod 2\^3\)"):
            finite_closure(gens, max_order=4096)
        assert steps == []

    def test_wrong_declared_order_raises_when_built(self, monkeypatch):
        # heis5 mod 2 has order 32.  Declared full, it claims 2^6, and its
        # listing sifts a pcgs of length 5.  A pcgs one entry short claims
        # 2^4, and its 2^4 distinct forms break a commutator relation.
        gens = [reduce_mod(g, 2, 1) for g in heis5_spec().generators]
        with monkeypatch.context() as patch:
            patch.setattr(finite, "_spans_mod_p", lambda *args: True)
            group = finite_closure(gens)
            assert group.order == 64
            with pytest.raises(VerificationFailed, match="32 elements, declared 64"):
                group.elements
        pcgs = finite._induced_pcgs
        monkeypatch.setattr(finite, "_induced_pcgs", lambda *args: pcgs(*args)[:-1])
        group = finite_closure(gens)
        assert group.order == 16
        # [h_1, h_4] must be the identity, the first of the forms.
        wrong = r"'pcgs': \[h_1, h_4\] is not among the first 1 forms"
        with pytest.raises(VerificationFailed, match=wrong):
            group.elements

    @pytest.mark.parametrize(
        "gens,wrong,failure",
        [
            # The tail of a pcgs is a consistent pcgs of a proper subgroup,
            # which misses the first generator of heis5 mod 2.
            ([reduce_mod(g, 2, 1) for g in heis5_spec().generators], lambda pcgs: pcgs[1:],
             r"generator ResidueUT\(\[\[1, 1, 0, 0\].* is not among the first 16 forms"),
            # <I + 3E01> mod 27 has the pcgs I + 3E01, I + 9E01.  Cut to its
            # head, it still holds the generator, but (I + 3E01)^3 is not
            # the identity.  (Reversed, construction refuses it: the sift
            # needs the leads in key order.)
            ([ResidueUT([[1, 3], [0, 1]], 3, 3)], lambda pcgs: pcgs[:1],
             r"h_1\^3 is not among the first 1 forms"),
            # Heisenberg mod 2 is a full image, so only its listing sifts.
            # With its last entry replaced by its first, its forms collide.
            (heis_residue_gens(2, 1), lambda pcgs: pcgs[:-1] + pcgs[:1],
             "6 distinct normal forms for a pcgs of length 3"),
        ],
        ids=["generator", "power", "collision"],
    )
    def test_listing_checks_each_pcgs_relation(self, monkeypatch, gens, wrong, failure):
        pcgs = finite._induced_pcgs
        monkeypatch.setattr(finite, "_induced_pcgs", lambda *args: wrong(pcgs(*args)))
        group = finite_closure(gens)
        with pytest.raises(VerificationFailed, match=failure):
            group.elements

    def test_repeated_pcgs_entry_raises_when_its_forms_collide(self, monkeypatch):
        pcgs = finite._induced_pcgs
        monkeypatch.setattr(finite, "_induced_pcgs", lambda *args: pcgs(*args) + pcgs(*args)[-1:])
        gens = [reduce_mod(g, 2, 1) for g in heis5_spec().generators]
        with pytest.raises(VerificationFailed, match="h_6 does not lead at a later key") as err:
            finite_closure(gens)
        assert err.value.check == "order"

    def test_pcgs_out_of_key_order_raises_at_construction(self, monkeypatch):
        # <I + 3E01> mod 27: reversed, the pcgs leads at digit 2, then 1.
        pcgs = finite._induced_pcgs
        monkeypatch.setattr(finite, "_induced_pcgs", lambda *args: pcgs(*args)[::-1])
        with pytest.raises(VerificationFailed, match="h_2 does not lead at a later key") as err:
            finite_closure([ResidueUT([[1, 3], [0, 1]], 3, 3)])
        assert err.value.check == "order"

    @pytest.mark.parametrize(
        "gens,full,order",
        [
            # Superdiagonals (1,1,0), (1,0,1), (1,0,0) all lead at position 0
            # and still span F_2^3.
            ([ResidueUT([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2, 1),
              ResidueUT([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 2, 1),
              ResidueUT([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2, 1)], True, 64),
            # Leads at digit 1 and 0: <I + 2E01, I + E12> mod 8.
            ([ResidueUT([[1, 2, 0], [0, 1, 0], [0, 0, 1]], 2, 3),
              ResidueUT([[1, 0, 0], [0, 1, 1], [0, 0, 1]], 2, 3)], False, 128),
            # p = 5: a cyclic group mod 25, one with a Frattini generator, heis5.
            ([ResidueUT([[1, 1, 0], [0, 1, 5], [0, 0, 1]], 5, 2)], False, 25),
            ([ResidueUT([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 5, 2),
              ResidueUT([[1, 0, 0], [0, 1, 5], [0, 0, 1]], 5, 2)], False, 625),
            ([reduce_mod(g, 5, 1) for g in heis5_spec().generators], False, 3125),
        ],
        ids=["shared-lead-full", "digit-1-lead-mod-8", "p5-cyclic", "p5-frattini", "heis5-5"],
    )
    def test_pcgs_edge_cases_match_reference_closure(self, gens, full, order):
        first = gens[0]
        assert spans_superdiagonal(gens) == full
        pcgs = finite._induced_pcgs(ResidueUT.identity(first.n, first.p, first.k), gens, 10**6)
        assert first.p ** len(pcgs) == order
        group = finite_closure(gens)
        assert group.order == order
        reference = reference_closure(gens)
        members = set(reference)
        n, mod = first.n, first.mod
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        ambient = []  # every residue matrix of the shape
        for values in product(range(mod), repeat=len(positions)):
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for (i, j), v in zip(positions, values):
                rows[i][j] = v
            ambient.append(ResidueUT(rows, first.p, first.k))
        assert [x in group for x in ambient] == [x in members for x in ambient]
        assert_normal_form_listing(group.elements, reference)

    def test_heis5_mod_2_built_after_membership_queries(self):
        gens = [reduce_mod(g, 2, 1) for g in heis5_spec().generators]
        group = finite_closure(gens)
        a1, a2, b1, b2 = gens
        assert a1 * b1 in group and b2 * a2 in group
        assert ResidueUT([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 2, 1) not in group
        assert_normal_form_listing(group.elements, reference_closure(gens))
        assert group.normal_subgroups() == reference_normal_subgroups(group)

    def test_built_once_on_first_use(self, monkeypatch):
        builds = []
        original = finite._form_elements

        def counted(*args):
            builds.append(1)
            return original(*args)

        monkeypatch.setattr(finite, "_form_elements", counted)
        group = finite_closure(heis_residue_gens(2, 3))
        a, b = group.generators
        assert group.order == 512 and b * a in group
        assert builds == []
        assert group.index(group.identity) == 0
        assert len(group.conjugacy_classes()) == len(reference_classes(group))
        assert group.elements is group.elements
        assert builds == [1]
        with pytest.raises(AttributeError):
            group.no_such_attribute


@st.composite
def non_full_images(draw):
    """Generators of a closure that is not all of UT(n, Z/p^k): heis5 mod 2^2
    or mod 3, or 2-3 random matrices mod 2^k (k <= 3) or mod 3 whose
    superdiagonals are all 0 mod p at one position, so they cannot span."""
    kind = draw(st.sampled_from(["heis5-2^2", "heis5-3", "random"]))
    if kind != "random":
        p, k = (2, 2) if kind == "heis5-2^2" else (3, 1)
        return [reduce_mod(g, p, k) for g in heis5_spec().generators]
    n, p, k = draw(st.sampled_from([(3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 1), (4, 2, 1),
                                    (4, 2, 2), (4, 3, 1)]))
    gap = draw(st.integers(0, n - 2))
    multiple = st.integers(0, p ** (k - 1) - 1).map(lambda v: p * v)
    entry = st.integers(0, p**k - 1)
    diagonals = [[draw(multiple if j == gap else entry) for j in range(n - 1)]
                 for _ in range(draw(st.integers(2, 3)))]
    return [draw(residue_matrices(n, p, k, d)) for d in diagonals]


class TestSiftMembership:
    """A closure that is not a full image answers membership by a sift along
    its pcgs, checked here against membership in its listed elements."""

    @settings(max_examples=60, deadline=None)
    @given(non_full_images(), st.data())
    def test_sift_matches_listed_elements(self, gens, data):
        group = finite_closure(gens)
        assert not spans_superdiagonal(gens)
        n, p, k = gens[0].n, gens[0].p, gens[0].k
        words = [data.draw(st.lists(st.sampled_from(gens), max_size=8)) for _ in range(5)]
        members = [reduce(operator.mul, word, group.identity) for word in words]
        perturbed = []
        for x in members:
            rows = [list(r) for r in x.rows]
            i = data.draw(st.integers(0, n - 2))
            j = data.draw(st.integers(i + 1, n - 1))
            rows[i][j] = (rows[i][j] + data.draw(st.integers(1, p**k - 1))) % p**k
            perturbed.append(ResidueUT(rows, p, k))
        probes = members + perturbed + [data.draw(residue_matrices(n, p, k)) for _ in range(5)]
        answers = [x in group for x in probes]
        assert "elements" not in vars(group)
        assert all(answers[: len(members)])
        built = set(group.elements)
        assert answers == [x in built for x in probes]

    def test_digit_above_one_of_a_step_with_nonzero_square(self):
        # h = I + E01 + E12 mod 3: h^-1 = I + N with N^2 = E02, so h^-2 is not
        # I + 2N, and the digit 2 of h^2 must take the power of the inverse.
        h = ResidueUT([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 3, 1)
        group = finite_closure([h])
        assert group.order == 3
        assert h * h in group
        off = ResidueUT([[1, 2, 0], [0, 1, 2], [0, 0, 1]], 3, 1)
        assert off not in group and off * h not in group
        assert set(group.elements) == {group.identity, h, h * h}

    def test_construction_and_membership_list_no_normal_form(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("normal forms listed")

        monkeypatch.setattr(finite, "_normal_forms", refuse)
        gens = [reduce_mod(g, 3, 2) for g in heis5_spec().generators]
        group = finite_closure(gens)
        assert group.order == 3**10
        a1, a2, b1, b2 = gens
        assert a1 * b1 * a1 in group and b2**4 * a2 in group
        outside = ResidueUT([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3, 2)
        assert outside not in group and a1 * outside not in group
        with pytest.raises(RuntimeError, match="normal forms listed"):
            group.elements


class TestOneGroupClass:
    """Deferred and listed groups are one class, listed once on first use."""

    KINDS = {
        "closure": lambda: finite_closure(heis_residue_gens(2, 2)),
        "non-full closure": lambda: finite_closure(
            [reduce_mod(g, 2, 1) for g in heis5_spec().generators]),
        "closure product": lambda: direct_product(
            finite_closure(heis_residue_gens(3, 1)), cyclic(2)),
        "table product": lambda: direct_product(dihedral4(), quaternion8()),
    }

    def test_no_attribute_hook(self):
        assert not hasattr(FiniteGroup, "__getattr__")

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_class_listed_once(self, kind):
        group = self.KINDS[kind]()
        calls, build = [], group._build

        def counted():
            calls.append(1)
            return build()

        group._build = counted
        assert type(group) is FiniteGroup
        assert "elements" not in vars(group) and "_index" not in vars(group)
        a, b = group.generators[0], group.generators[-1]
        probes = [a, b, group.mul(a, b), group.identity, None, (a, a, a), "e"]
        before = [x in group for x in probes]
        assert group.index(group.identity) == 0
        elements = group.elements
        assert group.elements is elements and len(elements) == group.order
        assert calls == [1]
        assert type(group) is FiniteGroup
        assert [x in group for x in probes] == before
        assert before[:4] == [True] * 4 and not any(before[4:])


class TestGroupHom:
    def test_quotient_hom_preserves_products(self):
        q8 = quaternion8()
        center = next(n for n in q8.normal_subgroups() if len(n) == 2)
        _, hom = q8.quotient(center)
        pairs = [(x, y) for x in q8.elements for y in q8.elements]
        assert all(hom(q8.mul(x, y)) == hom.codomain.mul(hom(x), hom(y)) for x, y in pairs)


class TestValidationCatchesCorruption:
    def test_corrupted_table_fails_closure(self):
        c3 = cyclic(3)
        bad = FiniteGroup(
            name="C3corrupt",
            elements=c3.elements,
            mul=lambda x, y: 99 if (x, y) == (1, 2) else (x + y) % 3,
            identity=0,
            generators=(1,),
        )
        outcomes = {name: ok for name, ok, _ in bad.validate()}
        assert outcomes["closure"] is False

    def test_wrong_inverse_fails_inverses(self):
        # Every x taken as its own inverse: in C5 only 0 is.
        bad = FiniteGroup("C5", range(5), lambda x, y: (x + y) % 5, 0, (1,),
                          inv=lambda x: x)
        outcomes = {name: (ok, detail) for name, ok, detail in bad.validate()}
        assert outcomes["inverses"] == (False, "1 * inverse is not the identity")
        assert outcomes["closure"] == outcomes["identity"] == (True, "")

    def test_missing_inverse_fails_inverses(self):
        # Multiplication mod 3 is closed with identity 1, but 0 has no inverse.
        bad = FiniteGroup("Z3mul", range(3), lambda x, y: x * y % 3, 1, (2,))
        outcomes = {name: (ok, detail) for name, ok, detail in bad.validate()}
        assert outcomes["inverses"] == (False, "0 has no inverse")
        assert outcomes["closure"] == outcomes["identity"] == (True, "")

    def test_corrupted_table_lists_a_normal_subgroup_twice(self):
        # With 1 * 1 = 1, conjugation by 1 takes 1 to the identity: the
        # "classes" {0} and {0, 1} overlap, and one mask is reached from two
        # parents.
        table = {(x, y): (x + y) % 5 for x in range(5) for y in range(5)}
        table[1, 1] = 1
        bad = FiniteGroup("C5corrupt", range(5), lambda x, y: table[x, y], 0, (1,),
                          inv=lambda x: -x % 5)
        with pytest.raises(VerificationFailed, match="listed twice"):
            bad.normal_subgroups()
