import pytest

from conjsep.errors import SizeLimit
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
from conjsep.groupspec import heisenberg_spec
from conjsep.unitri import ResidueUT, reduce_mod

from _oracles import brute_conjugate, naive_normal, reference_normal_subgroups


def heis_residue_gens(p, k):
    spec = heisenberg_spec()
    return [reduce_mod(g, p, k) for g in spec.generators]


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
        steps = list(orbit(0, (2, 3), lambda x, s: (x + s) % 6))
        assert steps == [(0, None, None), (2, 0, 0), (3, 0, 1), (4, 2, 0), (5, 2, 1), (1, 4, 1)]

    def test_conjugation_edges_conjugate_by_their_generator(self):
        for group in (sym3(), dihedral4(), quaternion8()):
            for x in group.elements:
                steps = list(group.conjugation_orbit(x))
                assert steps[0] == (x, None, None)
                assert {point for point, _, _ in steps} == group.class_of(x)
                for point, parent, i in steps[1:]:
                    s = group.generators[i]
                    assert point == group.mul(group.inverse(s), group.mul(parent, s))


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
        assert group.normal_subgroups() == reference_normal_subgroups(group)

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
        assert hom.preserves_products(pairs, s3.mul)

    def test_d4_mod_center_is_klein(self):
        d4 = dihedral4()
        center = next(n for n in d4.normal_subgroups() if len(n) == 2)
        quot, _ = d4.quotient(center)
        assert quot.order == 4
        assert all(quot.mul(x, x) == quot.identity for x in quot.elements)

    def test_rejects_non_normal(self):
        d4 = dihedral4()
        s = (0, 1)
        reflection_pair = frozenset({d4.identity, s})
        with pytest.raises(ValueError):
            d4.quotient(reflection_pair)


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

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            finite_closure(heis_residue_gens(2, 3), max_order=100)

    def test_closure_group_axioms(self):
        group = finite_closure(heis_residue_gens(2, 2))
        assert all(ok for _, ok, _ in group.validate())


class TestGroupHom:
    def test_quotient_hom_preserves_products(self):
        q8 = quaternion8()
        center = next(n for n in q8.normal_subgroups() if len(n) == 2)
        _, hom = q8.quotient(center)
        pairs = [(x, y) for x in q8.elements for y in q8.elements]
        assert hom.preserves_products(pairs, q8.mul)

    def test_broken_map_detected(self):
        c4 = cyclic(4)
        c2 = cyclic(2)
        from conjsep.finite import GroupHom

        bad = GroupHom("halve, wrongly", c4, c2, lambda x: 1 if x == 2 else x % 2)
        pairs = [(x, y) for x in c4.elements for y in c4.elements]
        assert not bad.preserves_products(pairs, c4.mul)


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
