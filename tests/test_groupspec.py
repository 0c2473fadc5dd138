import json

import pytest

from conjsep import groupspec
from conjsep.errors import SpecParseError, SpecRejected
from conjsep.finite import quaternion8, trivial_group
from conjsep.groupspec import (
    QUOTIENT_CACHE_SIZE,
    MatrixGroupSpec,
    center_lattice,
    center_support,
    center_vector,
    congruence_quotient,
    coords_to_element,
    element_coords,
    free_abelian_rank2_spec,
    heis5_spec,
    heisenberg_spec,
    in_center_span,
    is_abelian,
    load_spec,
    parse_element,
    preset,
    preset_names,
    torsion_subgroup,
    ut4_spec,
    verify_spec,
)
from conjsep.unitri import ResidueUT, UTMatrix


class TestVerifySpec:
    @pytest.mark.parametrize("name", sorted(preset_names()))
    def test_all_presets_verify(self, name):
        report = verify_spec(preset(name).matrix_part)
        assert report.passed

    def test_heisenberg_check_names(self):
        report = verify_spec(heisenberg_spec())
        assert report.checks == (
            "shape",
            "center-additive",
            "center-commutes",
            "class-declaration",
            "class2-commutators",
            "z2-commutators",
            "z2-outside-center",
        )

    def test_noncentral_center_generator_rejected(self):
        heis = heisenberg_spec()
        a, b = heis.generators
        mutated = heis._replace(center_gens=(a,), center_names=("a",))
        with pytest.raises(SpecRejected) as err:
            verify_spec(mutated)
        assert err.value.check == "center-commutes"
        assert "a" in err.value.detail and "b" in err.value.detail

    def test_central_z2_rep_rejected(self):
        heis = heisenberg_spec()
        c = heis.center_gens[0]
        mutated = heis._replace(z2_rep=c**5, z2_name="c5")
        with pytest.raises(SpecRejected) as err:
            verify_spec(mutated)
        assert err.value.check == "z2-in-center"

    def test_ut4_bad_z2_rep_rejected(self):
        ut4 = ut4_spec()
        x12 = ut4.generators[0]
        mutated = ut4._replace(z2_rep=x12, z2_name="x12")
        with pytest.raises(SpecRejected) as err:
            verify_spec(mutated)
        assert err.value.check == "z2-commutators"

    def test_wrong_class_declarations_rejected(self):
        z2 = free_abelian_rank2_spec()
        with pytest.raises(SpecRejected) as err:
            verify_spec(z2._replace(declared_class=2))
        assert err.value.check == "class-declaration"
        heis = heisenberg_spec()
        with pytest.raises(SpecRejected) as err:
            verify_spec(heis._replace(declared_class=1))
        assert err.value.check == "class-declaration"

    def test_understated_class_rejected(self):
        # UT(4) is class 3: declaring class 2 must fail the commutator check
        ut4 = ut4_spec()
        with pytest.raises(SpecRejected) as err:
            verify_spec(ut4._replace(declared_class=2))
        assert err.value.check == "class2-commutators"

    def test_empty_center_rejected_for_heisenberg(self):
        heis = heisenberg_spec()
        mutated = heis._replace(center_gens=(), center_names=())
        with pytest.raises(SpecRejected):
            verify_spec(mutated)

    def test_abelian_preset_without_z2(self):
        z2 = free_abelian_rank2_spec()
        assert z2.z2_rep is None
        report = verify_spec(z2)
        assert report.passed
        assert z2.declared_class == 1

    def test_heis5_central_z2_rep_rejected(self):
        h5 = heis5_spec()
        c = h5.center_gens[0]
        with pytest.raises(SpecRejected) as err:
            verify_spec(h5._replace(z2_rep=c, z2_name="c"))
        assert err.value.check == "z2-in-center"

    def test_ut4_noncentral_center_generator_rejected(self):
        ut4 = ut4_spec()
        x13 = ut4.z2_rep
        mutated = ut4._replace(center_gens=(x13,), center_names=("x13",))
        with pytest.raises(SpecRejected) as err:
            verify_spec(mutated)
        assert err.value.check == "center-commutes"
        assert "x13" in err.value.detail and "x34" in err.value.detail

    @pytest.mark.parametrize("change, detail", [
        ({"z2_rep": UTMatrix.identity(4)}, "a is 4x4, spec says n=3"),
        ({"declared_class": 0}, "declared_class must be >= 1, got 0"),
        ({"generators": (), "gen_names": ()}, "no generators"),
    ], ids=["size", "class", "generators"])
    def test_shape_rejected(self, change, detail):
        mutated = heisenberg_spec()._replace(**change)
        with pytest.raises(SpecRejected) as err:
            verify_spec(mutated)
        assert (err.value.check, err.value.detail) == ("shape", detail)

    def test_nonadditive_center_rejected(self):
        # centre generator whose nilpotent part does not square to zero
        g = UTMatrix.from_entries(3, {(0, 1): 1, (1, 2): 1})
        spec = MatrixGroupSpec(
            name="bad", n=3, generators=(g,), center_gens=(g,), z2_rep=None,
            declared_class=1,
        )
        with pytest.raises(SpecRejected) as err:
            verify_spec(spec)
        assert err.value.check == "center-additive"


class TestCenterCoordinates:
    def test_support_and_vector(self):
        heis = heisenberg_spec()
        assert center_support(heis) == ((0, 2),)
        c = heis.center_gens[0]
        assert center_vector(heis, c**7) == (7,)
        assert center_vector(heis, heis.generators[0]) is None

    def test_center_lattice_membership(self):
        heis = heisenberg_spec()
        c = heis.center_gens[0]
        assert in_center_span(heis, c**-4).member
        assert not in_center_span(heis, heis.generators[1]).member

    def test_rank2_center(self):
        z2 = free_abelian_rank2_spec()
        assert center_lattice(z2).rank == 2

    def test_center_caches_are_bounded(self):
        for cached in (center_support, center_lattice, verify_spec, is_abelian):
            assert cached.cache_info().maxsize == QUOTIENT_CACHE_SIZE

    def test_equal_specs_hash_equal_and_share_one_entry(self, monkeypatch):
        rep = UTMatrix.from_entries(5, {(0, 1): 1, (3, 4): 1})
        pairs = [
            (heis5_spec(), heis5_spec()),
            (heis5_spec().with_z2_rep(rep), heis5_spec().with_z2_rep(rep, "z2-override")),
        ]
        for first, second in pairs:
            assert first is not second and first == second
            assert hash(first) == hash(second)
            assert hash(first) == hash(tuple(getattr(first, f)
                                             for f in first._fields))
            center_support.cache_clear()
            assert center_support(first) == center_support(second)
            info = center_support.cache_info()
            assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert hash(pairs[0][0]) != hash(pairs[1][0])
        # The hash is taken once, at construction: hashing again hashes no matrix.
        spec = heis5_spec()
        calls = []
        monkeypatch.setattr(UTMatrix, "__hash__", lambda u: calls.append(u) or 0)
        hash(spec)
        center_support(spec)
        assert calls == []


class TestPerSpecVerdicts:
    """verify_spec and is_abelian keep their verdicts per spec value."""

    @pytest.mark.parametrize("cached", [verify_spec, is_abelian])
    def test_equal_specs_share_one_entry(self, cached):
        first, second = heis5_spec(), heis5_spec()
        assert first is not second and first == second
        cached.cache_clear()
        verdict = cached(first)
        assert cached(second) is verdict
        info = cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_a_rejection_is_never_kept(self):
        heis = heisenberg_spec()
        bad = heis._replace(z2_rep=heis.center_gens[0] ** 5, z2_name="c5")
        verify_spec.cache_clear()
        for _ in range(2):
            with pytest.raises(SpecRejected) as err:
                verify_spec(bad)
            assert err.value.check == "z2-in-center"
        info = verify_spec.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_a_z2_override_is_checked_as_a_new_spec(self):
        heis = heisenberg_spec()
        a, b = heis.generators
        verify_spec.cache_clear()
        assert verify_spec(heis).passed
        with pytest.raises(SpecRejected) as err:
            verify_spec(heis.with_z2_rep(heis.center_gens[0] ** 3))
        assert err.value.check == "z2-in-center"
        assert verify_spec(heis.with_z2_rep(a * b)).passed
        info = verify_spec.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 2)


class TestCoordinates:
    def test_heisenberg_round_trip(self):
        heis = heisenberg_spec()
        for coords in [(3, 0, 1), (0, 0, 0), (-2, 5, 7), (1, 1, 1)]:
            elt = coords_to_element(heis, coords)
            assert element_coords(heis, elt) == coords

    def test_heisenberg_matrix_form(self):
        heis = heisenberg_spec()
        elt = coords_to_element(heis, (3, 0, 1))
        assert elt == UTMatrix.from_entries(3, {(0, 1): 3, (0, 2): 1})

    def test_ut4_round_trip(self):
        ut4 = ut4_spec()
        coords = (2, -1, 3, 0, 4, -5)
        assert element_coords(ut4, coords_to_element(ut4, coords)) == coords

    def test_heis5_round_trip(self):
        h5 = heis5_spec()
        coords = (1, -2, 3, 0, 2)
        assert element_coords(h5, coords_to_element(h5, coords)) == coords

    def test_wrong_arity(self):
        with pytest.raises(SpecParseError):
            coords_to_element(heisenberg_spec(), (1, 2))


class TestPresetPins:
    """Every field of the matrix presets, against a literal table.  A
    position (i, j) stands for the elementary matrix I + E_ij."""

    # name -> (constructor, n, generators, centre, (z2 position, z2 name),
    #          declared class, Mal'cev basis); a list holds (name, position)
    MATRIX = {
        "heisenberg": (
            "heisenberg_spec", 3,
            [("a", (0, 1)), ("b", (1, 2))],
            [("c", (0, 2))],
            ((0, 1), "a"), 2,
            [("a", (0, 1)), ("b", (1, 2)), ("c", (0, 2))],
        ),
        "z": (
            "free_abelian_rank1_spec", 2,
            [("a", (0, 1))],
            [("a", (0, 1))],
            (None, "z2"), 1,
            [("a", (0, 1))],
        ),
        "z2": (
            "free_abelian_rank2_spec", 3,
            [("a", (0, 1)), ("b", (0, 2))],
            [("a", (0, 1)), ("b", (0, 2))],
            (None, "z2"), 1,
            [("a", (0, 1)), ("b", (0, 2))],
        ),
        "ut4": (
            "ut4_spec", 4,
            [("x12", (0, 1)), ("x23", (1, 2)), ("x34", (2, 3))],
            [("x14", (0, 3))],
            ((0, 2), "x13"), 3,
            [("x12", (0, 1)), ("x23", (1, 2)), ("x34", (2, 3)),
             ("x13", (0, 2)), ("x24", (1, 3)), ("x14", (0, 3))],
        ),
        "heis5": (
            "heis5_spec", 4,
            [("a1", (0, 1)), ("a2", (0, 2)), ("b1", (1, 3)), ("b2", (2, 3))],
            [("c", (0, 3))],
            ((0, 1), "a1"), 2,
            [("a1", (0, 1)), ("a2", (0, 2)), ("b1", (1, 3)), ("b2", (2, 3)), ("c", (0, 3))],
        ),
    }

    # product preset -> (matrix part, finite part)
    PRODUCT = {
        "heisenberg": ("heisenberg", "1"),
        "z": ("z", "1"),
        "z2": ("z2", "1"),
        "ut4": ("ut4", "1"),
        "heis5": ("heis5", "1"),
        "zxc2": ("z", "C2"),
        "zxc3": ("z", "C3"),
        "zxc6": ("z", "C6"),
        "zxq8": ("z", "Q8"),
        "zxd4": ("z", "D4"),
        "heisxc2": ("heisenberg", "C2"),
    }

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_matrix_preset_fields(self, name):
        ctor, n, gens, centre, (z2_pos, z2_name), cls, basis = self.MATRIX[name]
        spec = getattr(groupspec, ctor)()

        def unit(pos):
            return UTMatrix.from_entries(n, {pos: 1})

        assert groupspec._MATRIX_PRESETS[name] is getattr(groupspec, ctor)
        assert (spec.name, spec.n, spec.declared_class) == (name, n, cls)
        assert spec.gen_names == tuple(nm for nm, _ in gens)
        assert spec.generators == tuple(unit(pos) for _, pos in gens)
        assert spec.center_names == tuple(nm for nm, _ in centre)
        assert spec.center_gens == tuple(unit(pos) for _, pos in centre)
        assert spec.z2_rep == (None if z2_pos is None else unit(z2_pos))
        assert spec.z2_name == z2_name
        assert spec.malcev_basis == tuple((nm, unit(pos)) for nm, pos in basis)

    def test_preset_names_and_product_parts(self):
        assert sorted(groupspec._MATRIX_PRESETS) == sorted(self.MATRIX)
        assert preset_names() == tuple(sorted(self.PRODUCT))
        for name, (matrix, finite) in self.PRODUCT.items():
            product = preset(name)
            assert product.name == name
            assert product.matrix_part.name == matrix
            assert product.finite_part.name == finite


class TestAbelianAndTorsion:
    def test_is_abelian(self):
        assert is_abelian(free_abelian_rank2_spec()).abelian
        heis = is_abelian(heisenberg_spec())
        assert not heis.abelian and heis.witness == ("a", "b")
        assert not is_abelian(ut4_spec()).abelian

    def test_torsion_subgroup(self):
        assert torsion_subgroup(preset("zxq8")).order == 8
        assert torsion_subgroup(preset("heisenberg")).order == 1
        assert torsion_subgroup(preset("zxc6")).order == 6


class TestCongruenceQuotient:
    def test_hom_preserves_products(self):
        heis = heisenberg_spec()
        quot, hom = congruence_quotient(heis, 2, 2)
        assert quot.order == 64
        a, b = heis.generators
        pairs = [(a, b), (b, a), (a * b, b), (a**3, b**-2)]
        assert all(hom(x * y) == hom.codomain.mul(hom(x), hom(y)) for x, y in pairs)

    def test_cached(self):
        heis = heisenberg_spec()
        q1, _ = congruence_quotient(heis, 2, 1)
        q2, _ = congruence_quotient(heis, 2, 1)
        assert q1 is q2

    def test_generator_labels_format_no_entries(self, monkeypatch):
        heis = heisenberg_spec()
        quot, hom = congruence_quotient(heis, 3, 2)
        calls = []
        entries = ResidueUT.upper_entries
        monkeypatch.setattr(ResidueUT, "upper_entries", lambda r: calls.append(r) or entries(r))
        a, b = heis.generators
        assert [quot.label(hom(g)) for g in (a, b)] == ["a", "b"]
        assert calls == []
        assert quot.label(hom(a * b**-1)) == "(1,8,8)"
        assert calls == [hom(a * b**-1)]

    def test_cache_is_bounded_and_counted(self):
        before = congruence_quotient.cache_info()
        # room for every level of a few towers, but not unbounded
        assert before.maxsize == QUOTIENT_CACHE_SIZE and 10 <= QUOTIENT_CACHE_SIZE <= 64
        congruence_quotient(heisenberg_spec(), 2, 1)
        congruence_quotient(heisenberg_spec(), 2, 1)
        assert congruence_quotient.cache_info().hits >= before.hits + 1


class TestJsonInput:
    def heisenberg_doc(self):
        return {
            "name": "heis-json",
            "n": 3,
            "generators": [
                [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
            ],
            "center_gens": [[[1, 0, 1], [0, 1, 0], [0, 0, 1]]],
            "z2_rep": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            "declared_class": 2,
            "finite_part": {"kind": "preset", "name": "Q8"},
        }

    def test_load_from_dict(self):
        group = load_spec(self.heisenberg_doc())
        assert group.matrix_part.generators == heisenberg_spec().generators
        assert group.finite_part.order == quaternion8().order
        assert verify_spec(group.matrix_part).passed

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.heisenberg_doc()))
        group = load_spec(str(path))
        assert group.name == "heis-json"

    def test_trivial_finite_part(self):
        doc = self.heisenberg_doc()
        doc["finite_part"] = None
        group = load_spec(doc)
        assert group.finite_part.order == trivial_group().order

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("generators"),
            lambda d: d.update(n="three"),
            lambda d: d.update(generators=[[[1, 0], [0, 1]]]),
            lambda d: d.update(generators=[[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]),
            lambda d: d.update(declared_class=0),
            lambda d: d.update(finite_part={"kind": "preset", "name": "nope"}),
            lambda d: d.update(generators=[]),
        ],
    )
    def test_bad_documents(self, mutate):
        doc = self.heisenberg_doc()
        mutate(doc)
        with pytest.raises(SpecParseError):
            load_spec(doc)

    @pytest.mark.parametrize("key", ["n", "declared_class"])
    def test_booleans_are_not_integers(self, key):
        doc = {"name": "x", "n": 1, "generators": [[[1]]], "center_gens": [], "declared_class": 1}
        assert load_spec(dict(doc)).matrix_part.n == 1
        doc[key] = True
        with pytest.raises(SpecParseError, match="positive integer"):
            load_spec(doc)

    def test_bad_json_text(self):
        with pytest.raises(SpecParseError):
            load_spec("{not json")

    def test_missing_file(self):
        with pytest.raises(SpecParseError):
            load_spec("/definitely/not/here.json")


class TestParseElement:
    def test_coords_and_label(self):
        group = preset("zxd4")
        matrix, felt = parse_element(group, "5|r3")
        assert element_coords(group.matrix_part, matrix) == (5,)
        assert group.finite_part.label(felt) == "r3"

    def test_defaults(self):
        group = preset("zxd4")
        matrix, felt = parse_element(group, "")
        assert matrix.is_identity()
        assert felt == group.finite_part.identity

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "elt.json"
        path.write_text("[[1, 4, 0], [0, 1, 0], [0, 0, 1]]")
        group = preset("heisenberg")
        matrix, _ = parse_element(group, f"{path}|")
        assert element_coords(group.matrix_part, matrix) == (4, 0, 0)

    def test_bad_inputs(self):
        group = preset("zxd4")
        with pytest.raises(SpecParseError):
            parse_element(group, "x|r")
        with pytest.raises(SpecParseError):
            parse_element(group, "0|nope")
