import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conjsep.conjugacy import (
    CosetDecision,
    CosetQuery,
    class2_conjugate,
    conjugate_in_finite,
    conjugate_in_product,
    coset_conjugacy_separable,
    enumerate_p_quotient_kernels,
    is_conjugacy_p_separable,
    quotient_coset_equivalence,
)
from conjsep.errors import ClassTooHigh, NonAbelianPart, SizeLimit
from conjsep.finite import cyclic, dihedral4, direct_product, finite_closure, quaternion8, sym3
from conjsep.groupspec import (
    MatrixGroupSpec,
    coords_to_element,
    element_coords,
    heisenberg_spec,
    preset,
    ut4_spec,
)
from conjsep.intlin import valuation
from conjsep.unitri import UTMatrix, reduce_mod

from _oracles import brute_conjugate

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

    def test_budget(self):
        with pytest.raises(SizeLimit):
            enumerate_p_quotient_kernels(dihedral4(), 2, max_order=4)

    def test_budget_checked_when_kernels_are_cached(self):
        d4 = dihedral4()
        kernels = enumerate_p_quotient_kernels(d4, 2)
        assert enumerate_p_quotient_kernels(d4, 2) is kernels
        assert enumerate_p_quotient_kernels(d4, 3) == (frozenset(d4.elements),)
        with pytest.raises(SizeLimit):
            enumerate_p_quotient_kernels(d4, 2, max_order=4)


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

# Every lattice now claims membership with made-up coefficients, so the
# non-conjugate pair a^3, a^3 c gets a conjugator that fails its re-check.
Lattice.contains = lambda self, v: Membership(True, (1,) * len(self.basis))
try:
    class2_conjugate(heis, a**3, a**3 * c)
except VerificationFailed:
    pass
else:
    raise SystemExit("class-2 conjugator re-check did not raise")
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
