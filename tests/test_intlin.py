import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsep import intlin
from conjsep.errors import NotCoprime, NotInLattice
from conjsep.intlin import (
    IntMatrix,
    Lattice,
    det,
    hnf,
    is_column_hnf,
    is_prime,
    mod_inverse,
    power_solvable,
    prime_power_exponent,
    require_prime,
    smallest_prime_excluding,
    snf,
    valuation,
    xgcd,
)

from _oracles import (
    brute_lattice_member,
    reference_canonical_basis,
    reference_contains,
    reference_echelon,
    reference_hnf,
    sympy_det,
)


@st.composite
def small_matrices(draw, max_dim=5, span=9):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.integers(-span, span), min_size=rows * cols, max_size=rows * cols)
    )
    return IntMatrix(rows, cols, entries)


@st.composite
def big_matrices(draw, max_dim=5):
    """Matrices of up to max_dim rows and columns, either possibly 0, with
    entries often 0 or small and otherwise up to 10^12 in size."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entry = st.just(0) | st.integers(-9, 9) | st.integers(-(10**12), 10**12)
    return IntMatrix(rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


class TestScalarArithmetic:
    def test_xgcd_bezout(self):
        for a in range(-30, 31):
            for b in range(-30, 31):
                g, x, y = xgcd(a, b)
                assert g >= 0
                assert a * x + b * y == g
                if a or b:
                    assert a % g == 0 and b % g == 0

    def test_mod_inverse_examples(self):
        assert mod_inverse(3, 8) == 3
        assert mod_inverse(1, 5) == 1
        with pytest.raises(NotCoprime):
            mod_inverse(2, 4)

    def test_mod_inverse_exhaustive_to_1000(self):
        for m in range(2, 1001):
            for a in range(1, m):
                if xgcd(a, m)[0] != 1:
                    continue
                k = mod_inverse(a, m)
                assert 1 <= k < m
                assert (a * k) % m == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(10**30), 10**30) | st.integers(-50, 50),
        st.integers(1, 10**30) | st.integers(1, 50),
    )
    def test_mod_inverse_matches_xgcd(self, a, m):
        g, x, _ = xgcd(a, m)
        if g == 1:
            assert mod_inverse(a, m) == x % m
        else:
            with pytest.raises(NotCoprime, match=rf"^gcd\({a}, {m}\) = {g} > 1$"):
                mod_inverse(a, m)

    def test_mod_inverse_edge_cases(self):
        assert mod_inverse(-3, 7) == 2
        assert mod_inverse(-1, 10**20) == 10**20 - 1
        assert [mod_inverse(a, 1) for a in (-5, 0, 1, 12)] == [0, 0, 0, 0]
        for a, m, g in ((0, 6, 6), (-4, 6, 2), (10**12, 10**8, 10**8)):
            with pytest.raises(NotCoprime) as err:
                mod_inverse(a, m)
            assert str(err.value) == f"gcd({a}, {m}) = {g} > 1"
        for m in (0, -7):
            with pytest.raises(ValueError, match="modulus must be positive") as err:
                mod_inverse(3, m)
            assert not isinstance(err.value, NotCoprime)

    def test_prime_power_exponent(self):
        assert prime_power_exponent(8, 2) == 3
        assert prime_power_exponent(1, 2) == 0
        assert prime_power_exponent(1, 7) == 0
        assert prime_power_exponent(12, 2) is None
        assert prime_power_exponent(3**7, 3) == 7

    def test_primes(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_smallest_prime_excluding_matches_sympy(self):
        for p in range(-5, 2001):
            assert smallest_prime_excluding(p) == next(
                q for q in sympy.primerange(2, 10) if q != p), p

    @pytest.mark.parametrize("n", [2**89 - 1, intlin._PSEUDOPRIME_BOUND])
    def test_is_prime_refuses_an_undecided_n_at_once(self, n):
        # A prime and a strong pseudoprime to all 13 bases, neither with a
        # factor among the bases: no test here decides them.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="undecided"):
            is_prime(n)
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("n", [2**100, 3 * intlin._PSEUDOPRIME_BOUND])
    def test_is_prime_still_decides_a_small_factor_past_the_bound(self, n):
        start = time.perf_counter()
        assert not is_prime(n)
        assert time.perf_counter() - start < 0.01

    def test_is_prime_matches_sympy(self):
        assert all(is_prime(n) == sympy.isprime(n) for n in range(-10, 10**5))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_is_prime_matches_sympy_on_64_bit(self, n):
        assert is_prime(n) == sympy.isprime(n)

    def test_is_prime_rejects_strong_pseudoprimes(self):
        # Strong pseudoprimes to the bases 2, 3, 5 and 7; to every prime base
        # up to 31; and to every one up to 37, which only base 41 exposes.
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
        # A Mersenne prime, and the largest prime below the bound of the
        # deterministic test.
        assert is_prime(2**61 - 1) and is_prime(3317044064679887385961813)

    def test_is_prime_is_fast_on_a_large_prime(self):
        start = time.perf_counter()
        assert is_prime(10**16 + 61)
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("p", [3317044064679887385961981, 2**89 - 1])
    def test_require_prime_refuses_p_past_the_bound_at_once(self, p):
        # A strong pseudoprime to all 13 bases, and a prime: `is_prime`
        # decides neither, and p is refused before it is asked.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"p must be below {intlin._PSEUDOPRIME_BOUND}"):
            require_prime(p)
        assert time.perf_counter() - start < 0.01

    def test_valuation(self):
        assert valuation(8, 2) == 3
        assert valuation(-24, 2) == 3
        assert valuation(5, 2) == 0
        with pytest.raises(ValueError):
            valuation(0, 2)


BAD_PRIMES = r"""
from conjsep.groupspec import heisenberg_spec
from conjsep.intlin import valuation
from conjsep.separability import residual_depth

g = heisenberg_spec().generators[0]
calls = [lambda p=p: valuation(12, p) for p in (1, -1, 0, -2)]
for call in calls + [lambda: residual_depth(g, 1)]:
    try:
        call()
    except ValueError as exc:
        assert "p must be >= 2" in str(exc), exc
    else:
        raise SystemExit("no ValueError for a prime below 2")
"""


def test_valuation_rejects_bad_primes():
    # In a subprocess with a timeout, so that a valuation loop that never ends
    # fails this test instead of hanging the suite.
    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", BAD_PRIMES], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stdout + done.stderr


class TestHermiteForm:
    def test_identity(self):
        ident = IntMatrix.identity(2)
        h, u = hnf(ident)
        assert h == ident and u == ident

    def test_full_rank_2x2(self):
        a = IntMatrix.from_rows([[2, 1], [0, 1]])
        h, u = hnf(a)
        assert a @ u == h
        assert abs(sympy_det(u)) == 1
        assert is_column_hnf(h)
        # the column span is an index-2 sublattice of Z^2
        assert h == IntMatrix.from_rows([[1, 0], [1, 2]])

    def test_gcd_pivot_1x2(self):
        a = IntMatrix.from_rows([[4, 6]])
        h, u = hnf(a)
        assert h == IntMatrix.from_rows([[2, 0]])
        assert a @ u == h
        assert abs(sympy_det(u)) == 1

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_hnf_identities(self, a):
        h, u = hnf(a)
        assert a @ u == h
        assert abs(sympy_det(u)) == 1
        assert det(u) == sympy_det(u)
        assert is_column_hnf(h)
        h2, _ = hnf(h)
        assert h2 == h

    @settings(max_examples=300, deadline=None)
    @given(big_matrices())
    def test_hnf_and_echelon_match_transposing_reference(self, a):
        (h, u), (ref_h, ref_u) = hnf(a), reference_hnf(a)
        assert (h.rows, h.cols, h.entries) == (ref_h.rows, ref_h.cols, ref_h.entries)
        assert (u.rows, u.cols, u.entries) == (ref_u.rows, ref_u.cols, ref_u.entries)
        lat = Lattice(a.rows, [a.col(j) for j in range(a.cols)])
        canon, pivots, transform = lat._reduce()
        assert (canon.basis, pivots, transform) == reference_echelon(lat)


@pytest.mark.parametrize("rows", [
    [[0, 1]],  # a zero column comes first
    [[0, 1], [1, 0]],  # the pivot rows do not increase
    [[-1]],  # the pivot is negative
    [[2, 0], [3, 2]],  # an entry left of a pivot lies outside [0, pivot)
    [[1, 1], [0, 1]],  # an entry right of a pivot is nonzero
], ids=["zero-column-first", "pivot-rows-decrease", "negative-pivot",
        "left-entry-reduced", "right-entry-nonzero"])
def test_is_column_hnf_refuses_each_broken_rule(rows):
    assert not is_column_hnf(IntMatrix.from_rows(rows))


@st.composite
def square_matrices(draw, max_dim=5, span=4):
    """Square matrices, 0 x 0 included, often singular: one column may be
    replaced by a multiple (zero included) of another."""
    n = draw(st.integers(0, max_dim))
    rows = [draw(st.lists(st.integers(-span, span), min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        index = st.integers(0, n - 1)
        src, dst, k = draw(index), draw(index), draw(st.integers(-2, 2))
        for row in rows:
            row[dst] = k * row[src]
    return IntMatrix(n, n, [x for row in rows for x in row])


class TestDeterminant:
    def test_empty_matrix(self):
        assert det(IntMatrix(0, 0, [])) == 1

    @settings(max_examples=200, deadline=None)
    @given(square_matrices())
    def test_matches_sympy(self, a):
        assert det(a) == sympy_det(a)


class TestSmithForm:
    def test_zero(self):
        a = IntMatrix.zero(2, 3)
        d, u, v = snf(a)
        assert d == a
        assert u == IntMatrix.identity(2)
        assert v == IntMatrix.identity(3)

    def test_divisibility_chain(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        d, u, v = snf(a)
        assert d == IntMatrix.from_rows([[1, 0], [0, 6]])
        assert (u @ a) @ v == d

    def test_rank_one(self):
        a = IntMatrix.from_rows([[1, 1], [1, 1]])
        d, _, _ = snf(a)
        assert d == IntMatrix.from_rows([[1, 0], [0, 0]])

    @pytest.mark.parametrize(
        "rows,diag",
        [
            ([[4, 6, 10]], [2]),
            ([[6], [-4], [10]], [2]),
            ([[0, 0], [0, 3]], [3, 0]),
            ([[4, 0], [0, 6]], [2, 12]),
        ],
    )
    def test_explicit_cases(self, rows, diag):
        a = IntMatrix.from_rows(rows)
        d, u, v = snf(a)
        expected = [[diag[i] if i == j else 0 for j in range(a.cols)] for i in range(a.rows)]
        assert d == IntMatrix.from_rows(expected)
        assert (u @ a) @ v == d
        assert abs(sympy_det(u)) == 1 and abs(sympy_det(v)) == 1

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_snf_identities(self, a):
        d, u, v = snf(a)
        assert (u @ a) @ v == d
        assert abs(sympy_det(u)) == 1
        assert abs(sympy_det(v)) == 1
        diag = [d.at(i, i) for i in range(min(a.rows, a.cols))]
        assert all(
            d.at(i, j) == 0 for i in range(a.rows) for j in range(a.cols) if i != j
        )
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0

    @settings(max_examples=60, deadline=None)
    @given(small_matrices(max_dim=4, span=6))
    def test_snf_matches_sympy_invariant_factors(self, a):
        import sympy
        from sympy.matrices.normalforms import smith_normal_form

        d, _, _ = snf(a)
        mine = [d.at(i, i) for i in range(min(a.rows, a.cols))]
        theirs_m = smith_normal_form(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
        theirs = [
            abs(int(theirs_m[i, i])) for i in range(min(a.rows, a.cols))
        ]
        assert mine == theirs


class TestLattice:
    def test_standard_basis_membership(self):
        lat = Lattice(2, [(1, 0), (0, 1)])
        hit = lat.contains((5, -7))
        assert hit.member and hit.coefficients == (5, -7)

    def test_scaled_basis_rejects(self):
        lat = Lattice(2, [(3, 0), (0, 3)])
        assert not lat.contains((1, 0)).member

    def test_membership_certificate(self):
        lat = Lattice(2, [(2, 1), (0, 2)])
        hit = lat.contains((2, 3))
        assert hit.member and hit.coefficients == (1, 1)

    def test_rejects_non_integers(self):
        # int() would truncate 2.9 to 2, a member, and 2.5 to the generator 2.
        with pytest.raises(TypeError):
            Lattice(1, [(2,)]).contains((2.9,))
        with pytest.raises(TypeError):
            Lattice(1, [(2.5,)])
        with pytest.raises(TypeError):
            power_solvable(Lattice(1, [(1,)]), (2.9,), 1)

    def test_empty_basis(self):
        lat = Lattice(3)
        assert lat.contains((0, 0, 0)).member
        assert not lat.contains((0, 1, 0)).member
        assert lat.rank == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_membership_agrees_with_brute_force(self, data):
        ambient = data.draw(st.integers(1, 3))
        ncols = data.draw(st.integers(1, 3))
        cols = [
            tuple(data.draw(st.integers(-4, 4)) for _ in range(ambient))
            for _ in range(ncols)
        ]
        lat = Lattice(ambient, cols)
        if data.draw(st.booleans()):
            coeffs = [data.draw(st.integers(-10, 10)) for _ in range(ncols)]
            target = tuple(
                sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(ambient)
            )
        else:
            target = tuple(data.draw(st.integers(-8, 8)) for _ in range(ambient))
        brute = brute_lattice_member(cols, target, bound=10)
        # Membership alone, asked first of a fresh lattice and then of lat.
        assert (target in Lattice(ambient, cols)) == lat.contains(target).member
        hit = lat.contains(target)
        assert (target in lat) == hit.member
        if brute is not None:
            assert hit.member
        if hit.member:
            rebuilt = tuple(
                sum(c * col[i] for c, col in zip(hit.coefficients, cols))
                for i in range(ambient)
            )
            assert rebuilt == target
            if all(abs(c) <= 10 for c in hit.coefficients):
                assert brute is not None
        else:
            assert brute is None

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_canonical_idempotent(self, data):
        ambient = data.draw(st.integers(1, 4))
        ncols = data.draw(st.integers(0, 4))
        cols = [
            tuple(data.draw(st.integers(-6, 6)) for _ in range(ambient))
            for _ in range(ncols)
        ]
        lat = Lattice(ambient, cols)
        canon = lat.canonical()
        assert canon.canonical().basis == canon.basis
        assert lat.same_lattice(canon)


@st.composite
def generating_sets(draw):
    """Ambient rank 0-4 and 0-5 generators: random, zero, repeated and
    integer combinations of earlier ones."""
    ambient = draw(st.integers(0, 4))
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combine"]))
        if kind == "zero" or (kind != "random" and not gens):
            gens.append((0,) * ambient)
        elif kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "combine":
            coeffs = [draw(st.integers(-3, 3)) for _ in gens]
            gens.append(tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(ambient)
            ))
        else:
            gens.append(tuple(draw(st.integers(-7, 7)) for _ in range(ambient)))
    return ambient, gens


class TestStoredEchelon:
    """One Hermite form per lattice must answer as a fresh one per call does."""

    @settings(max_examples=200, deadline=None)
    @given(generating_sets(), st.data())
    def test_agrees_with_per_call_reference(self, gen_set, data):
        ambient, gens = gen_set
        lat = Lattice(ambient, gens)
        targets = [tuple(data.draw(st.integers(-9, 9)) for _ in range(ambient))]
        coeffs = [data.draw(st.integers(-5, 5)) for _ in gens]
        targets.append(tuple(
            sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(ambient)
        ))
        for v in targets:
            hit = lat.contains(v)
            assert hit.member == reference_contains(lat, v).member
            if hit.member:
                rebuilt = tuple(
                    sum(c * g[i] for c, g in zip(hit.coefficients, gens))
                    for i in range(ambient)
                )
                assert rebuilt == v
        assert lat.contains(targets[1]).member
        canon = reference_canonical_basis(lat)
        assert lat.canonical().basis == canon
        assert lat.rank == len(canon)
        for other_gens in (gens[:-1], gens[::-1], list(canon)):
            other = Lattice(ambient, other_gens)
            assert lat.same_lattice(other) == (canon == reference_canonical_basis(other))

    @pytest.fixture
    def hnf_calls(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return hnf(a)

        monkeypatch.setattr(intlin, "hnf", counted)
        return calls

    def test_one_hnf_for_many_questions(self, hnf_calls):
        lat = Lattice(3, [(2, 4, 6), (0, 3, 9), (2, 7, 15), (0, 0, 5)])
        for t in range(50):
            v = (2 * t, 4 * t + 3 * (t % 3), 5 * t)
            assert lat.contains(v).member == reference_contains(lat, v).member
        lat.canonical()
        assert lat.rank == 3
        assert len(hnf_calls) == 1

    @settings(max_examples=200, deadline=None)
    @given(generating_sets().filter(lambda gen_set: gen_set[0] >= 1), st.integers(1, 50))
    def test_scaling_commutes_with_the_canonical_basis(self, gen_set, e):
        # Pivots stay positive and entries reduced into [0, e * pivot).
        lat = Lattice(*gen_set)
        assert lat.scale(e).canonical().basis == lat.canonical().scale(e).basis

    def test_power_solvable_builds_no_lattice(self, hnf_calls):
        z1 = Lattice(2, [(2, 1), (0, 2)])
        z1.canonical()
        for e in (1, 2, 3, 4):
            power_solvable(z1, (4, 6), e)
        assert len(hnf_calls) == 1


class TestPowerSolvable:
    def test_rank_one_paper_instance(self):
        # the central generator has no cube root in a rank-1 centre
        z1 = Lattice(1, [(1,)])
        assert not power_solvable(z1, (1,), 3).solvable

    def test_exponent_one_always_solvable(self):
        z1 = Lattice(2, [(2, 1), (0, 5)])
        sol = power_solvable(z1, (2, 6), 1)
        assert sol.solvable and sol.root == (2, 6)

    def test_componentwise_division(self):
        z1 = Lattice(2, [(1, 0), (0, 1)])
        sol = power_solvable(z1, (6, 9), 3)
        assert sol.solvable and sol.root == (2, 3)

    def test_precondition_enforced(self):
        z1 = Lattice(1, [(2,)])
        with pytest.raises(NotInLattice):
            power_solvable(z1, (1,), 3)

    def test_matches_scaled_membership(self):
        z1 = Lattice(2, [(2, 1), (0, 2)])
        for target in [(2, 3), (4, 6), (6, 9), (4, 2), (0, 0)]:
            if not z1.contains(target).member:
                continue
            for e in (1, 2, 3, 5):
                assert (
                    power_solvable(z1, target, e).solvable
                    == z1.scale(e).contains(target).member
                )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rank_one_is_divisibility(self, data):
        ambient = data.draw(st.integers(1, 3))
        w = tuple(data.draw(st.integers(-4, 4)) for _ in range(ambient))
        if not any(w):
            w = (1,) + w[1:]
        lat = Lattice(ambient, (w,))
        t = data.draw(st.integers(-9, 9))
        e = data.draw(st.integers(1, 6))
        target = tuple(t * x for x in w)
        assert power_solvable(lat, target, e).solvable == (t % e == 0)
