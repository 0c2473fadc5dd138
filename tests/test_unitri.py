import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsep.errors import DimensionMismatch
from conjsep.unitri import (
    _CODECS,
    _COMMUTATORS,
    _CONJUGATIONS,
    _POWERS,
    _PRODUCTS,
    _REDUCTIONS,
    ResidueUT,
    UTMatrix,
    _matmul,
    _power,
    commutator,
    conjugation_kernel,
    reduce_mod,
    residue_order_exponent,
)

from _oracles import naive_ut_mul, reference_power

A3 = UTMatrix.from_entries(3, {(0, 1): 1})
B3 = UTMatrix.from_entries(3, {(1, 2): 1})
C3 = UTMatrix.from_entries(3, {(0, 2): 1})

# Small exponents of both signs, and some past 2^100.
EXPONENTS = st.integers(-40, 40) | st.builds(
    lambda sign, r: sign * (2**100 + r), st.sampled_from([1, -1]), st.integers(0, 40)
)


@st.composite
def ut_matrices(draw, n=None, digits=30):
    n = n if n is not None else draw(st.integers(2, 5))
    bound = 10**digits
    rows = [
        [
            1 if i == j else (draw(st.integers(-bound, bound)) if j > i else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return UTMatrix(rows)


@st.composite
def triangular_pairs(draw):
    """(a, b, n, mod) for n <= 9: upper triangular rows with about half of
    their upper entries zero and diagonals all 1, all 0 or mixed 0s and 1s;
    integers up to 10^30 in size, or residues mod p^k when mod is given."""
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        mod = None
        entry = st.integers(-(10**30), 10**30)
    else:
        mod = draw(st.sampled_from([2, 3, 5])) ** draw(st.integers(1, 4))
        entry = st.integers(0, mod - 1)

    def rows():
        diag = st.sampled_from(draw(st.sampled_from([(0,), (1,), (0, 1)])))
        return tuple(
            tuple(draw(diag) if i == j else (draw(st.just(0) | entry) if j > i else 0)
                  for j in range(n))
            for i in range(n)
        )

    return rows(), rows(), n, mod


@st.composite
def powers(draw):
    """(rows, e, mod) for n <= 9: unitriangular rows with about half of their
    upper entries zero, integers up to 10^12 or residues mod p^k, and an
    exponent -1, 0, 1, p (2 on the integers) or past 2^100 of either sign."""
    n = draw(st.integers(1, 9))
    p = draw(st.sampled_from([2, 3, 5]))
    mod = draw(st.sampled_from([None, p, p**3]))
    entry = st.integers(-(10**12), 10**12) if mod is None else st.integers(0, mod - 1)
    rows = tuple(
        tuple(1 if i == j else (draw(st.just(0) | entry) if j > i else 0) for j in range(n))
        for i in range(n)
    )
    big = st.builds(lambda sign, r: sign * (2**100 + r), st.sampled_from([1, -1]),
                    st.integers(0, 40))
    return rows, draw(st.sampled_from([-1, 0, 1, p]) | big), mod


@st.composite
def residue_pairs(draw):
    """(x, s) residue matrices of one shape; s is the identity or has entries
    that are often zero, so both sparse and dense generators occur."""
    n = draw(st.integers(2, 9))
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 3))
    mod = p**k

    def rows(entry):
        return [[1 if i == j else (draw(entry) if j > i else 0) for j in range(n)]
                for i in range(n)]

    x = ResidueUT(rows(st.integers(0, mod - 1)), p, k)
    if draw(st.booleans()):
        s = ResidueUT.identity(n, p, k)
    else:
        s = ResidueUT(rows(st.just(0) | st.integers(0, mod - 1)), p, k)
    return x, s


@st.composite
def commutator_pairs(draw):
    """(x, y, p, k) for n <= 9: unitriangular rows with about half of their
    upper entries zero, integers up to 10^12 when p is None, else residues
    mod p^k for p in {2, 3, 5} and k <= 3."""
    n = draw(st.integers(1, 9))
    p = draw(st.sampled_from([None, 2, 3, 5]))
    k = None if p is None else draw(st.integers(1, 3))
    entry = st.integers(-(10**12), 10**12) if p is None else st.integers(0, p**k - 1)

    def rows():
        return tuple(
            tuple(1 if i == j else (draw(st.just(0) | entry) if j > i else 0) for j in range(n))
            for i in range(n)
        )

    return rows(), rows(), p, k


@st.composite
def reduced_rows(draw):
    """(rows, p, k): unitriangular rows whose entries already lie in [0, p^k)."""
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 4))
    rows = [[1 if i == j else (draw(st.integers(0, p**k - 1)) if j > i else 0)
             for j in range(n)] for i in range(n)]
    return rows, p, k


class TestConstruction:
    def test_rejects_nonunit_diagonal(self):
        with pytest.raises(ValueError):
            UTMatrix([[2, 0], [0, 1]])

    def test_rejects_lower_entries(self):
        with pytest.raises(ValueError):
            UTMatrix([[1, 0], [3, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            A3 * UTMatrix.identity(4)
        with pytest.raises(DimensionMismatch):
            commutator(A3, UTMatrix.identity(4))

    @pytest.mark.parametrize("make", [
        lambda: UTMatrix([[1, 0.5], [0, 1]]),
        lambda: ResidueUT([[1, 2.7], [0, 1]], 3, 1),
        lambda: UTMatrix.from_entries(2, {(0, 1): 1.0}),
    ])
    def test_rejects_non_integer_entries(self, make):
        # int() would truncate 0.5 to the identity and 2.7 to the residue 2.
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("n", range(7))
    def test_identity_matches_constructed(self, n):
        ident, ref = UTMatrix.identity(n), UTMatrix.from_entries(n, {})
        assert type(ident) is UTMatrix and ident.n == n
        assert ident.rows == ref.rows and ident == ref and hash(ident) == hash(ref)
        assert ident.is_identity() and ident * ref == ref
        with pytest.raises(AttributeError):
            ident.rows = ref.rows

    def test_immutable_and_hashable(self):
        assert hash(A3) == hash(UTMatrix.from_entries(3, {(0, 1): 1}))
        with pytest.raises(AttributeError):
            A3.n = 5

    @pytest.mark.parametrize("p, k", [(0, 1), (1, 1), (-3, 1)])
    def test_residue_rejects_bad_prime(self, p, k):
        # The error names p, not the diagonal entry that p = 1 reduces to 0.
        with pytest.raises(ValueError, match=f"p must be >= 2, got {p}"):
            reduce_mod(A3, p, k)


class TestTwoKinds:
    """UTMatrix and ResidueUT share one body but stay apart: each kind hashes
    as before, and no matrix equals or multiplies one of the other kind or of
    another modulus, even when their rows coincide."""

    @settings(max_examples=150, deadline=None)
    @given(reduced_rows(), st.sampled_from([2, 3, 5]), st.integers(1, 4))
    def test_hash_equality_and_mixing(self, case, q, m):
        rows, p, k = case
        u, r = UTMatrix(rows), ResidueUT(rows, p, k)
        assert u.rows == r.rows and u.n == r.n == len(rows)
        assert (u.p, u.k, u.mod) == (None, None, None)
        assert (r.p, r.k, r.mod) == (p, k, p**k)
        assert u == UTMatrix(rows) and r == ResidueUT(rows, p, k)
        assert hash(u) == hash(u.rows)
        assert hash(r) == hash((p, k, r.rows))
        assert u != r and r != u
        with pytest.raises(TypeError):
            u * r
        with pytest.raises(TypeError):
            r * u
        with pytest.raises(TypeError):
            commutator(u, r)
        with pytest.raises(TypeError):
            commutator(r, u)
        others = [ResidueUT(rows, p, k + 1)]  # the same rows one level up
        if (q, m) != (p, k):
            others.append(ResidueUT(rows, q, m))
        for other in others:
            assert r != other and other != r
            with pytest.raises(DimensionMismatch):
                r * other
            with pytest.raises(DimensionMismatch):
                other * r
            with pytest.raises(DimensionMismatch):
                commutator(r, other)


class TestArithmetic:
    def test_identity_large_power(self):
        ident = UTMatrix.identity(4)
        assert ident ** 10**6 == ident

    def test_power_matches_repeated_multiplication(self):
        by_mult = A3 * A3 * A3
        assert A3**3 == by_mult
        assert A3**3 == UTMatrix.from_entries(3, {(0, 1): 3})

    def test_central_powers(self):
        assert C3**5 == UTMatrix.from_entries(3, {(0, 2): 5})
        assert C3**-2 == UTMatrix.from_entries(3, {(0, 2): -2})

    def test_mul_matches_naive_oracle(self):
        x = UTMatrix.from_entries(4, {(0, 1): 3, (1, 2): -2, (2, 3): 7, (0, 3): 5})
        y = UTMatrix.from_entries(4, {(0, 2): -4, (1, 3): 9, (0, 1): 1})
        assert (x * y).rows == naive_ut_mul(x.rows, y.rows)

    @settings(max_examples=60, deadline=None)
    @given(ut_matrices(), ut_matrices(), ut_matrices())
    def test_group_axioms(self, u, v, w):
        n = max(u.n, v.n, w.n)
        ident = UTMatrix.identity(n)

        def lift(m):
            rows = [
                [
                    m.rows[i][j] if i < m.n and j < m.n else (1 if i == j else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            return UTMatrix(rows)

        u, v, w = lift(u), lift(v), lift(w)
        assert (u * v) * w == u * (v * w)
        assert u * ident == u and ident * u == u
        assert u * u.inverse() == ident and u.inverse() * u == ident
        assert (u * v).inverse() == v.inverse() * u.inverse()

    @settings(max_examples=150, deadline=None)
    @given(ut_matrices(digits=12), EXPONENTS, EXPONENTS, st.sampled_from([2, 3, 5]),
           st.integers(1, 3))
    def test_power_consistency(self, u, e, f, p, k):
        assert (u**e).rows == reference_power(u.rows, e)
        assert u**e * u**f == u ** (e + f)
        assert u**-1 == u.inverse()
        r = reduce_mod(u, p, k)
        assert (r**e).rows == reference_power(r.rows, e, p**k)
        assert r**e * r**f == r ** (e + f)
        assert r**-1 == r.inverse()
        assert reduce_mod(u**e, p, k) == r**e

    def test_powers_and_inverses_take_no_products(self, monkeypatch):
        calls = []
        for cls in (UTMatrix, ResidueUT):
            general = cls.__mul__

            def counted(x, y, general=general):
                calls.append(1)
                return general(x, y)

            monkeypatch.setattr(cls, "__mul__", counted)
        u = UTMatrix.from_entries(5, {(0, 1): 3, (1, 2): -2, (2, 4): 7, (0, 3): 5, (3, 4): 1})
        r = reduce_mod(u, 3, 2)
        for x in (u, r):
            x.inverse()
            for e in (-(2**100) - 3, -41, -2, 0, 1, 2, 37, 2**100 + 5):
                x**e
        assert calls == []


class TestProductKernel:
    """The generated product and power kernels against the dense naive product
    and square-and-multiply, on the integers and on residues, for n <= 9."""

    @settings(max_examples=300, deadline=None)
    @given(triangular_pairs())
    def test_matmul_matches_naive_product(self, case):
        a, b, n, mod = case
        expected = naive_ut_mul(a, b)
        if mod:
            expected = tuple(tuple(v % mod for v in row) for row in expected)
        assert _matmul(a, b, n, mod) == expected

    @settings(max_examples=200, deadline=None)
    @given(powers())
    def test_power_matches_reference(self, case):
        rows, e, mod = case
        assert _power(rows, len(rows), e, mod) == reference_power(rows, e, mod)

    @pytest.mark.parametrize("mod", [None, 7])
    def test_sizes_one_and_two(self, mod):
        def reduce(v):
            return v % mod if mod else v

        one, two = ((1,),), ((1, 3), (0, 1))
        assert _matmul(one, one, 1, mod) == one
        assert _matmul(((0,),), one, 1, mod) == ((0,),)
        assert _power(one, 1, -5, mod) == one
        assert _matmul(two, two, 2, mod) == ((1, 6), (0, 1))
        assert _matmul(two, ((0, 5), (0, 1)), 2, mod) == ((0, reduce(8)), (0, 1))
        for e in (-1, 0, 2, -(2**100)):
            assert _power(two, 2, e, mod) == ((1, reduce(3 * e)), (0, 1))
        assert UTMatrix.identity(1).rows == one and UTMatrix(one) ** 9 == UTMatrix(one)
        u = UTMatrix(two)
        assert u**-3 == UTMatrix([[1, -9], [0, 1]]) and u * u.inverse() == UTMatrix.identity(2)

    def test_one_kernel_per_size_and_kind(self):
        n, kinds = 7, {(7, False), (7, True)}
        u = UTMatrix.from_entries(n, {(0, 1): 3, (1, 4): -2, (2, 6): 7, (5, 6): 1})
        s = UTMatrix.from_entries(n, {(0, 2): 5, (3, 4): -1, (1, 6): 2})

        def work():
            for p, k in ((3, 2), (5, 4), (2, 1)):
                x = reduce_mod(u, p, k)
                conjugation_kernel(reduce_mod(s, p, k))(x.upper_entries())
                assert not x.is_identity() and not u.is_identity()
                commutator(x, reduce_mod(s, p, k))
                commutator(u, s)
                for e in (-1, 2, 2**100):
                    x * x**e * x.inverse()
                    u * u**e * u.inverse()

        work()
        caches = ((_PRODUCTS, kinds), (_POWERS, kinds), (_COMMUTATORS, kinds),
                  (_CONJUGATIONS, {n}), (_REDUCTIONS, {n}), (_CODECS, {n}))
        kept = [{key: cache[key] for key in keys} for cache, keys in caches]
        for _ in range(50):
            work()
        for (cache, keys), before in zip(caches, kept):
            sizes = {key: key[0] if isinstance(key, tuple) else key for key in cache}
            assert {key for key, size in sizes.items() if size == n} == keys
            assert all(cache[key] is before[key] for key in keys)

    @settings(max_examples=200, deadline=None)
    @given(commutator_pairs())
    def test_commutator_matches_reference(self, case):
        x, y, p, k = case
        mod = None if p is None else p**k
        xi, yi = reference_power(x, -1, mod), reference_power(y, -1, mod)
        expected = reference_power(naive_ut_mul(naive_ut_mul(naive_ut_mul(xi, yi), x), y), 1, mod)
        if p is None:
            assert commutator(UTMatrix(x), UTMatrix(y)).rows == expected
        else:
            assert commutator(ResidueUT(x, p, k), ResidueUT(y, p, k)).rows == expected

    @pytest.mark.parametrize("cls", [UTMatrix, ResidueUT])
    def test_commutator_is_one_kernel_call(self, cls, monkeypatch):
        calls = []

        def counted(general):
            def call(*args):
                calls.append(general.__name__)
                return general(*args)
            return call

        x = UTMatrix.from_entries(4, {(0, 1): 3, (1, 2): -2, (2, 3): 7})
        y = UTMatrix.from_entries(4, {(0, 2): 5, (1, 3): 1, (0, 1): -1})
        if cls is ResidueUT:
            x, y = reduce_mod(x, 5, 2), reduce_mod(y, 5, 2)
        expected = x.inverse() * y.inverse() * x * y
        monkeypatch.setattr(cls, "inverse", counted(cls.inverse))
        monkeypatch.setattr(cls, "__mul__", counted(cls.__mul__))
        assert commutator(x, y) == expected
        assert calls == []


class TestCommutator:
    def test_self_commutator_trivial(self):
        u = UTMatrix.from_entries(3, {(0, 1): 4, (1, 2): -3})
        assert commutator(u, u).is_identity()

    def test_heisenberg_generators(self):
        assert commutator(A3, B3) == C3
        assert commutator(B3, A3) == C3**-1

    def test_with_identity(self):
        assert commutator(A3, UTMatrix.identity(3)).is_identity()

    def test_conjugation_identity(self):
        # g^-1 x g = x * [x, g]
        x = UTMatrix.from_entries(3, {(0, 1): 2, (1, 2): 5, (0, 2): -1})
        g = UTMatrix.from_entries(3, {(0, 1): -3, (1, 2): 1})
        assert g.inverse() * x * g == x * commutator(x, g)


class TestResidue:
    def test_reduce_identity(self):
        assert reduce_mod(UTMatrix.identity(3), 5, 2).is_identity()

    def test_reduce_heisenberg_coordinates(self):
        u = A3**3 * C3  # coordinates (3, 0, 1)
        r = reduce_mod(u, 2, 1)
        assert r[0, 1] == 1 and r[1, 2] == 0 and r[0, 2] == 1

    @settings(max_examples=100, deadline=None)
    @given(ut_matrices(n=3, digits=8), ut_matrices(n=3, digits=8),
           st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1)]))
    def test_reduce_is_homomorphism(self, u, v, pk):
        p, k = pk
        assert reduce_mod(u * v, p, k) == reduce_mod(u, p, k) * reduce_mod(v, p, k)

    @settings(max_examples=200, deadline=None)
    @given(ut_matrices(), st.sampled_from([2, 3, 5]), st.integers(1, 4))
    def test_reduce_matches_constructor(self, u, p, k):
        r, ref = reduce_mod(u, p, k), ResidueUT(u.rows, p, k)
        assert type(r) is ResidueUT
        assert (r.n, r.rows, r.p, r.k, r.mod) == (ref.n, ref.rows, ref.p, ref.k, ref.mod)
        assert r == ref and hash(r) == hash(ref)
        # A residue's rows reduce further, as the constructor reduces them.
        assert reduce_mod(r, p, 1) == ResidueUT(u.rows, p, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: ut_matrices(n=n, digits=40)),
           st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(0, 3))
    def test_reduce_matches_entrywise_remainder(self, u, p, k, drop):
        """Entries of either sign up to 10^40, past 2^100, and a residue
        reduced again to its own or a lower level."""
        r = reduce_mod(u, p, k)
        assert r.rows == tuple(tuple(v % p**k for v in row) for row in u.rows)
        lower = max(1, k - drop)
        assert reduce_mod(r, p, lower).rows == tuple(
            tuple(v % p**lower for v in row) for row in u.rows
        )

    def test_reduce_rejects_other_primes_and_higher_levels(self):
        r = reduce_mod(A3 * B3**3, 2, 2)
        for p, k in ((2, 3), (3, 1), (3, 2)):
            with pytest.raises(ValueError, match="does not reduce"):
                reduce_mod(r, p, k)
        assert reduce_mod(r, 2, 2) == r
        assert reduce_mod(r, 2, 1) == reduce_mod(A3 * B3**3, 2, 1)

    def test_reduce_rejects_bad_modulus(self):
        for p, k in ((1, 1), (2, 0)):
            with pytest.raises(ValueError):
                reduce_mod(A3, p, k)

    def test_residue_inverse_and_power(self):
        r = reduce_mod(UTMatrix.from_entries(3, {(0, 1): 5, (1, 2): 3, (0, 2): 7}), 2, 3)
        assert (r * r.inverse()).is_identity()
        assert r**3 == r * r * r
        assert r**-2 == (r.inverse()) ** 2

    @settings(max_examples=200, deadline=None)
    @given(residue_pairs())
    def test_conjugation_kernel_matches_product(self, pair):
        x, s = pair
        n, mod = s.n, s.mod
        inverse = reference_power(s.rows, -1, mod)
        expected = naive_ut_mul(naive_ut_mul(inverse, x.rows), s.rows)
        flat = tuple(expected[i][j] % mod for i in range(n) for j in range(i + 1, n))
        assert conjugation_kernel(s)(x.upper_entries()) == flat

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flat_step_is_naive_conjugation(self, n, p, k):
        # Dense and sparse x and s, s^-1 by the naive series, each product naive.
        rng, mod = random.Random(f"{n} {p} {k}"), p**k
        for density in (1.0, 0.3):
            def draw():
                return ResidueUT([[1 if i == j else rng.randrange(mod) if j > i and rng.random() < density
                                   else 0 for j in range(n)] for i in range(n)], p, k)

            for _ in range(4):
                x, s = draw(), draw()
                expected = naive_ut_mul(naive_ut_mul(reference_power(s.rows, -1, mod), x.rows), s.rows)
                point = tuple(expected[i][j] % mod for i in range(n) for j in range(i + 1, n))
                assert conjugation_kernel(s)(x.upper_entries()) == point
                assert point == (s.inverse() * x * s).upper_entries()

    @settings(max_examples=100, deadline=None)
    @given(residue_pairs())
    def test_point_and_element_round_trip(self, pair):
        x, _ = pair
        n = x.n
        point, rows = _CODECS[n]
        assert point(x.rows) == x.upper_entries() == tuple(
            x[i, j] for i in range(n) for j in range(i + 1, n)
        )
        assert rows(x.upper_entries()) == x.rows
        assert point(rows(x.upper_entries())) == x.upper_entries()
        assert ResidueUT(rows(x.upper_entries()), x.p, x.k) == x
        assert x.is_identity() == (x == ResidueUT.identity(n, x.p, x.k))

    def test_wrapped_residue_is_immutable_and_equal_to_constructed(self):
        r = reduce_mod(UTMatrix.from_entries(4, {(0, 1): 2, (1, 3): 7}), 3, 2)
        wrapped = ResidueUT.identity(4, 3, 2)._wrap(r.rows)
        assert type(wrapped) is ResidueUT
        assert (wrapped.n, wrapped.p, wrapped.k, wrapped.mod) == (4, 3, 2, 9)
        assert wrapped == r and hash(wrapped) == hash(r)
        with pytest.raises(AttributeError):
            wrapped.rows = r.rows
        with pytest.raises(AttributeError):
            wrapped.k = 3

    def test_incompatible_residues(self):
        r1 = ResidueUT.identity(3, 2, 1)
        r2 = ResidueUT.identity(3, 2, 2)
        with pytest.raises(DimensionMismatch):
            r1 * r2

    def test_order_exponent(self):
        assert residue_order_exponent(reduce_mod(C3, 2, 3)) == 3
        assert residue_order_exponent(ResidueUT.identity(3, 2, 3)) == 0
        assert residue_order_exponent(reduce_mod(A3, 3, 2)) == 2
