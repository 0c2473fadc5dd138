"""Exact integer linear algebra: Hermite/Smith normal forms, lattices, modular arithmetic.

Everything works over plain Python integers, so results are exact at any
magnitude.  Normal forms return the unimodular transforms alongside the
canonical matrix, which lets callers certify every answer (membership
coefficients, divisibility failures) instead of trusting the algorithm.

There is one elimination loop, the row Hermite reduction `_row_hnf`; any
transform rides along as extra columns of the rows it reduces.  `hnf` is
one pass of it, on rows built straight from the entries and read back by
slicing, with no transposed or identity matrix in between; `snf` alternates
row and column passes until the matrix is diagonal, and a `Lattice` reduces
its generators once, on first use, by one call of `hnf`, and answers
membership, rank and equality from that one form.  Lattice generators and
vectors are read through `operator.index`: a float raises TypeError, never
truncated.  The Bareiss `det` is separate on purpose: it is the reference
for unimodularity.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .errors import DimensionMismatch, NotCoprime, NotInLattice


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m); in [1, m) whenever m >= 2.

    Raises NotCoprime when gcd(a, m) > 1.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    g, x, _ = xgcd(a, m)
    if g != 1:
        raise NotCoprime(f"gcd({a}, {m}) = {g} > 1")
    return x % m


def prime_power_exponent(n: int, p: int) -> int | None:
    """Return e with n = p**e, or None when n is not a power of p: e is the
    p-adic `valuation` of n, and n is a power of p exactly when it is p**e."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    e = valuation(n, p)
    return e if p**e == n else None


# The first 13 primes, and the least composite n that passes the strong
# probable-prime test to all of them as bases (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The first 12
# alone would not do: 318665857834031151167461 passes all of them.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSEUDOPRIME_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int) -> bool:
    """The strong probable-prime test of odd n > 41 to every base a in
    `_BASES`: with n - 1 = d * 2^s and d odd, a^d = 1 or a^(d * 2^r) = -1
    mod n for some r < s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality.  Trial division by the primes in `_BASES` decides
    every n < 41^2 and every n with a factor in `_BASES`; below
    `_PSEUDOPRIME_BOUND` (about 3.3e24) the strong probable-prime tests to
    those bases decide the rest.  Any other n, at or above the bound with
    no factor in `_BASES`, raises ValueError: no test here decides it."""
    if n < 2:
        return False
    if n < 4:
        return True
    for q in _BASES:
        if q * q > n:
            return True
        if n % q == 0:
            return False
    if n >= _PSEUDOPRIME_BOUND:
        raise ValueError(f"primality of {n} is undecided at or above {_PSEUDOPRIME_BOUND}")
    return _strong_probable_prime(n)


def require_prime(p: int) -> None:
    """ValueError unless p is a prime below `_PSEUDOPRIME_BOUND`, which is
    where `is_prime` decides: every p at or above the bound is refused at
    once, even one with a small factor."""
    if p >= _PSEUDOPRIME_BOUND:
        raise ValueError(f"p must be below {_PSEUDOPRIME_BOUND}, got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def smallest_prime_excluding(p: int) -> int:
    """The least prime other than p: 3 for p = 2 and 2 for any other p."""
    return 3 if p == 2 else 2


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n must be nonzero and p at least 2."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class IntMatrix:
    """Immutable integer matrix stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_list) -> "IntMatrix":
        rows_list = [list(r) for r in rows_list]
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        if any(len(row) != c for row in rows_list):
            raise DimensionMismatch("ragged rows")
        return cls(r, c, [e for row in rows_list for e in row])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec) -> tuple:
        """Matrix-vector product."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(
            sum(self.at(i, k) * vec[k] for k in range(self.cols)) for i in range(self.rows)
        )

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.to_rows()!r})"


# IntMatrix and Lattice fill their slots through the slot descriptors, which
# bypasses the raising `__setattr__`.
_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_entries = IntMatrix.entries.__set__


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _clear_pair(a: int, b: int) -> tuple[int, int, int, int]:
    """Coefficients (x, y, a_, b_) of a determinant-1 transform killing b.

    The matrix [[x, y], [-b_, a_]] sends the pair (a, b) to (g, 0) with
    g = gcd(a, b) > 0.  When a already divides b the transform is a plain
    subtraction (y = 0), so the vector carrying a never absorbs the vector
    carrying b; this is what keeps the elimination loops from cycling.
    Requires a != 0.
    """
    if b % a == 0:
        q = b // a
        return (1, 0, 1, q) if a > 0 else (-1, 0, -1, -q)
    g, x, y = xgcd(a, b)
    return x, y, a // g, b // g


def _row_hnf(rows: list[list[int]], n: int) -> None:
    """Row Hermite reduction in place, pivoting on the first n columns only.

    Columns past n ride along with every row operation: an identity block
    appended there ends up holding the unimodular transform U with
    U @ mat = H.  This is the only elimination loop in the package.
    """
    m = len(rows)
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            if rows[i][j]:
                x, y, a_, b_ = _clear_pair(rows[r][j], rows[i][j])
                rows[r], rows[i] = (
                    [x * p + y * q for p, q in zip(rows[r], rows[i])],
                    [-b_ * p + a_ * q for p, q in zip(rows[r], rows[i])],
                )
        if rows[r][j] < 0:
            rows[r] = [-e for e in rows[r]]
        for i in range(r):
            q = rows[i][j] // rows[r][j]
            if q:
                rows[i] = [p - q * t for p, t in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break


def _carry_hnf(h: list[list[int]], n: int, t: list[list[int]]):
    """Row Hermite form of the n-column rows h with t carried along: (R h, R t)."""
    rows = [hr + tr for hr, tr in zip(h, t)]
    _row_hnf(rows, n)
    return [r[:n] for r in rows], [r[n:] for r in rows]


def _transposed(rows: list[list[int]], cols: int) -> list[list[int]]:
    return [[r[j] for r in rows] for j in range(cols)]


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form.

    Returns (H, U) with A @ U = H and U unimodular.  H is in column echelon
    form: pivot rows strictly increase column by column, zero columns trail,
    pivots are positive, entries to the right of a pivot in its row are zero
    and entries to the left are reduced into [0, pivot).
    """
    m, n, entries = a.rows, a.cols, a.entries
    # Row j is column j of A, then row j of the identity: the row form of
    # A^T with U^T carried along.  Column i of the reduced rows is then row i
    # of H (i < m) or of U (i >= m).
    rows = [[*entries[j::n]] + [0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]
    _row_hnf(rows, m)
    flat = [x for col in zip(*rows) for x in col]
    return IntMatrix(m, n, flat[: m * n]), IntMatrix(n, n, flat[m * n :])


def is_column_hnf(h: IntMatrix) -> bool:
    """Check the canonical-form predicate that hnf() guarantees."""
    last_pivot_row = -1
    seen_zero_col = False
    for j in range(h.cols):
        col = h.col(j)
        nz = next((i for i, e in enumerate(col) if e), None)
        if nz is None:
            seen_zero_col = True
            continue
        if seen_zero_col or nz <= last_pivot_row:
            return False
        piv = col[nz]
        if piv <= 0:
            return False
        for j2 in range(h.cols):
            v = h.at(nz, j2)
            if j2 < j and not 0 <= v < piv:
                return False
            if j2 > j and v != 0:
                return False
        last_pivot_row = nz
    return True


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (D, U, V) with U @ A @ V = D, U and V unimodular, D diagonal with
    nonnegative entries d1 | d2 | ... along the diagonal.  Row and column
    Hermite passes alternate until D is diagonal (each pass either clears the
    leading row and column or shrinks the leading pivot to a proper divisor);
    a diagonal pair d_i, d_j with d_i not dividing d_j is then merged by
    adding column j into column i, and the passes resume.
    """
    m, n = a.rows, a.cols
    d, u, v_t = a.to_rows(), IntMatrix.identity(m).to_rows(), IntMatrix.identity(n).to_rows()
    while True:
        d, u = _carry_hnf(d, n, u)
        d_t, v_t = _carry_hnf(_transposed(d, n), m, v_t)
        d = _transposed(d_t, m)
        if any(d[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        # the last pass left zero columns trailing, so nonzero entries lead
        rank = sum(1 for i in range(min(m, n)) if d[i][i])
        bad = next(
            ((i, j) for i in range(rank) for j in range(i + 1, rank) if d[j][j] % d[i][i]),
            None,
        )
        if bad is None:
            break
        i, j = bad
        d[j][i] = d[j][j]
        v_t[i] = [x + y for x, y in zip(v_t[i], v_t[j])]
    return (
        IntMatrix(m, n, [x for r in d for x in r]),
        IntMatrix(m, m, [x for r in u for x in r]),
        IntMatrix(n, n, [x for r in _transposed(v_t, n) for x in r]),
    )


class Membership(namedtuple("Membership", "member coefficients", defaults=(None,))):
    """Decision with certificate: basis @ coefficients = target when member."""

    __slots__ = ()


class PowerSolution(namedtuple("PowerSolution", "solvable root", defaults=(None,))):
    """Solvability of e*z = target inside a lattice; root is z's ambient vector."""

    __slots__ = ()


class Lattice:
    """Integer lattice given by a (possibly redundant) generating set.

    Generators are column vectors in Z^ambient_rank.  The canonical basis is
    the column Hermite normal form with zero columns dropped, which makes
    lattice equality decidable and canonicalization idempotent.  The form is
    computed once, on first use, together with its pivot rows and the
    transform back to the generators; every later question reads it.
    """

    __slots__ = ("ambient_rank", "basis", "_echelon")

    def __init__(self, ambient_rank: int, basis=()):
        basis = tuple(tuple(map(index, col)) for col in basis)
        for col in basis:
            if len(col) != ambient_rank:
                raise DimensionMismatch(
                    f"basis vector of length {len(col)} in ambient rank {ambient_rank}"
                )
        _set_ambient_rank(self, ambient_rank)
        _set_basis(self, basis)
        _set_echelon(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    def matrix(self) -> IntMatrix:
        """Generators as columns of an ambient_rank x len(basis) matrix."""
        return IntMatrix(
            self.ambient_rank,
            len(self.basis),
            [col[i] for i in range(self.ambient_rank) for col in self.basis],
        )

    def _reduce(self) -> tuple:
        """(canonical lattice, pivot row of each basis column, transform rows).

        Transform row k holds the coefficients of generator k in the first
        rank columns of U, so basis column j = sum_k generator_k * row_k[j].
        """
        if self._echelon is None:
            h, u = hnf(self.matrix())
            n = h.cols
            cols = [col for col in (h.entries[j::n] for j in range(n)) if any(col)]
            pivots = tuple(next(i for i, e in enumerate(col) if e) for col in cols)
            transform = tuple(u.entries[k * n : k * n + len(cols)] for k in range(n))
            _set_echelon(self, (Lattice(self.ambient_rank, cols), pivots, transform))
        return self._echelon

    def canonical(self) -> "Lattice":
        return self._reduce()[0]

    @property
    def rank(self) -> int:
        return len(self.canonical().basis)

    def scale(self, e: int) -> "Lattice":
        if e < 1:
            raise ValueError(f"scale factor must be >= 1, got {e}")
        return Lattice(self.ambient_rank, tuple(tuple(e * x for x in c) for c in self.basis))

    def same_lattice(self, other: "Lattice") -> bool:
        return (
            self.ambient_rank == other.ambient_rank
            and self.canonical().basis == other.canonical().basis
        )

    def coordinates(self, v) -> tuple | None:
        """Coordinates of v in the canonical basis, or None when v is outside."""
        v = tuple(map(index, v))
        if len(v) != self.ambient_rank:
            raise DimensionMismatch("vector length does not match ambient rank")
        canon, pivots, _ = self._reduce()
        resid = list(v)
        y = []
        for i, col in zip(pivots, canon.basis):
            q, r = divmod(resid[i], col[i])
            if r:
                return None
            if q:
                resid = [a - q * b for a, b in zip(resid, col)]
            y.append(q)
        return None if any(resid) else tuple(y)

    def __contains__(self, v) -> bool:
        """Membership alone, without the certificate coefficients of `contains`."""
        return self.coordinates(v) is not None

    def contains(self, v) -> Membership:
        """Decide membership; certificate coefficients refer to the original generators."""
        y = self.coordinates(v)
        if y is None:
            return Membership(False)
        transform = self._reduce()[2]
        return Membership(True, tuple(sum(t * c for t, c in zip(row, y)) for row in transform))


_set_ambient_rank = Lattice.ambient_rank.__set__
_set_basis = Lattice.basis.__set__
_set_echelon = Lattice._echelon.__set__


def lattice_contains(lattice: Lattice, v) -> Membership:
    """Functional alias for Lattice.contains."""
    return lattice.contains(v)


def power_solvable(z1: Lattice, c_vec, e: int) -> PowerSolution:
    """Decide whether e*z = c has a solution z inside the lattice z1.

    c_vec must itself lie in z1 (the caller's precondition); NotInLattice is
    raised otherwise.  Z^r has no torsion, so the only candidate root is c/e:
    e*z = c is solvable iff e divides c entrywise and c/e lies in z1.  On
    success the root's ambient coordinates are returned.
    """
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    c_vec = tuple(map(index, c_vec))
    if c_vec not in z1:
        raise NotInLattice(f"{c_vec} is not in the given lattice")
    root = tuple(x // e for x in c_vec)
    if any(x % e for x in c_vec) or root not in z1:
        return PowerSolution(False)
    return PowerSolution(True, root)
