"""Upper unitriangular integer matrices and their congruence reductions.

One body holds every matrix operation, over the integers when its modulus is
None and modulo p^k otherwise, and it has two named kinds.  UTMatrix carries
elements of torsion-free nilpotent matrix groups exactly; ResidueUT carries
their images modulo p^k, which are elements of finite p-groups.  Entrywise
reduction is a group homomorphism, so the reductions realize the whole
congruence tower of finite p-quotients.

Every matrix operation runs one of six straight-line kernels, each Python
source written out entry by entry for one matrix size, compiled by `exec` on
first use and kept, keyed by the size (and, for products, powers and
commutators, the kind) alone: the general product `_matmul`; every power and
inverse of both kinds, `_power`, by the finite binomial series
u^e = sum of C(e, t) N^t for u = I + N, whatever the exponent, so an inverse
takes no loop either; a conjugation step (`conjugation_kernel`), one call of
the fused kernel for s^-1 * x * s with one reduction per entry, on points; the
commutator x^-1 y^-1 x y, one call that solves (y x) z = x y by back
substitution with one reduction per entry, no inverse and no product; the
entrywise reduction of `reduce_mod`; and the point codec, which maps rows to
their point, the flat tuple of their strictly-upper entries in row-major
order (`upper_entries`, `is_identity`), and a point back to rows.  Orbit
search hashes and steps points, not nested rows.  A modulus p^k needs p
prime and k >= 1.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .errors import DimensionMismatch
from .intlin import require_prime


class _Kernels(dict):
    """Straight-line kernels keyed by the arguments of `write`, (n, reduced)
    or n alone, each generated from the source that `write` returns for its
    key on first use and kept from then on: one per matrix size and kind."""

    def __init__(self, write):
        super().__init__()
        self.write = write

    def __missing__(self, key):
        namespace = {}
        exec(self.write(*key) if isinstance(key, tuple) else self.write(key), namespace)
        kernel = self[key] = namespace["kernel"]
        return kernel


def _grid(n, item):
    """Nested tuple display of n rows of n items, item (i, j) the string
    `item(i, j)`: a target that unpacks rows, or an expression that builds them."""
    return "(" + "".join(
        "(" + "".join(f"{item(i, j)}, " for j in range(n)) + "), " for i in range(n)
    ) + ")"


def _product_source(n, reduced):
    """`kernel(a, b, m)`: rows of a*b, entry (i, j) the sum of a_ik * b_kj over
    i <= k <= j, each entry above the diagonal reduced mod m when `reduced`.
    The diagonal is a_ii * b_ii, so diagonals of 1 and of 0 both work."""

    def entry(i, j):
        if j < i:
            return "0"
        terms = " + ".join(f"a{i}_{k}*b{k}_{j}" for k in range(i, j + 1))
        return f"({terms}) % m" if reduced and j > i else terms

    a = _grid(n, lambda i, j: f"a{i}_{j}" if j >= i else "_")
    b = _grid(n, lambda i, j: f"b{i}_{j}" if j >= i else "_")
    return f"def kernel(a, b, m):\n {a} = a\n {b} = b\n return {_grid(n, entry)}\n"


def _power_source(n, reduced):
    """`kernel(rows, e, m)`: rows of u**e for unitriangular u = I + N and any
    integer e, each entry above the diagonal reduced mod m when `reduced`.

    N^n = 0, so u^e is the finite sum over t < n of C(e, t) * N^t, with
    C(e, t) = e(e-1)...(e-t+1)/t! (e = -1 gives the inverse).  c{t} is C(e, t)
    by the exact recurrence C(e, t) = C(e, t-1) * (e-t+1) // t, and p{t}_i_j
    is entry (i, j) of N^t, which is 0 unless j - i >= t."""

    def power(t, i, j):
        return f"n{i}_{j}" if t == 1 else f"p{t}_{i}_{j}"

    nil = _grid(n, lambda i, j: f"n{i}_{j}" if j > i else "_")
    lines = ["def kernel(r, e, m):", f" {nil} = r", " c1 = e"]
    for t in range(2, n):
        lines.append(f" c{t} = c{t - 1} * (e - {t - 1}) // {t}")
        lines += [
            f" {power(t, i, j)} = "
            + " + ".join(f"{power(t - 1, i, k)}*n{k}_{j}" for k in range(i + t - 1, j))
            for i in range(n) for j in range(i + t, n)
        ]

    def entry(i, j):
        if i >= j:
            return int(i == j)
        terms = " + ".join(f"c{t}*{power(t, i, j)}" for t in range(1, j - i + 1))
        return f"({terms}) % m" if reduced else terms

    lines.append(f" return {_grid(n, entry)}")
    return "\n".join(lines) + "\n"


def _flat(name, n):
    """Flat tuple display of the strictly-upper items (i, j), row-major, item
    (i, j) named name{i}_{j}: a target that unpacks a point, or an
    expression that builds one."""
    return "(" + "".join(f"{name}{i}_{j}, " for i in range(n) for j in range(i + 1, n)) + ")"


def _codec_source(n):
    """`kernel`, the pair (point, rows): point maps unitriangular rows to their
    point, the tuple of their strictly-upper entries in row-major order, and
    rows maps a point back to its rows, unit diagonal and zeros below it."""
    rows = _grid(n, lambda i, j: f"x{i}_{j}" if j > i else "_")
    built = _grid(n, lambda i, j: f"x{i}_{j}" if j > i else int(i == j))
    return (f"def point(r):\n {rows} = r\n return {_flat('x', n)}\n"
            f"def rows(x):\n {_flat('x', n)} = x\n return {built}\n"
            "kernel = point, rows\n")


def _conjugation_source(n):
    """`kernel(a, b, m)`: the step point -> point of a * x * b for the points
    (`_codec_source`) of unitriangular a, x and b, entry (i, j) the sum of
    a_ik * x_kl * b_lj over i <= k <= l <= j reduced mod m once.  The unit
    diagonals are folded in, and the sum is taken as a * t for t = x * b,
    whose entries t{k}_{j} are kept unreduced: about n^3/6 terms where the
    expanded triple sum has n^4/24.  a and b are unpacked once, when the
    step is made."""

    def xb(k, j):
        terms = [f"b{k}_{j}"] + [f"x{k}_{l}*b{l}_{j}" for l in range(k + 1, j)] + [f"x{k}_{j}"]
        return " + ".join(terms)

    def entry(i, j):
        terms = [f"t{i}_{j}"] + [f"a{i}_{k}*t{k}_{j}" for k in range(i + 1, j)] + [f"a{i}_{j}"]
        return f"({' + '.join(terms)}) % m"

    out = "".join(f"{entry(i, j)}, " for i in range(n) for j in range(i + 1, n))
    lines = ["def kernel(a, b, m):", f" {_flat('a', n)} = a", f" {_flat('b', n)} = b",
             " def step(x):", f"  {_flat('x', n)} = x"]
    lines += [f"  t{k}_{j} = {xb(k, j)}" for k in range(n) for j in range(k + 1, n)]
    lines += [f"  return ({out})", " return step"]
    return "\n".join(lines) + "\n"


def _commutator_source(n, reduced):
    """`kernel(x, y, m)`: rows of the commutator z = x^-1 y^-1 x y of
    unitriangular x and y, each entry reduced mod m once when `reduced`.

    z solves Q z = P for P = x * y and Q = y * x, so from the bottom row up
    z_ij = P_ij - Q_ij - the sum of Q_ik * z_kj over i < k < j.  The unit
    diagonals cancel x_ij + y_ij out of P_ij - Q_ij, which leaves the sum of
    x_ik * y_kj - y_ik * x_kj over i < k < j: zero on the superdiagonal.  The
    entries q{i}_{k} of Q are kept unreduced; each z{i}_{j} is reduced before
    the rows above use it."""

    def upper(name):
        return _grid(n, lambda i, j: f"{name}{i}_{j}" if j > i else "_")

    def q(i, k):
        terms = [f"y{i}_{k}", f"x{i}_{k}"] + [f"y{i}_{l}*x{l}_{k}" for l in range(i + 1, k)]
        return " + ".join(terms)

    def z(i, j):
        terms = " + ".join(f"x{i}_{k}*y{k}_{j} - y{i}_{k}*x{k}_{j}" for k in range(i + 1, j))
        terms += "".join(f" - q{i}_{k}*z{k}_{j}" for k in range(i + 1, j - 1))
        return f"({terms}) % m" if reduced else terms

    lines = ["def kernel(x, y, m):", f" {upper('x')} = x", f" {upper('y')} = y"]
    for i in reversed(range(n - 2)):
        lines += [f" q{i}_{k} = {q(i, k)}" for k in range(i + 1, n - 2)]
        lines += [f" z{i}_{j} = {z(i, j)}" for j in range(i + 2, n)]
    out = _grid(n, lambda i, j: f"z{i}_{j}" if j > i + 1 else int(i == j))
    lines.append(f" return {out}")
    return "\n".join(lines) + "\n"


def _reduction_source(n):
    """`kernel(rows, m)`: unitriangular rows with each entry above the
    diagonal reduced mod m, the diagonal 1 and the entries below it 0."""
    r = _grid(n, lambda i, j: f"r{i}_{j}" if j > i else "_")
    out = _grid(n, lambda i, j: f"r{i}_{j} % m" if j > i else int(i == j))
    return f"def kernel(r, m):\n {r} = r\n return {out}\n"


_CODECS = _Kernels(_codec_source)
_PRODUCTS = _Kernels(_product_source)
_POWERS = _Kernels(_power_source)
_CONJUGATIONS = _Kernels(_conjugation_source)
_REDUCTIONS = _Kernels(_reduction_source)
_COMMUTATORS = _Kernels(_commutator_source)


def _matmul(a, b, n, mod=None):
    """Rows of a*b for upper triangular n x n rows a and b, diagonals 1 or 0
    alike, reduced mod `mod` if given: one generated kernel per (n, kind)."""
    return _PRODUCTS[n, mod is not None](a, b, mod)


def _power(rows, n, e, mod=None):
    """Rows of u**e, reduced mod `mod` if given, for unitriangular rows u and
    any integer e, by the finite binomial series of `_power_source`."""
    return _POWERS[n, mod is not None](rows, e, mod)


class _Unitri:
    """The body of both kinds: an immutable n x n upper unitriangular matrix,
    over the integers while p, k and mod are these class attributes (None),
    and with entries reduced into [0, mod) on the residue kind, which stores them."""

    __slots__ = ("n", "rows")
    p = k = mod = None

    def __init__(self, rows):
        mod = self.mod
        if mod:
            rows = tuple(tuple(index(x) % mod for x in r) for r in rows)
        else:
            rows = tuple(tuple(map(index, r)) for r in rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
            for j, v in enumerate(row):
                if j < i and v != 0:
                    raise ValueError(f"entry ({i},{j}) below the diagonal is {v}, expected 0")
                if j == i and v != 1:
                    raise ValueError(f"diagonal entry ({i},{i}) is {v}, expected 1")
        _set_n(self, n)
        _set_rows(self, rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _wrap(self, rows):
        out = _new(type(self))
        _set_n(out, self.n)
        _set_rows(out, rows)
        if self.mod:
            _set_p(out, self.p)
            _set_k(out, self.k)
            _set_mod(out, self.mod)
        return out

    def __getitem__(self, pos):
        i, j = pos
        return self.rows[i][j]

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._match(other)
        return self._wrap(_matmul(self.rows, other.rows, self.n, self.mod))

    def _match(self, other):
        """DimensionMismatch unless `other`, of the same kind, has this n, p and k."""
        if self.n != other.n or self.p != other.p or self.k != other.k:
            raise DimensionMismatch(
                f"incompatible matrices: (n,p,k)=({self.n},{self.p},{self.k}) "
                f"vs ({other.n},{other.p},{other.k})"
            )

    def inverse(self):
        return self._wrap(_power(self.rows, self.n, -1, self.mod))

    def __pow__(self, e: int):
        return self._wrap(_power(self.rows, self.n, e, self.mod))

    def is_identity(self) -> bool:
        return not any(self.upper_entries())

    def upper_entries(self) -> tuple:
        """The matrix's point: its strictly-upper entries in row-major order."""
        return _CODECS[self.n][0](self.rows)

    def strict_upper_items(self):
        """Nonzero strictly-upper entries as ((i, j), value) pairs, row-major."""
        return tuple(
            ((i, j), self.rows[i][j])
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.rows[i][j]
        )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.rows == other.rows
            and self.p == other.p
            and self.k == other.k
        )

    def __hash__(self):
        return hash((self.p, self.k, self.rows)) if self.mod else hash(self.rows)


class UTMatrix(_Unitri):
    """Immutable n x n upper unitriangular matrix over the integers."""

    __slots__ = ()
    # bench/tracing.py patches these per class, so each kind binds its own.
    __mul__, inverse, __pow__ = _Unitri.__mul__, _Unitri.inverse, _Unitri.__pow__

    @classmethod
    def identity(cls, n: int) -> "UTMatrix":
        out = _new(cls)
        _set_n(out, n)
        _set_rows(out, tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)))
        return out

    @classmethod
    def from_entries(cls, n: int, entries: dict) -> "UTMatrix":
        """Identity plus the given strictly-upper entries {(i, j): value}."""
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in entries.items():
            if not 0 <= i < j < n:
                raise ValueError(f"({i},{j}) is not a strictly upper position for n={n}")
            rows[i][j] = v
        return cls(rows)

    def __repr__(self):
        return f"UTMatrix({[list(r) for r in self.rows]!r})"


def commutator(x: UTMatrix, y: UTMatrix) -> UTMatrix:
    """The commutator x^-1 y^-1 x y (so that g^-1 x g = x * commutator(x, g)),
    of two matrices of one kind and shape: one call of the commutator kernel,
    which solves (y x) z = x y for z without an inverse or a wrapped product."""
    if type(y) is not type(x):
        raise TypeError(
            f"commutator of {type(x).__name__} and {type(y).__name__}: kinds differ"
        )
    x._match(y)
    return x._wrap(_COMMUTATORS[x.n, x.mod is not None](x.rows, y.rows, x.mod))


@lru_cache(maxsize=64)
def _modulus(p: int, k: int) -> int:
    """p^k for a prime p and a level k >= 1, else ValueError; cached, so that
    `reduce_mod` decides primality once per (p, k)."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    require_prime(p)
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    return p**k


class ResidueUT(_Unitri):
    """Unitriangular matrix with entries reduced into [0, p^k)."""

    __slots__ = ("p", "k", "mod")
    # bench/tracing.py patches these per class, so each kind binds its own.
    __mul__, inverse, __pow__ = _Unitri.__mul__, _Unitri.inverse, _Unitri.__pow__

    def __init__(self, rows, p: int, k: int):
        mod = _modulus(p, k)
        _set_p(self, p)
        _set_k(self, k)
        _set_mod(self, mod)
        _Unitri.__init__(self, rows)

    @classmethod
    def identity(cls, n: int, p: int, k: int) -> "ResidueUT":
        return cls(UTMatrix.identity(n).rows, p, k)

    def __repr__(self):
        return f"ResidueUT({[list(r) for r in self.rows]!r}, p={self.p}, k={self.k})"


# Both kinds fill their slots through the slot descriptors, bound once here,
# which bypasses the raising `__setattr__` at half the cost of object.__setattr__.
_new = object.__new__
_set_n = _Unitri.n.__set__
_set_rows = _Unitri.rows.__set__
_set_p = ResidueUT.p.__set__
_set_k = ResidueUT.k.__set__
_set_mod = ResidueUT.mod.__set__


def conjugation_kernel(s: ResidueUT):
    """The step point -> point of s^-1 * x * s on the points (`upper_entries`)
    of residue matrices x shaped like s: one call of the fused conjugation
    kernel, s^-1 and s bound into it."""
    n, mod = s.n, s.mod
    point = _CODECS[n][0]
    return _CONJUGATIONS[n](point(_power(s.rows, n, -1, mod)), point(s.rows), mod)


def reduce_mod(u: UTMatrix, p: int, k: int) -> ResidueUT:
    """Entrywise reduction modulo p^k; a homomorphism onto a finite p-group.

    A residue reduces only to its own prime at its own or a lower level; any
    other map of residues is no homomorphism, and raises ValueError.  The rows
    are already checked unitriangular integers, so the reduction kernel
    reduces them and the slots are filled as `_wrap` fills them, without the
    ResidueUT constructor's checks.
    """
    mod = _modulus(p, k)
    if u.mod and (u.p != p or k > u.k):
        raise ValueError(f"a residue mod {u.p}^{u.k} does not reduce mod {p}^{k}")
    out = _new(ResidueUT)
    _set_n(out, u.n)
    _set_rows(out, _REDUCTIONS[u.n](u.rows, mod))
    _set_p(out, p)
    _set_k(out, k)
    _set_mod(out, mod)
    return out


def residue_order_exponent(r: ResidueUT) -> int:
    """Least s with r**(p**s) equal to the identity.

    Always finite: the ambient group of residue matrices is a finite p-group.
    """
    s = 0
    x = r
    bound = r.k * r.n + 1
    while not x.is_identity():
        x = x**r.p
        s += 1
        if s > bound:
            raise RuntimeError("p-power order not found within the theoretical bound")
    return s
