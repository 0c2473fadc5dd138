"""Verdict oracles that share no decision code with conjsep.

Every check here is written from the mathematics alone: naive matrix
products over tuples of ints, the closed-form conjugacy rule for class-2
groups in Mal'cev coordinates, hand-written class tables for D4 and Q8, and
brute-force closure and normality checks over a group's multiplication.
A check that fails raises WrongVerdict, which aborts the benchmark run.
"""

from __future__ import annotations

from math import gcd


class WrongVerdict(Exception):
    """The program returned an answer that an oracle contradicts."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongVerdict(what)


# -- naive unitriangular matrices ---------------------------------------------

# Mal'cev bases of the matrix presets: (name, strictly-upper position), in the
# order conjsep multiplies them; the last entry of a class-2 basis is central.
BASES = {
    "z": (("a", (0, 1)),),
    "heisenberg": (("a", (0, 1)), ("b", (1, 2)), ("c", (0, 2))),
    "heis5": (
        ("a1", (0, 1)), ("a2", (0, 2)), ("b1", (1, 3)), ("b2", (2, 3)), ("c", (0, 3)),
    ),
    "ut4": (
        ("x12", (0, 1)), ("x23", (1, 2)), ("x34", (2, 3)),
        ("x13", (0, 2)), ("x24", (1, 3)), ("x14", (0, 3)),
    ),
}
DIM = {"z": 2, "heisenberg": 3, "heis5": 4, "ut4": 4}
# Products of class-2 coordinates that land in the central entry:
# the (0, n-1) entry of a^al b^be c^ga is ga + sum(al_i * be_i).
PAIRS = {"heisenberg": ((0, 1),), "heis5": ((0, 2), (1, 3))}


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mul(a, b, mod: int | None = None) -> tuple:
    """Full triple-loop product; entries reduced mod `mod` when given."""
    n = len(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s += a[i][k] * b[k][j]
            row.append(s % mod if mod else s)
        rows.append(tuple(row))
    return tuple(rows)


def power(a, e: int, mod: int | None = None) -> tuple:
    if e < 0:
        raise ValueError("power() takes a non-negative exponent")
    out = identity(len(a))
    while e:
        if e & 1:
            out = mul(out, a, mod)
        a = mul(a, a, mod)
        e >>= 1
    return out


def reduce(a, mod: int) -> tuple:
    return tuple(tuple(v % mod for v in row) for row in a)


def elementary(n: int, pos, e: int) -> tuple:
    rows = [list(r) for r in identity(n)]
    rows[pos[0]][pos[1]] = e
    return tuple(tuple(r) for r in rows)


def from_coords(group: str, coords, mod: int | None = None) -> tuple:
    """The product of the basis elements raised to the given exponents."""
    n = DIM[group]
    out = identity(n)
    for (_, pos), e in zip(BASES[group], coords):
        out = mul(out, elementary(n, pos, e), mod)
    return out


def inverse_coords(group: str, coords, mod: int | None = None) -> tuple:
    """Matrix of the inverse: the basis powers negated, in reverse order."""
    n = DIM[group]
    out = identity(n)
    for (_, pos), e in reversed(tuple(zip(BASES[group], coords))):
        out = mul(out, elementary(n, pos, -e), mod)
    return out


def class2_coords(group: str, m) -> tuple:
    """Read Mal'cev coordinates back from a class-2 matrix (inverse of from_coords)."""
    basis = BASES[group]
    noncentral = [m[i][j] for _, (i, j) in basis[:-1]]
    ci, cj = basis[-1][1]
    central = m[ci][cj] - sum(noncentral[s] * noncentral[t] for s, t in PAIRS[group])
    return tuple(noncentral) + (central,)


def conjugate_by(group: str, x_coords, g_coords) -> tuple:
    """Coordinates of g^-1 x g, computed with naive products."""
    m = mul(mul(inverse_coords(group, g_coords), from_coords(group, x_coords)), from_coords(group, g_coords))
    return class2_coords(group, m)


def conjugates(x, g, y, mod: int | None = None) -> bool:
    """g^-1 x g == y, checked as x g == g y so no inverse is needed."""
    return mul(x, g, mod) == mul(g, y, mod)


# -- closed-form conjugacy in class 2 -----------------------------------------


def class2_conjugate(x_coords, y_coords, modulus: int | None = None) -> bool:
    """Heisenberg-type groups: conjugate iff the non-central coordinates agree
    and the central ones differ by a multiple of gcd(non-central[, modulus])."""
    xs, ys = tuple(x_coords[:-1]), tuple(y_coords[:-1])
    diff = y_coords[-1] - x_coords[-1]
    if modulus:
        xs = tuple(v % modulus for v in xs)
        ys = tuple(v % modulus for v in ys)
        diff %= modulus
    if xs != ys:
        return False
    g = gcd(*xs, modulus or 0)
    return diff % g == 0 if g else diff == 0


# -- finite groups by hand ----------------------------------------------------

CLASS_TABLES = {
    "d4": ({"e"}, {"r2"}, {"r", "r3"}, {"s", "r2s"}, {"rs", "r3s"}),
    "q8": ({"1"}, {"-1"}, {"i", "-i"}, {"j", "-j"}, {"k", "-k"}),
}


def finite_conjugate(group: str, f1: str, f2: str) -> bool:
    return any(f1 in cls and f2 in cls for cls in CLASS_TABLES[group])


# Normal subgroup counts known by hand, and counts of those of p-power index.
NORMAL_COUNTS = {"S3": 3, "D4": 6, "Q8": 6, "C6": 4}
KERNEL_COUNTS = {
    ("S3", 2): 2, ("S3", 3): 1, ("C6", 2): 2, ("C6", 3): 2,
    ("D4", 2): 6, ("Q8", 2): 6,
}


def p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class NaiveGroup:
    """A finite group seen only through its element list and multiplication."""

    def __init__(self, elements, op, ident):
        self.elements = tuple(elements)
        self.op = op
        self.ident = ident
        self.inv = {x: next(h for h in self.elements if op(x, h) == ident) for x in self.elements}

    def conj(self, x, g):
        return self.op(self.op(self.inv[g], x), g)

    def closed_and_normal(self, subset) -> bool:
        """Identity, closure under products, and closure under all conjugations."""
        op = self.op
        return (
            self.ident in subset
            and all(op(a, b) in subset for a in subset for b in subset)
            and all(self.conj(x, g) in subset for g in self.elements for x in subset)
        )

    def conjugacy_class(self, x) -> set:
        return {self.conj(x, g) for g in self.elements}

    def product_set(self, a, b) -> set:
        return {self.op(x, y) for x in a for y in b}


# -- the criterion on the product presets, by hand -----------------------------

MATRIX_ABELIAN = {"z": True, "z2": True, "heisenberg": False, "ut4": False, "heis5": False}
PRODUCT_PARTS = {
    "z": ("z", 1), "z2": ("z2", 1), "heisenberg": ("heisenberg", 1), "ut4": ("ut4", 1),
    "heis5": ("heis5", 1), "zxc2": ("z", 2), "zxc3": ("z", 3), "zxc6": ("z", 6),
    "zxq8": ("z", 8), "zxd4": ("z", 8), "heisxc2": ("heisenberg", 2),
}


def separable(product: str, p: int) -> bool:
    """Torsion a p-group and the quotient by torsion abelian."""
    matrix, torsion = PRODUCT_PARTS[product]
    return MATRIX_ABELIAN[matrix] and p_power(torsion, p)
