"""Group backends: matrix groups with declared central-series data, products, presets.

A MatrixGroupSpec packages a unitriangular integer matrix group together with
the data the algorithms need: generators of the centre, an optional element of
the second centre that is not central, and the nilpotency class.  Declared
data is verified, never trusted: verify_spec re-derives every claim by
commutator arithmetic and lattice membership.

A spec is immutable and hashed once, so the facts derived from it are kept
per spec value, each in a bounded cache: its centre support and lattice, its
verification and abelian decision, and its congruence quotients.

A matrix preset is written as its Mal'cev basis, a table of (name, (i, j))
pairs for the elementary matrices I + E_ij in collection order.  The
generators, the centre generators and the second-centre representative are
named from that table (`_preset`), and coordinate tuples are exponents of its
elements in that order (`coords_to_element`).
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from .errors import SpecParseError, SpecRejected
from .finite import FiniteGroup, GroupHom, finite_closure, finite_preset
from .intlin import Lattice, Membership
from .unitri import UTMatrix, commutator, reduce_mod


class MatrixGroupSpec(namedtuple(
    "MatrixGroupSpec",
    "name n generators center_gens z2_rep declared_class"
    " gen_names center_names z2_name malcev_basis",
)):
    """A unitriangular matrix group with declared central-series data."""

    # No `__slots__ = ()`: the instance dict holds the hash.

    def __new__(cls, name, n, generators, center_gens, z2_rep, declared_class,
                gen_names=(), center_names=(), z2_name="z2", malcev_basis=()):
        self = super().__new__(
            cls, name, n, generators, center_gens, z2_rep, declared_class,
            gen_names or tuple(f"g{i}" for i in range(len(generators))),
            center_names or tuple(f"z{i}" for i in range(len(center_gens))),
            z2_name, malcev_basis,
        )
        # The caches below look a spec up on every call, so it is hashed once.
        self._hash = tuple.__hash__(self)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __hash__(self):
        return self._hash

    def with_z2_rep(self, rep: UTMatrix, name: str = "z2-override") -> "MatrixGroupSpec":
        return self._replace(z2_rep=rep, z2_name=name)


class SpecVerification(namedtuple("SpecVerification", "passed checks")):
    # checks: the names of the checks passed, in execution order
    __slots__ = ()


class AbelianDecision(namedtuple("AbelianDecision", "abelian witness", defaults=(None,))):
    # witness: pair of generator names that fail to commute
    __slots__ = ()


class ProductGroupSpec(namedtuple("ProductGroupSpec", "name matrix_part finite_part")):
    """A direct product of a matrix group and a finite group.

    The finite part is automatically normal and equals the torsion subgroup,
    because nontrivial unitriangular integer matrices have infinite order.
    """

    __slots__ = ()


# -- centre coordinates ------------------------------------------------------

# Entries kept by each per-spec cache here (center_support, center_lattice,
# verify_spec, is_abelian and congruence_quotient): enough for every level of
# a few towers, while a long-lived process does not pin every spec or group it
# ever built.
QUOTIENT_CACHE_SIZE = 32


@lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def center_support(spec: MatrixGroupSpec) -> tuple:
    """Strictly-upper positions where some declared centre generator is nonzero."""
    return tuple(sorted({pos for z in spec.center_gens for pos, _ in z.strict_upper_items()}))


@lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def center_lattice(spec: MatrixGroupSpec) -> Lattice:
    """Lattice of centre-generator coordinate vectors at the support positions."""
    support = center_support(spec)
    cols = [tuple(z[pos] for pos in support) for z in spec.center_gens]
    return Lattice(len(support), cols)


def center_vector(spec: MatrixGroupSpec, u: UTMatrix) -> tuple | None:
    """Coordinates of u at the centre support, or None if u sticks out of it:
    when its point (`upper_entries`) has more nonzero entries than the support."""
    rows, point = u.rows, u.upper_entries()
    vec = tuple(rows[i][j] for i, j in center_support(spec))
    return None if len(point) - point.count(0) > len(vec) - vec.count(0) else vec


def in_center_span(spec: MatrixGroupSpec, u: UTMatrix) -> Membership:
    """Membership of u in the subgroup generated by the declared centre generators."""
    vec = center_vector(spec, u)
    if vec is None:
        return Membership(False)
    return center_lattice(spec).contains(vec)


def _in_center(spec: MatrixGroupSpec, u: UTMatrix) -> bool:
    """`in_center_span` without its certificate coefficients."""
    vec = center_vector(spec, u)
    return vec is not None and vec in center_lattice(spec)


# -- verification ------------------------------------------------------------


@lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def verify_spec(spec: MatrixGroupSpec) -> SpecVerification:
    """Re-derive every declared claim; raises SpecRejected at the first failure.

    A passing verdict is kept per spec value, so an equal spec is verified
    once; a rejection is never kept, so a rejected spec raises on every call.

    Checks, in order: shapes; centre coordinates are additive (products of the
    centre generators' nilpotent parts vanish, so entry vectors add); centre
    generators commute with all group generators; the declared class is 1
    exactly when the generators pairwise commute; for declared class <= 2 all
    generator commutators land in the centre lattice; the second-centre
    representative has all its generator commutators in the centre lattice and
    itself lies outside it.
    """
    checks = []
    everything = list(zip(spec.gen_names, spec.generators)) + list(
        zip(spec.center_names, spec.center_gens)
    )
    if spec.z2_rep is not None:
        everything.append((spec.z2_name, spec.z2_rep))
    for nm, u in everything:
        if u.n != spec.n:
            raise SpecRejected("shape", f"{nm} is {u.n}x{u.n}, spec says n={spec.n}")
    if spec.declared_class < 1:
        raise SpecRejected("shape", f"declared_class must be >= 1, got {spec.declared_class}")
    if not spec.generators:
        raise SpecRejected("shape", "no generators")
    checks.append("shape")

    ident = UTMatrix.identity(spec.n)
    for ni, zi in zip(spec.center_names, spec.center_gens):
        for nj, zj in zip(spec.center_names, spec.center_gens):
            prod = (zi * zj).rows
            add = tuple(
                tuple(zi[i, j] + zj[i, j] if j > i else (1 if i == j else 0) for j in range(spec.n))
                for i in range(spec.n)
            )
            if prod != add:
                raise SpecRejected(
                    "center-additive",
                    f"nilpotent parts of {ni} and {nj} do not annihilate each other",
                )
    checks.append("center-additive")

    for zn, z in zip(spec.center_names, spec.center_gens):
        for gn, g in zip(spec.gen_names, spec.generators):
            if commutator(z, g) != ident:
                raise SpecRejected("center-commutes", f"({zn}, {gn})")
    checks.append("center-commutes")

    noncommuting = is_abelian(spec).witness
    if (spec.declared_class == 1) != (noncommuting is None):
        raise SpecRejected(
            "class-declaration",
            f"declared_class={spec.declared_class} but "
            + ("generators all commute" if noncommuting is None else f"{noncommuting} do not commute"),
        )
    checks.append("class-declaration")

    if spec.declared_class <= 2:
        for i in range(len(spec.generators)):
            for j in range(i + 1, len(spec.generators)):
                c = commutator(spec.generators[i], spec.generators[j])
                if not _in_center(spec, c):
                    raise SpecRejected(
                        "class2-commutators",
                        f"[{spec.gen_names[i]}, {spec.gen_names[j]}] is outside the centre lattice",
                    )
        checks.append("class2-commutators")

    if spec.z2_rep is not None:
        for gn, g in zip(spec.gen_names, spec.generators):
            c = commutator(spec.z2_rep, g)
            if not _in_center(spec, c):
                raise SpecRejected("z2-commutators", f"({spec.z2_name}, {gn})")
        checks.append("z2-commutators")
        if _in_center(spec, spec.z2_rep):
            raise SpecRejected(
                "z2-in-center", f"{spec.z2_name} lies in the declared centre span"
            )
        checks.append("z2-outside-center")

    return SpecVerification(True, tuple(checks))


@lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def is_abelian(spec: MatrixGroupSpec) -> AbelianDecision:
    """YES iff all generator pairs commute; carries a failing pair otherwise.
    Kept per spec value."""
    ident = UTMatrix.identity(spec.n)
    for i in range(len(spec.generators)):
        for j in range(i + 1, len(spec.generators)):
            if commutator(spec.generators[i], spec.generators[j]) != ident:
                return AbelianDecision(False, (spec.gen_names[i], spec.gen_names[j]))
    return AbelianDecision(True)


def torsion_subgroup(group: ProductGroupSpec) -> FiniteGroup:
    """The torsion subgroup of a matrix x finite product: its finite part."""
    return group.finite_part


# -- congruence quotients ----------------------------------------------------

@lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def congruence_quotient(
    spec: MatrixGroupSpec, p: int, k: int, max_order: int = 10**6
) -> tuple:
    """The image of the group under entrywise reduction mod p^k, as a
    `finite_closure`, known by its order and membership until its element
    list is first used.

    Returns (FiniteGroup, GroupHom).  Cached, for the QUOTIENT_CACHE_SIZE most
    recently used arguments: specs and elements are immutable.
    """
    rgens = tuple(reduce_mod(g, p, k) for g in spec.generators)
    named = {}
    for gname, rgen in zip(spec.gen_names, rgens):
        named.setdefault(rgen, gname)

    def label(r):
        name = named.get(r)
        return "(" + ",".join(map(str, r.upper_entries())) + ")" if name is None else name

    quot = finite_closure(
        rgens, max_order=max_order, name=f"{spec.name} mod {p}^{k}", labels=label
    )
    hom = GroupHom(codomain=quot, mapping=lambda u: reduce_mod(u, p, k))
    return quot, hom


# -- coordinates -------------------------------------------------------------


def coords_to_element(spec: MatrixGroupSpec, coords) -> UTMatrix:
    """Exponent tuple -> product of the preset's ordered basis elements."""
    coords = tuple(int(x) for x in coords)
    if not spec.malcev_basis:
        raise SpecParseError(f"spec {spec.name!r} has no coordinate basis")
    if len(coords) != len(spec.malcev_basis):
        raise SpecParseError(
            f"{spec.name!r} takes {len(spec.malcev_basis)} coordinates, got {len(coords)}"
        )
    out = UTMatrix.identity(spec.n)
    for (name, base), e in zip(spec.malcev_basis, coords):
        out = out * base**e
    return out


def element_coords(spec: MatrixGroupSpec, u: UTMatrix) -> tuple | None:
    """Invert coords_to_element by collection; None when u is not in the span."""
    if not spec.malcev_basis:
        return None
    rows = [list(r) for r in u.rows]
    out = []
    for name, base in spec.malcev_basis:
        items = base.strict_upper_items()
        if len(items) != 1 or abs(items[0][1]) != 1:
            return None
        ((i, j), unit) = items[0]
        e = rows[i][j] * unit
        out.append(e)
        if e:  # base^-e * rows, as base^-e = I - e*unit*E_ij
            rows[i] = [a - e * unit * b for a, b in zip(rows[i], rows[j])]
    if any(v for i, row in enumerate(rows) for v in row[i + 1 :]):
        return None
    return tuple(out)


# -- matrix presets ----------------------------------------------------------


def _preset(name, n, basis, gens, center, z2, declared_class) -> MatrixGroupSpec:
    """A matrix preset read off its Mal'cev basis: `basis` lists (name, (i, j))
    for the elementary matrices I + E_ij in collection order, and `gens`,
    `center` and `z2` (None for an abelian group) name basis elements."""
    table = {nm: UTMatrix.from_entries(n, {pos: 1}) for nm, pos in basis}
    return MatrixGroupSpec(
        name=name,
        n=n,
        generators=tuple(table[nm] for nm in gens),
        gen_names=gens,
        center_gens=tuple(table[nm] for nm in center),
        center_names=center,
        z2_rep=table.get(z2),
        z2_name=z2 or "z2",
        declared_class=declared_class,
        malcev_basis=tuple((nm, table[nm]) for nm, _ in basis),
    )


def heisenberg_spec() -> MatrixGroupSpec:
    basis = (("a", (0, 1)), ("b", (1, 2)), ("c", (0, 2)))
    return _preset("heisenberg", 3, basis, ("a", "b"), ("c",), "a", 2)


def free_abelian_rank1_spec() -> MatrixGroupSpec:
    return _preset("z", 2, (("a", (0, 1)),), ("a",), ("a",), None, 1)


def free_abelian_rank2_spec() -> MatrixGroupSpec:
    basis = (("a", (0, 1)), ("b", (0, 2)))
    return _preset("z2", 3, basis, ("a", "b"), ("a", "b"), None, 1)


def ut4_spec() -> MatrixGroupSpec:
    basis = (("x12", (0, 1)), ("x23", (1, 2)), ("x34", (2, 3)),
             ("x13", (0, 2)), ("x24", (1, 3)), ("x14", (0, 3)))
    return _preset("ut4", 4, basis, ("x12", "x23", "x34"), ("x14",), "x13", 3)


def heis5_spec() -> MatrixGroupSpec:
    """Five-dimensional Heisenberg group: two commuting pairs, one shared centre."""
    basis = (("a1", (0, 1)), ("a2", (0, 2)), ("b1", (1, 3)), ("b2", (2, 3)), ("c", (0, 3)))
    return _preset("heis5", 4, basis, ("a1", "a2", "b1", "b2"), ("c",), "a1", 2)


_MATRIX_PRESETS = {
    "heisenberg": heisenberg_spec,
    "z": free_abelian_rank1_spec,
    "z2": free_abelian_rank2_spec,
    "ut4": ut4_spec,
    "heis5": heis5_spec,
}

# Product presets: (matrix part, finite part or None for the trivial group).
_PRODUCT_PRESETS = {
    **{name: (name, None) for name in _MATRIX_PRESETS},
    "zxc2": ("z", "c2"),
    "zxc3": ("z", "c3"),
    "zxc6": ("z", "c6"),
    "zxq8": ("z", "q8"),
    "zxd4": ("z", "d4"),
    "heisxc2": ("heisenberg", "c2"),
}


def preset(name: str) -> ProductGroupSpec:
    """Resolve a named preset to a product spec (trivial finite part if none)."""
    key = name.lower()
    if key not in _PRODUCT_PRESETS:
        raise SpecParseError(
            f"unknown preset {name!r}; known: {', '.join(sorted(_PRODUCT_PRESETS))}"
        )
    matrix_name, finite_name = _PRODUCT_PRESETS[key]
    finite = finite_preset(finite_name) if finite_name else finite_preset("trivial")
    return ProductGroupSpec(
        name=key, matrix_part=_MATRIX_PRESETS[matrix_name](), finite_part=finite
    )


def preset_names() -> tuple:
    return tuple(sorted(_PRODUCT_PRESETS))


# -- JSON input --------------------------------------------------------------


def _is_int(value) -> bool:
    """An integer of the document: JSON's true and false load as bools, which
    Python counts as ints, and are rejected."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_matrix(data, n: int, what: str) -> UTMatrix:
    if (
        not isinstance(data, list)
        or len(data) != n
        or any(not isinstance(r, list) or len(r) != n for r in data)
    ):
        raise SpecParseError(f"{what} must be a list of {n} lists of {n} integers")
    for row in data:
        for v in row:
            if not _is_int(v):
                raise SpecParseError(f"{what} has a non-integer entry {v!r}")
    try:
        return UTMatrix(data)
    except ValueError as exc:
        raise SpecParseError(f"{what} is not upper unitriangular: {exc}") from exc


def load_spec(source) -> ProductGroupSpec:
    """Load a group-spec document from a path, JSON string, or dict.

    Schema: {"name": str, "n": int, "generators": [matrix, ...],
    "center_gens": [matrix, ...], "z2_rep": matrix | null,
    "declared_class": int, "finite_part": {"kind": "preset", "name": str} | null}
    where a matrix is a list of n lists of n integers.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise SpecParseError(f"cannot read spec file {source!r}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecParseError("spec document must be a JSON object")
    missing = [
        k
        for k in ("name", "n", "generators", "center_gens", "declared_class")
        if k not in data
    ]
    if missing:
        raise SpecParseError(f"missing keys: {', '.join(missing)}")
    name = data["name"]
    n = data["n"]
    if not isinstance(name, str) or not _is_int(n) or n < 1:
        raise SpecParseError("'name' must be a string and 'n' a positive integer")
    if not isinstance(data["generators"], list) or not data["generators"]:
        raise SpecParseError("'generators' must be a nonempty list of matrices")
    gens = tuple(
        _parse_matrix(m, n, f"generators[{i}]") for i, m in enumerate(data["generators"])
    )
    cgs = data["center_gens"]
    if not isinstance(cgs, list):
        raise SpecParseError("'center_gens' must be a list of matrices")
    centers = tuple(_parse_matrix(m, n, f"center_gens[{i}]") for i, m in enumerate(cgs))
    z2 = data.get("z2_rep")
    z2_rep = _parse_matrix(z2, n, "z2_rep") if z2 is not None else None
    declared = data["declared_class"]
    if not _is_int(declared) or declared < 1:
        raise SpecParseError("'declared_class' must be a positive integer")
    finite = data.get("finite_part")
    if finite is None:
        finite_group = finite_preset("trivial")
    else:
        if (
            not isinstance(finite, dict)
            or finite.get("kind") != "preset"
            or not isinstance(finite.get("name"), str)
        ):
            raise SpecParseError(
                "'finite_part' must be null or {\"kind\": \"preset\", \"name\": ...}"
            )
        try:
            finite_group = finite_preset(finite["name"])
        except KeyError as exc:
            raise SpecParseError(exc.args[0]) from exc
    spec = MatrixGroupSpec(
        name=name,
        n=n,
        generators=gens,
        center_gens=centers,
        z2_rep=z2_rep,
        declared_class=declared,
    )
    return ProductGroupSpec(name=name, matrix_part=spec, finite_part=finite_group)


def parse_element(pspec: ProductGroupSpec, text: str) -> tuple:
    """Parse "coords|finite-label" into a (UTMatrix, finite element) pair.

    The coordinate part may be empty (identity), a comma-separated exponent
    tuple for the preset's basis, or a path to a JSON matrix file.  The finite
    part defaults to the identity.
    """
    left, _, right = text.partition("|")
    left = left.strip()
    right = right.strip()
    spec = pspec.matrix_part
    if not left:
        matrix = UTMatrix.identity(spec.n)
    elif left.endswith(".json"):
        try:
            data = json.loads(Path(left).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecParseError(f"cannot read matrix file {left!r}: {exc}") from exc
        matrix = _parse_matrix(data, spec.n, left)
    else:
        try:
            coords = [int(tok) for tok in left.split(",")]
        except ValueError as exc:
            raise SpecParseError(f"bad coordinate tuple {left!r}") from exc
        matrix = coords_to_element(spec, coords)
    finite = pspec.finite_part
    if not right:
        f_elt = finite.identity
    else:
        try:
            f_elt = finite.element_by_label(right)
        except KeyError as exc:
            raise SpecParseError(exc.args[0]) from exc
    return matrix, f_elt
