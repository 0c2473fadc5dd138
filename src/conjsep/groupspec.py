"""Group backends: matrix groups with declared central-series data, products, presets.

A MatrixGroupSpec packages a unitriangular integer matrix group together with
the data the algorithms need: generators of the centre, an optional element of
the second centre that is not central, and the nilpotency class.  Declared
data is verified, never trusted: verify_spec re-derives every claim by
commutator arithmetic and lattice membership.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from .errors import SpecParseError, SpecRejected
from .finite import FiniteGroup, GroupHom, finite_closure, finite_preset
from .intlin import Lattice, Membership
from .unitri import UTMatrix, commutator, reduce_mod


@dataclass(frozen=True)
class MatrixGroupSpec:
    """A unitriangular matrix group with declared central-series data."""

    name: str
    n: int
    generators: tuple
    center_gens: tuple
    z2_rep: UTMatrix | None
    declared_class: int
    gen_names: tuple = ()
    center_names: tuple = ()
    z2_name: str = "z2"
    malcev_basis: tuple = ()

    def __post_init__(self):
        if not self.gen_names:
            object.__setattr__(
                self, "gen_names", tuple(f"g{i}" for i in range(len(self.generators)))
            )
        if not self.center_names:
            object.__setattr__(
                self, "center_names", tuple(f"z{i}" for i in range(len(self.center_gens)))
            )

    def with_z2_rep(self, rep: UTMatrix, name: str = "z2-override") -> "MatrixGroupSpec":
        return replace(self, z2_rep=rep, z2_name=name)


@dataclass(frozen=True)
class SpecVerification:
    passed: bool
    checks: tuple  # (name, detail) pairs, in execution order


@dataclass(frozen=True)
class AbelianDecision:
    abelian: bool
    witness: tuple | None = None  # pair of generator names that fail to commute


@dataclass
class ProductGroupSpec:
    """A direct product of a matrix group and a finite group.

    The finite part is automatically normal and equals the torsion subgroup,
    because nontrivial unitriangular integer matrices have infinite order.
    """

    name: str
    matrix_part: MatrixGroupSpec
    finite_part: FiniteGroup


# -- centre coordinates ------------------------------------------------------


@lru_cache(maxsize=None)
def center_support(spec: MatrixGroupSpec) -> tuple:
    """Strictly-upper positions where some declared centre generator is nonzero."""
    positions = set()
    for z in spec.center_gens:
        for (i, j), _ in z.strict_upper_items():
            positions.add((i, j))
    return tuple(sorted(positions))


@lru_cache(maxsize=None)
def center_lattice(spec: MatrixGroupSpec) -> Lattice:
    """Lattice of centre-generator coordinate vectors at the support positions."""
    support = center_support(spec)
    cols = [tuple(z[pos] for pos in support) for z in spec.center_gens]
    return Lattice(len(support), cols)


def center_vector(spec: MatrixGroupSpec, u: UTMatrix) -> tuple | None:
    """Coordinates of u at the centre support, or None if u sticks out of it."""
    support = center_support(spec)
    support_set = set(support)
    for (i, j), v in u.strict_upper_items():
        if (i, j) not in support_set:
            return None
    return tuple(u[pos] for pos in support)


def in_center_span(spec: MatrixGroupSpec, u: UTMatrix) -> Membership:
    """Membership of u in the subgroup generated by the declared centre generators."""
    vec = center_vector(spec, u)
    if vec is None:
        return Membership(False)
    return center_lattice(spec).contains(vec)


# -- verification ------------------------------------------------------------


def verify_spec(spec: MatrixGroupSpec) -> SpecVerification:
    """Re-derive every declared claim; raises SpecRejected at the first failure.

    Checks, in order: shapes; centre coordinates are additive (products of the
    centre generators' nilpotent parts vanish, so entry vectors add); centre
    generators commute with all group generators; the declared class is 1
    exactly when the generators pairwise commute; for declared class <= 2 all
    generator commutators land in the centre lattice; the second-centre
    representative has all its generator commutators in the centre lattice and
    itself lies outside it.
    """
    checks = []

    def ok(nm, detail=""):
        checks.append((nm, detail))

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
    ok("shape")

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
    ok("center-additive")

    for zn, z in zip(spec.center_names, spec.center_gens):
        for gn, g in zip(spec.gen_names, spec.generators):
            if commutator(z, g) != ident:
                raise SpecRejected("center-commutes", f"({zn}, {gn})")
    ok("center-commutes")

    noncommuting = is_abelian(spec).witness
    if (spec.declared_class == 1) != (noncommuting is None):
        raise SpecRejected(
            "class-declaration",
            f"declared_class={spec.declared_class} but "
            + ("generators all commute" if noncommuting is None else f"{noncommuting} do not commute"),
        )
    ok("class-declaration")

    if spec.declared_class <= 2:
        for i in range(len(spec.generators)):
            for j in range(i + 1, len(spec.generators)):
                c = commutator(spec.generators[i], spec.generators[j])
                if not in_center_span(spec, c).member:
                    raise SpecRejected(
                        "class2-commutators",
                        f"[{spec.gen_names[i]}, {spec.gen_names[j]}] is outside the centre lattice",
                    )
        ok("class2-commutators")

    if spec.z2_rep is not None:
        for gn, g in zip(spec.gen_names, spec.generators):
            c = commutator(spec.z2_rep, g)
            if not in_center_span(spec, c).member:
                raise SpecRejected("z2-commutators", f"({spec.z2_name}, {gn})")
        ok("z2-commutators")
        if in_center_span(spec, spec.z2_rep).member:
            raise SpecRejected(
                "z2-in-center", f"{spec.z2_name} lies in the declared centre span"
            )
        ok("z2-outside-center")

    return SpecVerification(True, tuple(checks))


def is_abelian(spec: MatrixGroupSpec) -> AbelianDecision:
    """YES iff all generator pairs commute; carries a failing pair otherwise."""
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

# Quotients kept by congruence_quotient: enough for every level of a few
# towers, while a long-lived process does not pin every group it ever built.
QUOTIENT_CACHE_SIZE = 32


@lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def congruence_quotient(
    spec: MatrixGroupSpec, p: int, k: int, max_order: int = 10**6
) -> tuple:
    """Materialize the image of the group under entrywise reduction mod p^k.

    Returns (FiniteGroup, GroupHom).  Cached, for the QUOTIENT_CACHE_SIZE most
    recently used arguments: specs and elements are immutable.
    """
    rgens = tuple(reduce_mod(g, p, k) for g in spec.generators)
    named = {}
    for gname, rgen in zip(spec.gen_names, rgens):
        named.setdefault(rgen, gname)
    quot = finite_closure(
        rgens,
        max_order=max_order,
        name=f"{spec.name} mod {p}^{k}",
        labels=lambda r: named.get(
            r, "(" + ",".join(str(v) for v in r.upper_entries()) + ")"
        ),
    )
    hom = GroupHom(
        description=f"entrywise reduction of {spec.name} mod {p}^{k}",
        domain=spec,
        codomain=quot,
        mapping=lambda u: reduce_mod(u, p, k),
    )
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
    cur = u
    out = []
    for name, base in spec.malcev_basis:
        items = base.strict_upper_items()
        if len(items) != 1 or abs(items[0][1]) != 1:
            return None
        (pos, unit) = items[0]
        e = cur[pos] * unit
        out.append(e)
        cur = base ** (-e) * cur
    if not cur.is_identity():
        return None
    return tuple(out)


# -- matrix presets ----------------------------------------------------------


def _e(n, entries):
    return UTMatrix.from_entries(n, entries)


def heisenberg_spec() -> MatrixGroupSpec:
    a = _e(3, {(0, 1): 1})
    b = _e(3, {(1, 2): 1})
    c = _e(3, {(0, 2): 1})
    return MatrixGroupSpec(
        name="heisenberg",
        n=3,
        generators=(a, b),
        gen_names=("a", "b"),
        center_gens=(c,),
        center_names=("c",),
        z2_rep=a,
        z2_name="a",
        declared_class=2,
        malcev_basis=(("a", a), ("b", b), ("c", c)),
    )


def free_abelian_rank1_spec() -> MatrixGroupSpec:
    a = _e(2, {(0, 1): 1})
    return MatrixGroupSpec(
        name="z",
        n=2,
        generators=(a,),
        gen_names=("a",),
        center_gens=(a,),
        center_names=("a",),
        z2_rep=None,
        declared_class=1,
        malcev_basis=(("a", a),),
    )


def free_abelian_rank2_spec() -> MatrixGroupSpec:
    a = _e(3, {(0, 1): 1})
    b = _e(3, {(0, 2): 1})
    return MatrixGroupSpec(
        name="z2",
        n=3,
        generators=(a, b),
        gen_names=("a", "b"),
        center_gens=(a, b),
        center_names=("a", "b"),
        z2_rep=None,
        declared_class=1,
        malcev_basis=(("a", a), ("b", b)),
    )


def ut4_spec() -> MatrixGroupSpec:
    x12 = _e(4, {(0, 1): 1})
    x23 = _e(4, {(1, 2): 1})
    x34 = _e(4, {(2, 3): 1})
    x13 = _e(4, {(0, 2): 1})
    x24 = _e(4, {(1, 3): 1})
    x14 = _e(4, {(0, 3): 1})
    return MatrixGroupSpec(
        name="ut4",
        n=4,
        generators=(x12, x23, x34),
        gen_names=("x12", "x23", "x34"),
        center_gens=(x14,),
        center_names=("x14",),
        z2_rep=x13,
        z2_name="x13",
        declared_class=3,
        malcev_basis=(
            ("x12", x12),
            ("x23", x23),
            ("x34", x34),
            ("x13", x13),
            ("x24", x24),
            ("x14", x14),
        ),
    )


def heis5_spec() -> MatrixGroupSpec:
    """Five-dimensional Heisenberg group: two commuting pairs, one shared centre."""
    a1 = _e(4, {(0, 1): 1})
    a2 = _e(4, {(0, 2): 1})
    b1 = _e(4, {(1, 3): 1})
    b2 = _e(4, {(2, 3): 1})
    c = _e(4, {(0, 3): 1})
    return MatrixGroupSpec(
        name="heis5",
        n=4,
        generators=(a1, a2, b1, b2),
        gen_names=("a1", "a2", "b1", "b2"),
        center_gens=(c,),
        center_names=("c",),
        z2_rep=a1,
        z2_name="a1",
        declared_class=2,
        malcev_basis=(("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2), ("c", c)),
    )


_MATRIX_PRESETS = {
    "heisenberg": heisenberg_spec,
    "z": free_abelian_rank1_spec,
    "z2": free_abelian_rank2_spec,
    "ut4": ut4_spec,
    "heis5": heis5_spec,
}

_PRODUCT_PRESETS = {
    "heisenberg": ("heisenberg", None),
    "z": ("z", None),
    "z2": ("z2", None),
    "ut4": ("ut4", None),
    "heis5": ("heis5", None),
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


def _parse_matrix(data, n: int, what: str) -> UTMatrix:
    if (
        not isinstance(data, list)
        or len(data) != n
        or any(not isinstance(r, list) or len(r) != n for r in data)
    ):
        raise SpecParseError(f"{what} must be a list of {n} lists of {n} integers")
    for row in data:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
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
    if not isinstance(name, str) or not isinstance(n, int) or n < 1:
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
    if not isinstance(declared, int) or declared < 1:
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
            raise SpecParseError(str(exc)) from exc
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
            raise SpecParseError(str(exc)) from exc
    return matrix, f_elt
