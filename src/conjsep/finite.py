"""Fully materialized finite groups: closures, quotients, products, presets.

Elements are hashable canonical encodings and multiplication is a callable,
so residue-matrix groups of a few hundred thousand elements stay cheap to
build while table-backed presets keep exact, human-readable element names.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import DimensionMismatch, SizeLimit
from .intlin import prime_power_exponent
from .unitri import ResidueUT


def orbit(start, gens, act):
    """Breadth-first orbit of start under act(point, gen), gens in listed order.

    Yields each point once as (point, parent, i) with point == act(parent,
    gens[i]), starting with (start, None, None): the edges of a Schreier tree.
    """
    seen = {start}
    queue = deque([start])
    yield start, None, None
    while queue:
        e = queue.popleft()
        for i, s in enumerate(gens):
            f = act(e, s)
            if f not in seen:
                seen.add(f)
                queue.append(f)
                yield f, e, i


class FiniteGroup:
    """A finite group with a total multiplication over canonical elements."""

    def __init__(self, name, elements, mul, identity, generators, labels=None, inv=None):
        self.name = name
        self.elements = tuple(elements)
        self.mul = mul
        self.identity = identity
        self.generators = tuple(generators)
        self._labels = labels
        self._inv_fn = inv
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        if identity not in self._index:
            raise ValueError("identity is not among the elements")
        for g in self.generators:
            if g not in self._index:
                raise ValueError(f"generator {g!r} is not among the elements")
        self._inverses = {}
        self._classes = None
        self._class_of = None
        self._normals = None
        self._normal_set = None
        self._kernels = {}  # prime -> normal subgroups of p-power index
        self._quotients = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, x) -> int:
        return self._index[x]

    def __contains__(self, x) -> bool:
        return x in self._index

    def label(self, x) -> str:
        if callable(self._labels):
            return self._labels(x)
        if self._labels is not None:
            return self._labels.get(x, str(x))
        return str(x)

    def element_by_label(self, text: str):
        for e in self.elements:
            if self.label(e) == text:
                return e
        raise KeyError(f"no element labelled {text!r} in {self.name}")

    def inverse(self, x):
        if x in self._inverses:
            return self._inverses[x]
        if self._inv_fn is not None:
            y = self._inv_fn(x)
        else:
            y = next(e for e in self.elements if self.mul(x, e) == self.identity)
        self._inverses[x] = y
        return y

    def is_p_group(self, p: int) -> bool:
        return prime_power_exponent(self.order, p) is not None

    # -- structure ---------------------------------------------------------

    def conjugation_orbit(self, x):
        """`orbit` of x, where edge i maps e to s^-1 * e * s for s = generators[i]."""
        mul = self.mul
        pairs = [(s, self.inverse(s)) for s in self.generators]
        return orbit(x, pairs, lambda e, pair: mul(pair[1], mul(e, pair[0])))

    def conjugacy_classes(self) -> tuple:
        """Partition into conjugacy classes, deterministic in element order."""
        if self._classes is None:
            cls_list = []
            cls_of = {}
            for x in self.elements:
                if x in cls_of:
                    continue
                cls = frozenset(point for point, _, _ in self.conjugation_orbit(x))
                cls_of.update(dict.fromkeys(cls, len(cls_list)))
                cls_list.append(cls)
            self._classes = tuple(cls_list)
            self._class_of = cls_of
        return self._classes

    def class_of(self, x) -> frozenset:
        self.conjugacy_classes()
        return self._classes[self._class_of[x]]

    def subgroup_closure(self, seed) -> frozenset:
        """The subgroup generated by the seed elements."""
        seed = sorted(seed, key=self._index.get)
        return frozenset(point for point, _, _ in orbit(self.identity, seed, self.mul))

    def is_subgroup(self, subset) -> bool:
        subset = frozenset(subset)
        if self.identity not in subset:
            return False
        return all(self.mul(x, y) in subset for x in subset for y in subset)

    def is_normal(self, subset) -> bool:
        subset = frozenset(subset)
        if self._normal_set is not None:
            return subset in self._normal_set
        if not self.is_subgroup(subset):
            return False
        for s in self.generators:
            sinv = self.inverse(s)
            if any(self.mul(sinv, self.mul(x, s)) not in subset for x in subset):
                return False
        return True

    def _join(self, n: frozenset, m: frozenset) -> frozenset:
        """The product set N*M of two normal subgroups, built one coset N*y at a
        time for each y in M not yet covered: |N*M| products."""
        mul = self.mul
        joined = set(n)
        for y in m:
            if y not in joined:
                joined.update(mul(x, y) for x in n)
        return frozenset(joined)

    def normal_subgroups(self) -> tuple:
        """All normal subgroups, via joins of normal closures of classes.

        The subgroup generated by a class is its normal closure, and every
        normal subgroup N is the join of the closures of the classes in N, so
        closing the distinct class closures under joins finds them all.
        """
        if self._normals is None:
            closures = tuple(
                dict.fromkeys(self.subgroup_closure(cls) for cls in self.conjugacy_classes())
            )
            triv = frozenset({self.identity})
            found = {triv}
            queue = [triv]
            while queue:
                current = queue.pop()
                for closure in closures:
                    if closure <= current:
                        continue
                    joined = self._join(current, closure)
                    if joined not in found:
                        found.add(joined)
                        queue.append(joined)
            self._normals = tuple(
                sorted(
                    found,
                    key=lambda sub: (len(sub), sorted(self._index[e] for e in sub)),
                )
            )
            self._normal_set = frozenset(found)
        return self._normals

    def quotient(self, normal_subgroup) -> tuple["FiniteGroup", "GroupHom"]:
        """The quotient group and the natural projection onto it."""
        nsub = frozenset(normal_subgroup)
        if nsub in self._quotients:
            return self._quotients[nsub]
        if not self.is_normal(nsub):
            raise ValueError("quotient requested by a non-normal subset")
        # A coset's representative is the element that opens it, its first in element order.
        coset_id = {}
        rep = {}
        for e in self.elements:
            if e in coset_id:
                continue
            members = frozenset(self.mul(e, x) for x in nsub)
            for m in members:
                coset_id[m] = len(rep)
            rep[members] = e
        cosets = tuple(rep)

        def qmul(c1, c2):
            return cosets[coset_id[self.mul(rep[c1], rep[c2])]]

        gens = []
        for g in self.generators:
            img = cosets[coset_id[g]]
            if img not in gens:
                gens.append(img)
        ident = cosets[coset_id[self.identity]]
        if not gens:
            gens = [ident]
        quot = FiniteGroup(
            name=f"{self.name}/N{len(nsub)}",
            elements=cosets,
            mul=qmul,
            identity=ident,
            generators=gens,
            labels=lambda c: f"[{self.label(rep[c])}]",
        )
        hom = GroupHom(
            description=f"natural projection {self.name} -> {quot.name}",
            domain=self,
            codomain=quot,
            mapping=lambda x: cosets[coset_id[x]],
            section=rep,
        )
        self._quotients[nsub] = (quot, hom)
        return quot, hom

    # -- verification ------------------------------------------------------

    def validate(self, assoc_limit: int = 24) -> list[tuple[str, bool, str]]:
        """Check the group axioms; full associativity only up to assoc_limit."""
        checks = []
        closure_ok, closure_detail = True, ""
        for x in self.elements:
            for y in self.elements:
                if self.mul(x, y) not in self._index:
                    closure_ok = False
                    closure_detail = f"{self.label(x)} * {self.label(y)} left the set"
                    break
            if not closure_ok:
                break
        checks.append(("closure", closure_ok, closure_detail))
        ident_ok = all(
            self.mul(self.identity, x) == x and self.mul(x, self.identity) == x
            for x in self.elements
        )
        checks.append(("identity", ident_ok, ""))
        inv_ok = True
        if closure_ok:
            for x in self.elements:
                try:
                    self.inverse(x)
                except StopIteration:
                    inv_ok = False
                    break
        checks.append(("inverses", inv_ok and closure_ok, ""))
        if closure_ok:
            if self.order <= assoc_limit:
                triples = (
                    (x, y, z)
                    for x in self.elements
                    for y in self.elements
                    for z in self.elements
                )
            else:
                step = max(1, self.order // 12)
                sample = self.elements[::step]
                triples = ((x, y, z) for x in sample for y in sample for z in sample)
            assoc_ok = all(
                self.mul(self.mul(x, y), z) == self.mul(x, self.mul(y, z))
                for x, y, z in triples
            )
        else:
            assoc_ok = False
        checks.append(("associativity", assoc_ok, ""))
        generated = self.subgroup_closure(self.generators) if closure_ok else frozenset()
        checks.append(
            ("generators-generate", closure_ok and len(generated) == self.order, "")
        )
        return checks


@dataclass(frozen=True, eq=False)
class GroupHom:
    """A homomorphism given by a computable mapping rule; a natural projection
    also carries its section, the representative chosen for each coset."""

    description: str
    domain: object
    codomain: FiniteGroup
    mapping: object
    section: dict | None = None

    def __call__(self, x):
        return self.mapping(x)

    def preserves_products(self, pairs, domain_mul) -> bool:
        """Spot-check the homomorphism property on the given pairs."""
        for x, y in pairs:
            if self.mapping(domain_mul(x, y)) != self.codomain.mul(
                self.mapping(x), self.mapping(y)
            ):
                return False
        return True


def finite_closure(
    gens, max_order: int = 10**6, name: str | None = None, labels=None
) -> FiniteGroup:
    """Breadth-first closure of residue matrices under multiplication.

    Raises SizeLimit when the group would exceed max_order elements.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    for g in gens:
        if (g.n, g.p, g.k) != (first.n, first.p, first.k):
            raise DimensionMismatch("generators live in different residue groups")
    ident = ResidueUT.identity(first.n, first.p, first.k)
    ordered = [ident]
    for point, _, _ in islice(orbit(ident, gens, operator.mul), 1, None):
        if len(ordered) >= max_order:
            raise SizeLimit(
                f"closure exceeded {max_order} elements "
                f"(UT({first.n}) mod {first.p}^{first.k})"
            )
        ordered.append(point)
    return FiniteGroup(
        name=name or f"closure in UT({first.n}, Z/{first.p}^{first.k})",
        elements=ordered,
        mul=operator.mul,
        identity=ident,
        generators=gens,
        labels=labels
        or (lambda r: "(" + ",".join(str(v) for v in r.upper_entries()) + ")"),
        inv=lambda x: x.inverse(),
    )


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with componentwise multiplication."""
    elements = tuple((x, y) for x in a.elements for y in b.elements)
    gens = tuple((g, b.identity) for g in a.generators) + tuple(
        (a.identity, h) for h in b.generators
    )
    return FiniteGroup(
        name=name or f"{a.name} x {b.name}",
        elements=elements,
        mul=lambda x, y: (a.mul(x[0], y[0]), b.mul(x[1], y[1])),
        identity=(a.identity, b.identity),
        generators=gens,
        labels=lambda x: f"({a.label(x[0])},{b.label(x[1])})",
        inv=lambda x: (a.inverse(x[0]), b.inverse(x[1])),
    )


# -- presets ---------------------------------------------------------------


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    labels = {0: "e"}
    for i in range(1, n):
        labels[i] = "g" if i == 1 else f"g{i}"
    return FiniteGroup(
        name=name or f"C{n}",
        elements=range(n),
        mul=lambda x, y: (x + y) % n,
        identity=0,
        generators=(1,) if n > 1 else (0,),
        labels=labels,
        inv=lambda x: (-x) % n,
    )


def trivial_group() -> FiniteGroup:
    return cyclic(1, name="1")


def _perm_label(p) -> str:
    seen = set()
    parts = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        parts.append("(" + "".join(str(i + 1) for i in cycle) + ")")
    return "".join(parts) if parts else "e"


def sym3() -> FiniteGroup:
    import itertools

    elements = sorted(itertools.permutations(range(3)))

    def mul(p, q):
        # apply p first, then q
        return tuple(q[p[i]] for i in range(3))

    return FiniteGroup(
        name="S3",
        elements=elements,
        mul=mul,
        identity=(0, 1, 2),
        generators=((1, 2, 0), (1, 0, 2)),
        labels=_perm_label,
        inv=lambda p: tuple(p.index(i) for i in range(3)),
    )


def dihedral4() -> FiniteGroup:
    """Symmetries of the square: elements r^i s^j with s r s = r^-1."""
    elements = [(i, j) for j in (0, 1) for i in range(4)]

    def mul(x, y):
        i, j = x
        k, l = y
        return ((i + (k if j == 0 else -k)) % 4, (j + l) % 2)

    def label(x):
        i, j = x
        r = "" if i == 0 else ("r" if i == 1 else f"r{i}")
        s = "s" if j else ""
        return (r + s) or "e"

    return FiniteGroup(
        name="D4",
        elements=elements,
        mul=mul,
        identity=(0, 0),
        generators=((1, 0), (0, 1)),
        labels=label,
        inv=lambda x: ((-x[0]) % 4 if x[1] == 0 else x[0], x[1]),
    )


_Q8_TABLE = {
    ("1", "1"): ("1", 0),
    ("1", "i"): ("i", 0),
    ("1", "j"): ("j", 0),
    ("1", "k"): ("k", 0),
    ("i", "1"): ("i", 0),
    ("i", "i"): ("1", 1),
    ("i", "j"): ("k", 0),
    ("i", "k"): ("j", 1),
    ("j", "1"): ("j", 0),
    ("j", "i"): ("k", 1),
    ("j", "j"): ("1", 1),
    ("j", "k"): ("i", 0),
    ("k", "1"): ("k", 0),
    ("k", "i"): ("j", 0),
    ("k", "j"): ("i", 1),
    ("k", "k"): ("1", 1),
}


def quaternion8() -> FiniteGroup:
    elements = [(s, u) for u in ("1", "i", "j", "k") for s in (0, 1)]

    def mul(x, y):
        u, extra = _Q8_TABLE[(x[1], y[1])]
        return ((x[0] + y[0] + extra) % 2, u)

    return FiniteGroup(
        name="Q8",
        elements=elements,
        mul=mul,
        identity=(0, "1"),
        generators=((0, "i"), (0, "j")),
        labels=lambda x: ("-" if x[0] else "") + x[1],
    )


_FINITE_PRESETS = {
    "trivial": trivial_group,
    "1": trivial_group,
    "c2": lambda: cyclic(2),
    "c3": lambda: cyclic(3),
    "c6": lambda: cyclic(6),
    "s3": sym3,
    "d4": dihedral4,
    "q8": quaternion8,
    "d4xc2": lambda: direct_product(dihedral4(), cyclic(2), name="D4xC2"),
}


def finite_preset(name: str) -> FiniteGroup:
    key = name.lower()
    if key not in _FINITE_PRESETS:
        raise KeyError(
            f"unknown finite group preset {name!r}; known: {sorted(_FINITE_PRESETS)}"
        )
    return _FINITE_PRESETS[key]()


def finite_preset_names() -> tuple:
    return tuple(sorted(_FINITE_PRESETS))
