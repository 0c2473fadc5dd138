"""Finite groups: closures, quotients, products, presets.

Elements are hashable canonical encodings and multiplication is a callable,
so residue-matrix groups of a few hundred thousand elements stay cheap to
build while table-backed presets keep exact, human-readable element names.

A group whose order and membership are known without its elements defers
its element list (`_DeferredGroup`) until something enumerates it: every
closure of residue matrices, and a direct product with such a factor.  A
closure is known by an induced pcgs along the p-adic refinement of the
superdiagonal series of UT(n, Z/p^k) (`_induced_pcgs`): its order is p^r
for a pcgs of length r, and its members are the p^r normal forms of the
pcgs, held as a set of row tuples, or every residue matrix of the shape
when the generators' superdiagonals span F_p^(n-1).  Orbit search,
membership, products and labels need no element list.

Every search is one breadth-first `orbit`.  A closure's element list is
one, over row tuples, stepping by each generator's `right_mul_kernel`,
which touches only the entries that generator changes.  Each group also
carries one conjugation step per generator (`Conjugation`): a closure's
steps are the generators' `conjugation_kernel`s on row tuples, so the class
partition, orbit search and normality test take no general product; every
other group conjugates with its own `mul` and `inverse`.  The group's `mul`
stays the general residue product, which the conjugator re-checks use.
Quotients are cached on their group with no strong reference back to it.

Normal subgroups are unions of classes, so their enumeration runs on bit
masks over class indices.  Its only products are the class products
C_i * C_j it reaches, each taken once, and one walk along the powers of an
element per new normal closure; closures and joins are then integer ORs.
"""

from __future__ import annotations

import operator
import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from math import gcd
from typing import Callable, NamedTuple

from .errors import DimensionMismatch, SizeLimit, VerificationFailed
from .intlin import prime_power_exponent
from .unitri import ResidueUT, conjugation_kernel, right_mul_kernel
from .unitri import _left_mul_kernel, _matmul, _power

# `validate` checks associativity on every triple up to this order, and on a
# sample of about 12 elements above it.
ASSOC_LIMIT = 24


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


def _step(point, step):
    return step(point)


class Conjugation(NamedTuple):
    """A group's conjugation by its generators, on orbit points.

    `point` encodes an element as an orbit point and `element` decodes one;
    steps[i] maps the point of e to the point of s^-1 * e * s for
    s = generators[i].
    """

    point: Callable
    element: Callable
    steps: tuple


def _identity_map(x):
    return x


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _label(labels, x) -> str:
    if callable(labels):
        return labels(x)
    if labels is not None:
        return labels.get(x, str(x))
    return str(x)


class FiniteGroup:
    """A finite group with a total multiplication over canonical elements."""

    def __init__(self, name, elements, mul, identity, generators, labels=None, inv=None):
        self._setup(name, mul, identity, generators, labels, inv)
        self._store(elements)
        self.order = len(self.elements)

    def _setup(self, name, mul, identity, generators, labels, inv):
        self.name = name
        self.mul = mul
        self.identity = identity
        self.generators = tuple(generators)
        self._labels = labels
        self._inv_fn = inv
        self._inverses = {}
        self._classes = None
        self._class_of = None
        self._normals = None
        self._normal_set = None
        self._kernels = {}  # prime -> normal subgroups of p-power index
        self._quotients = {}
        self._conjugation = None  # set by finite_closure, else built on first use

    def _store(self, elements):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        if self.identity not in self._index:
            raise ValueError("identity is not among the elements")
        for g in self.generators:
            if g not in self._index:
                raise ValueError(f"generator {g!r} is not among the elements")

    def index(self, x) -> int:
        return self._index[x]

    def __contains__(self, x) -> bool:
        return x in self._index

    def label(self, x) -> str:
        return _label(self._labels, x)

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

    @property
    def conjugation(self) -> Conjugation:
        """The conjugation steps; by default each is s^-1 * (e * s) through
        `mul`, on the elements themselves.  No step refers back to the group."""
        if self._conjugation is None:
            mul = self.mul

            def step(s, sinv):
                return lambda e: mul(sinv, mul(e, s))

            steps = tuple(step(s, self.inverse(s)) for s in self.generators)
            self._conjugation = Conjugation(_identity_map, _identity_map, steps)
        return self._conjugation

    def conjugation_orbit(self, x):
        """`orbit` of the point of x, where edge i is `conjugation.steps[i]`.

        Yields orbit points, not elements: `conjugation.element` decodes one.
        """
        conj = self.conjugation
        return orbit(conj.point(x), conj.steps, _step)

    def conjugacy_classes(self) -> tuple:
        """Partition into conjugacy classes, deterministic in element order."""
        if self._classes is None:
            element = self.conjugation.element
            cls_list = []
            cls_of = {}
            for x in self.elements:
                if x in cls_of:
                    continue
                cls = frozenset(element(point) for point, _, _ in self.conjugation_orbit(x))
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
        """Grow the subgroup as an orbit of the identity, taking an element of
        subset as a generator only when the orbit has not reached it; False as
        soon as the orbit leaves subset.  O(|S| log |S|) products, not |S|^2."""
        subset = frozenset(subset)
        if self.identity not in subset:
            return False
        gens, reached = [], {self.identity}
        for s in subset:
            if s in reached:
                continue
            gens.append(s)
            reached = set()
            for point, _, _ in orbit(self.identity, gens, self.mul):
                if point not in subset:
                    return False
                reached.add(point)
        return True

    def is_normal(self, subset) -> bool:
        subset = frozenset(subset)
        if self._normal_set is not None:
            return subset in self._normal_set
        if not self.is_subgroup(subset):
            return False
        conj = self.conjugation
        points = frozenset(map(conj.point, subset))
        return all(step(x) in points for step in conj.steps for x in points)

    def normal_subgroups(self) -> tuple:
        """All normal subgroups, as joins of normal closures of classes.

        A normal subgroup is a union of classes, held here as a bit mask over
        class indices.  C_i * C_j is the union of the conjugates of r * C_j
        for any r in C_i, so the classes it meets are those r * C_j meets;
        each such mask is taken once, from the smaller class, when first
        needed.  C_i * <C_j> is the least mask over i closed under
        l -> classes met by C_l * C_j: with C_i trivial it is the normal
        closure of C_j, and for normal N the join N * <C_j> is the union of
        C_i * <C_j> over the classes i of N.  x and x^e (e prime to the order
        of x) have the same closure, so one walk along the powers of x
        settles all their classes.  Every normal subgroup is the join of the
        closures of its classes, so joining the distinct closures from the
        trivial subgroup finds them all.
        """
        if self._normals is None:
            classes = self.conjugacy_classes()
            class_of, mul, size = self._class_of, self.mul, len(classes)
            # meets[l * size + j], l <= j: the mask of the classes that C_l * C_j
            # meets.  cols[j][i]: C_i * <C_j>, or 0 until it is needed.
            meets, cols = {}, {}

            def row(i, j):
                """C_i * <C_j>: the least mask over i closed under l -> C_l * C_j."""
                mask, todo = 1 << i, [i]
                while todo:
                    l = todo.pop()
                    pair = l * size + j if l < j else j * size + l
                    met = meets.get(pair)
                    if met is None:
                        small, big = sorted((classes[l], classes[j]), key=len)
                        r = next(iter(big))
                        met = 0
                        for x in small:
                            met |= 1 << class_of[mul(r, x)]
                        meets[pair] = met
                    new = met & ~mask
                    mask |= new
                    todo.extend(_bits(new))
                cols[j][i] = mask
                return mask

            one = class_of[self.identity]
            # Each distinct normal closure <C_j>, with its class j.
            closures, settled = {}, set()
            for j, cls in enumerate(classes):
                if j in settled:
                    continue
                cols[j] = [0] * size
                closures.setdefault(row(one, j), j)
                x = next(iter(cls))
                powers = [x]
                while powers[-1] != self.identity:
                    powers.append(mul(powers[-1], x))
                settled.update(
                    class_of[y] for e, y in enumerate(powers, 1) if gcd(e, len(powers)) == 1
                )
            triv = 1 << one
            found = {triv}
            queue = [triv]
            while queue:
                current = queue.pop()
                for closure, j in closures.items():
                    if closure & ~current == 0:
                        continue
                    # N * <C_j> is the union of C_i * <C_j> over i in N, and a
                    # class inside one already taken adds nothing more.
                    col, joined, rest = cols[j], 0, current
                    while rest:
                        i = (rest & -rest).bit_length() - 1
                        joined |= col[i] or row(i, j)
                        rest &= ~joined
                    if joined not in found:
                        found.add(joined)
                        queue.append(joined)
            subgroups = [
                frozenset().union(*(classes[i] for i in _bits(mask))) for mask in found
            ]
            self._normals = tuple(
                sorted(
                    subgroups,
                    key=lambda sub: (len(sub), sorted(self._index[e] for e in sub)),
                )
            )
            self._normal_set = frozenset(subgroups)
        return self._normals

    def quotient(self, normal_subgroup) -> tuple["FiniteGroup", "GroupHom"]:
        """The quotient group and the natural projection onto it.

        Cached per subgroup.  Nothing cached refers back to this group except
        the projection's domain, a weak proxy, so a discarded group is freed
        at once rather than by the cycle collector.
        """
        nsub = frozenset(normal_subgroup)
        if nsub in self._quotients:
            return self._quotients[nsub]
        if not self.is_normal(nsub):
            raise ValueError("quotient requested by a non-normal subset")
        mul, labels = self.mul, self._labels
        # A coset's representative is the element that opens it, its first in element order.
        coset_id = {}
        rep = {}
        for e in self.elements:
            if e in coset_id:
                continue
            members = frozenset(mul(e, x) for x in nsub)
            for m in members:
                coset_id[m] = len(rep)
            rep[members] = e
        cosets = tuple(rep)

        def qmul(c1, c2):
            return cosets[coset_id[mul(rep[c1], rep[c2])]]

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
            labels=lambda c: f"[{_label(labels, rep[c])}]",
        )
        hom = GroupHom(
            description=f"natural projection {self.name} -> {quot.name}",
            domain=weakref.proxy(self),
            codomain=quot,
            mapping=lambda x: cosets[coset_id[x]],
            section=rep,
        )
        self._quotients[nsub] = (quot, hom)
        return quot, hom

    # -- verification ------------------------------------------------------

    def validate(self) -> list[tuple[str, bool, str]]:
        """Check the group axioms; full associativity only up to ASSOC_LIMIT."""
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
            if self.order <= ASSOC_LIMIT:
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
    also carries its section, the representative chosen for each coset, and
    names its domain through a weak proxy, since its group caches it."""

    description: str
    domain: object
    codomain: FiniteGroup
    mapping: object
    section: dict | None = None

    def __call__(self, x):
        return self.mapping(x)


class _DeferredGroup(FiniteGroup):
    """A finite group whose order and membership are known without its elements.

    Until then membership is the `contains` predicate.  `elements` and
    `_index` are built by `build` on first use, through `__getattr__`, which
    Python calls only for attributes not set: a group that is never
    enumerated is never built, and once built it is an eager `FiniteGroup`.
    """

    def __init__(self, name, order, contains, build, mul, identity, generators, labels, inv):
        self._setup(name, mul, identity, generators, labels, inv)
        self.order = order
        self._contains = contains
        self._build = build

    def __contains__(self, x) -> bool:
        return self._contains(x)

    def __getattr__(self, name):
        if name not in ("elements", "_index"):
            raise AttributeError(name)
        elements = tuple(self._build())
        if len(elements) != self.order:
            raise VerificationFailed(
                "order", f"{self.name} has {len(elements)} elements, declared {self.order}"
            )
        self._store(elements)
        # A class with `__getattr__` slows every attribute load of its
        # instances, so a built group sheds it, and with it the membership
        # predicate, which may hold a set as large as the group.
        self.__class__ = FiniteGroup
        del self._contains
        return getattr(self, name)


def _spans_mod_p(vectors, p: int, dim: int) -> bool:
    """Whether the integer vectors span F_p^dim: an echelon mod p that finds a
    pivot in every column."""
    rows = [[v % p for v in vec] for vec in vectors]
    for col in range(dim):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        scale = pow(pivot[col], -1, p)
        for r in rows:
            if r[col]:
                f = r[col] * scale
                r[col:] = [(v - f * u) % p for v, u in zip(r[col:], pivot[col:])]
    return True


def _lead(rows, n: int, p: int):
    """The leading key (w, d, i) of unitriangular rows and its digit: the
    first superdiagonal w with a nonzero entry, the least p-adic valuation d
    on it and the first row i with that valuation; None for the identity.

    Keys in lexicographic order index the refined series of UT(n, Z/p^k):
    superdiagonal, then p-adic digit, then row.  Each factor is C_p, central
    in UT(n), and the digit is its coordinate, additive on the factor."""
    for w in range(1, n):
        lead = None
        for i in range(n - w):
            v = rows[i][i + w]
            if v:
                d = 0
                while not v % p:
                    v //= p
                    d += 1
                if lead is None or d < lead[0][1]:
                    lead = (w, d, i), v % p
        if lead is not None:
            return lead
    return None


def _induced_pcgs(ident: ResidueUT, gens, max_order: int):
    """An induced pcgs of the group gens generate, or None when that group is
    all of UT(n, Z/p^k); the group has order p^len, and SizeLimit is raised
    as soon as that exceeds max_order.

    Burnside's basis theorem settles the full image before any product: a
    subset generates the p-group U = UT(n, Z/p^k) iff its image generates
    U/Phi(U) = F_p^(n-1), the superdiagonal mod p.  Otherwise each element
    is sifted along the series of `_lead`: while its leading key has a table
    entry h, it is left-multiplied by h^-1 once per unit of its digit, which
    clears that digit; an element with a new key is raised to the power that
    makes its digit 1 and becomes the entry for that key.  Each new entry
    queues its p-th power and its commutators with the entries before it, so
    the table is closed when the queue is empty (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 8).  Returns the
    entries' rows in series order.
    """
    n, p, k, mod = ident.n, ident.p, ident.k, ident.mod
    supers = [[g.rows[i][i + 1] for i in range(n - 1)] for g in gens]
    if _spans_mod_p(supers, p, n - 1):
        if p ** (k * n * (n - 1) // 2) > max_order:
            raise _closure_limit(max_order, ident)
        return None
    table = {}  # leading key -> (rows, left multiplication by their inverse)
    queue = deque(g.rows for g in gens)
    while queue:
        rows = queue.popleft()
        while (lead := _lead(rows, n, p)) is not None:
            key, digit = lead
            if key not in table:
                break
            unstep = table[key][1]
            for _ in range(digit):
                rows = unstep(rows)
        else:
            continue
        if digit != 1:
            rows = _power(rows, n, pow(digit, -1, p), mod)
        for other_key, (other, _) in table.items():
            if key[0] + other_key[0] >= n:  # [U_v, U_w] lies in U_(v+w), and U_n = 1
                continue
            ab, ba = _matmul(rows, other, n, mod), _matmul(other, rows, n, mod)
            if ab != ba:
                queue.append(_matmul(_power(ba, n, -1, mod), ab, n, mod))
        queue.append(_power(rows, n, p, mod))
        table[key] = (rows, _left_mul_kernel(_power(rows, n, -1, mod), n, mod))
        if p ** len(table) > max_order:
            raise _closure_limit(max_order, ident)
    return tuple(table[key][0] for key in sorted(table))


def _normal_forms(ident: ResidueUT, pcgs) -> frozenset:
    """The rows of every h_1^e_1 * ... * h_r^e_r, 0 <= e_i < p, for the
    induced pcgs h_1, ..., h_r: from h_r up, the forms so far and their
    left multiples by h_i up to the (p-1)-th, one kernel step per element.
    Distinct exponents give distinct elements, so there must be p^r."""
    n, p, mod = ident.n, ident.p, ident.mod
    forms = [ident.rows]
    for h in reversed(pcgs):
        step = _left_mul_kernel(h, n, mod)
        layer = forms
        for _ in range(1, p):
            layer = list(map(step, layer))
            forms += layer
    found = frozenset(forms)
    if len(found) != p ** len(pcgs):
        raise VerificationFailed(
            "order", f"{len(found)} distinct normal forms for a pcgs of length {len(pcgs)}"
        )
    return found


def _closure_limit(max_order: int, ident: ResidueUT) -> SizeLimit:
    return SizeLimit(
        f"closure exceeded {max_order} elements (UT({ident.n}) mod {ident.p}^{ident.k})"
    )


def _closure_elements(ident: ResidueUT, gens, max_order: int) -> list:
    """The orbit of the identity on row tuples, each edge one generator's
    `right_mul_kernel`, wrapped as residue matrices in the order reached."""
    ordered = [ident]
    steps = orbit(ident.rows, [right_mul_kernel(g) for g in gens], _step)
    for rows, _, _ in islice(steps, 1, None):
        if len(ordered) >= max_order:
            raise _closure_limit(max_order, ident)
        ordered.append(ident._wrap(rows))
    return ordered


def finite_closure(
    gens, max_order: int = 10**6, name: str | None = None, labels=None
) -> FiniteGroup:
    """The group generated by residue matrices, known by its induced pcgs.

    Its order is p^r for an induced pcgs of length r (`_induced_pcgs`), and
    membership is a residue matrix of the same shape, among the normal forms
    of the pcgs (`_normal_forms`) unless the group is all of UT(n, Z/p^k).
    The element list is built on first use, in the order that right
    multiplication by the generators, in listed order, reaches them
    (`_closure_elements`), and checked against the order.  The group
    conjugates on row tuples by the generators' `conjugation_kernel`s.
    Raises SizeLimit when the group would exceed max_order elements, before
    any element is listed.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    shape = (first.n, first.p, first.k)
    for g in gens:
        if (g.n, g.p, g.k) != shape:
            raise DimensionMismatch("generators live in different residue groups")
    ident = ResidueUT.identity(*shape)
    pcgs = _induced_pcgs(ident, gens, max_order)
    if pcgs is None:
        order = first.p ** (first.k * first.n * (first.n - 1) // 2)

        def contains(x):
            return isinstance(x, ResidueUT) and (x.n, x.p, x.k) == shape

    else:
        order, forms = first.p ** len(pcgs), _normal_forms(ident, pcgs)

        def contains(x):
            return isinstance(x, ResidueUT) and (x.n, x.p, x.k) == shape and x.rows in forms

    group = _DeferredGroup(
        name=name or f"closure in UT({first.n}, Z/{first.p}^{first.k})",
        order=order,
        contains=contains,
        build=partial(_closure_elements, ident, gens, max_order),
        mul=operator.mul,
        identity=ident,
        generators=gens,
        labels=labels
        or (lambda r: "(" + ",".join(str(v) for v in r.upper_entries()) + ")"),
        inv=lambda x: x.inverse(),
    )
    group._conjugation = Conjugation(
        operator.attrgetter("rows"), ident._wrap, tuple(map(conjugation_kernel, gens))
    )
    return group


def _product_elements(a: FiniteGroup, b: FiniteGroup):
    return ((x, y) for x in a.elements for y in b.elements)


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with componentwise multiplication; its elements are
    the pairs in row-major order.

    When a factor's element list is deferred, so is the product's: its order
    is |A|*|B| and membership is componentwise.  A product of built factors
    is built at once.
    """
    gens = tuple((g, b.identity) for g in a.generators) + tuple(
        (a.identity, h) for h in b.generators
    )
    parts = dict(
        name=name or f"{a.name} x {b.name}",
        mul=lambda x, y: (a.mul(x[0], y[0]), b.mul(x[1], y[1])),
        identity=(a.identity, b.identity),
        generators=gens,
        labels=lambda x: f"({a.label(x[0])},{b.label(x[1])})",
        inv=lambda x: (a.inverse(x[0]), b.inverse(x[1])),
    )
    if not (isinstance(a, _DeferredGroup) or isinstance(b, _DeferredGroup)):
        return FiniteGroup(elements=_product_elements(a, b), **parts)
    return _DeferredGroup(
        order=a.order * b.order,
        contains=lambda x: isinstance(x, tuple) and len(x) == 2 and x[0] in a and x[1] in b,
        build=partial(_product_elements, a, b),
        **parts,
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
