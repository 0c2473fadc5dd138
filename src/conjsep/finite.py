"""Finite groups: closures, quotients, products, presets.

Elements are hashable canonical encodings and multiplication is a callable,
so residue-matrix groups of a few hundred thousand elements stay cheap to
build while table-backed presets keep exact, human-readable element names.

A group whose order and membership are known without its elements defers
its element list (`FiniteGroup._deferred`) until something enumerates it:
every closure of residue matrices, and every direct product.  The first
read of `elements` lists them and sets them as a plain attribute, so a
group stays one class, listed or not.  A closure is known by an induced
pcgs along the p-adic refinement of the superdiagonal series of
UT(n, Z/p^k) (`_induced_pcgs`): its order is p^r for a pcgs of length r.
Membership is a sift of r steps along the pcgs, which holds nothing that
grows with the group, or the shape alone when the generators'
superdiagonals span F_p^(n-1).  Orbit search, membership, products and
labels need no element list.  A closure lists its elements as the p^r
normal forms of its pcgs, once the pcgs's power and commutator relations
show them to be a group holding every generator (`_form_elements`); a
full image sifts its pcgs for that first.

Every search is one breadth-first `orbit`, but a direct product's class
partition is no search: its classes are the products of its factors'
classes (`conjugacy_classes`).  Each group also carries one
conjugation step per generator (`Conjugation`): a closure's steps are the
generators' `conjugation_kernel`s on row tuples, so the class partition,
orbit search and normality test wrap no residue matrix; every other group
conjugates with its own `mul` and `inverse`.  A closure's pcgs and normal
forms step by the product kernel that `unitri` generates per matrix size,
and its conjugation steps are `unitri`'s fused conjugation kernel, one call
per step.  The group's `mul` stays the general residue product, which the
conjugator re-checks use.
Quotients are cached on their group with no strong reference back to it.

Normal subgroups are unions of classes, so their enumeration runs on bit
masks over class indices.  Its only products are the class products
C_i * C_j it reaches, each taken once, and one walk along the powers of an
element per new normal closure; closures and joins are then integer ORs.
A close-by-one search (`_close_by_one`) reaches each normal subgroup once,
from one parent, and the list is sorted by an element mask per subgroup.
"""

from __future__ import annotations

import operator
from collections import deque, namedtuple
from collections.abc import Callable
from functools import partial
from itertools import product
from math import gcd

from .errors import DimensionMismatch, SizeLimit, VerificationFailed
from .intlin import prime_power_exponent, require_prime, valuation
from .unitri import _COMMUTATORS, _PRODUCTS, ResidueUT, _power, conjugation_kernel

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


class Conjugation(namedtuple("Conjugation", "point element steps")):
    """A group's conjugation by its generators, on orbit points.

    `point` encodes an element as an orbit point and `element` decodes one;
    steps[i] maps the point of e to the point of s^-1 * e * s for
    s = generators[i].
    """

    __slots__ = ()


def _identity_map(x):
    return x


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_by_one(bottom: int, reps: list, join: Callable) -> list:
    """Every mask reached from bottom by joins, each listed once: the
    close-by-one enumeration of closed sets (Kuznetsov, 1993).

    reps[t] = (closure, j): the closed mask generated by class j, with the
    classes j increasing.  join(N, j) is the least closed mask over N and
    class j.  A closed N reached at position start tries each t >= start with
    j outside N; the join M is kept only if it adds no representative class
    before j (the canonicity test, one AND, since class j' lies in a closed
    M iff its closure does), and is then searched from t + 1.  A closure
    that already holds a representative class before j that N lacks would
    fail that test, so it is skipped before any join.  Each closed mask has
    exactly one parent, so none is listed twice; VerificationFailed if one is.
    """
    below = [0] * len(reps)  # below[t]: the classes of reps[:t]
    for t in range(1, len(reps)):
        below[t] = below[t - 1] | 1 << reps[t - 1][1]
    found, stack = [bottom], [(bottom, 0)]
    while stack:
        current, start = stack.pop()
        for t in range(start, len(reps)):
            closure, j = reps[t]
            lacking = below[t] & ~current
            if current >> j & 1 or closure & lacking:
                continue
            joined = join(current, j)
            if joined & lacking == 0:
                found.append(joined)
                stack.append((joined, t + 1))
    if len(set(found)) != len(found):
        raise VerificationFailed("close-by-one", "a closed mask was listed twice")
    return found


def _label(labels, x) -> str:
    return str(x) if labels is None else labels(x)


class _Listing:
    """A deferred group's `elements` and `_index`, built on first read.

    A non-data descriptor: `FiniteGroup._store` sets both as plain instance
    attributes, which hide it from then on, so it runs once per group."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, group, owner=None):
        if group is None:
            return self
        elements = tuple(group._build())
        if len(elements) != group.order:
            raise VerificationFailed(
                "order", f"{group.name} has {len(elements)} elements, declared {group.order}"
            )
        group._store(elements)
        # `vars(group)` would materialize the group's __dict__ and slow every
        # later attribute load; `getattr` finds the new attribute without it.
        return getattr(group, self.name)


class FiniteGroup:
    """A finite group with a total multiplication over canonical elements.

    `labels` is a callable naming an element, or None for `str`."""

    elements = _Listing()
    _index = _Listing()

    def __init__(self, name, elements, mul, identity, generators, labels=None, inv=None):
        self._setup(name, mul, identity, generators, labels, inv)
        self._store(elements)
        self.order = len(self.elements)

    @classmethod
    def _deferred(cls, order, contains, build, **fields):
        """A group of the given order whose membership is `contains`; its
        elements are `build()`, listed on first use and checked against
        the order."""
        group = cls.__new__(cls)
        group._setup(**fields)
        group.order = order
        group._contains = contains
        group._build = build
        return group

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
        self._residuals = {}  # prime -> O^p(G)
        self._quotients = {}
        self._conjugation = None  # set by finite_closure, else built on first use
        self._factors = None  # (A, B) for a direct product A x B

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
        self._contains = self._index.__contains__

    def index(self, x) -> int:
        return self._index[x]

    def __contains__(self, x) -> bool:
        return self._contains(x)

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
        """Whether the order is a power of p, as `prime_power_exponent`
        decides it; ValueError when p is not prime."""
        require_prime(p)
        return prime_power_exponent(self.order, p) is not None

    def p_residual(self, p: int) -> frozenset:
        """O^p(G), generated by the elements of order prime to p, which are
        the |G|_p-th powers: the least normal subgroup of p-power index, so
        every p-quotient of G is a quotient of G/O^p(G).  Kept per prime;
        ValueError when p is not prime."""
        residual = self._residuals.get(p)
        if residual is None:
            residual = frozenset({self.identity})
            if not self.is_p_group(p):
                mul, gens, q = self.mul, [], p ** valuation(self.order, p)
                for x in self.elements:
                    power, e = self.identity, q
                    while e:
                        if e & 1:
                            power = mul(power, x)
                        x, e = mul(x, x), e >> 1
                    if power not in residual:
                        gens.append(power)
                        residual = self.subgroup_closure(gens)
            self._residuals[p] = residual
        return residual

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
        """Partition into conjugacy classes, in the order of their first
        elements.  A direct product's classes are the products Ca x Cb of
        its factors' classes, with no orbit search: pairs of classes in
        row-major order are already in that order, since its elements are
        the pairs in row-major order.  Every other group's are its
        conjugation orbits."""
        if self._classes is None:
            cls_list = []
            cls_of = {}
            if self._factors is not None:
                a, b = self._factors
                for ca, cb in product(a.conjugacy_classes(), b.conjugacy_classes()):
                    cls = frozenset(product(ca, cb))
                    cls_of.update(dict.fromkeys(cls, len(cls_list)))
                    cls_list.append(cls)
            else:
                element = self.conjugation.element
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
        settles all their classes.

        Every normal subgroup is the join of the closures of its classes, so
        the classes with a distinct closure, in class order, are the
        representatives of a close-by-one search from the trivial subgroup
        (`_close_by_one`), which reaches each normal subgroup once: <C_i>
        lies in a normal M iff class i does, so its canonicity test is one
        AND of masks.  The list is sorted by (size, -mask) over an element
        mask with element i at bit order-1-i, the order of (size, sorted
        element indices), and each subgroup's frozenset is built once, in
        that order.
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
                    if len(powers) >= self.order:  # x^|G| = 1 in every group
                        raise VerificationFailed("group law", f"no power of {self.label(x)} is 1")
                    powers.append(mul(powers[-1], x))
                settled.update(
                    class_of[y] for e, y in enumerate(powers, 1) if gcd(e, len(powers)) == 1
                )

            def join(current, j):
                """N * <C_j>: the union of C_i * <C_j> over i in N, where a
                class inside one already taken adds nothing more."""
                col, joined, rest = cols[j], 0, current
                while rest:
                    i = (rest & -rest).bit_length() - 1
                    joined |= col[i] or row(i, j)
                    rest &= ~joined
                return joined

            found = _close_by_one(1 << one, list(closures.items()), join)
            # A subgroup's element mask has element i at bit order-1-i, so the
            # key (size, -mask) orders as (size, sorted element indices).
            top, spread = self.order - 1, [0] * size
            for e, i in self._index.items():
                spread[class_of[e]] |= 1 << (top - i)

            def key(mask):
                elements = sum(spread[i] for i in _bits(mask))  # classes are disjoint
                return elements.bit_count(), -elements

            found.sort(key=key)
            self._normals = tuple(
                frozenset().union(*(classes[i] for i in _bits(mask))) for mask in found
            )
            self._normal_set = frozenset(self._normals)
        return self._normals

    def quotient(self, normal_subgroup) -> tuple["FiniteGroup", "GroupHom"]:
        """The quotient group and the natural projection onto it.

        Cached per subgroup.  Nothing cached refers back to this group, so a
        discarded group is freed at once rather than by the cycle collector.
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
        hom = GroupHom(codomain=quot, mapping=lambda x: cosets[coset_id[x]], section=rep)
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


class GroupHom:
    """A homomorphism given by a computable mapping rule; a natural projection
    also carries its section, the representative chosen for each coset."""

    __slots__ = ("codomain", "mapping", "section")

    def __init__(self, codomain: FiniteGroup, mapping, section: dict | None = None):
        self.codomain, self.mapping, self.section = codomain, mapping, section

    def __call__(self, x):
        return self.mapping(x)


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


def _induced_pcgs(ident: ResidueUT, gens, max_order: int) -> tuple:
    """An induced pcgs of the group gens generate, which has order p^len;
    SizeLimit is raised as soon as that exceeds max_order.

    Each element is sifted along the series of `_lead`: while its leading
    key has a table entry h, it is left-multiplied by h^-1 once per unit of
    its digit, which clears that digit; an element with a new key is raised
    to the power that makes its digit 1 and becomes the entry for that key.
    Each new entry queues its p-th power and its commutators with the entries
    before it, so the table is closed when the queue is empty (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 8).  Returns
    the entries' rows in series order.
    """
    n, p, mod = ident.n, ident.p, ident.mod
    mul, comm = _PRODUCTS[n, True], _COMMUTATORS[n, True]
    table = {}  # leading key -> (rows, rows of their inverse)
    queue = deque(g.rows for g in gens)
    while queue:
        rows = queue.popleft()
        while (lead := _lead(rows, n, p)) is not None:
            key, digit = lead
            if key not in table:
                break
            inverse = table[key][1]
            for _ in range(digit):
                rows = mul(inverse, rows, mod)
        else:
            continue
        if digit != 1:
            rows = _power(rows, n, pow(digit, -1, p), mod)
        for other_key, (other, _) in table.items():
            if key[0] + other_key[0] >= n:  # [U_v, U_w] lies in U_(v+w), and U_n = 1
                continue
            c = comm(rows, other, mod)
            if c != ident.rows:
                queue.append(c)
        queue.append(_power(rows, n, p, mod))
        table[key] = (rows, _power(rows, n, -1, mod))
        if p ** len(table) > max_order:
            raise _closure_limit(max_order, ident)
    return tuple(table[key][0] for key in sorted(table))


def _normal_forms(ident: ResidueUT, pcgs) -> list:
    """The rows of every h_1^e_1 * ... * h_r^e_r, 0 <= e_i < p, for the
    induced pcgs h_1, ..., h_r: from h_r up, the forms so far and their
    left multiples by h_i up to the (p-1)-th, one product per element.
    The form with exponents e is at position sum e_i * p^(r-i): the
    identity first, and the p^(r-i) forms of each tail h_(i+1), ..., h_r
    ahead of the rest."""
    p, mod, mul = ident.p, ident.mod, _PRODUCTS[ident.n, True]
    forms = [ident.rows]
    for h in reversed(pcgs):
        layer = forms
        for _ in range(1, p):
            layer = [mul(h, f, mod) for f in layer]
            forms += layer
    return forms


def _step_ops(rows, n: int) -> tuple:
    """Left multiplication by unitriangular rows I + N, on a matrix held as a
    flat list m with entry (i, j) at i*n + j, as (products, sums): row a of
    the product gains v times row c for each entry (a, c, v) of N, c > a.
    The products (a*n+b, c*n+b, v), b > c, come by increasing a, so each
    reads row c before any change to it; the sums (a*n+c, v), v times row
    c's unit diagonal entry, come after them all."""
    products, sums = [], []
    for a in range(n):
        for c in range(a + 1, n):
            if v := rows[a][c]:
                sums.append((a * n + c, v))
                products.extend((a * n + b, c * n + b, v) for b in range(c + 1, n))
    return tuple(products), tuple(sums)


def _sift_table(ident: ResidueUT, pcgs) -> tuple:
    """Per pcgs entry h, in its order: the flat index of its lead key
    (w, d, i), entry (i, i+w), p^d, the `_step_ops` of h^-1 = I + N, and the
    rows of h, or None when no entry (a, c) of N has entries in row c, so
    that N^2 = 0 and h^-e = I + e*N.  VerificationFailed unless the leads
    are keys in strictly increasing order, each with digit 1, as those of
    `_induced_pcgs` are: the sift reads the digits in that order."""
    n, p, mod = ident.n, ident.p, ident.mod
    table, last = [], None
    for t, rows in enumerate(pcgs, 1):
        lead = _lead(rows, n, p)
        if lead is None or lead[1] != 1 or (last is not None and lead[0] <= last):
            raise VerificationFailed("order", f"h_{t} does not lead at a later key with digit 1")
        (w, d, i), _ = lead
        last = lead[0]
        ops = _step_ops(_power(rows, n, -1, mod), n)
        square_zero = {t // n for t, _ in ops[1]}.isdisjoint(t % n for t, _ in ops[1])
        table.append((i * n + i + w, p**d, ops, None if square_zero else rows))
    return tuple(table)


def _closure_limit(max_order: int, ident: ResidueUT) -> SizeLimit:
    return SizeLimit(
        f"closure exceeded {max_order} elements (UT({ident.n}) mod {ident.p}^{ident.k})"
    )


def _form_elements(ident: ResidueUT, gens, pcgs, max_order: int):
    """The elements of the closure of gens: the normal forms of its pcgs,
    wrapped as residue matrices in the order of `_normal_forms`, once they
    are shown to be a group that holds every generator.  A full image, with
    pcgs None, sifts its pcgs here.

    Let G_i be the forms of the tail h_i, ..., h_r, the first p^(r-i+1) of
    the list.  When each h_i^p lies in G_(i+1) and each [h_i, h_j], i < j,
    in G_(j+1), then h_i normalises the group G_(i+1) and has its p-th power
    there, so from i = r down each G_i is a group, and G_1 has order p^r
    when the forms are distinct.  It holds <gens> when it holds each
    generator; that it is no larger rests on the sift, which builds each h_i
    from the generators.  VerificationFailed names the first failure.
    """
    if pcgs is None:
        pcgs = _induced_pcgs(ident, gens, max_order)
    n, p, mod, r = ident.n, ident.p, ident.mod, len(pcgs)
    forms, comm = _normal_forms(ident, pcgs), _COMMUTATORS[n, True]
    position = dict(zip(forms, range(len(forms))))
    if len(position) != len(forms):  # distinct exponents give distinct elements
        raise VerificationFailed(
            "order", f"{len(position)} distinct normal forms for a pcgs of length {r}"
        )
    # (rows, t, name): rows must be among the p^(r-t) forms of pcgs[t:].
    relations = [(g.rows, 0, f"generator {g!r}") for g in gens]
    for i, h in enumerate(pcgs):
        relations.append((_power(h, n, p, mod), i + 1, f"h_{i + 1}^{p}"))
        relations += [(comm(h, pcgs[j], mod), j + 1, f"[h_{i + 1}, h_{j + 1}]")
                      for j in range(i + 1, r)]
    for rows, t, name in relations:
        if position.get(rows, len(forms)) >= p ** (r - t):
            raise VerificationFailed("pcgs", f"{name} is not among the first {p ** (r - t)} forms")
    return map(ident._wrap, forms)


def finite_closure(
    gens, max_order: int = 10**6, name: str | None = None, labels=None
) -> FiniteGroup:
    """The group generated by residue matrices, known by its induced pcgs.

    Burnside's basis theorem settles the full image before any product: a
    subset generates the p-group U = UT(n, Z/p^k) iff its image generates
    U/Phi(U) = F_p^(n-1), the superdiagonal mod p (`_spans_mod_p`).  Such a
    group has the order of U, and membership is a residue matrix of the same
    shape.  Any other has order p^r for an induced pcgs h_1, ..., h_r
    (`_induced_pcgs`), and membership is a sift along it (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 8): for each
    h_t in key order, read the digit of the current rows at h_t's lead key
    (w, d, i), entry (i, i+w) divided by p^d mod p, and left-multiply by
    h_t^-digit, by one update per entry it changes (`_step_ops`); x is a
    member iff the rows end as the identity.  This is
    exact: each key's factor of the series is a central C_p, and a left
    product by an element with lead key kappa changes no digit before kappa,
    so for h_1^e_1 * ... * h_r^e_r the digit read at h_t is e_t, and rows
    that end as the identity are such a product.  No normal form is
    computed until the element list is built on first use, as the normal
    forms of the pcgs in their listing order, after a check of the pcgs's
    relations (`_form_elements`), and checked against the order.  The group
    conjugates on row tuples by the generators' `conjugation_kernel`s.
    Raises SizeLimit when the group would exceed max_order elements, before
    any element is listed.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    shape = n, p, k = (first.n, first.p, first.k)
    for g in gens:
        if (g.n, g.p, g.k) != shape:
            raise DimensionMismatch("generators live in different residue groups")
    ident = ResidueUT.identity(*shape)
    if _spans_mod_p([[g.rows[i][i + 1] for i in range(n - 1)] for g in gens], p, n - 1):
        pcgs, order = None, p ** (k * n * (n - 1) // 2)
        if order > max_order:
            raise _closure_limit(max_order, ident)

        def contains(x):
            return isinstance(x, ResidueUT) and (x.n, x.p, x.k) == shape

    else:
        pcgs = _induced_pcgs(ident, gens, max_order)
        order, sift = p ** len(pcgs), _sift_table(ident, pcgs)
        mod, target = ident.mod, [v for row in ident.rows for v in row]

        def contains(x):
            if not (isinstance(x, ResidueUT) and (x.n, x.p, x.k) == shape):
                return False
            m = [v for row in x.rows for v in row]
            for lead, scale, ops, h in sift:
                digit = m[lead] // scale % p
                if not digit:
                    continue
                if h is None or digit == 1:  # h^-digit = I + digit * N
                    (products, sums), times = ops, digit
                else:
                    (products, sums), times = _step_ops(_power(h, n, -digit, mod), n), 1
                for t, s, v in products:
                    m[t] = (m[t] + times * v * m[s]) % mod
                for t, v in sums:
                    m[t] = (m[t] + times * v) % mod
            return m == target

    group = FiniteGroup._deferred(
        name=name or f"closure in UT({n}, Z/{p}^{k})",
        order=order,
        contains=contains,
        build=partial(_form_elements, ident, gens, pcgs, max_order),
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
    """Direct product with componentwise multiplication, of order |A|*|B|
    and componentwise membership; its elements, listed on first use, are
    the pairs in row-major order.  It keeps A and B, whose classes give
    its own."""
    gens = tuple((g, b.identity) for g in a.generators) + tuple(
        (a.identity, h) for h in b.generators
    )
    group = FiniteGroup._deferred(
        order=a.order * b.order,
        contains=lambda x: isinstance(x, tuple) and len(x) == 2 and x[0] in a and x[1] in b,
        build=partial(_product_elements, a, b),
        name=name or f"{a.name} x {b.name}",
        mul=lambda x, y: (a.mul(x[0], y[0]), b.mul(x[1], y[1])),
        identity=(a.identity, b.identity),
        generators=gens,
        labels=lambda x: f"({a.label(x[0])},{b.label(x[1])})",
        inv=lambda x: (a.inverse(x[0]), b.inverse(x[1])),
    )
    group._factors = (a, b)
    return group


# -- presets ---------------------------------------------------------------


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    return FiniteGroup(
        name=name or f"C{n}",
        elements=range(n),
        mul=lambda x, y: (x + y) % n,
        identity=0,
        generators=(1,) if n > 1 else (0,),
        labels=lambda x: "e" if x == 0 else "g" if x == 1 else f"g{x}",
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
