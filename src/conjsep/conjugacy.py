"""Conjugacy decision procedures.

Three backends: breadth-first orbit search in finite groups, the
commutator-lattice criterion for class <= 2 matrix groups (conjugates of x are
exactly x times the lattice spanned by its generator commutators), and the
componentwise rule for abelian-times-finite products.  The lattice criterion
also decides a congruence tower up to a given depth at once: one Smith form
of that lattice gives the least level mod p^k that separates a pair, checked
by a functional, and one conjugator, checked at the highest level below it,
with no quotient built (`class2_tower`).  On top of these sit the
finite-group p-separation questions, each decided in the largest
p-quotient G/O^p(G) with no quotient built: coset separability,
conjugacy p-separability, and the equivalence check between them.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import reduce
from itertools import product

from .errors import ClassTooHigh, NonAbelianPart, SizeLimit, VerificationFailed
from .finite import FiniteGroup, orbit
from .groupspec import (
    MatrixGroupSpec,
    ProductGroupSpec,
    center_lattice,
    center_support,
    center_vector,
    is_abelian,
)
from .intlin import (
    Lattice,
    mod_inverse,
    prime_power_exponent,
    require_prime,
    snf,
    valuation,
)
from .unitri import UTMatrix, commutator, reduce_mod


_NOT_ELEMENTS = "x and y must be elements of the group"


class ConjugacyAnswer(namedtuple(
    "ConjugacyAnswer", "conjugate conjugator method word", defaults=(None, "", "")
)):
    """Decision with a re-verified conjugator g (g^-1 x g = y) when positive."""

    __slots__ = ()


def conjugate_in_finite(group: FiniteGroup, x, y) -> ConjugacyAnswer:
    """Breadth-first orbit of x under conjugation by generators.

    Deterministic: the points are searched first in, first out and the
    generators tried in listed order, so the recorded conjugator word is the
    smallest BFS word.  The search runs on the group's conjugation points
    and stops when y's point appears; the conjugator and its word, the
    generators' labels joined by '*', are read off the Schreier tree path
    from x to y, and the conjugator is re-verified with the group's general
    `mul`.  KeyError when x or y is not an element; y is tested only where
    the answer depends on it, by membership when the orbit misses its point
    and by decoding the point it hits, which y can share and be of another
    modulus or kind.
    """
    if x not in group:
        raise KeyError(_NOT_ELEMENTS)
    if x == y:
        return ConjugacyAnswer(True, group.identity, "orbit", "")
    conj = group.conjugation
    try:
        start, target = conj.point(x), conj.point(y)
    except AttributeError:  # y is no matrix, as a residue group's elements are
        raise KeyError(_NOT_ELEMENTS) from None
    tree = orbit(start, conj.steps, target)
    if target not in tree:
        if y not in group:
            raise KeyError(_NOT_ELEMENTS)
        return ConjugacyAnswer(False, method="orbit")
    if conj.element(target) != y:
        raise KeyError(_NOT_ELEMENTS)
    path, (parent, i) = [], tree[target]
    while parent is not None:
        path.append(i)
        parent, i = tree[parent]
    path.reverse()
    gens, mul = group.generators, group.mul
    g = reduce(mul, [gens[i] for i in path], group.identity)
    if mul(group.inverse(g), mul(x, g)) != y:
        raise VerificationFailed(
            "conjugator", f"{group.label(g)} does not conjugate x to y in {group.name}"
        )
    letters = group.generator_labels
    return ConjugacyAnswer(True, g, "orbit", "*".join([letters[i] for i in path]))


def _commutator_vectors(spec: MatrixGroupSpec, x: UTMatrix) -> list:
    """The centre vectors of [x, g] over the generators g.

    In class <= 2 the map g -> [x, g] is a homomorphism into the centre, so
    these vectors span the lattice L with the conjugates of x exactly x * L.
    ClassTooHigh past class 2, and ValueError when one of them lies outside
    the centre lattice, which puts x outside the declared group.
    """
    if spec.declared_class > 2:
        raise ClassTooHigh(
            f"{spec.name!r} declares class {spec.declared_class}; this test needs <= 2"
        )
    lattice = center_lattice(spec)
    vecs = []
    for gn, g in zip(spec.gen_names, spec.generators):
        vec = center_vector(spec, commutator(x, g))
        if vec is None or vec not in lattice:
            raise ValueError(
                f"[x, {gn}] is outside the declared centre lattice; "
                "x is not an element of the declared group"
            )
        vecs.append(vec)
    return vecs


def class2_conjugate(spec: MatrixGroupSpec, x: UTMatrix, y: UTMatrix) -> ConjugacyAnswer:
    """Conjugacy in a verified class <= 2 matrix group, decided exactly.

    YES iff d = x^-1 y lies in the lattice L of `_commutator_vectors`; the
    conjugator g is the product of the generators' powers by the lattice
    coefficients, re-verified by exact arithmetic as [x, g] = d, which is
    g^-1 x g = y, since g^-1 x g = x [x, g].
    """
    commutator_vecs = _commutator_vectors(spec, x)
    d = x.inverse() * y
    d_vec = center_vector(spec, d)
    if d_vec is None:
        return ConjugacyAnswer(False, method="class2-lattice")
    if not any(d_vec):  # d is the identity
        return ConjugacyAnswer(True, UTMatrix.identity(spec.n), "class2-lattice", "")
    hit = Lattice(len(d_vec), commutator_vecs).contains(d_vec)
    if not hit.member:
        return ConjugacyAnswer(False, method="class2-lattice")
    g, word_parts = None, []
    for (gn, gen), e in zip(zip(spec.gen_names, spec.generators), hit.coefficients):
        if e:
            g = gen**e if g is None else g * gen**e
            word_parts.append(gn if e == 1 else f"{gn}^{e}")
    if g is None or commutator(x, g) != d:
        raise VerificationFailed("conjugator", f"{'*'.join(word_parts)} does not conjugate x to y")
    return ConjugacyAnswer(True, g, "class2-lattice", "*".join(word_parts))


class Class2Tower(namedtuple("Class2Tower", "p level separator conjugator")):
    """The congruence tower of one prime p for a pair of a verified class <= 2
    group, as `class2_tower` decides and checks it."""

    __slots__ = ()


def _dot(a, b) -> int:
    return sum(s * t for s, t in zip(a, b))


def class2_tower(
    spec: MatrixGroupSpec, x: UTMatrix, y: UTMatrix, p: int, depth: int
) -> Class2Tower:
    """Levels 1..depth of the congruence tower mod p^k for x and y at once,
    by one Smith form U A V = D of the matrix A whose columns are the centre
    vectors of [x, g_i], with no quotient built.

    With d = x^-1 y and w = U d_vec, the images are conjugate mod p^k iff
    every entry of d off the centre support is 0 mod p^k and
    min(k, v_p(D_ii)) <= v_p(w_i) for every i, D_ii = 0 past the rank.  So
    the least level that separates them is 1 + the least of the valuations
    of those entries and of the w_i with v_p(w_i) < v_p(D_ii); `level` is
    that level when it is at most depth, else None.  `separator` names what
    decides it, or is None with `level`: ("entry", (i, j)) for an entry of
    d, or ("functional", row) for a row of U, which vanishes mod p^level on
    L and not on d_vec.  `conjugator` is prod g_i^(c_i) mod p^t, t the
    highest level up to depth that does not separate (None when t = 0), with
    c = V c' and D_ii c'_i = w_i mod p^t, so that A c = d_vec mod p^t; it
    reduces to a conjugator at every lower level.

    Both verdicts are checked before they are returned (VerificationFailed):
    the separation by its entry of d, or by its functional on the
    generators of L and on d_vec ('certificate'), and the conjugator by
    residue products mod p^t ('conjugator').  x and y must lie in the
    verified group: x is checked as in `class2_conjugate` (ClassTooHigh,
    ValueError), y is the caller's precondition.  ValueError when p is not
    prime or depth < 1.
    """
    require_prime(p)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    gens = _commutator_vectors(spec, x)
    d = x.inverse() * y
    support = center_support(spec)
    d_vec = tuple(d[pos] for pos in support)
    r, m = len(support), len(gens)
    diag, u, v = snf(Lattice(r, gens).matrix())
    diagonal = tuple(diag.at(i, i) if i < m else 0 for i in range(r))
    w = u.apply(d_vec)
    found = [
        (valuation(e, p), ("entry", pos))
        for pos, e in d.strict_upper_items()
        if pos not in support
    ]
    for i, (dii, wi) in enumerate(zip(diagonal, w)):
        if wi and (not dii or valuation(wi, p) < valuation(dii, p)):
            found.append((valuation(wi, p), ("functional", u.row(i))))
    level = separator = None
    low, first = min(found, key=lambda item: item[0], default=(depth, None))
    if low < depth:
        level, separator, mod = low + 1, first, p ** (low + 1)
        kind, what = separator
        if kind == "entry":
            holds = d[what] % mod != 0
        else:
            holds = all(_dot(what, col) % mod == 0 for col in gens) and _dot(what, d_vec) % mod != 0
        if not holds:
            raise VerificationFailed(
                "certificate", f"the {kind} {what} does not separate x and y mod {p}^{level}"
            )
    t = min(low, depth)
    if not t:
        return Class2Tower(p, level, separator, None)
    mod = p**t
    solved = []
    for dii, wi in zip(diagonal, w[:m]):
        if dii % mod == 0:
            solved.append(0)
            continue
        a = valuation(dii, p)
        solved.append(wi // p**a * mod_inverse(dii // p**a, p ** (t - a)))
    solved += [0] * (m - len(solved))
    g = reduce_mod(UTMatrix.identity(spec.n), p, t)
    for gen, e in zip(spec.generators, v.apply(solved)):
        if e % mod:
            g = g * reduce_mod(gen, p, t) ** (e % mod)
    if reduce_mod(x, p, t) * g != g * reduce_mod(y, p, t):
        raise VerificationFailed("conjugator", f"the Smith-form conjugator fails mod {p}^{t}")
    return Class2Tower(p, level, separator, g)


def conjugate_in_product(group: ProductGroupSpec, a, b) -> ConjugacyAnswer:
    """Conjugacy in (abelian matrix group) x (finite group), componentwise."""
    decision = is_abelian(group.matrix_part)
    if not decision.abelian:
        raise NonAbelianPart(
            f"matrix part of {group.name!r} is non-abelian "
            f"(witness pair {decision.witness})"
        )
    (m1, f1), (m2, f2) = a, b
    if m1 != m2:
        return ConjugacyAnswer(False, method="product")
    inner = conjugate_in_finite(group.finite_part, f1, f2)
    if not inner.conjugate:
        return ConjugacyAnswer(False, method="product")
    conj = (UTMatrix.identity(group.matrix_part.n), inner.conjugator)
    return ConjugacyAnswer(True, conj, "product", inner.word)


# The largest group whose normal subgroups `enumerate_p_quotient_kernels` lists.
KERNEL_BUDGET = 512


def enumerate_p_quotient_kernels(group: FiniteGroup, p: int) -> tuple:
    """Normal subgroups H with [G : H] a power of p, smallest first.

    Always contains the whole group (trivial quotient).  Raises SizeLimit when
    the group is beyond the enumeration budget and ValueError when p is not
    prime.  Each call filters `group.normal_subgroups()`, which the group
    keeps, and so returns an equal, new tuple.
    """
    if group.order > KERNEL_BUDGET:
        raise SizeLimit(f"group of order {group.order} exceeds budget {KERNEL_BUDGET}")
    require_prime(p)
    return tuple(
        sub for sub in group.normal_subgroups()
        if prime_power_exponent(group.order // len(sub), p) is not None
    )


class CosetDecision(enum.Enum):
    YES = "yes"
    NO = "no"
    VACUOUS = "vacuous"


class CosetQuery(namedtuple("CosetQuery", "ambient subgroup_n coset_rep probe p")):
    """Is the probe separable from the coset rep*N in some finite p-quotient?"""

    __slots__ = ()

    def __new__(cls, ambient: FiniteGroup, subgroup_n, coset_rep, probe, p: int):
        require_prime(p)
        subgroup_n = frozenset(subgroup_n)
        if not ambient.is_normal(subgroup_n):
            raise ValueError("subgroup_n must be a normal subgroup of the ambient group")
        for e in (coset_rep, probe):
            if e not in ambient:
                raise ValueError("coset_rep and probe must be elements of the ambient group")
        return super().__new__(cls, ambient, subgroup_n, coset_rep, probe, p)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def coset(self) -> frozenset:
        return frozenset(self.ambient.mul(self.coset_rep, x) for x in self.subgroup_n)


class CosetAnswer(namedtuple("CosetAnswer", "decision kernel", defaults=(None,))):
    __slots__ = ()


def coset_conjugacy_separable(query: CosetQuery) -> CosetAnswer:
    """Whether some normal subgroup of p-power index keeps the probe's
    class off the coset, decided by the least one, O^p(G).

    VACUOUS when the probe is already conjugate into the coset (the notion
    quantifies only over non-conjugate probes); otherwise YES with
    O^p(G) when it separates, or NO, since then no kernel does.
    """
    return _separate_from_coset(query.ambient, query.coset(), query.probe, query.p)


def _separate_from_coset(group: FiniteGroup, coset: frozenset, probe, p: int) -> CosetAnswer:
    """coset_conjugacy_separable on a coset already built.  A kernel K
    separates when no conjugate x of the probe lies in coset*K, that is,
    when c^-1 x is outside K for every c in the coset.  Every p-power-index
    kernel contains K = O^p(G), so K separates whenever any kernel does.
    coset*1 is the coset, which the vacuous test has searched, so a
    p-group, where K is trivial, takes no product."""
    probe_class = group.class_of(probe)
    if not probe_class.isdisjoint(coset):
        return CosetAnswer(CosetDecision.VACUOUS)
    kernel, mul, inverse = group.p_residual(p), group.mul, group.inverse
    if len(kernel) > 1 and any(mul(inverse(c), x) in kernel for c in coset for x in probe_class):
        return CosetAnswer(CosetDecision.NO)
    return CosetAnswer(CosetDecision.YES, kernel)


def is_conjugacy_p_separable(group: FiniteGroup, p: int) -> tuple[bool, tuple | None]:
    """Whether every non-conjugate pair stays apart in some p-quotient: iff
    the largest one, G/O^p(G), is G, since it merges O^p(G) into the identity.

    Returns (True, None), or (False, (identity, x)) with x the first other
    element of O^p(G) in listing order.
    """
    residual, identity = group.p_residual(p), group.identity
    if len(residual) == 1:
        return True, None
    return False, (identity, next(x for x in group.elements if x in residual and x != identity))


class EquivalenceReport(namedtuple(
    "EquivalenceReport",
    "group_name p all_cosets_separable quotient_separable holds detail",
    defaults=("",),
)):
    """Both sides of the coset criterion, each decided in its own group's
    largest p-quotient."""

    __slots__ = ()


def quotient_coset_equivalence(group: FiniteGroup, normal_n, p: int) -> EquivalenceReport:
    """Check: G/N conjugacy p-separable <=> every coset of N separable in G.

    The left side decides every (probe, coset) pair as
    coset_conjugacy_separable does, by O^p(G), each coset an element of the
    quotient; the right side asks whether O^p(G/N) is trivial.  When G is a
    p-group, O^p(G) and O^p(G/N) are trivial, so each pair could only answer
    VACUOUS or YES and G/N is separable: both sides hold once N is checked
    to be normal, and no G/N is built.  A non-normal N raises ValueError.
    """
    if group.is_p_group(p):
        if not group.is_normal(normal_n):
            raise ValueError("quotient requested by a non-normal subset")
        return EquivalenceReport(group.name, p, True, True, True)
    quot, hom = group.quotient(normal_n)
    left, detail = True, ""
    for coset, probe in product(quot.elements, group.elements):
        if _separate_from_coset(group, coset, probe, p).decision is CosetDecision.NO:
            left = False
            detail = (
                f"probe {group.label(probe)} vs coset "
                f"{group.label(hom.section[coset])}*N is never separated"
            )
            break
    right, failing = is_conjugacy_p_separable(quot, p)
    if not right and not detail:
        detail = (
            f"quotient pair {quot.label(failing[0])}, {quot.label(failing[1])} "
            "is never separated"
        )
    return EquivalenceReport(
        group_name=group.name,
        p=p,
        all_cosets_separable=left,
        quotient_separable=right,
        holds=left == right,
        detail=detail,
    )
