"""Conjugacy decision procedures.

Three backends: breadth-first orbit search in materialized finite groups, the
commutator-lattice criterion for class <= 2 matrix groups (conjugates of x are
exactly x times the lattice spanned by its generator commutators), and the
componentwise rule for abelian-times-finite products.  On top of these sit the
finite-group coset-separability predicate and the brute-force equivalence
check between quotient separability and coset separability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce

from .errors import ClassTooHigh, NonAbelianPart, SizeLimit, VerificationFailed
from .finite import FiniteGroup
from .groupspec import (
    MatrixGroupSpec,
    ProductGroupSpec,
    center_lattice,
    center_vector,
    is_abelian,
)
from .intlin import Lattice, prime_power_exponent
from .unitri import UTMatrix, commutator


@dataclass(frozen=True)
class ConjugacyAnswer:
    """Decision with a re-verified conjugator g (g^-1 x g = y) when positive."""

    conjugate: bool
    conjugator: object = None
    method: str = ""
    word: str = ""


def conjugate_in_finite(group: FiniteGroup, x, y) -> ConjugacyAnswer:
    """Breadth-first orbit of x under conjugation by generators.

    Deterministic: the queue is FIFO and generators are tried in listed
    order, so the recorded conjugator word is the smallest BFS word.  The
    search stops when y appears; the conjugator and its word are read off
    the Schreier tree path from x to y and re-verified.
    """
    if x not in group or y not in group:
        raise KeyError("x and y must be elements of the group")
    if x == y:
        return ConjugacyAnswer(True, group.identity, "orbit", "")
    tree = {}
    for point, parent, i in group.conjugation_orbit(x):
        tree[point] = (parent, i)
        if point == y:
            break
    else:
        return ConjugacyAnswer(False, method="orbit")
    path = []
    while point != x:
        point, i = tree[point]
        path.append(group.generators[i])
    path.reverse()
    mul = group.mul
    g = reduce(mul, path, group.identity)
    if mul(group.inverse(g), mul(x, g)) != y:
        raise VerificationFailed(
            "conjugator", f"{group.label(g)} does not conjugate x to y in {group.name}"
        )
    return ConjugacyAnswer(True, g, "orbit", "*".join(map(group.label, path)))


def class2_conjugate(spec: MatrixGroupSpec, x: UTMatrix, y: UTMatrix) -> ConjugacyAnswer:
    """Conjugacy in a verified class <= 2 matrix group, decided exactly.

    In class <= 2 the map g -> [x, g] is a homomorphism into the centre, so
    the conjugates of x are x * L where L is the lattice spanned by the
    commutators of x with the generators.  YES iff x^-1 y lies in L; the
    conjugator is rebuilt from the lattice coefficients and re-verified by
    exact matrix arithmetic.
    """
    if spec.declared_class > 2:
        raise ClassTooHigh(
            f"{spec.name!r} declares class {spec.declared_class}; this test needs <= 2"
        )
    d = x.inverse() * y
    if d.is_identity():
        return ConjugacyAnswer(True, UTMatrix.identity(spec.n), "class2-lattice", "")
    commutator_vecs = []
    for gn, g in zip(spec.gen_names, spec.generators):
        c = commutator(x, g)
        vec = center_vector(spec, c)
        if vec is None or not center_lattice(spec).contains(vec).member:
            raise ValueError(
                f"[x, {gn}] is outside the declared centre lattice; "
                "x is not an element of the declared group"
            )
        commutator_vecs.append(vec)
    d_vec = center_vector(spec, d)
    if d_vec is None or not center_lattice(spec).contains(d_vec).member:
        return ConjugacyAnswer(False, method="class2-lattice")
    support_rank = len(d_vec)
    target = Lattice(support_rank, commutator_vecs)
    hit = target.contains(d_vec)
    if not hit.member:
        return ConjugacyAnswer(False, method="class2-lattice")
    g = UTMatrix.identity(spec.n)
    word_parts = []
    for (gn, gen), e in zip(zip(spec.gen_names, spec.generators), hit.coefficients):
        if e:
            g = g * gen**e
            word_parts.append(gn if e == 1 else f"{gn}^{e}")
    if g.inverse() * x * g != y:
        raise VerificationFailed("conjugator", f"{'*'.join(word_parts)} does not conjugate x to y")
    return ConjugacyAnswer(True, g, "class2-lattice", "*".join(word_parts))


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


def enumerate_p_quotient_kernels(
    group: FiniteGroup, p: int, max_order: int = 512
) -> tuple:
    """Normal subgroups H with [G : H] a power of p, smallest first.

    Always contains the whole group (trivial quotient).  Raises SizeLimit when
    the group is beyond the enumeration budget, on every call.  The list is
    computed once per group and prime and kept on the group.
    """
    if group.order > max_order:
        raise SizeLimit(f"group of order {group.order} exceeds budget {max_order}")
    kernels = group._kernels.get(p)
    if kernels is None:
        kernels = group._kernels[p] = tuple(
            sub for sub in group.normal_subgroups()
            if prime_power_exponent(group.order // len(sub), p) is not None
        )
    return kernels


class CosetDecision(enum.Enum):
    YES = "yes"
    NO = "no"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class CosetQuery:
    """Is the probe separable from the coset rep*N in some finite p-quotient?"""

    ambient: FiniteGroup
    subgroup_n: frozenset
    coset_rep: object
    probe: object
    p: int

    def __post_init__(self):
        object.__setattr__(self, "subgroup_n", frozenset(self.subgroup_n))
        if not self.ambient.is_normal(self.subgroup_n):
            raise ValueError("subgroup_n must be a normal subgroup of the ambient group")
        for e in (self.coset_rep, self.probe):
            if e not in self.ambient:
                raise ValueError("coset_rep and probe must be elements of the ambient group")

    def coset(self) -> frozenset:
        return frozenset(self.ambient.mul(self.coset_rep, x) for x in self.subgroup_n)


@dataclass(frozen=True)
class CosetAnswer:
    decision: CosetDecision
    kernel: frozenset | None = None
    kernels_checked: int = 0


def coset_conjugacy_separable(query: CosetQuery) -> CosetAnswer:
    """Search the p-power-index kernels for one that separates probe from the coset.

    VACUOUS when the probe is already conjugate into the coset (the notion
    quantifies only over non-conjugate probes); otherwise YES with the first
    separating kernel, or NO after exhausting all kernels.
    """
    group = query.ambient
    coset = query.coset()
    probe_class = group.class_of(query.probe)
    if probe_class & coset:
        return CosetAnswer(CosetDecision.VACUOUS)
    kernels = enumerate_p_quotient_kernels(group, query.p)
    for count, kernel in enumerate(kernels, start=1):
        quot, hom = group.quotient(kernel)
        image = hom(query.probe)
        image_class = quot.class_of(image)
        coset_images = {hom(m) for m in coset}
        if not image_class & coset_images:
            return CosetAnswer(CosetDecision.YES, kernel, count)
    return CosetAnswer(CosetDecision.NO, None, len(kernels))


def is_conjugacy_p_separable(group: FiniteGroup, p: int) -> tuple[bool, tuple | None]:
    """Exhaustive check that non-conjugate pairs survive into some p-quotient.

    Returns (True, None) or (False, (x, y)) with a failing pair.
    """
    kernels = enumerate_p_quotient_kernels(group, p)
    quotients = [group.quotient(k) for k in kernels]
    for i, x in enumerate(group.elements):
        x_class = group.class_of(x)
        for y in group.elements[i + 1 :]:
            if y in x_class:
                continue
            separated = any(
                hom(y) not in quot.class_of(hom(x)) for quot, hom in quotients
            )
            if not separated:
                return False, (x, y)
    return True, None


@dataclass(frozen=True)
class EquivalenceReport:
    """Both sides of the coset criterion, computed independently by brute force."""

    group_name: str
    p: int
    all_cosets_separable: bool
    quotient_separable: bool
    holds: bool
    detail: str = ""


def quotient_coset_equivalence(group: FiniteGroup, normal_n, p: int) -> EquivalenceReport:
    """Check: G/N conjugacy p-separable <=> every coset of N separable in G.

    The left side runs coset_conjugacy_separable for every (probe, coset)
    pair; the right side tests the quotient against all of its own p-power
    kernels.  Both sides are exhaustive enumerations.
    """
    nsub = frozenset(normal_n)
    quot, hom = group.quotient(nsub)
    reps = [hom.section[coset] for coset in quot.elements]
    left = True
    detail = ""
    for rep in reps:
        for probe in group.elements:
            ans = coset_conjugacy_separable(
                CosetQuery(group, nsub, rep, probe, p)
            )
            if ans.decision is CosetDecision.NO:
                left = False
                detail = (
                    f"probe {group.label(probe)} vs coset "
                    f"{group.label(rep)}*N is never separated"
                )
                break
        if not left:
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
