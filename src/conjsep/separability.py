"""The main results as executable procedures.

classify applies the torsion/abelian criterion to a product group.  For
non-abelian torsion-free matrix groups, make_witness builds a pair of
elements that are provably non-conjugate (a divisibility certificate in the
centre lattice) yet conjugate in every finite p-quotient (an explicit
modular-inverse conjugator, checked level by level).  For abelian-times-finite
groups, separate_elements produces a finite p-quotient in which a given
non-conjugate pair stays non-conjugate, re-verified by orbit search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjugacy import class2_conjugate, conjugate_in_finite, conjugate_in_product
from .errors import (
    AbelianGroup,
    AreConjugate,
    IdentityElement,
    LocalCheckFailed,
    NoZ2Rep,
    NotApplicable,
    VerificationFailed,
)
from .finite import FiniteGroup, direct_product
from .groupspec import (
    MatrixGroupSpec,
    ProductGroupSpec,
    center_lattice,
    center_vector,
    congruence_quotient,
    is_abelian,
    torsion_subgroup,
    verify_spec,
)
from .intlin import (
    is_prime,
    mod_inverse,
    power_solvable,
    prime_power_exponent,
    smallest_prime_excluding,
    valuation,
)
from .unitri import UTMatrix, commutator, reduce_mod, residue_order_exponent

CONJUGATOR_TABLE_DEPTH = 8


@dataclass(frozen=True)
class SeparabilityVerdict:
    """The two clauses of the criterion, with evidence for any failure."""

    p: int
    torsion_order: int
    torsion_exponent: int | None
    torsion_is_p_group: bool
    quotient_abelian: bool
    abelian_witness: tuple | None
    separable: bool
    reason: str


def classify(group: ProductGroupSpec, p: int) -> SeparabilityVerdict:
    """Conjugacy separability in finite p-groups, decided by the criterion.

    Separable iff the torsion subgroup is a p-group and the group modulo
    torsion (here: the matrix part) is abelian.
    """
    verify_spec(group.matrix_part)
    torsion = torsion_subgroup(group)
    exponent = prime_power_exponent(torsion.order, p)
    abelian = is_abelian(group.matrix_part)
    separable = exponent is not None and abelian.abelian
    reasons = []
    if exponent is None:
        reasons.append(f"torsion subgroup has order {torsion.order}, not a power of {p}")
    if not abelian.abelian:
        reasons.append(
            f"quotient by torsion is non-abelian, witness pair {abelian.witness}"
        )
    return SeparabilityVerdict(
        p=p,
        torsion_order=torsion.order,
        torsion_exponent=exponent,
        torsion_is_p_group=exponent is not None,
        quotient_abelian=abelian.abelian,
        abelian_witness=abelian.witness,
        separable=separable,
        reason="separable" if separable else "; ".join(reasons),
    )


@dataclass(frozen=True)
class DivisibilityCertificate:
    """Failed lattice membership: c has no exponent-th root in the centre."""

    exponent: int
    c_vector: tuple
    scaled_basis: tuple
    member: bool


@dataclass(frozen=True)
class WitnessReport:
    """A pair (u, v) = (a^(q^n), a^(q^n) c), non-conjugate globally but
    conjugate in every finite p-quotient.

    conjugator_exponents maps each level m to k with q^n * k = 1 mod p^m, so
    b^k conjugates u to v modulo p^m.
    """

    p: int
    a: UTMatrix
    b: UTMatrix
    b_name: str
    c: UTMatrix
    q: int
    n: int
    u: UTMatrix
    v: UTMatrix
    divisibility: DivisibilityCertificate
    conjugator_exponents: tuple

    def conjugator_exponent(self, m: int) -> int:
        for level, k in self.conjugator_exponents:
            if level == m:
                return k
        return mod_inverse(self.q**self.n, self.p**m)


def make_witness(spec: MatrixGroupSpec, p: int) -> WitnessReport:
    """Construct the inseparability witness pair for a non-abelian group.

    Deterministic choices: a is the declared second-centre representative,
    b the first generator whose commutator with a is nontrivial, q the
    smallest prime other than p, and n the least exponent for which c has
    no q^n-th root in the centre.
    """
    verify_spec(spec)
    abelian = is_abelian(spec)
    if abelian.abelian:
        raise AbelianGroup(
            f"{spec.name!r} is abelian, hence conjugacy separable in finite "
            f"{p}-groups; no witness exists"
        )
    if spec.z2_rep is None:
        raise NoZ2Rep(f"{spec.name!r} declares no second-centre representative")
    a = spec.z2_rep
    b = b_name = c = None
    for gn, g in zip(spec.gen_names, spec.generators):
        cand = commutator(a, g)
        if not cand.is_identity():
            b, b_name, c = g, gn, cand
            break
    if b is None:
        raise NoZ2Rep(
            f"declared representative {spec.z2_name!r} commutes with every generator"
        )
    q = smallest_prime_excluding(p)
    c_vec = center_vector(spec, c)
    z1 = center_lattice(spec)
    bound = max(valuation(x, q) for x in c_vec if x) + 1
    n = None
    for cand_n in range(1, bound + 1):
        if not power_solvable(z1, c_vec, q**cand_n).solvable:
            n = cand_n
            break
    if n is None:
        raise RuntimeError("no failing exponent within the valuation bound")
    e = q**n
    u = a**e
    v = u * c
    cert = DivisibilityCertificate(
        exponent=e,
        c_vector=c_vec,
        scaled_basis=z1.scale(e).canonical().basis,
        member=False,
    )
    table = tuple(
        (m, mod_inverse(e, p**m)) for m in range(1, CONJUGATOR_TABLE_DEPTH + 1)
    )
    return WitnessReport(
        p=p, a=a, b=b, b_name=b_name, c=c, q=q, n=n, u=u, v=v,
        divisibility=cert, conjugator_exponents=table,
    )


@dataclass(frozen=True)
class GlobalVerification:
    passed: bool
    checks: tuple


def verify_witness_global(spec: MatrixGroupSpec, witness: WitnessReport) -> GlobalVerification:
    """Confirm non-conjugacy of (u, v) in the full group, two independent ways.

    First the divisibility certificate is recomputed: c must have no
    q^n-th root in the centre lattice.  Then, when the declared class is at
    most 2, the commutator-lattice criterion must independently answer
    non-conjugate.  Finally the report's internal structure is re-checked.
    Raises VerificationFailed naming the first broken check.
    """
    checks = []
    z1 = center_lattice(spec)
    c_vec = center_vector(spec, witness.c)
    if witness.n < 1:
        raise VerificationFailed("divisibility", f"exponent n={witness.n} is not >= 1")
    if c_vec is None or not z1.contains(c_vec).member:
        raise VerificationFailed("divisibility", "c lies outside the declared centre")
    e = witness.q**witness.n
    if power_solvable(z1, c_vec, e).solvable:
        raise VerificationFailed(
            "divisibility", f"c has a {e}-th root in the centre; the pair is conjugate"
        )
    checks.append("divisibility")
    if spec.declared_class <= 2:
        answer = class2_conjugate(spec, witness.u, witness.v)
        if answer.conjugate:
            raise VerificationFailed(
                "class2-lattice", f"pair is conjugate by {answer.word or 'identity'}"
            )
        checks.append("class2-lattice")
    ident = UTMatrix.identity(spec.n)
    structure = [
        (witness.c == commutator(witness.a, witness.b), "c != [a, b]"),
        (witness.c != ident, "c is the identity"),
        (witness.u == witness.a**e, "u != a^(q^n)"),
        (witness.v == witness.u * witness.c, "v != u*c"),
        (is_prime(witness.q) and witness.q != witness.p, "q is not a prime other than p"),
        (witness.b in spec.generators, "b is not a listed generator"),
    ]
    for good, msg in structure:
        if not good:
            raise VerificationFailed("structure", msg)
    for m, k in witness.conjugator_exponents:
        pm = witness.p**m
        if not (1 <= k < pm and (e * k - 1) % pm == 0):
            raise VerificationFailed("structure", f"conjugator exponent at level {m} is wrong")
    checks.append("structure")
    return GlobalVerification(True, tuple(checks))


@dataclass(frozen=True)
class LocalCheck:
    """Outcome of the explicit-conjugator check at one level."""

    m: int
    k: int
    conjugator: UTMatrix
    bfs_checked: bool


def verify_witness_local(
    spec: MatrixGroupSpec,
    witness: WitnessReport,
    m: int,
    bfs_cap: int = 1024,
    max_order: int = 10**6,
) -> LocalCheck:
    """Check that b^k conjugates u to v modulo p^m, with k = (q^n)^-1 mod p^m.

    The identity b^-k u b^k = u * c^(q^n k) holds exactly in the group, and
    q^n k = 1 modulo the p-power order of c in the quotient makes the
    right-hand side collapse to v.  For levels where the congruence quotient
    is small enough, an independent orbit search cross-checks the answer.
    """
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    p = witness.p
    e = witness.q**witness.n
    k = witness.conjugator_exponent(m)
    conj = witness.b**k
    target = reduce_mod(witness.v, p, m)
    got = reduce_mod(conj.inverse() * witness.u * conj, p, m)
    if got != target:
        # rare fallback: use the actual p-power order of c at this level
        s = residue_order_exponent(reduce_mod(witness.c, p, m))
        if s >= 1:
            k = mod_inverse(e, p**s)
            conj = witness.b**k
            got = reduce_mod(conj.inverse() * witness.u * conj, p, m)
        if got != target:
            raise LocalCheckFailed(f"explicit conjugator fails at level {m}")
    bfs_checked = False
    strict_dim = spec.n * (spec.n - 1) // 2
    if p ** (m * strict_dim) <= bfs_cap:
        quot, hom = congruence_quotient(spec, p, m, max_order)
        answer = conjugate_in_finite(quot, hom(witness.u), hom(witness.v))
        if not answer.conjugate:
            raise LocalCheckFailed(f"orbit search contradicts the conjugator at level {m}")
        bfs_checked = True
    return LocalCheck(m=m, k=k, conjugator=conj, bfs_checked=bfs_checked)


@dataclass(frozen=True)
class SeparationCertificate:
    """A finite p-quotient in which the two images stay non-conjugate."""

    p: int
    level: int
    quotient: FiniteGroup
    images: tuple
    nonconjugacy_reverified: bool
    branch: str


def separate_elements(
    group: ProductGroupSpec, a, b, p: int, max_order: int = 10**6
) -> SeparationCertificate:
    """Produce a separating finite p-quotient for a non-conjugate pair.

    Requires an abelian matrix part and a finite part that is a p-group.
    When the matrix coordinates differ, the least level at which they differ
    modulo p^level gives the quotient ("abelian-part" branch); when they
    agree, level 1 already embeds the finite part, whose conjugacy the kernel
    cannot disturb ("torsion-part" branch).  The certificate is re-verified
    by an independent orbit search in the materialized quotient.

    Raises NotApplicable when the hypotheses fail and AreConjugate (carrying
    a verified conjugator) when the pair is conjugate.
    """
    abelian = is_abelian(group.matrix_part)
    if not abelian.abelian:
        raise NotApplicable(
            f"matrix part of {group.name!r} is non-abelian (pair {abelian.witness})"
        )
    torsion = group.finite_part
    if prime_power_exponent(torsion.order, p) is None:
        raise NotApplicable(
            f"torsion subgroup has order {torsion.order}, not a power of {p}"
        )
    answer = conjugate_in_product(group, a, b)
    if answer.conjugate:
        raise AreConjugate(answer.conjugator)
    (m1, f1), (m2, f2) = a, b
    if m1 != m2:
        level = residual_depth(m1 * m2.inverse(), p)
        branch = "abelian-part"
    else:
        level = 1
        branch = "torsion-part"
    mquot, hom = congruence_quotient(group.matrix_part, p, level, max_order)
    quot = direct_product(
        mquot, torsion, name=f"({group.matrix_part.name} mod {p}^{level}) x {torsion.name}"
    )
    img_a = (hom(m1), f1)
    img_b = (hom(m2), f2)
    for img in (img_a, img_b):
        if img not in quot:
            raise ValueError("matrix coordinates lie outside the generated group")
    if prime_power_exponent(quot.order, p) is None:
        raise VerificationFailed("certificate", "quotient order is not a p-power")
    reverified = not conjugate_in_finite(quot, img_a, img_b).conjugate
    if not reverified:
        raise VerificationFailed("certificate", "images are conjugate in the quotient")
    return SeparationCertificate(
        p=p,
        level=level,
        quotient=quot,
        images=(img_a, img_b),
        nonconjugacy_reverified=True,
        branch=branch,
    )


@dataclass(frozen=True)
class TowerLevel:
    level: int
    method: str  # orbit | equal-images | identity-image | witness-conjugator | skipped
    conjugate: bool | None
    note: str = ""


@dataclass(frozen=True)
class TowerScan:
    p: int
    depth: int
    levels: tuple
    separated_at: int | None
    summary: str


def scan_tower(
    spec: MatrixGroupSpec,
    x: UTMatrix,
    y: UTMatrix,
    p: int,
    depth: int,
    witness: WitnessReport | None = None,
    max_order: int = 2048,
) -> TowerScan:
    """Scan conjugacy of the images of x and y through the congruence tower.

    Per level: equal images are conjugate by the identity; if exactly one
    image is the identity the pair is separated (the identity is conjugate
    only to itself); small quotients are decided by orbit search; on a
    witness pair the explicit conjugator decides any remaining level; other
    oversized levels are reported as skipped and the scan continues.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    strict_dim = spec.n * (spec.n - 1) // 2
    use_witness = witness is not None and {x, y} == {witness.u, witness.v}
    levels = []
    separated_at = None
    for k in range(1, depth + 1):
        rx = reduce_mod(x, p, k)
        ry = reduce_mod(y, p, k)
        if rx == ry:
            entry = TowerLevel(k, "equal-images", True)
        elif rx.is_identity() or ry.is_identity():
            entry = TowerLevel(
                k, "identity-image", False, "the identity is conjugate only to itself"
            )
        elif p ** (k * strict_dim) <= max_order:
            quot, _ = congruence_quotient(spec, p, k, max(max_order, 2))
            if rx in quot and ry in quot:
                entry = TowerLevel(k, "orbit", conjugate_in_finite(quot, rx, ry).conjugate)
            else:
                entry = TowerLevel(k, "skipped", None, "images outside the generated group")
        elif use_witness:
            verify_witness_local(spec, witness, k, bfs_cap=0)
            entry = TowerLevel(k, "witness-conjugator", True)
        else:
            entry = TowerLevel(k, "skipped", None, "size limit")
        levels.append(entry)
        if entry.conjugate is False and separated_at is None:
            separated_at = k
    if separated_at is not None:
        summary = f"separated at level {separated_at}"
    elif all(entry.conjugate for entry in levels):
        summary = f"conjugate at all {depth} levels"
    else:
        undecided = [entry.level for entry in levels if entry.conjugate is None]
        summary = f"conjugate at every decided level; undecided at {undecided}"
    return TowerScan(p=p, depth=depth, levels=tuple(levels), separated_at=separated_at, summary=summary)


def residual_depth(g: UTMatrix, p: int) -> int:
    """Least k with g nontrivial modulo p^k: one plus the least entry valuation."""
    if g.is_identity():
        raise IdentityElement("the identity is trivial in every quotient")
    return 1 + min(valuation(v, p) for _, v in g.strict_upper_items())
