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

from collections import namedtuple

from .conjugacy import (
    Class2Tower,
    class2_conjugate,
    class2_tower,
    conjugate_in_finite,
    conjugate_in_product,
)
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
    element_coords,
    is_abelian,
    torsion_subgroup,
    verify_spec,
)
from .intlin import (
    mod_inverse,
    power_solvable,
    prime_power_exponent,
    require_prime,
    smallest_prime_excluding,
    valuation,
)
from .unitri import UTMatrix, commutator, reduce_mod

# Default orbit-search gate: a level mod p^k is searched when all of UT(n) mod
# p^k has at most this order (`verify_witness_local`, `scan_tower`, the CLI).
ORBIT_CAP = 2048


class SeparabilityVerdict(namedtuple(
    "SeparabilityVerdict",
    "p torsion_order torsion_exponent torsion_is_p_group quotient_abelian"
    " abelian_witness separable reason",
)):
    """The two clauses of the criterion, with evidence for any failure."""

    __slots__ = ()


def classify(group: ProductGroupSpec, p: int) -> SeparabilityVerdict:
    """Conjugacy separability in finite p-groups, decided by the criterion.

    Separable iff the torsion subgroup is a p-group and the group modulo
    torsion (here: the matrix part) is abelian.  ValueError when p is not
    prime.
    """
    require_prime(p)
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


class DivisibilityCertificate(namedtuple(
    "DivisibilityCertificate", "exponent c_vector scaled_basis"
)):
    """Failed lattice membership: c has no exponent-th root in the centre."""

    __slots__ = ()


class WitnessReport(namedtuple(
    "WitnessReport",
    "p a b b_name c q n u v divisibility",
)):
    """A pair (u, v) = (a^(q^n), a^(q^n) c), non-conjugate globally but
    conjugate in every finite p-quotient."""

    __slots__ = ()

    def conjugator_exponent(self, m: int) -> int:
        """k with q^n * k = 1 mod p^m, so b^k conjugates u to v modulo p^m."""
        return mod_inverse(self.q**self.n, self.p**m)


def _least_rootless_exponent(z1, c_vec, q: int) -> int:
    """The least n with no q^n-th root of c in z1: c = sum y_j h_j over z1's
    canonical basis (uniquely) has one iff q^n divides every y_j.  The
    identity, with every root, gets n = 1, which the root check refuses."""
    return 1 + min((valuation(x, q) for x in z1.coordinates(c_vec) if x), default=0)


def make_witness(spec: MatrixGroupSpec, p: int) -> WitnessReport:
    """Construct the inseparability witness pair for a non-abelian group.

    Deterministic choices: a is the declared second-centre representative,
    b the first generator whose commutator with a is nontrivial, q the
    smallest prime other than p (3 for p = 2, else 2), and n the least
    exponent for which c has no q^n-th root in the centre; these q and n
    are the only ones `verify_witness_global` accepts.  ValueError when p
    is not prime.
    """
    require_prime(p)
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
    n = _least_rootless_exponent(z1, c_vec, q)
    e = q**n
    u = a**e
    v = u * c
    cert = DivisibilityCertificate(
        exponent=e,
        c_vector=c_vec,
        scaled_basis=z1.canonical().scale(e).basis,
    )
    return WitnessReport(
        p=p, a=a, b=b, b_name=b_name, c=c, q=q, n=n, u=u, v=v, divisibility=cert,
    )


class GlobalVerification(namedtuple("GlobalVerification", "passed checks")):
    __slots__ = ()


def verify_witness_global(spec: MatrixGroupSpec, witness: WitnessReport) -> GlobalVerification:
    """Confirm non-conjugacy of (u, v) in the full group, two independent ways.

    First the divisibility certificate is recomputed: n must be
    `make_witness`'s least exponent, checked before q^n is computed, each
    of the three fields must equal the value rebuilt from the spec and c,
    and c must have no q^n-th root in the centre lattice.  Then, when the
    declared class is at most 2, the commutator-lattice criterion must
    independently answer non-conjugate.  Finally the report's internal
    structure is re-checked, q = `smallest_prime_excluding(p)` included.
    Raises VerificationFailed naming the first broken check.
    """
    checks = []
    z1 = center_lattice(spec)
    c_vec = center_vector(spec, witness.c)
    if c_vec is None or c_vec not in z1:
        raise VerificationFailed("divisibility", "c lies outside the declared centre")
    if witness.q < 2 or witness.n != _least_rootless_exponent(z1, c_vec, witness.q):
        raise VerificationFailed("divisibility", f"n={witness.n} is not the least exponent")
    e = witness.q**witness.n
    cert = witness.divisibility
    for field, stored, recomputed in (
        ("exponent", cert.exponent, e),
        ("c_vector", cert.c_vector, c_vec),
        ("scaled_basis", cert.scaled_basis, z1.canonical().scale(e).basis),
    ):
        if stored != recomputed:
            raise VerificationFailed(
                "divisibility", f"certificate {field} {stored!r} is not {recomputed!r}"
            )
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
        (witness.q == smallest_prime_excluding(witness.p),
         "q is not the least prime other than p"),
        (witness.b in spec.generators, "b is not a listed generator"),
    ]
    for good, msg in structure:
        if not good:
            raise VerificationFailed("structure", msg)
    checks.append("structure")
    return GlobalVerification(True, tuple(checks))


class LocalCheck(namedtuple("LocalCheck", "m k conjugator bfs_checked")):
    """Outcome of the explicit-conjugator check at one level."""

    __slots__ = ()


def _ut_order(n: int, p: int, k: int) -> int:
    """The order of UT(n) mod p^k, which bounds every congruence quotient there."""
    return p ** (k * n * (n - 1) // 2)


def _search(quot: FiniteGroup, x, y):
    """The orbit search for x and y in quot, or None when either lies
    outside it, which `conjugate_in_finite` tells by KeyError."""
    try:
        return conjugate_in_finite(quot, x, y)
    except KeyError:
        return None


def _orbit_quotient(spec: MatrixGroupSpec, p: int, k: int, cap: int) -> FiniteGroup | None:
    """The congruence quotient mod p^k when all of UT(n) mod p^k has order at
    most cap, so that orbit search there is affordable; None otherwise."""
    if _ut_order(spec.n, p, k) > cap:
        return None
    return congruence_quotient(spec, p, k, max(cap, 2))[0]


def verify_witness_local(
    spec: MatrixGroupSpec,
    witness: WitnessReport,
    m: int,
    bfs_cap: int = ORBIT_CAP,
) -> LocalCheck:
    """Check that b^k conjugates u to v modulo p^m, with k = (q^n)^-1 mod p^m.

    The identity b^-k u b^k = u * c^(q^n k) holds exactly in the group.  A
    verified spec puts c in the centre span, where c = I + M with M^2 = 0, so
    c^t = I + t*M and q^n k = 1 mod p^m makes the right-hand side v mod p^m.
    It is checked as u b^k = b^k v on the images mod p^m, each reduced once,
    and any mismatch raises LocalCheckFailed.  When all of UT(n) mod p^m has
    order at most bfs_cap, an independent orbit search in the congruence
    quotient cross-checks it; images of u and v outside that quotient raise
    LocalCheckFailed too.  `scan_tower` on a witness pair makes one such
    call per level, with bfs_cap 0 where a conjugator of its own orbit
    search at a higher level stands in for that search.
    """
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    p = witness.p
    k = witness.conjugator_exponent(m)
    conj = witness.b**k
    g, x, y = reduce_mod(conj, p, m), reduce_mod(witness.u, p, m), reduce_mod(witness.v, p, m)
    if x * g != g * y:
        raise LocalCheckFailed(f"explicit conjugator fails at level {m}")
    quot = _orbit_quotient(spec, p, m, bfs_cap)
    if quot is not None:
        answer = _search(quot, x, y)
        if answer is None:
            raise LocalCheckFailed(f"witness images lie outside the generated group at level {m}")
        if not answer.conjugate:
            raise LocalCheckFailed(f"orbit search contradicts the conjugator at level {m}")
    return LocalCheck(m=m, k=k, conjugator=conj, bfs_checked=quot is not None)


class SeparationCertificate(namedtuple(
    "SeparationCertificate", "p level quotient images branch"
)):
    """A finite p-quotient in which the two images stay non-conjugate."""

    __slots__ = ()


def separate_elements(
    group: ProductGroupSpec, a, b, p: int, max_order: int = 10**6
) -> SeparationCertificate:
    """Produce a separating finite p-quotient for a non-conjugate pair.

    Requires an abelian matrix part and a finite part that is a p-group.
    When the matrix coordinates differ, the least level at which they differ
    modulo p^level gives the quotient ("abelian-part" branch); when they
    agree, level 1 already embeds the finite part, whose conjugacy the kernel
    cannot disturb ("torsion-part" branch).  The certificate is re-verified
    by an independent orbit search in the quotient, which needs its order and
    membership but not its element list.

    Raises ValueError when p is not prime, NotApplicable when the hypotheses
    fail and AreConjugate (carrying a verified conjugator) when the pair is
    conjugate.
    """
    require_prime(p)
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
    search = _search(quot, img_a, img_b)
    if search is None:
        raise ValueError("matrix coordinates lie outside the generated group")
    if prime_power_exponent(quot.order, p) is None:
        raise VerificationFailed("certificate", "quotient order is not a p-power")
    if search.conjugate:
        raise VerificationFailed("certificate", "images are conjugate in the quotient")
    return SeparationCertificate(
        p=p,
        level=level,
        quotient=quot,
        images=(img_a, img_b),
        branch=branch,
    )


# method: orbit | equal-images | identity-image | separated-below |
# witness-conjugator | class2-smith (over the cap, class <= 2) | skipped (over
# the cap, class >= 3 or inputs not shown to lie in G; or images outside the
# quotient).  check: the level's witness check, on a witness pair.
class TowerLevel(namedtuple(
    "TowerLevel", "level method conjugate note check", defaults=("", None)
)):
    __slots__ = ()


class TowerScan(namedtuple("TowerScan", "p depth levels separated_at summary")):
    __slots__ = ()


def _top_search(spec, images, p: int, cap: int):
    """(T, answer) for the images mod p^k at levels k = 1, 2, ...: T is the
    highest level at which all of UT(n) mod p^T has order at most cap, 0 if
    none, and answer is the orbit search there, or None unless the images at
    T differ, neither is the identity and both lie in the quotient."""
    top = 0
    while top < len(images) and _ut_order(spec.n, p, top + 1) <= cap:
        top += 1
    if not top:
        return top, None
    rx, ry = images[top - 1]
    if rx == ry or rx.is_identity() or ry.is_identity():
        return top, None
    return top, _search(_orbit_quotient(spec, p, top, cap), rx, ry)


def _over_cap_tower(spec, x, y, p: int, depth: int) -> tuple:
    """(tower, note) for the levels over the orbit cap that the scan cannot
    decide otherwise.  tower is `class2_tower` of x and y to the depth,
    which checks each of its verdicts, or None with the note of why those
    levels stay skipped: a spec of class 3 or more (note ""), or an input
    that does not sift along the spec's Mal'cev basis, which leaves its
    membership in G undecided.  A conjugator needs no trust in the spec, but
    a separation within the depth rests on the spec's declared centre, so
    the spec is verified then (SpecRejected).
    """
    if spec.declared_class > 2:
        return None, ""
    if element_coords(spec, x) is None or element_coords(spec, y) is None:
        return None, "; no class-2 verdict: x and y are not both shown to lie in the group"
    tower = class2_tower(spec, x, y, p, depth)
    if tower.level is not None:
        verify_spec(spec)
    return tower, ""


def _smith_entry(tower: Class2Tower, k: int) -> TowerLevel:
    """Level k as the tower decides it; a separated level's note names its
    `Class2Tower.separator`."""
    if tower.level is None or k < tower.level:
        return TowerLevel(k, "class2-smith", True)
    kind, what = tower.separator
    mod = f"mod {tower.p}^{k}"
    if kind == "entry":
        note = f"x^-1 y has entry {what} nonzero {mod}, off the centre"
    else:
        note = f"functional {list(what)} vanishes on the commutator lattice {mod}, not on x^-1 y"
    return TowerLevel(k, "class2-smith", False, note)


def scan_tower(
    spec: MatrixGroupSpec,
    x: UTMatrix,
    y: UTMatrix,
    p: int,
    depth: int,
    witness: WitnessReport | None = None,
    max_order: int = ORBIT_CAP,
) -> TowerScan:
    """Scan conjugacy of the images of x and y through the congruence tower.

    Each level is a quotient of the next: a conjugator mod p^T reduces to
    one at every lower level, and a pair separated at level j stays
    separated above it.  So the highest level T within the cap is searched
    first (`_top_search`).  If it finds a conjugator g, which the search
    has verified, each lower level is one comparison x*g == g*y mod p^k
    ("orbit"; a mismatch raises LocalCheckFailed).  Otherwise levels are
    searched from 1 up, reusing T's answer at T, and every level above the
    first separated one, under the cap or over it, is "separated-below".
    No level is searched that a search of every level under the cap would
    skip.

    Equal images (conjugate) and exactly one identity image (separated: the
    identity is conjugate only to itself) are tested first at every level.
    The other levels over the cap of a spec that declares class <= 2 are
    "class2-smith": one Smith form (`class2_tower`, which checks each of
    its verdicts), taken when the scan first reaches such a level, decides
    them all, and a level it decides otherwise than the scan's own
    verdicts raises LocalCheckFailed.  Such a level is skipped, with its
    size against the cap, in class 3 or more, or when x or y does not sift
    along the spec's Mal'cev basis and so is not shown to lie in G.
    On a witness pair ({x, y} == {u, v} and the witness's own prime p) each
    level is conjugate, checked by `verify_witness_local`, which raises
    LocalCheckFailed at the least failing level and is kept as the level's
    `check`.  Where g covers the level, the check runs with bfs_cap 0 and
    the comparison is its orbit cross-check; elsewhere it runs with
    bfs_cap=max_order and searches the level itself.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    use_witness = witness is not None and witness.p == p and {x, y} == {witness.u, witness.v}
    if use_witness:  # the witness's conjugator, and g below, take u to v
        x, y = witness.u, witness.v
    images = [(reduce_mod(x, p, k), reduce_mod(y, p, k)) for k in range(1, depth + 1)]
    top, answer = _top_search(spec, images, p, max_order)
    conjugator = answer.conjugator if answer is not None and answer.conjugate else None
    levels = []
    separated_at = smith = None
    for k, (rx, ry) in enumerate(images, 1):
        covered = conjugator is not None and k <= top
        check = None
        if use_witness:
            check = verify_witness_local(spec, witness, k, bfs_cap=0 if covered else max_order)
        if covered and k < top and rx != ry:
            g = reduce_mod(conjugator, p, k)
            if rx * g != g * ry:
                raise LocalCheckFailed(f"the level-{top} orbit conjugator fails at level {k}")
        if covered and check is not None:
            check = check._replace(bfs_checked=True)
        if rx == ry:
            entry = TowerLevel(k, "equal-images", True, check=check)
        elif check is not None:
            method = "orbit" if check.bfs_checked else "witness-conjugator"
            entry = TowerLevel(k, method, True, check=check)
        elif covered:
            entry = TowerLevel(k, "orbit", True)
        elif rx.is_identity() or ry.is_identity():
            entry = TowerLevel(
                k, "identity-image", False, "the identity is conjugate only to itself"
            )
        elif separated_at is not None:
            entry = TowerLevel(k, "separated-below", False, f"separated at level {separated_at}")
        elif k == top and answer is not None:
            entry = TowerLevel(k, "orbit", answer.conjugate)
        elif (quot := _orbit_quotient(spec, p, k, max_order)) is None:
            if smith is None:
                smith = _over_cap_tower(spec, x, y, p, depth)
            tower, why = smith
            if tower is not None:
                entry = _smith_entry(tower, k)
            else:
                size = f"UT({spec.n}) mod {p}^{k} has {_ut_order(spec.n, p, k)} elements"
                entry = TowerLevel(k, "skipped", None, f"size limit: {size} > cap {max_order}{why}")
        elif (found := _search(quot, rx, ry)) is not None:
            entry = TowerLevel(k, "orbit", found.conjugate)
        else:
            entry = TowerLevel(k, "skipped", None, "images outside the generated group")
        levels.append(entry)
        if entry.conjugate is False and separated_at is None:
            separated_at = k
    tower = smith[0] if smith else None
    if tower is not None:
        for entry in levels:
            smith_says = tower.level is None or entry.level < tower.level
            if entry.conjugate is not None and entry.conjugate != smith_says:
                raise LocalCheckFailed(
                    f"the Smith form and the scan disagree at level {entry.level}"
                )
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
