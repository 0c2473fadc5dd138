"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: brute-force searches,
naive matrix products, and sympy for determinants, so every comparison is a
genuine cross-check rather than the implementation agreeing with itself.
The lattice references keep the older per-call algorithms (a fresh Hermite
form for every membership test, a loop over exponents for the witness) on
top of the library's `hnf`, which has its own identity tests; `reference_hnf`
keeps the older way to that form, through transposed and identity matrices.
The witness report reference keeps the older two-pass `witness` command: a
loop of local checks, then a separate tower scan over the same levels.
The coset and p-separability references keep the older loops over every
p-power-index kernel's quotient, where the library asks one quotient.
The class-2 references keep the older centre vector, read entry by entry,
and the older conjugator, a product from the identity checked as
g^-1 x g == y.  `rank2_centre_spec` is a class-2 group, not an oracle, kept
here for the tests of more than one module.
"""

import itertools
import operator

import sympy

from conjsep.conjugacy import (
    ConjugacyAnswer,
    CosetAnswer,
    CosetDecision,
    conjugate_in_finite,
    enumerate_p_quotient_kernels,
)
from conjsep.groupspec import (
    MatrixGroupSpec,
    center_lattice,
    center_support,
    center_vector,
    congruence_quotient,
    element_coords,
    preset,
)
from conjsep.intlin import IntMatrix, Lattice, Membership, _carry_hnf, _transposed, hnf
from conjsep.separability import make_witness, verify_witness_global
from conjsep.unitri import UTMatrix, reduce_mod


def sympy_det(int_matrix) -> int:
    return int(sympy.Matrix(int_matrix.to_rows()).det())


def sympy_mul(a_rows, b_rows):
    return (sympy.Matrix(a_rows) * sympy.Matrix(b_rows)).tolist()


def brute_lattice_member(basis_cols, target, bound=10):
    """Search all coefficient vectors with |x_i| <= bound; None when nothing fits."""
    k = len(basis_cols)
    ambient = len(target)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        vec = tuple(
            sum(c * col[i] for c, col in zip(coeffs, basis_cols)) for i in range(ambient)
        )
        if vec == tuple(target):
            return coeffs
    return None


def brute_conjugate(group, x, y) -> bool:
    """Conjugacy by exhaustive search over all group elements."""
    return any(
        group.mul(group.inverse(g), group.mul(x, g)) == y for g in group.elements
    )


def naive_ut_mul(a_rows, b_rows):
    n = len(a_rows)
    return tuple(
        tuple(sum(a_rows[i][k] * b_rows[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _inverse_by_back_substitution(rows):
    """Inverse of unitriangular rows, column by column: x[i][j] is fixed by
    row i of u times column j of x being 0 above the diagonal."""
    n = len(rows)
    x = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            x[i][j] = -sum(rows[i][k] * x[k][j] for k in range(i + 1, j + 1))
    return tuple(map(tuple, x))


def reference_power(rows, e, mod=None):
    """rows**e for unitriangular rows by square-and-multiply over
    naive_ut_mul, after inverting by back substitution when e < 0; entries
    reduced mod `mod` when it is given."""
    n = len(rows)

    def reduce(m):
        return tuple(tuple(v % mod for v in r) for r in m) if mod else m

    if e < 0:
        rows, e = _inverse_by_back_substitution(rows), -e
    result = reduce(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))
    base = reduce(rows)
    while e:
        if e & 1:
            result = reduce(naive_ut_mul(result, base))
        base = reduce(naive_ut_mul(base, base))
        e >>= 1
    return result


def reference_closure(gens) -> tuple:
    """Elements of the group generated by residue matrices, in the order a
    breadth-first search first reaches them when it multiplies each element
    on the right by each generator in listed order, with the general product."""
    first = gens[0]
    found = [type(first).identity(first.n, first.p, first.k)]
    seen = set(found)
    for e in found:
        for s in gens:
            f = operator.mul(e, s)
            if f not in seen:
                seen.add(f)
                found.append(f)
    return tuple(found)


def _general_conjugate(group, e, s):
    return group.mul(group.inverse(s), group.mul(e, s))


def reference_classes(group) -> tuple:
    """Conjugacy classes in the order of their first elements, each the set
    reached by a breadth-first search that conjugates by every generator
    through the group's general product."""
    classes = []
    done = set()
    for x in group.elements:
        if x in done:
            continue
        found = [x]
        seen = {x}
        for e in found:
            for s in group.generators:
                f = _general_conjugate(group, e, s)
                if f not in seen:
                    seen.add(f)
                    found.append(f)
        done |= seen
        classes.append(frozenset(found))
    return tuple(classes)


def reference_conjugate(group, x, y):
    """(flag, conjugator, word) from a breadth-first search of the conjugates
    of x through the general product, generators in listed order; the
    conjugator is the product of the generators on the first path to y."""
    if x == y:
        return True, group.identity, ""
    parent = {x: None}
    queue = [x]
    for e in queue:
        for i, s in enumerate(group.generators):
            f = _general_conjugate(group, e, s)
            if f in parent:
                continue
            parent[f] = (e, i)
            if f == y:
                path = []
                while parent[f] is not None:
                    f, i = parent[f]
                    path.append(group.generators[i])
                path.reverse()
                g = group.identity
                for s in path:
                    g = group.mul(g, s)
                return True, g, "*".join(map(group.label, path))
            queue.append(f)
    return False, None, ""


def reference_separate_from_coset(group, coset, probe, p) -> CosetAnswer:
    """The coset-separability answer by the older kernel loop: after the
    vacuous test, the quotient by every p-power-index kernel, smallest first,
    the trivial one included, until one keeps the class of the probe off the
    coset."""
    if not group.class_of(probe).isdisjoint(coset):
        return CosetAnswer(CosetDecision.VACUOUS)
    for kernel in enumerate_p_quotient_kernels(group, p):
        quot, hom = group.quotient(kernel)
        if all(k_coset.isdisjoint(coset) for k_coset in quot.class_of(hom(probe))):
            return CosetAnswer(CosetDecision.YES, kernel)
    return CosetAnswer(CosetDecision.NO)


def reference_is_conjugacy_p_separable(group, p):
    """Conjugacy p-separability by the older exhaustive loop: every pair of
    non-conjugate elements, in listing order, against the quotient by every
    p-power-index kernel.  (True, None), or (False, (x, y)) with the first
    pair that no quotient separates."""
    quotients = [group.quotient(k) for k in enumerate_p_quotient_kernels(group, p)]
    for i, x in enumerate(group.elements):
        x_class = group.class_of(x)
        for y in group.elements[i + 1 :]:
            if y in x_class:
                continue
            if not any(hom(y) not in quot.class_of(hom(x)) for quot, hom in quotients):
                return False, (x, y)
    return True, None


def naive_normal(group, subset) -> bool:
    """Contains the identity, closed under products and under conjugation by
    every element of the group."""
    sub = frozenset(subset)
    if group.identity not in sub:
        return False
    if any(group.mul(x, y) not in sub for x in sub for y in sub):
        return False
    return all(
        group.mul(group.inverse(g), group.mul(x, g)) in sub
        for g in group.elements
        for x in sub
    )


class CayleyTable:
    """A group on the positions 0..n-1 of group.elements, multiplied through
    its full multiplication table, which the general product fills once, so
    that naive_normal on a group of a few hundred elements takes table
    lookups rather than millions of general products."""

    def __init__(self, group):
        self.position = {e: i for i, e in enumerate(group.elements)}
        self.table = [
            [self.position[group.mul(x, y)] for y in group.elements] for x in group.elements
        ]
        self.elements = range(len(self.table))
        self.identity = self.position[group.identity]
        self._inverses = [row.index(self.identity) for row in self.table]

    def mul(self, x, y):
        return self.table[x][y]

    def inverse(self, x):
        return self._inverses[x]

    def positions(self, subset) -> frozenset:
        return frozenset(self.position[e] for e in subset)


def naive_subgroup(group, subset) -> bool:
    """Contains the identity and the product of every pair of its elements."""
    sub = frozenset(subset)
    return group.identity in sub and all(group.mul(x, y) in sub for x in sub for y in sub)


def naive_closure(group, seed) -> frozenset:
    """The subgroup generated by seed: multiply by seed elements until nothing
    new appears (in a finite group, inverses are positive powers)."""
    seed = tuple(seed)
    sub = {group.identity}
    frontier = {group.identity}
    while frontier:
        frontier = {group.mul(h, s) for h in frontier for s in seed} - sub
        sub |= frontier
    return frozenset(sub)


def reference_normal_subgroups(group) -> tuple:
    """Normal subgroups by the older search: from each normal subgroup found,
    close it together with the class of every element outside it.  Classes
    come from brute-force conjugation, closures from naive_closure; the order
    is by size, then by the sorted element positions in group.elements."""
    position = {e: i for i, e in enumerate(group.elements)}
    class_of = {
        x: frozenset(group.mul(group.inverse(g), group.mul(x, g)) for g in group.elements)
        for x in group.elements
    }
    closures = {}
    triv = frozenset({group.identity})
    found = {triv}
    queue = [triv]
    while queue:
        current = queue.pop()
        for x in group.elements:
            if x in current:
                continue
            seed = current | class_of[x]
            if seed not in closures:
                closures[seed] = naive_closure(group, seed)
            joined = closures[seed]
            if joined not in found:
                found.add(joined)
                queue.append(joined)
    return tuple(sorted(found, key=lambda sub: (len(sub), sorted(position[e] for e in sub))))


def reference_hnf(a):
    """(H, U) of `hnf`, taken as the row form of the transpose of A with an
    identity matrix carried along, both transposed back."""
    h_t, u_t = _carry_hnf(a.transpose().to_rows(), a.rows, IntMatrix.identity(a.cols).to_rows())
    return (
        IntMatrix(a.rows, a.cols, [x for r in _transposed(h_t, a.rows) for x in r]),
        IntMatrix(a.cols, a.cols, [x for r in _transposed(u_t, a.cols) for x in r]),
    )


def reference_echelon(lattice) -> tuple:
    """(canonical basis, pivot rows, transform rows) of a lattice, read from
    `reference_hnf` column by column and row by row."""
    h, u = reference_hnf(lattice.matrix())
    cols = tuple(col for col in map(h.col, range(h.cols)) if any(col))
    pivots = tuple(next(i for i, e in enumerate(col) if e) for col in cols)
    return cols, pivots, tuple(u.row(k)[: len(cols)] for k in range(u.rows))


def reference_canonical_basis(lattice) -> tuple:
    """Nonzero columns of the column Hermite form of the generators."""
    if not lattice.basis:
        return ()
    h, _ = hnf(lattice.matrix())
    return tuple(col for col in map(h.col, range(h.cols)) if any(col))


def reference_contains(lattice, v) -> Membership:
    """Membership by the per-call algorithm: a fresh Hermite form of the
    generators on every call, back substitution row by row down the pivots,
    then the transform maps the solution back to the generators."""
    v = tuple(v)
    if not lattice.basis:
        return Membership(True, ()) if not any(v) else Membership(False)
    h, u = hnf(lattice.matrix())
    pivots = []
    for j in range(h.cols):
        nz = next((i for i, e in enumerate(h.col(j)) if e), None)
        if nz is not None:
            pivots.append((nz, j))
    y = [0] * h.cols
    resid = list(v)
    pi = 0
    for i in range(lattice.ambient_rank):
        if pi < len(pivots) and pivots[pi][0] == i:
            _, pcol = pivots[pi]
            piv = h.at(i, pcol)
            if resid[i] % piv:
                return Membership(False)
            q = resid[i] // piv
            for r2 in range(i, lattice.ambient_rank):
                resid[r2] -= q * h.at(r2, pcol)
            y[pcol] = q
            pi += 1
        elif resid[i]:
            return Membership(False)
    return Membership(True, u.apply(y))


def reference_center_vector(spec, u):
    """The entries of u at the centre support, or None when some nonzero
    strictly-upper entry of u lies off the support: each position looked up."""
    support = center_support(spec)
    if any(pos not in support for pos, _ in u.strict_upper_items()):
        return None
    return tuple(u[pos] for pos in support)


def reference_class2_conjugate(spec, x, y) -> ConjugacyAnswer:
    """`class2_conjugate` on a pair of a verified class-2 group, the older
    way: commutators and x^-1 y as plain products, membership by
    `reference_contains`, and the conjugator built from the identity,
    generator power by generator power, and checked as g^-1 x g == y."""
    vecs = [reference_center_vector(spec, x.inverse() * g.inverse() * x * g)
            for g in spec.generators]
    d = x.inverse() * y
    if d.is_identity():
        return ConjugacyAnswer(True, UTMatrix.identity(spec.n), "class2-lattice", "")
    d_vec = reference_center_vector(spec, d)
    hit = None if d_vec is None else reference_contains(Lattice(len(d_vec), vecs), d_vec)
    if hit is None or not hit.member:
        return ConjugacyAnswer(False, method="class2-lattice")
    g, word = UTMatrix.identity(spec.n), []
    for name, gen, e in zip(spec.gen_names, spec.generators, hit.coefficients):
        if e:
            g = g * gen**e
            word.append(name if e == 1 else f"{name}^{e}")
    assert g.inverse() * x * g == y
    return ConjugacyAnswer(True, g, "class2-lattice", "*".join(word))


def rank2_centre_spec():
    """<x12, x23, x24> in UT(4): class 2 with centre <x13, x14>, where the
    commutators of x = x12^a x23^b x24^c span (a, 0), (0, a) and (b, c), a
    lattice that is not diagonal."""
    basis = (("x12", (0, 1)), ("x23", (1, 2)), ("x24", (1, 3)), ("x13", (0, 2)), ("x14", (0, 3)))
    table = {name: UTMatrix.from_entries(4, {pos: 1}) for name, pos in basis}
    return MatrixGroupSpec(
        name="ut4-rank2-centre",
        n=4,
        generators=tuple(table[nm] for nm in ("x12", "x23", "x24")),
        gen_names=("x12", "x23", "x24"),
        center_gens=(table["x13"], table["x14"]),
        center_names=("x13", "x14"),
        z2_rep=table["x12"],
        z2_name="x12",
        declared_class=2,
        malcev_basis=tuple((nm, table[nm]) for nm, _ in basis),
    )


def reference_witness_exponent(z1, c_vec, q) -> int:
    """Least n such that c has no q^n-th root in z1, by trying n = 1, 2, ...
    against membership of c in the scaled lattice q^n * z1, up to one past
    the largest q-adic valuation of a coordinate of c."""

    def val(x):
        e = 0
        while x % q == 0:
            x //= q
            e += 1
        return e

    bound = max(val(x) for x in c_vec if x) + 1
    for n in range(1, bound + 1):
        scaled = Lattice(z1.ambient_rank, [[q**n * x for x in col] for col in z1.basis])
        if not reference_contains(scaled, c_vec).member:
            return n
    raise AssertionError("no failing exponent within the valuation bound")


def _view(spec, u) -> dict:
    coords = element_coords(spec, u)
    view = {"matrix": [list(r) for r in u.rows]}
    if coords is not None:
        view["coords"] = list(coords)
    return view


def reference_witness_report(name, p, depth, cap) -> dict:
    """The `witness --preset name --json` report without `timing_ms`, built in
    two passes: the explicit conjugator b^k at every level, cross-checked by
    orbit search where p^(m*n(n-1)/2) <= cap, and then a tower scan that
    decides each level again (equal images, orbit search under the same gate,
    or the explicit conjugator).  Raises AssertionError on a failed check."""
    spec = preset(name).matrix_part
    w = make_witness(spec, p)
    strict_dim = spec.n * (spec.n - 1) // 2
    checks = [(f"global:{check}", True) for check in verify_witness_global(spec, w).checks]
    local_checks = []
    for m in range(1, depth + 1):
        k = w.conjugator_exponent(m)
        conj = w.b**k
        assert reduce_mod(conj.inverse() * w.u * conj, p, m) == reduce_mod(w.v, p, m)
        orbit_checked = p ** (m * strict_dim) <= cap
        if orbit_checked:
            quot, hom = congruence_quotient(spec, p, m, max(cap, 2))
            x, y = hom(w.u), hom(w.v)
            assert x in quot and y in quot
            assert conjugate_in_finite(quot, x, y).conjugate
        checks.append((f"local:m={m}", True))
        local_checks.append({"m": m, "k": k, "conjugator": f"{w.b_name}^{k}",
                             "orbit_checked": orbit_checked})
    levels = []
    for m in range(1, depth + 1):
        rx, ry = reduce_mod(w.u, p, m), reduce_mod(w.v, p, m)
        if rx == ry:
            method = "equal-images"
        elif p ** (m * strict_dim) <= cap:
            quot, _ = congruence_quotient(spec, p, m, max(cap, 2))
            assert conjugate_in_finite(quot, rx, ry).conjugate
            method = "orbit"
        else:
            k = w.conjugator_exponent(m)
            assert reduce_mod(w.b**-k * w.u * w.b**k, p, m) == ry
            method = "witness-conjugator"
        levels.append({"level": m, "method": method, "conjugate": True})
    result = {
        "group": spec.name, "p": p, "q": w.q, "n": w.n, "b": w.b_name,
        "a": _view(spec, w.a), "c": _view(spec, w.c),
        "u": _view(spec, w.u), "v": _view(spec, w.v),
        "divisibility": {
            "exponent": w.q**w.n,
            "c_vector": list(center_vector(spec, w.c)),
            "scaled_basis": [list(col) for col in
                             center_lattice(spec).scale(w.q**w.n).canonical().basis],
        },
        "local_checks": local_checks,
        "tower": {"summary": f"conjugate at all {depth} levels", "levels": levels},
    }
    return {
        "command": "witness",
        "inputs": {"source": name, "p": p, "K": depth, "max_order": cap},
        "result": result,
        "checks": [{"name": check, "pass": ok} for check, ok in checks],
    }
