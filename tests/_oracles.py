"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: brute-force searches,
naive matrix products, and sympy for determinants, so every comparison is a
genuine cross-check rather than the implementation agreeing with itself.
"""

import itertools

import sympy


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
