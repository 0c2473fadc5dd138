"""Build the inseparability witness for the Heisenberg group at p = 2.

The group is torsion-free and nilpotent of class 2, so it is residually a
finite p-group for every prime p; yet it is not conjugacy separable in that
class.  The witness is a concrete pair: u = a^(q^n) and v = u*c, where
c = [a, b] is central.  The pair is non-conjugate in the group (c has no
q^n-th root in the centre), but in every congruence quotient mod p^m the
element b^k with k = (q^n)^(-1) mod p^m conjugates u to v.
"""

from conjsep import (
    class2_conjugate,
    conjugate_in_finite,
    congruence_quotient,
    element_coords,
    heisenberg_spec,
    make_witness,
    verify_witness_global,
    verify_witness_local,
)

spec = heisenberg_spec()
p = 2
w = make_witness(spec, p)

print(f"group: {spec.name}, p = {p}")
print(f"a = {element_coords(spec, w.a)}  (second-centre representative)")
print(f"b = {w.b_name}, c = [a,b] = {element_coords(spec, w.c)}")
print(f"q = {w.q} (smallest prime other than {p}), n = {w.n}")
print(f"u = a^{w.q**w.n} = {element_coords(spec, w.u)}")
print(f"v = u*c     = {element_coords(spec, w.v)}")
print()

glob = verify_witness_global(spec, w)
print("globally non-conjugate, checked two independent ways:", ", ".join(glob.checks))
ans = class2_conjugate(spec, w.u, w.v)
print(f"  class-2 lattice criterion says conjugate = {ans.conjugate}")
print(f"  (x^-1 y = c, and [u, G] is the lattice {w.q**w.n}Z inside the centre)")
print()

print("yet conjugate in every finite p-quotient:")
for m in range(1, 7):
    loc = verify_witness_local(spec, w, m, bfs_cap=1024)
    quot, hom = congruence_quotient(spec, p, m, 10**6) if m <= 3 else (None, None)
    orbit = ""
    if quot is not None:
        bfs = conjugate_in_finite(quot, hom(w.u), hom(w.v))
        orbit = f"; orbit search in the order-{quot.order} quotient agrees (word {bfs.word})"
    print(f"  mod {p}^{m}: {w.b_name}^{loc.k} conjugates u to v{orbit}")

print()
print("the conjugator exponent k solves q^n * k = 1 mod p^m;")
print("reading the table:", {m: w.conjugator_exponent(m) for m in range(1, 9)})
