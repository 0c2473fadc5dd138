"""Coset separability in small finite groups, and the quotient equivalence.

A coset bN is conjugacy separable from a probe a when some normal subgroup
H of p-power index keeps the image of a out of the conjugates of the image
coset.  Quantified over all probes and cosets this is equivalent to
conjugacy p-separability of G/N; both sides are computed here and
compared.  Each side is decided in one quotient, the largest of p-power
order, G/O^p(G): a coset is separable from a probe iff no conjugate of
the probe lies in coset*O^p(G), and G/N is conjugacy p-separable iff
O^p(G/N) is trivial, that is, iff G/N is a p-group.
"""

from conjsep import (
    CosetDecision,
    CosetQuery,
    coset_conjugacy_separable,
    enumerate_p_quotient_kernels,
    quotient_coset_equivalence,
    sym3,
)
from conjsep.selftest import default_corpus

s3 = sym3()
a3 = next(n for n in s3.normal_subgroups() if len(n) == 3)
transposition = (1, 0, 2)
three_cycle = (1, 2, 0)

print("normal subgroups of S3 with 2-power index:",
      [sorted(s3.label(x) for x in k) for k in enumerate_p_quotient_kernels(s3, 2)])
print()

for probe, nsub, note in [
    (transposition, a3, "a transposition against the coset A3"),
    (three_cycle, frozenset({s3.identity}), "a 3-cycle against the singleton {e}"),
    (three_cycle, a3, "a 3-cycle against A3 (it is already conjugate into it)"),
]:
    ans = coset_conjugacy_separable(CosetQuery(s3, nsub, s3.identity, probe, 2))
    where = ""
    if ans.decision is CosetDecision.YES:
        where = f" via the kernel of size {len(ans.kernel)}"
    print(f"{note}: {ans.decision.value}{where}")
print()

print("equivalence (every coset separable <=> quotient separable), whole corpus:")
for name, group in default_corpus():
    for p in (2, 3):
        rows = []
        for nsub in group.normal_subgroups():
            report = quotient_coset_equivalence(group, nsub, p)
            assert report.holds
            rows.append("T" if report.quotient_separable else "f")
        print(f"  {name:6s} p={p}: {''.join(rows)}  (T: both sides true, f: both false)")
