"""The benchmark's layer tracer must still find every name it wraps.

``bench/tracing.py`` patches the public functions, methods and matrix
products of each conjsep module by name; a rename or deletion in ``src``
would break ``bench/run.py --trace 1``.  This test installs the tracer,
runs one traced call, and checks that uninstalling restores every binding.
A second traced run checks that products and inverses of each unitriangular
kind count under that kind's name, and a third pins the lattice counters: each
lattice reduces its generators once, by the module-level `hnf` that the tracer
counts, and the witness exponent needs no power-solvability test.
"""

import importlib.util
from pathlib import Path

from conjsep import cli, conjugacy, finite, groupspec, intlin, separability, unitri
from conjsep.groupspec import coords_to_element

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("conjsep_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
               (cli, conjugacy, finite, groupspec, intlin, separability, unitri)}

    def bindings():
        found = {}
        for mod_name, cls_name, attr, *_ in tracing.SPANS + tracing.PRODUCTS:
            owner = modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            found[(mod_name, cls_name, attr)] = vars(owner)[attr]
        return found

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = bindings()
        assert all(patched[key] is not before[key] for key in before)
        heis = groupspec.heisenberg_spec()
        group = finite.finite_closure([unitri.reduce_mod(g, 2, 1) for g in heis.generators])
        a, b = group.generators
        answer = conjugacy.conjugate_in_finite(group, a, b.inverse() * a * b)
        assert answer.conjugate
        assert tracer.count["finite.closure.calls"] == 1
        assert tracer.count["conjugacy.orbit.calls"] == 1
        assert tracer.count["unitri.residue_mul.count"] > 0
        # The orbit steps on flat points; its only residue products are the
        # conjugator's re-check: one per path generator, then g^-1 * (x * g).
        recheck = len(answer.word.split("*")) + 2
        assert tracer.count["conjugacy.orbit.products"] == recheck
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_traced_products_per_kind():
    """Each kind's products and inverses are counted under its own name."""
    tracing = load_tracing()
    u = unitri.UTMatrix.from_entries(3, {(0, 1): 2, (1, 2): -1})
    r = unitri.reduce_mod(u, 3, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        u * u * u * u
        r * r * r
        u.inverse()
        r.inverse()
    finally:
        tracer.uninstall()
    assert tracer.count["unitri.ut_mul.count"] == 3
    assert tracer.count["unitri.residue_mul.count"] == 2
    assert [span[0] for span in tracer.spans] == ["unitri.ut_inverse", "unitri.residue_inverse"]


def test_traced_lattice_counters():
    tracing = load_tracing()
    groupspec.center_lattice.cache_clear()  # so that its Hermite form is built here
    tracer = tracing.Tracer()
    tracer.install()
    try:
        heis = groupspec.heisenberg_spec()
        witness = separability.make_witness(heis, 2)
        assert separability.verify_witness_global(heis, witness).passed
        for t in range(20):
            x = coords_to_element(heis, (t + 1, 2 * t - 3, t))
            y = coords_to_element(heis, (t + 1, 2 * t - 3, t + t % 4))
            conjugacy.class2_conjugate(heis, x, y)
        metrics = tracer.metrics(queries=22, overhead_ratio=0.0)
    finally:
        tracer.uninstall()
    # One coefficient-bearing `contains` per class-2 query whose x^-1 y is a
    # non-trivial central element: the witness pair and the 15 pairs with
    # t % 4 != 0.  Membership in the centre lattice reads no coefficients.
    assert metrics["intlin.lattice_contains.calls"]["value"] == 16
    # Each of those asks a fresh commutator lattice, which builds its Hermite
    # form inside `contains`; the centre lattice builds its own once.
    assert metrics["intlin.hnf.calls"]["value"] == 17
    assert metrics["intlin.hnf_per_contains"]["value"] == 1
    assert metrics["intlin.power_solvable.calls"]["value"] == 1
