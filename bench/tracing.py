"""Outside-in tracing of conjsep's layers.

The traced run replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent span, query id) in
memory.  Matrix products are too frequent for a span each: they are only
counted and timed in aggregate, and their time is charged to the unitri
layer and taken out of the enclosing span's self time.

Functions are patched at every module binding inside the package (the
modules import one another by name), and in module-level dicts that hold
them; methods are patched on their class.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, owner class or None, attribute, span name); the span name starts
# with its layer, and names the per-layer metrics below.
SPANS = (
    ("unitri", None, "reduce_mod", "unitri.reduce_mod"),
    ("unitri", None, "commutator", "unitri.commutator"),
    ("unitri", None, "residue_order_exponent", "unitri.residue_order_exponent"),
    ("unitri", "UTMatrix", "inverse", "unitri.ut_inverse"),
    ("unitri", "UTMatrix", "__pow__", "unitri.ut_pow"),
    ("unitri", "ResidueUT", "inverse", "unitri.residue_inverse"),
    ("unitri", "ResidueUT", "__pow__", "unitri.residue_pow"),
    ("intlin", None, "hnf", "intlin.hnf"),
    ("intlin", None, "snf", "intlin.snf"),
    ("intlin", None, "det", "intlin.det"),
    ("intlin", None, "power_solvable", "intlin.power_solvable"),
    ("intlin", None, "mod_inverse", "intlin.mod_inverse"),
    ("intlin", None, "valuation", "intlin.valuation"),
    ("intlin", None, "prime_power_exponent", "intlin.prime_power_exponent"),
    ("intlin", None, "smallest_prime_excluding", "intlin.smallest_prime_excluding"),
    ("intlin", None, "is_prime", "intlin.is_prime"),
    ("intlin", None, "lattice_contains", "intlin.lattice_contains_alias"),
    ("intlin", "Lattice", "contains", "intlin.lattice_contains"),
    ("intlin", "Lattice", "canonical", "intlin.canonical"),
    ("intlin", "Lattice", "scale", "intlin.scale"),
    ("finite", None, "finite_closure", "finite.closure"),
    ("finite", None, "direct_product", "finite.direct_product"),
    ("finite", None, "finite_preset", "finite.finite_preset"),
    ("finite", None, "cyclic", "finite.cyclic"),
    ("finite", None, "sym3", "finite.sym3"),
    ("finite", None, "dihedral4", "finite.dihedral4"),
    ("finite", None, "quaternion8", "finite.quaternion8"),
    ("finite", "FiniteGroup", "conjugacy_classes", "finite.classes"),
    ("finite", "FiniteGroup", "class_of", "finite.class_of"),
    ("finite", "FiniteGroup", "subgroup_closure", "finite.subgroup_closure"),
    ("finite", "FiniteGroup", "is_subgroup", "finite.is_subgroup"),
    ("finite", "FiniteGroup", "is_normal", "finite.is_normal"),
    ("finite", "FiniteGroup", "normal_subgroups", "finite.normal_subgroups"),
    ("finite", "FiniteGroup", "quotient", "finite.quotient"),
    ("finite", "FiniteGroup", "validate", "finite.validate"),
    ("finite", "FiniteGroup", "element_by_label", "finite.element_by_label"),
    ("groupspec", None, "verify_spec", "groupspec.verify_spec"),
    ("groupspec", None, "is_abelian", "groupspec.is_abelian"),
    ("groupspec", None, "congruence_quotient", "groupspec.congruence_quotient"),
    ("groupspec", None, "center_support", "groupspec.center_support"),
    ("groupspec", None, "center_lattice", "groupspec.center_lattice"),
    ("groupspec", None, "center_vector", "groupspec.center_vector"),
    ("groupspec", None, "in_center_span", "groupspec.in_center_span"),
    ("groupspec", None, "coords_to_element", "groupspec.coords_to_element"),
    ("groupspec", None, "element_coords", "groupspec.element_coords"),
    ("groupspec", None, "preset", "groupspec.preset"),
    ("groupspec", None, "parse_element", "groupspec.parse_element"),
    ("groupspec", None, "torsion_subgroup", "groupspec.torsion_subgroup"),
    ("groupspec", None, "heisenberg_spec", "groupspec.heisenberg_spec"),
    ("groupspec", None, "heis5_spec", "groupspec.heis5_spec"),
    ("groupspec", None, "ut4_spec", "groupspec.ut4_spec"),
    ("groupspec", None, "free_abelian_rank1_spec", "groupspec.free_abelian_rank1_spec"),
    ("groupspec", None, "free_abelian_rank2_spec", "groupspec.free_abelian_rank2_spec"),
    ("conjugacy", None, "conjugate_in_finite", "conjugacy.orbit"),
    ("conjugacy", None, "class2_conjugate", "conjugacy.class2"),
    ("conjugacy", None, "conjugate_in_product", "conjugacy.product"),
    ("conjugacy", None, "enumerate_p_quotient_kernels", "conjugacy.kernels"),
    ("conjugacy", None, "coset_conjugacy_separable", "conjugacy.coset"),
    ("conjugacy", None, "is_conjugacy_p_separable", "conjugacy.p_separable"),
    ("conjugacy", None, "quotient_coset_equivalence", "conjugacy.equivalence"),
    ("separability", None, "classify", "separability.classify"),
    ("separability", None, "make_witness", "separability.make_witness"),
    ("separability", None, "verify_witness_global", "separability.witness_global"),
    ("separability", None, "verify_witness_local", "separability.witness_local"),
    ("separability", None, "separate_elements", "separability.separate"),
    ("separability", None, "scan_tower", "separability.scan"),
    ("separability", None, "residual_depth", "separability.residual_depth"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "run_classify", "cli.run_classify"),
    ("cli", None, "run_witness", "cli.run_witness"),
    ("cli", None, "run_separate", "cli.run_separate"),
    ("cli", None, "run_scan", "cli.run_scan"),
)

# Products: counted and timed in aggregate, no span.  The flag marks residue
# products, which are also charged to the innermost open span's product count.
PRODUCTS = (
    ("unitri", "UTMatrix", "__mul__", "unitri.ut_mul", False),
    ("unitri", "ResidueUT", "__mul__", "unitri.residue_mul", True),
)

# Per-layer metrics as (name, unit, better), in report order.
PER_LAYER = (
    ("unitri.self_s", "s", "lower"),
    ("unitri.residue_mul.count", "count", "lower"),
    ("unitri.residue_mul.s", "s", "lower"),
    ("unitri.ut_mul.count", "count", "lower"),
    ("unitri.reduce_mod.calls", "count", "lower"),
    ("finite.self_s", "s", "lower"),
    ("finite.closure.calls", "count", "lower"),
    ("finite.closure.s", "s", "lower"),
    ("finite.closure.elements", "count", "lower"),
    ("finite.closure.us_per_element", "us", "lower"),
    ("finite.closure.products", "count", "lower"),
    ("finite.classes.s", "s", "lower"),
    ("finite.normal_subgroups.calls", "count", "lower"),
    ("finite.normal_subgroups.s", "s", "lower"),
    ("finite.quotient.calls", "count", "lower"),
    ("finite.quotient.s", "s", "lower"),
    ("finite.direct_product.s", "s", "lower"),
    ("groupspec.self_s", "s", "lower"),
    ("groupspec.congruence_quotient.hits", "count", "higher"),
    ("groupspec.congruence_quotient.misses", "count", "lower"),
    ("groupspec.congruence_quotient.hit_ratio", "ratio", "higher"),
    ("groupspec.congruence_quotient.query_misses", "count", "lower"),
    ("groupspec.verify_spec.calls", "count", "lower"),
    ("groupspec.verify_spec.s", "s", "lower"),
    ("conjugacy.self_s", "s", "lower"),
    ("conjugacy.orbit.calls", "count", "lower"),
    ("conjugacy.orbit.s", "s", "lower"),
    ("conjugacy.orbit.products", "count", "lower"),
    ("conjugacy.class2.calls", "count", "lower"),
    ("conjugacy.class2.s", "s", "lower"),
    ("conjugacy.kernels.s", "s", "lower"),
    ("conjugacy.coset.calls", "count", "lower"),
    ("conjugacy.coset.s", "s", "lower"),
    ("conjugacy.equivalence.s", "s", "lower"),
    ("intlin.self_s", "s", "lower"),
    ("intlin.hnf.calls", "count", "lower"),
    ("intlin.hnf.s", "s", "lower"),
    ("intlin.lattice_contains.calls", "count", "lower"),
    ("intlin.lattice_contains.s", "s", "lower"),
    ("intlin.hnf_per_contains", "ratio", "lower"),
    ("intlin.power_solvable.calls", "count", "lower"),
    ("separability.self_s", "s", "lower"),
    ("separability.witness_local.levels", "count", "lower"),
    ("separability.witness_local.orbit_checked_ratio", "ratio", "higher"),
    ("separability.scan.levels", "count", "lower"),
    ("separability.scan.skipped_ratio", "ratio", "lower"),
    ("separability.separate.calls", "count", "lower"),
    ("separability.separate.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.queries", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _closure_done(tracer, args, kwargs, result, exc):
    # A closure that hits its cap has materialized max_order elements.
    if result is not None:
        tracer.count["finite.closure.elements"] += result.order
    elif exc is not None and type(exc).__name__ == "SizeLimit":
        cap = kwargs.get("max_order", args[1] if len(args) > 1 else 10**6)
        tracer.count["finite.closure.elements"] += cap


def _hnf_done(tracer, args, kwargs, result, exc):
    if tracer.depth["intlin.lattice_contains"]:
        tracer.count["intlin.hnf.in_contains"] += 1


def _witness_local_done(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count["separability.witness_local.levels"] += 1
        tracer.count["separability.witness_local.orbit_checked"] += bool(result.bfs_checked)


def _scan_done(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count["separability.scan.levels"] += len(result.levels)
        tracer.count["separability.scan.skipped"] += sum(
            lv.conjugate is None for lv in result.levels
        )


POST = {
    "finite.closure": _closure_done,
    "intlin.hnf": _hnf_done,
    "separability.witness_local": _witness_local_done,
    "separability.scan": _scan_done,
}


class Tracer:
    """Span recorder.  A span row is [name, start, end, parent, query id,
    child seconds, residue products]; rows stay in memory until write()."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.qid = -1
        self.paused = False  # set while the benchmark builds inputs or checks answers
        self.count = defaultdict(float)
        self.depth = defaultdict(int)
        self._patches = []
        self.origin = perf_counter()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        post = POST.get(name)
        quotient_cache = name == "groupspec.congruence_quotient"

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            spans, stack, depth, count = tracer.spans, tracer.stack, tracer.depth, tracer.count
            parent = stack[-1] if stack else -1
            row = [name, 0.0, 0.0, parent, tracer.qid, 0.0, 0]
            stack.append(len(spans))
            spans.append(row)
            depth[name] += 1
            if quotient_cache:
                before = fn.cache_info()
            result = exc = None
            row[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                row[2] = end = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                if parent >= 0:
                    prow = spans[parent]
                    prow[5] += duration
                    prow[6] += row[6]
                count[name + ".calls"] += 1
                count[layer + ".self_s"] += duration - row[5]
                if not depth[name]:
                    count[name + ".s"] += duration
                    count[name + ".products"] += row[6]
                if quotient_cache:
                    after = fn.cache_info()
                    count[name + ".hits"] += after.hits - before.hits
                    count[name + ".misses"] += after.misses - before.misses
                    if tracer.qid >= 0:
                        count[name + ".query_misses"] += after.misses - before.misses
                if post is not None:
                    post(tracer, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _product(self, key, fn, residue):
        tracer = self

        def counted(a, b):
            if tracer.paused:
                return fn(a, b)
            start = perf_counter()
            result = fn(a, b)
            duration = perf_counter() - start
            count = tracer.count
            count[key + ".count"] += 1
            count[key + ".s"] += duration
            count["unitri.self_s"] += duration
            if tracer.stack:
                prow = tracer.spans[tracer.stack[-1]]
                prow[5] += duration
                if residue:
                    prow[6] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, package: str = "conjsep"):
        modules = [
            m for name, m in sys.modules.items()
            if name == package or name.startswith(package + ".")
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, cls_name, attr, span in SPANS:
            module = by_name[mod_name]
            if cls_name is not None:
                cls = getattr(module, cls_name)
                self._set(cls, attr, self._span(span, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._span(span, original)
            for m in modules:
                namespace = vars(m)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(m, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._set(value, dkey, wrapper)
        for mod_name, cls_name, attr, key, residue in PRODUCTS:
            cls = getattr(by_name[mod_name], cls_name)
            self._set(cls, attr, self._product(key, cls.__dict__[attr], residue))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def metrics(self, queries: int, overhead_ratio: float) -> dict:
        c = self.count

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        c["finite.closure.us_per_element"] = (
            1e6 * c["finite.closure.s"] / c["finite.closure.elements"]
            if c["finite.closure.elements"] else 0.0
        )
        lookups = c["groupspec.congruence_quotient.hits"] + c["groupspec.congruence_quotient.misses"]
        c["groupspec.congruence_quotient.hit_ratio"] = (
            c["groupspec.congruence_quotient.hits"] / lookups if lookups else 0.0
        )
        c["intlin.hnf_per_contains"] = ratio("intlin.hnf.in_contains", "intlin.lattice_contains.calls")
        c["separability.witness_local.orbit_checked_ratio"] = ratio(
            "separability.witness_local.orbit_checked", "separability.witness_local.levels"
        )
        c["separability.scan.skipped_ratio"] = ratio(
            "separability.scan.skipped", "separability.scan.levels"
        )
        c["trace.queries"] = queries
        c["trace.overhead_ratio"] = overhead_ratio
        return {
            name: {"value": int(c[name]) if unit == "count" else c[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }

    def write(self, path):
        """Write every span as tab-separated values, times in microseconds."""
        with open(path, "w") as out:
            out.write("span\tname\tstart_us\tend_us\tparent\tquery\n")
            for i, (name, start, end, parent, qid, _, _) in enumerate(self.spans):
                out.write(
                    f"{i}\t{name}\t{(start - self.origin) * 1e6:.1f}\t"
                    f"{(end - self.origin) * 1e6:.1f}\t{parent}\t{qid}\n"
                )
