"""The benchmark's workloads: seeded query rounds and their oracle checks.

A workload is a fixed list of query templates, one round; every round
shuffles the templates and draws fresh inputs from the seeded generator, so
each round has the same query-type mix and the cost ranks of the templates
stay put from seed to seed.  A query is one user-visible verdict.  Its
prepare step builds the inputs (untimed), its call is the timed request to
conjsep, and its check compares the answer with an oracle from oracles.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import oracles as O
from oracles import expect


@dataclass
class Verdict:
    """A checked answer; verified is False for a budget outcome (no verdict)."""

    verified: bool
    requested: int = 0  # tower levels requested by the query
    decided: int = 0    # tower levels it decided


@dataclass
class Query:
    kind: str
    oracle: str
    prepare: Callable[[], tuple[Callable, Callable]] = field(repr=False)


def lru(fn):
    """The lru_cache object behind a (possibly traced) cached function."""
    while not hasattr(fn, "cache_clear"):
        fn = fn.__wrapped__
    return fn


class Workload:
    name = ""
    trace_rounds = 1          # rounds per phase of a traced run
    expect_nonzero = ()       # traced counters the workload must hit
    expect_zero = ()          # traced counters the workload must not touch

    def setup(self, lib) -> None:
        """Spec construction and warm-up before the first timed query."""
        self.lib = lib
        self.cache = Counter()  # congruence_quotient hits and misses in timed queries

    def templates(self) -> list:
        """(kind, oracle, make) triples; make(rng) returns a Query's prepare."""
        raise NotImplementedError

    def round(self, rng) -> list:
        entries = self.templates()
        rng.shuffle(entries)
        return [Query(kind, oracle, make(rng)) for kind, oracle, make in entries]

    def shape(self, rng) -> Counter:
        """The query-type and oracle mix of one round."""
        return Counter((q.kind, q.oracle) for q in self.round(rng))

    def finish(self) -> None:
        """Checks on the state left behind by a measured phase."""

    def warm_up(self) -> None:
        """Run and check one round before timing starts."""
        for query in self.round(random.Random(0)):
            call, check = query.prepare()
            check(call())


# -- tower-cold: CLI queries, each from an empty quotient cache ---------------

GENERATORS = {
    "heisenberg": ("a", "b"), "heis5": ("a1", "a2", "b1", "b2"), "ut4": ("x12", "x23", "x34"),
}
FINITE_LABELS = {
    "zxd4": ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"),
    "zxq8": ("1", "-1", "i", "-i", "j", "-j", "k", "-k"),
}


def _matrix_group(preset: str) -> str:
    return "heisenberg" if preset == "heisxc2" else preset


def _position(group: str, name: str):
    return dict(O.BASES[group])[name]


def _check_pair(label: str, group: str, a, b, c, u, v, e: int) -> None:
    """c = [a, b], u = a^e, v = u c, and u, v not conjugate in the whole group."""
    expect(O.mul(a, b) == O.mul(O.mul(b, a), c), f"{label}: c != [a, b]")
    expect(u == O.power(a, e) and v == O.mul(u, c), f"{label}: u, v malformed")
    if group in O.PAIRS:
        expect(not O.class2_conjugate(O.class2_coords(group, u), O.class2_coords(group, v)),
               f"{label}: u, v conjugate globally")
        return
    # ut4: c is a power of the central x14, and u ~ v globally would need
    # c to have an e-th root in the centre Z*x14.
    n = len(c)
    corner = (0, n - 1)
    expect(
        all(c[i][j] == int(i == j) for i in range(n) for j in range(n) if (i, j) != corner)
        and c[0][n - 1] % e != 0,
        f"{label}: c = {c} has an {e}-th root in the centre",
    )


def _check_witness(report, preset: str, p: int, depth: int) -> Verdict:
    """The paper's verdict: u and v are non-conjugate, yet conjugate at every level."""
    r = report["result"]
    group = _matrix_group(preset)
    levels = r["tower"]["levels"]
    expect(
        r["tower"]["summary"] == f"conjugate at all {depth} levels"
        and len(levels) == depth and all(lv["conjugate"] is True for lv in levels),
        f"witness {preset} p={p}: tower says {r['tower']['summary']!r}",
    )
    expect(r["b"] in GENERATORS[group], f"witness {preset}: b={r['b']} is not a generator")
    n = O.DIM[group]
    a = tuple(map(tuple, r["a"]["matrix"]))
    b = O.elementary(n, _position(group, r["b"]), 1)
    c = tuple(map(tuple, r["c"]["matrix"]))
    u = tuple(map(tuple, r["u"]["matrix"]))
    v = tuple(map(tuple, r["v"]["matrix"]))
    e = r["divisibility"]["exponent"]
    expect(e == r["q"] ** r["n"] and r["q"] != p, f"witness {preset}: exponent {e}")
    _check_pair(f"witness {preset}", group, a, b, c, u, v, e)
    for loc in r["local_checks"]:
        mod = p ** loc["m"]
        g = O.power(O.reduce(b, mod), loc["k"], mod)
        expect(
            O.conjugates(O.reduce(u, mod), g, O.reduce(v, mod), mod),
            f"witness {preset}: {loc['conjugator']} fails mod {p}^{loc['m']}",
        )
        if group in O.PAIRS:
            expect(O.class2_conjugate(O.class2_coords(group, u), O.class2_coords(group, v), mod),
                   f"witness {preset}: closed form at m={loc['m']}")
    return Verdict(True, depth, depth)


def _check_levels(levels, x, y, group, p, depth) -> Verdict:
    expect(len(levels) == depth, f"scan returned {len(levels)} of {depth} levels")
    decided = 0
    for level, conjugate in levels:
        if conjugate is None:
            continue
        decided += 1
        truth = O.class2_conjugate(x, y, p**level)
        expect(conjugate == truth, f"{group} mod {p}^{level}: {x} vs {y} said {conjugate}")
    return Verdict(True, depth, decided)


def _scan_pair(rng, group: str, p: int, depth: int):
    """Non-negative coordinates with p not dividing the first one, so neither
    image is ever the identity, and images that differ at every level."""
    size = len(O.BASES[group])
    while True:
        x = [rng.randrange(1000) for _ in range(size)]
        if x[0] % p:
            break
    if rng.random() < 0.5:
        while True:
            g = [rng.randrange(-1000, 1000) for _ in range(size)]
            y = list(O.conjugate_by(group, x, g))
            if (y[-1] - x[-1]) % p:
                break
    else:
        y = list(x)
        y[len(O.PAIRS[group])] += rng.choice([d for d in range(1, 2 * p) if d % p])
    # Only the images mod p^k for k <= depth matter to the scan.
    return x, [v % p**depth for v in y]


class TowerCold(Workload):
    name = "tower-cold"
    trace_rounds = 4
    # Caps place the templates' costs apart, so that the median and the 90th
    # percentile each fall inside one deterministic witness template.
    WITNESS = (("heisenberg", 2, 8, 4096), ("heisenberg", 3, 8, 512), ("heis5", 2, 8, 4096),
               ("heis5", 3, 8, 4096), ("ut4", 2, 8, 4096), ("ut4", 3, 8, 4096),
               ("heisxc2", 2, 8, 4096), ("heisxc2", 3, 8, 512))
    SCAN = (("heisenberg", 2, 7, 4096), ("heisenberg", 3, 5, 4096),
            ("heis5", 2, 4, 512), ("heis5", 3, 3, 4096))
    SEPARATE_CAP = 16384
    # (preset or None for a seeded pick, range of j in the gap 2^j * t, or None
    # for a zero gap with non-conjugate finite parts); 2^(j+1) > cap is a budget draw.
    SEPARATE = (("zxd4", (3, 7)), ("zxq8", (11, 12)), (None, None), (None, (14, 17)))
    expect_nonzero = (
        "cli.main.calls", "separability.witness_local.calls", "separability.scan.calls",
        "separability.separate.calls", "finite.closure.calls", "finite.direct_product.calls",
        "conjugacy.orbit.calls", "groupspec.congruence_quotient.misses",
        "groupspec.verify_spec.calls", "intlin.hnf.calls", "intlin.lattice_contains.calls",
        "intlin.power_solvable.calls", "unitri.reduce_mod.calls", "unitri.residue_mul.count",
        "unitri.ut_mul.count",
    )

    def setup(self, lib):
        super().setup(lib)
        warm = [["witness", "--preset", "heisenberg", "-p", "3", "-K", "2", "--max-order", "512"],
                ["scan", "--preset", "heis5", "-p", "3", "-K", "1", "-x", "1,0,0,0,0", "-y", "1,0,1,0,0"],
                ["separate", "--preset", "zxd4", "-p", "2", "-a", "2|r", "-b", "0|s"]]
        for argv in warm:
            self._clear()
            rc, out, err = self._cli(argv)()
            expect(rc == 0, f"warm-up {argv[0]} exited {rc}: {err.strip()}")

    def _clear(self):
        gs = self.lib.groupspec
        for fn in (gs.congruence_quotient, gs.center_support, gs.center_lattice):
            lru(fn).cache_clear()

    def _cli(self, argv):
        main = self.lib.cli.main

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + ["--json"])
            return rc, out.getvalue(), err.getvalue()

        return call

    def _report(self, result, argv):
        """None for a budget outcome; the parsed report when every check passed."""
        rc, out, err = result
        if rc == 1 and not out.strip():
            return None
        expect(rc in (0, 1), f"{' '.join(argv)}: exit {rc}: {err.strip()}")
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        expect(rc == 0 and not failed, f"{' '.join(argv)}: failed checks {failed}")
        return report

    def _query(self, argv, judge):
        def prepare():
            self._clear()
            def check(result):
                info = lru(self.lib.groupspec.congruence_quotient).cache_info()
                self.cache.update(hits=info.hits, misses=info.misses)
                expect(info.misses >= 1, f"{' '.join(argv)}: no quotient-cache miss after a cleared cache")
                report = self._report(result, argv)
                return Verdict(False) if report is None else judge(report)
            return self._cli(argv), check
        return prepare

    def templates(self):
        out = []
        for preset, p, depth, cap in self.WITNESS:
            argv = ["witness", "--preset", preset, "-p", str(p), "-K", str(depth),
                    "--max-order", str(cap)]
            judge = lambda rep, preset=preset, p=p, depth=depth: _check_witness(rep, preset, p, depth)
            out.append(("witness", "witness-all-levels", lambda rng, a=argv, j=judge: self._query(a, j)))
        for group, p, depth, cap in self.SCAN:
            out.append(("scan", "class2-closed-form",
                        lambda rng, g=group, p=p, d=depth, c=cap: self._scan(rng, g, p, d, c)))
        for preset, gap in self.SEPARATE:
            out.append(("separate", "class-table",
                        lambda rng, pr=preset, gap=gap: self._separate(rng, pr, gap)))
        return out

    def _scan(self, rng, group, p, depth, cap):
        x, y = _scan_pair(rng, group, p, depth)
        argv = ["scan", "--preset", group, "-p", str(p), "-K", str(depth), "--max-order", str(cap),
                "-x", ",".join(map(str, x)), "-y", ",".join(map(str, y))]

        def judge(report):
            r = report["result"]
            expect(r["x"]["coords"] == x and r["y"]["coords"] == y, "scan echoed other inputs")
            levels = [(lv["level"], lv["conjugate"]) for lv in r["levels"]]
            return _check_levels(levels, x, y, group, p, depth)

        return self._query(argv, judge)

    def _separate(self, rng, preset, gap_range):
        preset = preset or rng.choice(("zxd4", "zxq8"))
        labels = FINITE_LABELS[preset]
        table = preset[2:]
        if gap_range is None:
            gap = 0
            while True:
                f1, f2 = rng.choice(labels), rng.choice(labels)
                if not O.finite_conjugate(table, f1, f2):
                    break
        else:
            j = rng.randint(*gap_range)
            gap = 2**j * rng.randrange(1, 100, 2)
            f1, f2 = rng.choice(labels), rng.choice(labels)
        argv = ["separate", "--preset", preset, "-p", "2", "--max-order", str(self.SEPARATE_CAP),
                "-a", f"{gap}|{f1}", "-b", f"0|{f2}"]

        def judge(report):
            r = report["result"]
            conjugate = gap == 0 and O.finite_conjugate(table, f1, f2)
            expect(r["outcome"] == ("conjugate" if conjugate else "separated"),
                   f"{' '.join(argv)}: said {r['outcome']}")
            if gap:
                level = 1 + ((gap & -gap).bit_length() - 1)
                branch = "abelian-part"
            else:
                level, branch = 1, "torsion-part"
            expect(
                (r["branch"], r["level"], r["quotient"]["order"]) == (branch, level, 2**level * 8),
                f"{' '.join(argv)}: got {r['branch']} at level {r['level']}",
            )
            return Verdict(True)

        return self._query(argv, judge)


# -- orbit-warm: orbit searches in prebuilt quotients --------------------------


def _orbit_pair(rng, group: str):
    """About half conjugate by a random conjugator; the rest differ off the
    centre, or have all non-central coordinates in pZ and a shifted centre."""
    size = len(O.BASES[group])
    x = [rng.randrange(-1000, 1001) for _ in range(size)]
    pick = rng.random()
    if pick < 0.5:
        g = [rng.randrange(-1000, 1001) for _ in range(size)]
        return x, list(O.conjugate_by(group, x, g))
    y = list(x)
    if pick < 0.75:
        y[rng.randrange(size - 1)] += rng.randrange(1, 1000)
    else:
        x = [6 * v for v in x[:-1]] + [x[-1]]
        y = x[:-1] + [x[-1] + rng.randrange(1, 1000)]
    return x, y


class OrbitWarm(Workload):
    name = "orbit-warm"
    trace_rounds = 1200
    CAP = 32768
    TOPS = (("heisenberg", 2, 5), ("heisenberg", 3, 3), ("heis5", 2, 2))
    expect_nonzero = (
        "conjugacy.orbit.calls", "separability.scan.calls", "groupspec.congruence_quotient.hits",
        "unitri.reduce_mod.calls", "unitri.residue_mul.count", "finite.closure.calls",
    )
    expect_zero = ("groupspec.congruence_quotient.query_misses", "cli.main.calls")

    def setup(self, lib):
        super().setup(lib)
        gs = lib.groupspec
        self.specs = {"heisenberg": gs.heisenberg_spec(), "heis5": gs.heis5_spec()}
        cache = lru(gs.congruence_quotient)
        cache.cache_clear()
        # scan_tower looks levels up as congruence_quotient(spec, p, k, max(cap, 2)),
        # positionally; the key here must be the same one.
        for group, p, top in self.TOPS:
            for k in range(1, top + 1):
                gs.congruence_quotient(self.specs[group], p, k, max(self.CAP, 2))
        misses = cache.cache_info().misses
        self.warm_up()
        info = cache.cache_info()
        expect(info.misses == misses, "warm-up missed the cache")
        self.hits_after_setup, self.misses_after_setup = info.hits, info.misses

    def finish(self):
        info = lru(self.lib.groupspec.congruence_quotient).cache_info()
        self.cache.update(hits=info.hits - self.hits_after_setup,
                          misses=info.misses - self.misses_after_setup)
        expect(self.cache["misses"] == 0, f"{self.cache['misses']} quotient-cache misses after set-up")

    def templates(self):
        out = []
        for group, p, k in self.TOPS:
            out.append(("orbit", "class2-closed-form", lambda rng, g=group, p=p, k=k: self._orbit(rng, g, p, k)))
            out.append(("scan", "class2-closed-form", lambda rng, g=group, p=p, k=k: self._scan(rng, g, p, k)))
        return out

    def _inputs(self, rng, group):
        x, y = _orbit_pair(rng, group)
        unit = self.lib.unitri.UTMatrix
        return x, y, unit(O.from_coords(group, x)), unit(O.from_coords(group, y))

    def _orbit(self, rng, group, p, k):
        x, y, xm, ym = self._inputs(rng, group)
        spec, mod = self.specs[group], p**k

        def prepare():
            gs, conj = self.lib.groupspec, self.lib.conjugacy

            def call():
                quot, hom = gs.congruence_quotient(spec, p, k, max(self.CAP, 2))
                return conj.conjugate_in_finite(quot, hom(xm), hom(ym))

            def check(answer):
                truth = O.class2_conjugate(x, y, mod)
                expect(answer.conjugate == truth, f"{group} mod {p}^{k}: {x} vs {y} said {answer.conjugate}")
                if truth:
                    expect(O.conjugates(O.reduce(xm.rows, mod), answer.conjugator.rows,
                                        O.reduce(ym.rows, mod), mod),
                           f"{group} mod {p}^{k}: returned conjugator fails")
                return Verdict(True)

            return call, check

        return prepare

    def _scan(self, rng, group, p, k):
        x, y, xm, ym = self._inputs(rng, group)
        spec = self.specs[group]

        def prepare():
            sep = self.lib.separability

            def call():
                return sep.scan_tower(spec, xm, ym, p, k, max_order=self.CAP)

            def check(scan):
                return _check_levels([(lv.level, lv.conjugate) for lv in scan.levels], x, y, group, p, k)

            return call, check

        return prepare


# -- lattice-global: exact decisions in the infinite groups --------------------


class LatticeGlobal(Workload):
    name = "lattice-global"
    trace_rounds = 500
    WITNESS_GROUPS = ("heisenberg", "heis5", "ut4")
    PRIMES = (2, 3, 5, 7)
    expect_nonzero = (
        "conjugacy.class2.calls", "intlin.hnf.calls", "intlin.lattice_contains.calls",
        "intlin.power_solvable.calls", "separability.witness_local.calls",
        "separability.witness_global.calls", "separability.classify.calls",
        "groupspec.verify_spec.calls", "unitri.ut_mul.count",
    )
    expect_zero = ("finite.closure.calls", "conjugacy.orbit.calls", "cli.main.calls",
                   "groupspec.congruence_quotient.calls")

    def setup(self, lib):
        super().setup(lib)
        gs, sep = lib.groupspec, lib.separability
        self.products = {name: gs.preset(name) for name in gs.preset_names()}
        self.specs = {name: self.products[name].matrix_part for name in O.MATRIX_ABELIAN}
        self.witnesses = {
            (g, p): sep.make_witness(self.specs[g], p) for g in self.WITNESS_GROUPS for p in self.PRIMES
        }
        self.warm_up()

    def templates(self):
        out = []
        for group in ("heisenberg", "heis5"):
            for conjugate in (True, False):
                out.append(("class2", "class2-closed-form",
                            lambda rng, g=group, c=conjugate: self._class2(rng, g, c)))
        out.append(("witness-global", "global-non-conjugacy", self._witness_global))
        out.append(("witness-local", "naive-residue-products", self._witness_local))
        out.append(("witness-local", "naive-residue-products", self._witness_local))
        out.append(("classify", "criterion-table", self._classify))
        out.append(("verify-spec", "preset-valid", self._verify_spec))
        return out

    def _class2(self, rng, group, conjugate):
        size = len(O.BASES[group])
        if conjugate:
            x = [rng.randint(-10**6, 10**6) for _ in range(size)]
            g = [rng.randint(-10**6, 10**6) for _ in range(size)]
            y = list(O.conjugate_by(group, x, g))
        else:
            d = rng.randrange(2, 1000)
            x = [d * rng.randint(-1000, 1000) for _ in range(size - 1)] + [rng.randint(-10**6, 10**6)]
            y = x[:-1] + [x[-1] + d * rng.randint(-1000, 1000) + rng.randrange(1, d)]
        xm, ym = O.from_coords(group, x), O.from_coords(group, y)
        spec = self.specs[group]

        def prepare():
            unit, conj = self.lib.unitri.UTMatrix, self.lib.conjugacy
            xu, yu = unit(xm), unit(ym)

            def check(answer):
                truth = O.class2_conjugate(x, y)
                expect(answer.conjugate == truth, f"{group}: {x} vs {y} said {answer.conjugate}")
                if truth:
                    expect(O.conjugates(xm, answer.conjugator.rows, ym), f"{group}: conjugator fails")
                return Verdict(True)

            return (lambda: conj.class2_conjugate(spec, xu, yu)), check

        return prepare

    def _witness_global(self, rng):
        group, p = rng.choice(self.WITNESS_GROUPS), rng.choice(self.PRIMES)
        spec = self.specs[group]

        def prepare():
            sep = self.lib.separability

            def call():
                witness = sep.make_witness(spec, p)
                return witness, sep.verify_witness_global(spec, witness)

            def check(result):
                w, verification = result
                expect(verification.passed, f"witness {group} p={p}: global check failed")
                a, b, c, u, v = (m.rows for m in (w.a, w.b, w.c, w.u, w.v))
                e = w.q**w.n
                expect(w.q != p and all(w.q % d for d in range(2, w.q)), f"witness {group}: q={w.q}")
                _check_pair(f"witness {group} p={p}", group, a, b, c, u, v, e)
                return Verdict(True)

            return call, check

        return prepare

    def _witness_local(self, rng):
        group, p = rng.choice(self.WITNESS_GROUPS), rng.choice(self.PRIMES)
        m = rng.randint(10, 40)
        spec, w = self.specs[group], self.witnesses[(group, p)]
        mod = p**m

        def prepare():
            sep = self.lib.separability

            def check(loc):
                g = O.reduce(loc.conjugator.rows, mod)
                expect(O.conjugates(O.reduce(w.u.rows, mod), g, O.reduce(w.v.rows, mod), mod),
                       f"witness {group} p={p}: conjugator fails mod {p}^{m}")
                return Verdict(True, 1, 1)

            return (lambda: sep.verify_witness_local(spec, w, m, bfs_cap=0)), check

        return prepare

    def _classify(self, rng):
        name, p = rng.choice(sorted(self.products)), rng.choice((2, 3, 5))
        group = self.products[name]

        def prepare():
            sep = self.lib.separability

            def check(verdict):
                expect(verdict.separable == O.separable(name, p),
                       f"classify {name} p={p} said {verdict.separable}")
                return Verdict(True)

            return (lambda: sep.classify(group, p)), check

        return prepare

    def _verify_spec(self, rng):
        name = rng.choice(sorted(self.specs))
        spec = self.specs[name]

        def prepare():
            gs = self.lib.groupspec

            def check(verification):
                expect(verification.passed, f"verify_spec rejected preset {name}")
                return Verdict(True)

            return (lambda: gs.verify_spec(spec)), check

        return prepare


# -- coset-lab: subgroup lattices of small finite groups -----------------------


def _corpus():
    """(name, constructor, primes, order of the normal subgroup drawn for the
    equivalence query or None for any, fresh instances per round); the
    constructors take the conjsep.finite module.  The small groups come
    several times a round so that each round holds enough queries besides
    the D4xQ8 enumeration, which takes most of a round's time."""
    return (
        ("S3", lambda f: f.sym3(), (2, 3), None, 2),
        ("D4", lambda f: f.dihedral4(), (2,), None, 2),
        ("Q8", lambda f: f.quaternion8(), (2,), None, 2),
        ("C6", lambda f: f.cyclic(6), (2, 3), None, 2),
        ("D4xC2", lambda f: f.direct_product(f.dihedral4(), f.cyclic(2), name="D4xC2"), (2,), 8, 4),
        ("Q8xC2xC2", lambda f: f.direct_product(
            f.direct_product(f.quaternion8(), f.cyclic(2)), f.cyclic(2), name="Q8xC2xC2"), (2,), 2, 2),
        ("D4xQ8", lambda f: f.direct_product(f.dihedral4(), f.quaternion8(), name="D4xQ8"), (2,), 32, 1),
    )


class CosetLab(Workload):
    name = "coset-lab"
    trace_rounds = 2
    COSET_QUERIES = 3
    expect_nonzero = (
        "conjugacy.kernels.calls", "conjugacy.coset.calls", "conjugacy.equivalence.calls",
        "finite.normal_subgroups.calls", "finite.quotient.calls", "finite.classes.calls",
        "finite.direct_product.calls",
    )
    expect_zero = ("finite.closure.calls", "cli.main.calls", "unitri.residue_mul.count")

    def setup(self, lib):
        super().setup(lib)
        self.verified = {}  # (group, normal subgroup) -> naive check already passed
        group = lib.finite.sym3()
        lib.conjugacy.enumerate_p_quotient_kernels(group, 3)

    def round(self, rng):
        """Fresh instances, one block per group in seeded order; within a block
        the kernels query, then the equivalence, then the coset queries, so
        each query finds the instance's caches in the same state every round."""
        blocks = [entry[:4] for entry in _corpus() for _ in range(entry[4])]
        rng.shuffle(blocks)
        queries = []
        for name, build, primes, n_order in blocks:
            state = {"name": name}
            queries.append(Query("kernels", "naive-subgroups", self._kernels(rng, state, build, primes)))
            queries.append(Query("equivalence", "p-group-rule", self._equivalence(rng, state, n_order)))
            queries.extend(Query("coset", "naive-coset", self._coset(rng, state))
                           for _ in range(self.COSET_QUERIES))
        return queries

    def _kernels(self, rng, state, build, primes):
        p = rng.choice(primes)
        name = state["name"]

        def prepare():
            fin, conj = self.lib.finite, self.lib.conjugacy

            def call():
                group = build(fin)
                return group, conj.enumerate_p_quotient_kernels(group, p)

            def check(result):
                group, kernels = result
                normals = group.normal_subgroups()
                naive = O.NaiveGroup(group.elements, group.mul, group.identity)
                for sub in normals:
                    key = (name, sub)
                    if key not in self.verified:
                        expect(naive.closed_and_normal(sub), f"{name}: a listed subgroup is not normal")
                        self.verified[key] = True
                if name in O.NORMAL_COUNTS:
                    expect(len(normals) == O.NORMAL_COUNTS[name], f"{name}: {len(normals)} normal subgroups")
                want = tuple(n for n in normals if O.p_power(group.order // len(n), p))
                expect(tuple(kernels) == want, f"{name}: kernels p={p} are not the p-power-index normals")
                if (name, p) in O.KERNEL_COUNTS:
                    expect(len(kernels) == O.KERNEL_COUNTS[(name, p)], f"{name}: {len(kernels)} kernels p={p}")
                state.update(group=group, naive=naive, normals=normals, p=p)
                return Verdict(True)

            return call, check

        return prepare

    def _kernels_for(self, state, p):
        group = state["group"]
        return tuple(n for n in state["normals"] if O.p_power(group.order // len(n), p))

    def _coset(self, rng, state):
        def prepare():
            group, naive, conj = state["group"], state["naive"], self.lib.conjugacy
            p = state["p"]
            sub = rng.choice(state["normals"])
            rep, probe = rng.choice(group.elements), rng.choice(group.elements)

            def call():
                return conj.coset_conjugacy_separable(conj.CosetQuery(group, sub, rep, probe, p))

            def check(answer):
                coset = {naive.op(rep, n) for n in sub}
                orbit = naive.conjugacy_class(probe)
                name = state["name"]
                decision = answer.decision.value
                if decision == "vacuous":
                    expect(bool(orbit & coset), f"{name}: vacuous, yet the probe misses the coset")
                elif decision == "yes":
                    expect(answer.kernel in self._kernels_for(state, p), f"{name}: separating kernel unknown")
                    expect(not orbit & naive.product_set(coset, answer.kernel),
                           f"{name}: the kernel does not separate")
                else:
                    expect(not O.p_power(group.order, p), f"{name}: a {p}-group said no")
                    expect(not orbit & coset and all(
                        orbit & naive.product_set(coset, k) for k in self._kernels_for(state, p)
                    ), f"{name}: said no, yet some kernel separates")
                return Verdict(True)

            return call, check

        return prepare

    def _equivalence(self, rng, state, n_order):
        def prepare():
            group, p, conj = state["group"], state["p"], self.lib.conjugacy
            sub = rng.choice([n for n in state["normals"] if n_order in (None, len(n))])

            def check(report):
                name = state["name"]
                expect(report.holds, f"{name}: coset equivalence fails ({report.detail})")
                if O.p_power(group.order // len(sub), p):
                    expect(report.all_cosets_separable and report.quotient_separable,
                           f"{name}: a {p}-group quotient reported inseparable")
                return Verdict(True)

            return (lambda: conj.quotient_coset_equivalence(group, sub, p)), check

        return prepare


WORKLOADS = {w.name: w for w in (TowerCold, OrbitWarm, LatticeGlobal, CosetLab)}
